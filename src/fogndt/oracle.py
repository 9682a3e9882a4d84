"""Bit-exact execution of a delivery schedule against a placement realization.

The oracle materializes every coded payload from realized subfile bits,
re-derives each addressed node's decode (edge nodes over the fronthaul,
users over the access link), and checks the result against ground truth,
counting every transmitted bit along the way.  Realized cells have unequal
sizes at finite file length, so XOR constituents are zero-padded to the
longest participant; the padding is tracked separately and vanishes
relative to the file size as it grows.

Any decode mismatch raises :class:`DecodeFailure`: decodability is a
combinatorial identity under zero-padding, so a failure always means a
scheme or accounting bug, never noise.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dof import DofProvider, per_user_dof_default
from .model import DemandVector, GroupIndex, NetworkConfig, binom
from .placement import PlacementRealization
from .scheduler import CODED_MULTICAST, DeliverySchedule, coop_sets_for


class DecodeFailure(Exception):
    """A node failed to recover a constituent it is entitled to decode."""

    def __init__(self, node: tuple[str, int], message_key, missing) -> None:
        super().__init__(
            f"{node[0]} {node[1]} failed to decode {missing} from message {message_key}"
        )
        self.node = node
        self.message_key = message_key
        self.missing = missing


class GroupStats(NamedTuple):
    fronthaul_bits: int
    naive_fronthaul_bits: int
    coded_fronthaul_bits: int
    access_bits: int
    max_per_ue_access_bits: int
    coop_level: int
    mode: str
    chosen_i: int


class PayloadRecord(NamedTuple):
    channel: str
    m: int
    n: int
    ue_group: tuple[int, ...]
    coop_set: tuple[int, ...]
    cache_sets: tuple[tuple[int, ...], ...]
    payload_hex: str
    bit_len: int


@dataclass(frozen=True)
class DecodeReport:
    """Outcome and bit accounting of one schedule execution."""

    per_ue_success: tuple[bool, ...]
    fronthaul_bits: int
    access_bits_by_coop: dict[int, int]
    padding_overhead_bits: int
    empirical_tau_f: float
    empirical_tau_a: float
    file_size_bits: int
    seed: int | None
    per_group: dict[GroupIndex, GroupStats]
    payloads: tuple[PayloadRecord, ...] | None = None

    def to_dict(self) -> dict:
        doc = {
            "per_ue_success": list(self.per_ue_success),
            "fronthaul_bits": self.fronthaul_bits,
            "access_bits_by_coop": {str(j): b for j, b in sorted(self.access_bits_by_coop.items())},
            "padding_overhead_bits": self.padding_overhead_bits,
            "empirical_tau_f": self.empirical_tau_f,
            "empirical_tau_a": self.empirical_tau_a,
            "empirical_tau": self.empirical_tau_f + self.empirical_tau_a,
            "file_size_bits": self.file_size_bits,
            "seed": self.seed,
            "groups": [
                {
                    "m": g.m,
                    "n": g.n,
                    "mode": s.mode,
                    "cooperation_increment": s.chosen_i,
                    "cooperation_level": s.coop_level,
                    "fronthaul_bits": s.fronthaul_bits,
                    "naive_fronthaul_bits": s.naive_fronthaul_bits,
                    "coded_fronthaul_bits": s.coded_fronthaul_bits,
                    "access_bits": s.access_bits,
                    "max_per_ue_access_bits": s.max_per_ue_access_bits,
                }
                for g, s in sorted(self.per_group.items())
            ],
        }
        if self.payloads is not None:
            doc["payloads"] = [rec._asdict() for rec in self.payloads]
        return doc


def _slice_bounds(length: int, pieces: int) -> list[tuple[int, int]]:
    """Split [0, length) into near-equal chunks; earlier chunks take the remainder."""
    base, rem = divmod(length, pieces)
    cuts = [k * base + min(k, rem) for k in range(pieces + 1)]
    return list(zip(cuts, cuts[1:]))


def _padded_slice(bits: np.ndarray, start: int, end: int) -> np.ndarray:
    """bits[start:end] of a conceptually zero-padded array."""
    out = np.zeros(end - start, dtype=np.uint8)
    if start < bits.size:
        stop = min(end, bits.size)
        out[: stop - start] = bits[start:stop]
    return out


class _MessageData(NamedTuple):
    ue_group: tuple[int, ...]
    en_cache_set: tuple[int, ...]
    parts: list[np.ndarray]
    xor: np.ndarray
    slice_of: dict[tuple[int, ...], tuple[int, int]]  # cooperation set -> its slice, in order


def _record(records, channel, group, ue_group, coop, cache_sets, bits: np.ndarray) -> None:
    """Keep one nonempty payload, hex-packed; ``records`` is None when payloads are not kept."""
    if records is not None and bits.size:
        hex_bits = np.packbits(bits).tobytes().hex()
        records.append(PayloadRecord(channel, *group, ue_group, coop, cache_sets, hex_bits, bits.size))


def execute_schedule(
    placement: PlacementRealization,
    demand: DemandVector,
    schedule: DeliverySchedule,
    record_payloads: bool = False,
) -> DecodeReport:
    """Run the full two-hop delivery and verify every decode bit for bit."""
    cfg = schedule.cfg
    if placement.cfg != cfg:
        raise ValueError("placement and schedule were built for different configurations")
    if demand != schedule.demand:
        raise ValueError("demand does not match the one the schedule was built for")
    demand.validated(cfg)
    nr, nt = cfg.num_ues, cfg.num_ens
    file_size = placement.file_size_bits

    # Bits each user already holds of its own demanded file.
    covered = []
    for q in range(1, nr + 1):
        labels = placement.bit_labels[demand.demands[q - 1] - 1]
        covered.append(((labels >> np.uint32(q - 1)) & np.uint32(1)).astype(bool))

    fronthaul_total = 0
    padding_total = 0
    access_by_coop: dict[int, int] = {}
    per_group: dict[GroupIndex, GroupStats] = {}
    records: list[PayloadRecord] = [] if record_payloads else None

    for group in sorted(schedule.groups):
        plan = schedule.groups[group]
        m, n = group
        coop_level = plan.coop_level

        # Materialize realized messages in lexicographic order.
        msg_data: list[_MessageData] = []
        msg_index: dict[tuple, _MessageData] = {}
        pieces = binom(nt - n, plan.chosen_i)
        for msg in plan.messages:
            parts = [
                placement.cell_bits(lbl.file_id, lbl.cached_ues, lbl.cached_ens)
                for lbl in msg.constituents
            ]
            length = max(p.size for p in parts)
            xor = np.zeros(length, dtype=np.uint8)
            for p in parts:
                xor[: p.size] ^= p
            padding_total += (m + 1) * length - sum(p.size for p in parts)
            coops = coop_sets_for(msg.en_cache_set, plan.chosen_i, cfg)
            slice_of = dict(zip(coops, _slice_bounds(length, pieces)))
            data = _MessageData(msg.ue_group, msg.en_cache_set, parts, xor, slice_of)
            msg_data.append(data)
            msg_index[(msg.ue_group, msg.en_cache_set)] = data

        # Fronthaul hop.
        group_fh = 0
        naive_fh = 0
        coded_fh = 0
        if n == 0:
            # Bare subfiles go out whole to all edge nodes: nothing is cached
            # to combine against, so there is no coded-multicast count either.
            for data in msg_data:
                (full_set,) = data.slice_of
                naive_fh += data.xor.size
                group_fh += data.xor.size
                _record(records, "fronthaul", group, data.ue_group, full_set, (data.en_cache_set,), data.xor)
        else:
            ue_groups = sorted({data.ue_group for data in msg_data})
            coded_mode = plan.mode == CODED_MULTICAST
            for coop in itertools.combinations(range(1, nt + 1), coop_level):
                for ue_group in ue_groups:
                    slices = {}
                    for cache in itertools.combinations(coop, n):
                        data = msg_index[(ue_group, cache)]
                        a, b = data.slice_of[coop]
                        slices[cache] = (data.xor[a:b], b - a)
                        naive_fh += b - a
                        if not coded_mode:
                            _record(records, "fronthaul", group, ue_group, coop, (cache,), data.xor[a:b])
                    for decode_set in itertools.combinations(coop, n + 1):
                        caches = list(itertools.combinations(decode_set, n))
                        payload_len = max(slices[c][1] for c in caches)
                        coded_fh += payload_len
                        if not coded_mode:
                            continue
                        payload = np.zeros(payload_len, dtype=np.uint8)
                        for c in caches:
                            piece, size = slices[c]
                            payload[:size] ^= piece
                            padding_total += payload_len - size
                        _record(records, "fronthaul", group, ue_group, coop, tuple(caches), payload)
                        # Each edge node of the decode set cancels its n cached
                        # sub-messages and must recover exactly the missing one.
                        for p in decode_set:
                            target = tuple(x for x in decode_set if x != p)
                            residual = payload.copy()
                            for c in caches:
                                if p in c:
                                    piece, size = slices[c]
                                    residual[:size] ^= piece
                            truth, size = slices[target]
                            if not np.array_equal(residual[:size], truth) or residual[size:].any():
                                raise DecodeFailure(
                                    ("en", p), (ue_group, target, coop), target
                                )
            group_fh = coded_fh if coded_mode else naive_fh
        fronthaul_total += group_fh

        # Access hop: every sub-message slice is one multicast payload.
        loads = [0] * nr
        group_access = 0
        for data in msg_data:
            for coop, (a, b) in data.slice_of.items():
                size = b - a
                if size == 0:
                    continue
                group_access += size
                payload = data.xor[a:b]
                _record(records, "access", group, data.ue_group, coop, (data.en_cache_set,), payload)
                for pos, q in enumerate(data.ue_group):
                    loads[q - 1] += size
                    residual = payload.copy()
                    for other, part in enumerate(data.parts):
                        if other != pos:
                            residual ^= _padded_slice(part, a, b)
                    want = data.parts[pos]
                    if not np.array_equal(residual, _padded_slice(want, a, b)):
                        raise DecodeFailure(
                            ("ue", q),
                            (data.ue_group, data.en_cache_set, coop),
                            (q, tuple(u for u in data.ue_group if u != q), data.en_cache_set),
                        )
                    # Mark the recovered stretch of the demanded file as covered.
                    idx = placement.cell_indices(
                        demand.demands[q - 1],
                        tuple(u for u in data.ue_group if u != q),
                        data.en_cache_set,
                    )
                    stop = min(b, idx.size)
                    if stop > a:
                        covered[q - 1][idx[a:stop]] = True
        access_by_coop[coop_level] = access_by_coop.get(coop_level, 0) + group_access
        max_load = max(loads) if loads else 0
        per_group[group] = GroupStats(
            fronthaul_bits=group_fh,
            naive_fronthaul_bits=naive_fh,
            coded_fronthaul_bits=coded_fh,
            access_bits=group_access,
            max_per_ue_access_bits=max_load,
            coop_level=coop_level,
            mode=plan.mode,
            chosen_i=plan.chosen_i,
        )

    access = [(s.max_per_ue_access_bits, schedule.groups[g].dof_value) for g, s in per_group.items()]
    tau_f_emp, tau_a_emp = _empirical_times(fronthaul_total, access, file_size, cfg.fronthaul_r)
    return DecodeReport(
        per_ue_success=tuple(bool(c.all()) for c in covered),
        fronthaul_bits=fronthaul_total,
        access_bits_by_coop=access_by_coop,
        padding_overhead_bits=padding_total,
        empirical_tau_f=tau_f_emp,
        empirical_tau_a=tau_a_emp,
        file_size_bits=file_size,
        seed=placement.seed,
        per_group=per_group,
        payloads=tuple(records) if record_payloads else None,
    )


def verify_decodability(report: DecodeReport) -> list[int]:
    """Ids of users that failed to reconstruct their file; empty means success."""
    return [q for q, ok in enumerate(report.per_ue_success, start=1) if not ok]


def _empirical_times(fronthaul_bits: int, access, file_size: int, r: float) -> tuple[float, float]:
    """Fronthaul and access times of realized loads; ``access`` holds, per group
    in ascending (m, n) order, the busiest user's access bits and their DoF."""
    tau_a = 0.0
    for max_bits, d in access:
        tau_a += (max_bits / file_size) / d
    return (fronthaul_bits / file_size) / r, tau_a


def empirical_ndt(
    report: DecodeReport, cfg: NetworkConfig, dof: DofProvider = per_user_dof_default
) -> tuple[float, float, float]:
    """Delivery times implied by realized loads under the given DoF provider."""
    access = [
        (s.max_per_ue_access_bits, dof(g.m, s.coop_level, cfg))
        for g, s in sorted(report.per_group.items())
    ]
    tau_f, tau_a = _empirical_times(report.fronthaul_bits, access, report.file_size_bits, cfg.fronthaul_r)
    return tau_f, tau_a, tau_f + tau_a
