"""The oracle's per-message loop, kept as the reference the array oracle must match.

This is ``fogndt.oracle.execute_schedule`` as it was written one message and
one sub-slice at a time, unchanged but for ``_span``, which finds one cell of
the cell index by binary search.  Tests compare its ``DecodeReport`` and its
``DecodeFailure`` with the array oracle's.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from fogndt.model import DemandVector, GroupIndex
from fogndt.oracle import DecodeFailure, DecodeReport, GroupStats, PayloadRecord
from fogndt.placement import PlacementRealization, pack_label
from fogndt.scheduler import CODED_MULTICAST, DeliverySchedule, fronthaul_payloads


def _span(index, label: int) -> slice:
    """The range of one cell of the cell index; empty when nothing landed there."""
    key = index.labels.dtype.type(label)
    return slice(index.labels.searchsorted(key), index.labels.searchsorted(key, "right"))


def _slice_bounds(length: int, pieces: int) -> list[tuple[int, int]]:
    """Split [0, length) into near-equal chunks; earlier chunks take the remainder."""
    base, rem = divmod(length, pieces)
    cuts = [k * base + min(k, rem) for k in range(pieces + 1)]
    return list(zip(cuts, cuts[1:]))


class _SubSlice(NamedTuple):
    cells: list[np.ndarray]  # each constituent's view of its user's coverage, in ``ue_group`` order
    start: int
    end: int
    bits: np.ndarray  # this slice of the message's XOR


_ABSENT = _SubSlice([], 0, 0, np.empty(0, dtype=np.uint8))


def _record(records, channel, group, ue_group, coop, cache_sets, bits: np.ndarray) -> None:
    """Keep one nonempty payload, hex-packed; ``records`` is None when payloads are not kept."""
    if records is not None and bits.size:
        hex_bits = np.packbits(bits).tobytes().hex()
        records.append(PayloadRecord(channel, *group, ue_group, coop, cache_sets, hex_bits, bits.size))


def reference_execute_schedule(
    placement: PlacementRealization,
    demand: DemandVector,
    schedule: DeliverySchedule,
    record_payloads: bool = False,
) -> DecodeReport:
    """Run the full two-hop delivery, checking every decode and counting every bit."""
    cfg = schedule.cfg
    if placement.cfg != cfg:
        raise ValueError("placement and schedule were built for different configurations")
    if demand != schedule.demand:
        raise ValueError("demand does not match the one the schedule was built for")
    demand.validated(cfg)
    nr = cfg.num_ues
    file_size = placement.file_size_bits

    # Each user's demanded file in label order, and the bits of it the user already holds.
    indices = [placement.cell_indices(file_id) for file_id in demand.demands]
    user_bits = [pack_label((q,), (), cfg) for q in range(1, nr + 1)]
    covered = [(index.labels & bit).astype(bool) for index, bit in zip(indices, user_bits)]

    fronthaul_total = 0
    tau_a_emp = 0.0
    padding_total = 0
    access_by_coop: dict[int, int] = {}
    per_group: dict[GroupIndex, GroupStats] = {}
    records: list[PayloadRecord] = [] if record_payloads else None

    for group in sorted(schedule.groups):
        plan = schedule.groups[group]
        m, n = group
        coop_level = plan.coop_level

        # Materialize messages; each sub-message owns one slice of
        # its message, keyed by (user group, cache set, cooperation set).
        subs: dict[tuple, _SubSlice] = {}
        naive_fh = 0
        coops_of = plan.sub_messages
        for ue_group, cache in plan.messages:
            coops = coops_of[cache]
            # Constituent q is user q's demanded file at the message's label without q.
            whole = pack_label(ue_group, cache, cfg)
            spans = [(q, _span(indices[q - 1], whole & ~user_bits[q - 1])) for q in ue_group]
            cells = [covered[q - 1][span] for q, span in spans]
            xor = np.zeros(max(cell.size for cell in cells), dtype=np.uint8)
            for q, span in spans:
                xor[: span.stop - span.start] ^= indices[q - 1].bits[span]
            length = xor.size
            padding_total += (m + 1) * length - sum(cell.size for cell in cells)
            naive_fh += length
            for coop, (a, b) in zip(coops, _slice_bounds(length, len(coops))):
                subs[(ue_group, cache, coop)] = _SubSlice(cells, a, b, xor[a:b])

        # Fronthaul hop: each payload XORs the sub-messages its cache sets
        # name.  An edge node of the cooperation set decodes a payload when it
        # caches all of them but one, which must be a sub-message of the plan.
        group_fh = 0
        decoded: dict[tuple, set[int]] = {}
        for tx in plan.fronthaul:
            keys = [(tx.ue_group, cache, tx.coop_set) for cache in tx.cache_sets]
            pieces = [subs.get(key, _ABSENT).bits for key in keys]
            payload_len = max((piece.size for piece in pieces), default=0)
            payload = np.zeros(payload_len, dtype=np.uint8)
            for piece in pieces:
                payload[: piece.size] ^= piece
                padding_total += payload_len - piece.size
            group_fh += payload_len
            _record(records, "fronthaul", group, tx.ue_group, tx.coop_set, tx.cache_sets, payload)
            for p in tx.coop_set:
                unknown = [k for k, cache in enumerate(tx.cache_sets) if p not in cache]
                if len(unknown) == 1:
                    (k,) = unknown
                    if keys[k] not in subs:
                        raise DecodeFailure(("en", p), keys[k], tx.cache_sets[k])
                    decoded.setdefault(keys[k], set()).add(p)
        # Every edge node of a cooperation set now holds each sub-message it sends.
        for key in subs:
            _, cache, coop = key
            missing = set(coop).difference(cache, decoded.get(key, ()))
            if missing:
                raise DecodeFailure(("en", min(missing)), key, cache)
        fronthaul_total += group_fh
        coded_fh = group_fh
        if plan.mode != CODED_MULTICAST:
            # The coded-multicast cost of the same sub-messages (0 at n = 0).
            coded_fh = 0
            for ue_group, coop in dict.fromkeys((ue_group, coop) for ue_group, _, coop in subs):
                for caches in fronthaul_payloads(coop, n, CODED_MULTICAST):
                    coded_fh += max(subs.get((ue_group, c, coop), _ABSENT).bits.size for c in caches)

        # Access hop: every sub-message slice is one multicast payload.
        loads = [0] * nr
        group_access = 0
        for (ue_group, cache, coop), (cells, a, b, payload) in subs.items():
            size = b - a
            if size == 0:
                continue
            group_access += size
            _record(records, "access", group, ue_group, coop, (cache,), payload)
            # Each user caches every constituent but its own, so it recovers
            # and covers its own stretch of this slice.
            for q, cover in zip(ue_group, cells):
                loads[q - 1] += size
                cover[a:b] = True
        access_by_coop[coop_level] = access_by_coop.get(coop_level, 0) + group_access
        max_load = max(loads) if loads else 0
        # Summed in ascending (m, n) order, as the analytic breakdown is.
        tau_a_emp += (max_load / file_size) / plan.dof_value
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

    return DecodeReport(
        per_ue_success=tuple(bool(c.all()) for c in covered),
        fronthaul_bits=fronthaul_total,
        access_bits_by_coop=access_by_coop,
        padding_overhead_bits=padding_total,
        empirical_tau_f=(fronthaul_total / file_size) / cfg.fronthaul_r,
        empirical_tau_a=tau_a_emp,
        file_size_bits=file_size,
        seed=placement.seed,
        per_group=per_group,
        payloads=tuple(records) if record_payloads else None,
    )
