"""Bit-exact execution of a delivery schedule against a placement realization.

The oracle counts every transmitted bit of a two-hop delivery.  Realized
cells have unequal sizes at finite file length, so XOR constituents are
zero-padded to the longest participant; the padding is tracked separately
and vanishes relative to the file size.

Every reported number depends only on the plan's index sets and on each
demanded file's cell counts, read in two stages.  The schedule stage reads
the plan alone, in array operations over its index sets, and raises every
error a plan can cause before any count is read.  The count stage reads one
table per distinct demanded file of its bits under each of the ``2^(n_r +
n_t)`` labels (at most twice the message count) and computes lengths,
padding, slice cuts, loads and coverage with no loop per message or slice.
Payload bits are made, bit-exact from the realized file contents, only when
they are recorded, and only they read the sorted cell index.

Decodability is a property of index sets, and the oracle checks it there,
with cache sets as node bitmasks.  An edge node decodes a fronthaul payload
when it caches all its sub-messages but one, and must end the hop holding
every sub-message its cooperation set sends, else :class:`DecodeFailure` is
raised for the first failure in the plan's order.  A user decodes its slice
of an access payload because it caches every other constituent; a user left
short of bits of its demanded file reads False in ``per_ue_success``.
Either failure means a scheme or accounting bug, never noise.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import DemandVector, GroupIndex
from .placement import PlacementRealization
from .scheduler import CODED_MULTICAST, DeliverySchedule, fronthaul_payloads


class DecodeFailure(Exception):
    """Edge node ``node = ("en", p)`` lacks a sub-message its cooperation set sends."""

    def __init__(self, node: tuple[str, int], message_key, missing) -> None:
        super().__init__(f"{node[0]} {node[1]} failed to decode {missing} from message {message_key}")
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


class _TupleIds(dict):
    """Small ids for node-id tuples, in order of first sight, and each tuple's node bitmask
    (bit ``x - 1`` for node ``x``)."""

    def __init__(self) -> None:
        super().__init__()
        self.masks: list[int] = []

    def __missing__(self, nodes: tuple[int, ...]) -> int:
        mask = 0
        for x in nodes:
            mask |= 1 << (x - 1)
        self[nodes] = len(self.masks)
        self.masks.append(mask)
        return self[nodes]

    def of(self, tuples, count: int) -> np.ndarray:
        return np.fromiter(map(self.__getitem__, tuples), np.int64, count)


def _lengths(items, count: int) -> np.ndarray:
    return np.fromiter(map(len, items), np.int64, count)


def _starts(sizes) -> np.ndarray:
    """Where each of consecutive runs of ``sizes`` begins, then where the last one ends."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


def _segment_max(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The largest of each run of ``counts[j]`` consecutive values; 0 for an empty run."""
    out = np.zeros(counts.size, dtype=np.int64)
    nonempty = counts > 0
    if values.size:
        out[nonempty] = np.maximum.reduceat(values, _starts(counts)[:-1][nonempty])
    return out


def _find(sorted_keys: np.ndarray, found: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """``found[j]`` for each key equal to ``sorted_keys[j]``, -1 for any other key;
    ``sorted_keys`` ascends and ends in a sentinel above every key."""
    at = sorted_keys.searchsorted(keys)
    return np.where(sorted_keys[at] == keys, found[at], -1)


def _xor_ranges(out: np.ndarray, out_at, src: np.ndarray, src_at, sizes, slot) -> None:
    """XOR each ``src[src_at[j] :][: sizes[j]]`` into ``out`` at ``out_at[j]``, in one
    gather per value of ``slot``; the ranges of ``out`` in one slot must not overlap."""
    for r in range(int(slot.max(initial=-1)) + 1):
        j = (slot == r).nonzero()[0]
        z = sizes[j]
        ramp = np.arange(int(z.sum())) - np.repeat(z.cumsum() - z, z)
        out[np.repeat(out_at[j], z) + ramp] ^= src[np.repeat(src_at[j], z) + ramp]


def _hex(bits: np.ndarray) -> str:
    return np.packbits(bits).tobytes().hex()


def execute_schedule(
    placement: PlacementRealization,
    demand: DemandVector,
    schedule: DeliverySchedule,
    record_payloads: bool = False,
) -> DecodeReport:
    """Run the full two-hop delivery, checking every decode and counting every bit.

    The schedule stage checks the plan on its index sets, then the count stage reads one
    count table per distinct demanded file (:meth:`PlacementRealization.cell_counts`,
    ``2^(n_r + n_t)`` entries), so the report reads no payload bit and builds no sorted cell
    index.  With ``record_payloads`` every payload is also built from
    :meth:`PlacementRealization.cell_indices` and kept."""
    cfg = schedule.cfg
    if placement.cfg != cfg:
        raise ValueError("placement and schedule were built for different configurations")
    if demand != schedule.demand:
        raise ValueError("demand does not match the one the schedule was built for")
    demand.validated(cfg)
    return _schedule_stage(schedule)(placement, record_payloads)


def _schedule_stage(schedule: DeliverySchedule):
    """Read a schedule's index sets into arrays, raising every ValueError and DecodeFailure its
    plan can cause; return the count stage, which reports on one placement of its config."""
    cfg, demand = schedule.cfg, schedule.demand
    nr, nt = cfg.num_ues, cfg.num_ens
    groups = sorted(schedule.groups)
    plans = [schedule.groups[g] for g in groups]

    # The plans' index sets, group after group, as arrays: messages with their
    # cooperation sets, fronthaul transmissions with their cache sets.  Each
    # node-id tuple becomes a small id with a node bitmask.
    ue_groups, caches, coop_lists, txs = [], [], [], []
    msg_counts, tx_counts = [], []
    for plan in plans:
        coops_of = plan.sub_messages
        pairs = tuple(zip(*plan.messages)) or ((), ())
        ue_groups += pairs[0]
        caches += pairs[1]
        coop_lists += map(coops_of.__getitem__, pairs[1])
        txs += plan.fronthaul
        msg_counts.append(len(pairs[0]))
        tx_counts.append(len(plan.fronthaul))
    ids = _TupleIds()
    count_m, count_t = len(ue_groups), len(txs)
    ue_id, cache_id = ids.of(ue_groups, count_m), ids.of(caches, count_m)
    width, ways = _lengths(ue_groups, count_m), _lengths(coop_lists, count_m)
    user = np.fromiter(itertools.chain.from_iterable(ue_groups), np.int64, int(width.sum()))
    sub_coop = ids.of(itertools.chain.from_iterable(coop_lists), int(ways.sum()))
    tx_ues, tx_coops, tx_caches = tuple(zip(*txs)) or ((), (), ())
    pieces = _lengths(tx_caches, count_t)
    tx_ue, tx_coop = ids.of(tx_ues, count_t), ids.of(tx_coops, count_t)
    piece_cache = ids.of(itertools.chain.from_iterable(tx_caches), int(pieces.sum()))
    masks = np.array(ids.masks, dtype=np.int64)
    msg_group = np.arange(len(plans)).repeat(msg_counts)
    msg_first, tx_first = _starts(msg_counts), _starts(tx_counts)

    # Constituent k of a message is user q = ue_group[k]'s demanded file at
    # the message's label without q.
    ue_mask, cache_mask = masks[ue_id], masks[cache_id]
    if ((ue_mask >> nr) | (cache_mask >> nt)).any():
        raise ValueError("a message names a node outside the network")
    msg_of = np.arange(count_m).repeat(width)
    label = (ue_mask | cache_mask << nr)[msg_of] & ~(1 << (user - 1))
    group_m, group_n = np.array(groups, dtype=np.int64).reshape(-1, 2).T
    sub_msg = np.arange(count_m).repeat(ways)
    k = np.arange(sub_msg.size) - (ways.cumsum() - ways)[sub_msg]
    sub_group, sub_cache = msg_group[sub_msg], cache_id[sub_msg]

    # Fronthaul hop: each payload XORs the sub-messages its cache sets name,
    # looked up by key (group, user group, cache set, cooperation set).
    n_ids = len(ids.masks)
    never = np.iinfo(np.int64).max
    if len(plans) * n_ids**3 >= never:
        raise ValueError("schedule too large for the oracle's sub-message keys")
    sub_key = ((sub_group * n_ids + ue_id[sub_msg]) * n_ids + sub_cache) * n_ids + sub_coop
    key_order = sub_key.argsort(kind="stable")
    sorted_keys, key_sub = np.append(sub_key[key_order], never), np.append(key_order, -1)
    if (sorted_keys[1:] == sorted_keys[:-1]).any():
        raise ValueError("a plan lists a sub-message twice")
    tx_of = np.arange(count_t).repeat(pieces)
    tx_group = np.arange(len(plans)).repeat(tx_counts)
    position = np.arange(tx_of.size) - (pieces.cumsum() - pieces)[tx_of]
    piece_key = ((tx_group * n_ids + tx_ue)[tx_of] * n_ids + piece_cache) * n_ids + tx_coop[tx_of]
    piece_sub = _find(sorted_keys, key_sub, piece_key)
    sent = (piece_sub >= 0).nonzero()[0]

    # An edge node of the cooperation set decodes a payload when it caches
    # all of its sub-messages but one: the node is in exactly one piece's set
    # of cooperating nodes that do not cache it.  That piece must be a
    # sub-message of the plan, and every edge node of a cooperation set must
    # end the hop holding each sub-message it sends.  The first failure is
    # raised: in group order, and within a group a transmission's (in plan
    # order, then in cooperation-set order) before the end of the hop's.
    unknown = masks[tx_coop][tx_of] & ~masks[piece_cache]
    seen = np.zeros(count_t, dtype=np.int64)
    twice = np.zeros(count_t, dtype=np.int64)
    for r in range(int(pieces.max(initial=0))):
        at = (position == r).nonzero()[0]
        t, u = tx_of[at], unknown[at]
        twice[t] |= seen[t] & u
        seen[t] |= u
    decodes = unknown & (seen & ~twice)[tx_of]
    decoded = np.zeros(sub_key.size, dtype=np.int64)
    np.bitwise_or.at(decoded, piece_sub[sent], decodes[sent])
    missing = masks[sub_coop] & ~masks[sub_cache] & ~decoded
    bad_piece = ((piece_sub < 0) & (decodes != 0)).nonzero()[0]
    bad_sub = missing.nonzero()[0]
    if bad_piece.size and (not bad_sub.size or tx_group[tx_of[bad_piece[0]]] <= sub_group[bad_sub[0]]):
        tx = txs[tx_of[bad_piece[0]]]
        failing = bad_piece[tx_of[bad_piece] == tx_of[bad_piece[0]]]
        p = next(p for p in tx.coop_set if (decodes[failing] >> (p - 1) & 1).any())
        cache = tx.cache_sets[position[failing[(decodes[failing] >> (p - 1) & 1).argmax()]]]
        raise DecodeFailure(("en", p), (tx.ue_group, cache, tx.coop_set), cache)
    if bad_sub.size:
        s, j = bad_sub[0], sub_msg[bad_sub[0]]
        lowest = int(missing[s]) & -int(missing[s])
        raise DecodeFailure(("en", lowest.bit_length()), (ue_groups[j], caches[j], coop_lists[j][k[s]]), caches[j])

    # The coded-multicast cost of the same sub-messages, for groups sent
    # otherwise: each user group and cooperation set of the group gets the
    # payloads fronthaul_payloads lists in coded mode (none at n = 0), each
    # with its group and its pieces' sub-messages (-1 for one the plan lacks),
    # and the count stage costs each payload at its longest piece.
    naive = np.array([plan.mode != CODED_MULTICAST for plan in plans], dtype=bool)
    # Deduplicated through the stable argsort used above: np.unique imports
    # numpy.ma and np.sort pages in another sort, together 1.7 MB of peak
    # RSS on a 5x5 simulate.
    pair = ((sub_group * n_ids + ue_id[sub_msg]) * n_ids + sub_coop)[naive[sub_group]]
    pair = pair[pair.argsort(kind="stable")]
    pair = pair[np.diff(pair, prepend=-1) != 0]
    pair_group, pair_coop = pair // n_ids**2, pair % n_ids
    pair_n = group_n[pair_group]
    tuples = list(ids)
    coded_sub, coded_pieces, coded_group = ([np.zeros(0, dtype=np.int64)] for _ in range(3))
    for coop, n in set(zip(pair_coop.tolist(), pair_n.tolist())):
        payloads = fronthaul_payloads(tuples[coop], n, CODED_MULTICAST)
        these = ((pair_coop == coop) & (pair_n == n)).nonzero()[0]
        cache = np.array([ids.get(c, -1) for sets in payloads for c in sets], dtype=np.int64)
        keys = ((pair[these] // n_ids)[:, None] * n_ids + cache) * n_ids + coop
        coded_sub.append(_find(sorted_keys, key_sub, np.where(cache < 0, -1, keys).ravel()))
        coded_pieces.append(np.tile(_lengths(payloads, len(payloads)), these.size))
        coded_group.append(pair_group[these].repeat(len(payloads)))
    coded_sub, coded_pieces, coded_group = map(np.concatenate, (coded_sub, coded_pieces, coded_group))
    sub_first = _starts(ways)[msg_first]
    group_user = msg_group[msg_of] * (nr + 1) + user

    def count_stage(placement: PlacementRealization, record_payloads: bool) -> DecodeReport:
        # A constituent's bit count is read from its user's row of the count
        # tables, one per distinct demanded file.  A user decodes its file when
        # the cells with its own bit and the distinct cells it recovers hold it.
        file_size = placement.file_size_bits
        counted = {file_id: placement.cell_counts(file_id) for file_id in dict.fromkeys(demand.demands)}
        tables = np.stack([counted[file_id] for file_id in demand.demands])
        count = tables[user - 1, label]
        covered = (np.arange(tables.shape[1]) >> np.arange(nr)[:, None] & 1).astype(bool)
        covered[user - 1, label] = True
        success = tuple((np.where(covered, tables, 0).sum(axis=1) == file_size).tolist())

        # Each message is zero-padded to its longest constituent and lies at
        # msg_at in one buffer holding every message in order.  Each
        # sub-message owns one near-equal slice of its message, earlier slices
        # taking the remainder.
        length = _segment_max(count, width)
        msg_at = length.cumsum() - length
        naive_fh = np.diff(_starts(length)[msg_first])
        padding_total = int(((group_m + 1) * naive_fh).sum()) - int(count.sum())
        base, rem = np.divmod(length, np.maximum(ways, 1))
        base, rem = base[sub_msg], rem[sub_msg]
        sub_at = msg_at[sub_msg] + k * base + np.minimum(k, rem)
        sub_size = base + (k < rem)
        piece_size = np.zeros(tx_of.size, dtype=np.int64)
        piece_size[sent] = sub_size[piece_sub[sent]]
        payload_len = _segment_max(piece_size, pieces)
        payload_at = payload_len.cumsum() - payload_len
        group_fh = np.diff(_starts(payload_len)[tx_first])
        padding_total += int((pieces * payload_len).sum()) - int(piece_size.sum())
        coded_cost = _segment_max(np.where(coded_sub < 0, 0, sub_size[coded_sub]), coded_pieces)
        coded_fh = np.where(naive, 0, group_fh)
        coded_fh += np.bincount(coded_group, weights=coded_cost, minlength=len(plans)).astype(np.int64)

        # Access hop: every sub-message slice is one multicast payload; its
        # users cache every constituent but their own, so each recovers its own.
        group_access = np.diff(_starts(sub_size)[sub_first])
        loads = np.bincount(group_user, weights=length[msg_of], minlength=len(plans) * (nr + 1))
        max_load = loads.reshape(len(plans), nr + 1).max(axis=1, initial=0).astype(np.int64)

        # Payload bits are made only when they are recorded.  A constituent's
        # cell starts, in its file's sorted index, at the exclusive prefix sum
        # of its count table at its label, and that range must hold its label
        # alone.  Cells are XORed into one buffer of every message at msg_at,
        # sent pieces into their payloads at payload_at, one gather per
        # position in the message or transmission.  Records go group by group,
        # fronthaul in transmission order, then access in sub-message order.
        records: list[PayloadRecord] = [] if record_payloads else None
        if records is not None:
            labels, cell_bits = (np.concatenate(side) for side in zip(*map(placement.cell_indices, demand.demands)))
            start = (tables.cumsum(axis=1) - tables)[user - 1, label]
            src, full = (user - 1) * file_size + start, count > 0
            ends = src[full], (src + count - 1)[full]
            if ((start < 0) | (start + count > file_size)).any() or any((labels[e] != label[full]).any() for e in ends):
                raise RuntimeError("cell counts disagree with the sorted cell index")
            xor = np.zeros(int(length.sum()), dtype=np.uint8)
            slot = np.arange(user.size) - (width.cumsum() - width)[msg_of]
            _xor_ranges(xor, msg_at[msg_of], cell_bits, src, count, slot)
            fronthaul = np.zeros(int(payload_len.sum()), dtype=np.uint8)
            subs = piece_sub[sent]
            _xor_ranges(fronthaul, payload_at[tx_of[sent]], xor, sub_at[subs], sub_size[subs], position[sent])
            # Transmissions and sub-messages are both listed group after group.
            fh = zip(txs, payload_at.tolist(), payload_len.tolist())
            access = zip(sub_msg.tolist(), k.tolist(), sub_at.tolist(), sub_size.tolist())
            for (m, n), tx_count, sub_count in zip(groups, tx_counts, np.diff(sub_first).tolist()):
                for tx, a, z in itertools.islice(fh, tx_count):
                    if z:
                        records.append(PayloadRecord("fronthaul", m, n, *tx, _hex(fronthaul[a : a + z]), z))
                for j, c, a, z in itertools.islice(access, sub_count):
                    if z:
                        bits = _hex(xor[a : a + z])
                        records.append(PayloadRecord("access", m, n, ue_groups[j], coop_lists[j][c], (caches[j],), bits, z))

        tau_a_emp = 0.0
        access_by_coop: dict[int, int] = {}
        per_group: dict[GroupIndex, GroupStats] = {}
        # One Python int per group and column, in GroupStats' field order.
        columns = zip(*(c.tolist() for c in (group_fh, naive_fh, coded_fh, group_access, max_load)))
        for group, plan, (fh, naive_bits, coded_bits, access_bits, load) in zip(groups, plans, columns):
            access_by_coop[plan.coop_level] = access_by_coop.get(plan.coop_level, 0) + access_bits
            # Summed in ascending (m, n) order, as the analytic breakdown is.
            tau_a_emp += (load / file_size) / plan.dof_value
            per_group[group] = GroupStats(
                fh, naive_bits, coded_bits, access_bits, load, plan.coop_level, plan.mode, plan.chosen_i
            )
        fronthaul_total = int(group_fh.sum())
        return DecodeReport(
            per_ue_success=success,
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

    return count_stage
