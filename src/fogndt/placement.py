"""Random per-bit cache placement and its analytic subfile-size calculus.

Every bit of every file carries a label: the set of users and the set of
edge nodes that cached it.  Labels are sampled independently per bit with
inclusion probabilities ``mu_r`` (users) and ``mu_t`` (edge nodes), so each
cell (the bits of one file sharing one label) is a Bernoulli draw whose
expected fraction is the closed product form returned by
:func:`fractional_size`.  Cache-size budgets therefore hold in expectation
rather than per realization.  Only the labels decide a delivery's cost, so a
seeded realization holds its labels alone and draws its file contents from
the seed when they are first read.
"""
from __future__ import annotations

import itertools
import operator
import os
import threading
from dataclasses import InitVar, dataclass
from functools import cached_property, partial
from typing import Iterable, NamedTuple

import numpy as np

from .model import NetworkConfig, config_from_dict, config_to_dict, short_repr
from .scheduler import _cache_factors

# Labels are packed into unsigned masks of at most 32 bits: low num_ues bits
# for users, the next num_ens bits for edge nodes.
_MAX_PACKED_NODES = 30

# Bits per block of label and content draws, which bounds each sampling
# thread's scratch to about a MB, and of labels counted at once.
_LABEL_CHUNK_BITS = 1 << 15

REPLAY_FORMAT = "fogndt-placement/1"


def _label_type(cfg: NetworkConfig) -> np.dtype:
    """The narrowest unsigned type that holds every packed label of ``cfg``; ValueError over the cap."""
    nodes = cfg.num_ues + cfg.num_ens
    if nodes > _MAX_PACKED_NODES:
        raise ValueError(f"at most {_MAX_PACKED_NODES} nodes supported, got {nodes}")
    return np.min_scalar_type((1 << nodes) - 1)


def fractional_size(m: int, n: int, cfg: NetworkConfig) -> float:
    """Expected fraction of a file cached at a fixed set of m users and n edge nodes: group
    ``(m, n)``'s ``f`` from the scheduler's factors, bit for bit up to the sign of a zero."""
    if not 0 <= m <= cfg.num_ues:
        raise ValueError(f"m outside [0, {cfg.num_ues}]: {m}")
    if not 0 <= n <= cfg.num_ens:
        raise ValueError(f"n outside [0, {cfg.num_ens}]: {n}")
    mr, qr = _cache_factors(cfg.mu_r, cfg.num_ues)[m]
    mt, qt = _cache_factors(cfg.mu_t, cfg.num_ens)[n]
    return mr * qr * mt * qt


def pack_label(ue_set: Iterable[int], en_set: Iterable[int], cfg: NetworkConfig) -> int:
    """Pack 1-based user and edge-node id sets into one integer mask."""
    mask = 0
    for q in ue_set:
        if not 1 <= q <= cfg.num_ues:
            raise ValueError(f"user id outside [1, {cfg.num_ues}]: {q}")
        mask |= 1 << (q - 1)
    for p in en_set:
        if not 1 <= p <= cfg.num_ens:
            raise ValueError(f"edge-node id outside [1, {cfg.num_ens}]: {p}")
        mask |= 1 << (cfg.num_ues + p - 1)
    return mask


def unpack_label(label: int, cfg: NetworkConfig) -> tuple[tuple[int, ...], tuple[int, ...]]:
    ues = tuple(q for q in range(1, cfg.num_ues + 1) if label >> (q - 1) & 1)
    ens = tuple(p for p in range(1, cfg.num_ens + 1) if label >> (cfg.num_ues + p - 1) & 1)
    return ues, ens


class CellIndex(NamedTuple):
    """One file's packed labels, sorted stably, and its bits in the same order."""

    labels: np.ndarray
    bits: np.ndarray


@dataclass(frozen=True, eq=False)
class PlacementRealization:
    """Per-bit cache labels plus the file contents they apply to.

    ``bit_labels[f, b]`` is the packed label of bit ``b`` of file ``f + 1``
    and ``file_bits[f, b]`` the bit value itself.  Contents have one source:
    a seeded placement is built without them and draws them from its seed
    when ``file_bits`` is first read; a hand-built one (seed None) holds the
    ``contents`` it is given, or labels alone (None).  Construction is the
    one check of the data: both arrays have shape ``(num_files,
    file_size_bits)``, labels are integers in ``[0, 2^(num_ues + num_ens))``
    (else ValueError naming the first bad file and its label) stored in
    ``_label_type(cfg)``, and contents are 0s and 1s stored as uint8, so
    readers trust them.  :meth:`cell_counts` is a file's bits per label, one
    table of ``2^(num_ues + num_ens)`` entries, counted anew on each call;
    :meth:`cell_indices` is a file's sorted index for bit-level work, built
    when first asked for and cached.  Instances are immutable and compare by identity.
    """

    cfg: NetworkConfig
    file_size_bits: int
    seed: int | None
    bit_labels: np.ndarray
    contents: InitVar[np.ndarray | None]

    def __post_init__(self, contents: np.ndarray | None) -> None:
        label_type = _label_type(self.cfg)
        shape, labels = (self.cfg.num_files, self.file_size_bits), np.asarray(self.bit_labels)
        if labels.dtype.kind not in "iu" or labels.shape != shape or not labels.size:
            raise ValueError(f"bit_labels must be nonempty integers shaped {shape}, got {labels.dtype} {labels.shape}")
        if contents is not None:
            if self.seed is not None:
                raise ValueError("a seeded placement draws its file_bits from the seed; pass None")
            bits = np.asarray(contents)
            if bits.shape != shape:
                raise ValueError(f"file_bits must have shape {shape}, got {bits.shape}")
            if bits.dtype.kind not in "biu" or bits.min() < 0 or bits.max() > 1:
                raise ValueError(f"file_bits must hold only 0 and 1, got {bits.dtype} from {bits.min()} to {bits.max()}")
            object.__setattr__(self, "file_bits", bits.astype(np.uint8, copy=False))
        top = (1 << (self.cfg.num_ues + self.cfg.num_ens)) - 1
        lo, hi = labels.min(axis=1), labels.max(axis=1)
        bad = (lo < 0) | (hi > top)
        if bad.any():
            f = int(bad.argmax())
            raise ValueError(f"file {f + 1} holds a label outside the network: {hi[f] if hi[f] > top else lo[f]}")
        object.__setattr__(self, "bit_labels", labels.astype(label_type, copy=False))

    @cached_property
    def file_bits(self) -> np.ndarray:
        """The contents, uint8 0s and 1s; ValueError for a placement of labels alone."""
        if self.seed is None:
            raise ValueError("placement holds labels only: it has no file_bits")
        return _draw_contents(self.seed, self.bit_labels.shape)

    @cached_property
    def _cells(self) -> dict[int, CellIndex]:
        return {}

    def cell_indices(self, file_id: int) -> CellIndex:
        """One file's labels and bits in stable label order; each cell is one contiguous range."""
        row = self._row(file_id)
        if row not in self._cells:
            labels = self.bit_labels[row]
            order = np.argsort(labels, kind="stable")
            self._cells[row] = CellIndex(labels[order], self.file_bits[row][order])
        return self._cells[row]

    def cell_counts(self, file_id: int) -> np.ndarray:
        """How many bits of one file carry each packed label, as int64.

        ``bincount`` copies its input to intp, so labels are counted in pieces
        of ``_LABEL_CHUNK_BITS`` bits, or of the table's ``2^(num_ues +
        num_ens)`` entries if more: no int64 copy of a file's labels is made.
        Construction has put every label inside the table.
        """
        labels = self.bit_labels[self._row(file_id)]
        size = 1 << (self.cfg.num_ues + self.cfg.num_ens)
        step = max(size, _LABEL_CHUNK_BITS)
        table = np.zeros(size, dtype=np.int64)
        for a in range(0, labels.size, step):
            table += np.bincount(labels[a : a + step], minlength=size)
        return table

    def _row(self, file_id: int) -> int:
        if not 1 <= file_id <= self.cfg.num_files:
            raise ValueError(f"unknown file id: {file_id}")
        return file_id - 1


def sample_placement(
    cfg: NetworkConfig, file_size_bits: int, seed: int, *, _workers: int | None = None
) -> PlacementRealization:
    """Draw one placement realization, deterministic in (cfg, file_size_bits, seed).

    Only labels are drawn here: contents and labels come from two streams
    spawned from the seed, and the contents are drawn on their first read,
    by a sampled or a replayed realization alike.  The label stream is read
    by position, so the draw is split over the CPUs the process may run on,
    at most one per ``_LABEL_CHUNK_BITS`` bits, without changing a byte.
    ``_workers`` sets the split, for tests.
    """
    file_size_bits = _exact_int(file_size_bits, "file_size_bits", "a positive integer", 1)
    seed = _exact_int(seed, "seed", "a non-negative integer", 0)
    label_type = _label_type(cfg)
    _, label_ss = np.random.SeedSequence(seed).spawn(2)
    try:
        labels = np.zeros((cfg.num_files, file_size_bits), dtype=label_type)
    except MemoryError:
        raise ValueError(f"file_size_bits too large to allocate: {file_size_bits}") from None
    total = labels.size
    workers = _workers or max(1, min(_cpu_count(), total // _LABEL_CHUNK_BITS))
    cuts = [total * w // workers for w in range(workers)] + [total]
    _run_joined(
        [partial(_draw_share, cfg, label_ss, labels, start, stop) for start, stop in zip(cuts, cuts[1:])]
    )
    return PlacementRealization(cfg, file_size_bits, seed, labels, None)


def _draw_share(
    cfg: NetworkConfig, label_ss: np.random.SeedSequence, labels: np.ndarray, start: int, stop: int
) -> None:
    """Labels of the flat (file, bit) positions [start, stop).

    Both sides of a bit are drawn in one share, since both OR into its label.
    """
    size = labels.shape[1]
    per_file = size * (cfg.num_ues + cfg.num_ens)
    bitgen = np.random.PCG64(label_ss)
    rng = np.random.Generator(bitgen)
    position = 0
    most = min(stop - start, _LABEL_CHUNK_BITS)
    scratch = np.empty(most * max(cfg.num_ues, cfg.num_ens))
    # One byte per draw plus 8 of padding; spent doubles hold the packed words.
    hits, words = np.zeros(scratch.size + 8, dtype=bool), scratch.view(np.uint64)[:most]
    spare = scratch[most:].view(labels.dtype)[:most]
    for f in range(start // size, -(-stop // size)):
        row = labels[f]
        lo, hi = max(start - f * size, 0), min(stop - f * size, size)
        # Per file, the label stream holds every bit's user doubles, then every
        # bit's edge-node doubles, bit-major; each side is entered at bit lo.
        sides = (
            (0, cfg.num_ues, cfg.mu_r, f * per_file),
            (cfg.num_ues, cfg.num_ens, cfg.mu_t, f * per_file + size * cfg.num_ues),
        )
        for shift, nodes, mu, offset in sides:
            bitgen.advance(offset + lo * nodes - position)
            position = offset + hi * nodes
            for a in range(lo, hi, _LABEL_CHUNK_BITS):
                chunk = row[a : min(a + _LABEL_CHUNK_BITS, hi)]
                np.less(rng.random(out=scratch[: chunk.size * nodes]), mu, out=hits[: chunk.size * nodes])
                _pack_hits(hits, nodes, shift, words, spare, chunk)


def _pack_hits(hits: np.ndarray, nodes: int, shift: int, words: np.ndarray, spare: np.ndarray, out: np.ndarray) -> None:
    """Node k's hit of bit i, ``hits[i * nodes + k]``, ORed into bit ``shift + k`` of ``out[i]``.
    ``hits`` runs 7 bytes on; ``words`` (uint64) and ``spare`` (``out``'s type) are scratch."""
    n, word, spare = out.size, words[: out.size], spare[: out.size]
    for b in range(0, nodes, 8):
        # Every byte is 0 or 1; with w = min(8, nodes - b), byte k < w of the little-endian
        # word at b + i * nodes is node b + k's hit of bit i.  Times sum_{j<w} 2^(56-7j),
        # byte k adds 2^(56+8k-7j) per j: k = j lands on bit 56 + j, k > j at bit 64 or
        # above (gone), and k < j below 56, each (k, j) on its own bit, so nothing carries.
        spread = np.uint64(sum(1 << (56 - 7 * j) for j in range(min(8, nodes - b))))
        np.multiply(np.ndarray((n,), "<u8", hits, b, (nodes,)), spread, out=word)
        np.left_shift(np.right_shift(word, 56, out=word), shift + b, out=word)
        np.copyto(spare, word, casting="unsafe")
        out |= spare


def _draw_contents(seed: int, shape: tuple[int, int]) -> np.ndarray:
    """The file contents of the placement seeded with ``seed``, from the first stream it spawns.

    Content bit i is the top bit of byte i of the content stream's raw 64-bit
    outputs read little-endian: the bytes ``Generator.integers(0, 2,
    dtype=np.uint8)`` draws, at a fraction of its cost.
    """
    content_ss, _ = np.random.SeedSequence(seed).spawn(2)
    bitgen = np.random.PCG64(content_ss)
    out = np.empty(shape, dtype=np.uint8)
    flat = out.reshape(-1)
    for a in range(0, flat.size, _LABEL_CHUNK_BITS):
        piece = flat[a : a + _LABEL_CHUNK_BITS]
        raw = bitgen.random_raw(-(-piece.size // 8)).astype("<u8", copy=False).view(np.uint8)
        np.right_shift(raw[: piece.size], 7, out=piece)
    return out


def _run_joined(tasks: list) -> None:
    """Run the first task in this thread and each other one in its own thread.

    Every thread is joined before the first failure, in task order, is raised.
    """
    errors: list[BaseException | None] = [None] * len(tasks)

    def run(k: int) -> None:
        try:
            tasks[k]()
        except BaseException as exc:
            errors[k] = exc

    threads = [threading.Thread(target=run, args=(k,)) for k in range(1, len(tasks))]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _exact_int(value, name: str, rule: str, minimum: int) -> int:
    """``value`` as a Python int: no bool, taken by ``operator.index``, at least ``minimum``."""
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if number >= minimum:
                return number
    raise ValueError(f"{name} must be {rule}: {short_repr(value)}")


def _index_ranges(idx: np.ndarray) -> list[list[int]]:
    """Compress nonempty ascending indices into half-open [start, end) runs."""
    cuts = np.r_[0, np.flatnonzero(np.diff(idx) != 1) + 1, idx.size]
    return np.column_stack((idx[cuts[:-1]], idx[cuts[1:] - 1] + 1)).tolist()


def placement_to_replay(p: PlacementRealization) -> dict:
    """JSON-ready replay form: cells as label -> count plus bit ranges.

    When the realization was seeded, file contents are regenerated from the
    seed on load; hand-built realizations (seed None) embed the raw contents,
    so a labels-only one raises ValueError.
    """
    files = []
    for f, labels in enumerate(p.bit_labels):
        # Only replay needs bit positions, so the order is recomputed here.
        order = np.argsort(labels, kind="stable")
        sorted_keys = labels[order]
        cuts = [0, *(np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1).tolist(), order.size]
        cells = []
        for a, b in zip(cuts, cuts[1:]):
            ues, ens = unpack_label(int(sorted_keys[a]), p.cfg)
            cells.append(
                {
                    "ues": list(ues),
                    "ens": list(ens),
                    "count": b - a,
                    "ranges": _index_ranges(order[a:b]),
                }
            )
        files.append({"file": f + 1, "cells": cells})
    doc = {
        "format": REPLAY_FORMAT,
        "seed": p.seed,
        "config": config_to_dict(p.cfg),
        "file_size_bits": p.file_size_bits,
        "files": files,
    }
    if p.seed is None:
        doc["file_bits_hex"] = [np.packbits(bits).tobytes().hex() for bits in p.file_bits]
    return doc


def placement_from_replay(doc: dict) -> PlacementRealization:
    """Rebuild a realization from :func:`placement_to_replay` output.

    Every bit of every file must be labelled exactly once: file ids are
    exactly 1..num_files, and each cell's ranges are integer, ascending,
    nonempty and inside the file.  Anything else, a missing key or a field
    of the wrong type included, raises ValueError.
    """
    try:
        return _placement_from_replay(doc)
    except (KeyError, TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"malformed replay: {type(exc).__name__}: {exc}") from None


def _placement_from_replay(doc: dict) -> PlacementRealization:
    if doc.get("format") != REPLAY_FORMAT:
        raise ValueError(f"unsupported replay format: {short_repr(doc.get('format'))}")
    cfg = config_from_dict(doc["config"])
    size = _exact_int(doc["file_size_bits"], "file_size_bits", "a positive integer", 1)
    seed = doc["seed"]
    if seed is not None:
        seed = _exact_int(seed, "seed", "a non-negative integer or null", 0)
    try:
        labels = np.empty((cfg.num_files, size), dtype=_label_type(cfg))
    except MemoryError:
        raise ValueError(f"file_size_bits too large to allocate: {size}") from None
    seen: set[int] = set()
    for entry in doc["files"]:
        file_id = entry["file"]
        if not type(file_id) is int or not 1 <= file_id <= cfg.num_files or file_id in seen:
            raise ValueError(f"file ids must be 1..{cfg.num_files}, each once; got {short_repr(file_id)}")
        seen.add(file_id)
        labels[file_id - 1] = _file_labels(file_id, entry["cells"], size, cfg)
    if len(seen) != cfg.num_files:
        missing = sorted(set(range(1, cfg.num_files + 1)) - seen)
        raise ValueError(f"replay has no entry for files {missing}")
    if seed is not None:
        return PlacementRealization(cfg, size, seed, labels, None)
    blobs = doc["file_bits_hex"]
    if len(blobs) != cfg.num_files:
        raise ValueError(f"file_bits_hex holds {len(blobs)} files, expected {cfg.num_files}")
    file_bits = np.empty((cfg.num_files, size), dtype=np.uint8)
    for f, blob in enumerate(blobs):
        raw = np.frombuffer(bytes.fromhex(blob), dtype=np.uint8)
        if raw.size != (size + 7) // 8:
            raise ValueError(f"file_bits_hex of file {f + 1} holds {raw.size} bytes")
        file_bits[f] = np.unpackbits(raw, count=size)
    return PlacementRealization(cfg, size, seed, labels, file_bits)


def _file_labels(file_id: int, cells: list, size: int, cfg: NetworkConfig) -> np.ndarray:
    """One file's labels from its replay cells, which must label every bit exactly once."""
    cell_labels, counts, per_cell, ranges = [], [], [], []
    for cell in cells:
        if not all(type(node) is int for node in (*cell["ues"], *cell["ens"])):
            nodes = f"{short_repr(cell['ues'])}, {short_repr(cell['ens'])}"
            raise ValueError(f"file {file_id}: node ids must be integers: {nodes}")
        cell_labels.append(pack_label(cell["ues"], cell["ens"], cfg))
        # Exact ints only: a bool or a float would equal the bits its ranges hold.
        if type(cell["count"]) is not int:
            raise ValueError(f"file {file_id}: cell count must be an integer: {short_repr(cell['count'])}")
        counts.append(cell["count"])
        # Exact ints only: numpy would take a bool as 0 or 1.
        if not all(type(start) is int and type(end) is int for start, end in cell["ranges"]):
            raise ValueError(f"file {file_id}: cell ranges must be pairs of integers")
        per_cell.append(len(cell["ranges"]))
        ranges.append(cell["ranges"])
    flat = itertools.chain.from_iterable(itertools.chain.from_iterable(ranges))
    starts, ends = np.fromiter(flat, dtype=np.int64, count=2 * sum(per_cell)).reshape(-1, 2).T
    # A range is bad when empty, outside the file, or not after the previous range of its cell.
    cell_of = np.repeat(np.arange(len(per_cell)), per_cell)
    bad = (starts < 0) | (starts >= ends) | (ends > size)
    bad[1:] |= (cell_of[1:] == cell_of[:-1]) & (starts[1:] < ends[:-1])
    if bad.any():
        k = int(bad.argmax())
        raise ValueError(f"file {file_id}: range {[int(starts[k]), int(ends[k])]} not ascending inside [0, {size})")
    held = np.bincount(cell_of, weights=ends - starts, minlength=len(per_cell)).astype(np.int64).tolist()
    for count, total in zip(counts, held):
        if count != total:
            raise ValueError(f"file {file_id}: cell count {count!r}, ranges hold {total}")
    # Ascending and inside the file, the ranges label every bit once exactly
    # when, sorted by start, none overlaps the next and their lengths sum to size.
    order = np.argsort(starts, kind="stable")
    starts, ends = starts[order], ends[order]
    overlaps = np.flatnonzero(starts[1:] < ends[:-1])
    if overlaps.size:
        k = int(overlaps[0]) + 1
        raise ValueError(f"file {file_id}: range {[int(starts[k]), int(ends[k])]} overlaps another cell")
    if sum(held) != size:
        raise ValueError(f"cells of file {file_id} cover {sum(held)} of {size} bits")
    return np.repeat(np.array(cell_labels, dtype=_label_type(cfg))[cell_of[order]], ends - starts)
