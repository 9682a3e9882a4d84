from __future__ import annotations

import copy
import itertools
import json
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogndt import placement as placement_mod
from fogndt.model import config_to_dict
from fogndt.placement import (
    _LABEL_CHUNK_BITS,
    REPLAY_FORMAT,
    _label_type,
    PlacementRealization,
    fractional_size,
    pack_label,
    placement_from_replay,
    placement_to_replay,
    sample_placement,
    unpack_label,
)
from conftest import make_cfg
from reference_oracle import _span


def test_fraction_trivial_cases():
    assert fractional_size(0, 0, make_cfg(nt=4, nr=3, mu_t=0.0, mu_r=0.0)) == 1.0
    cfg = make_cfg(nt=3, nr=3, mu_t=0.5, mu_r=0.5)
    for m in range(4):
        for n in range(4):
            assert fractional_size(m, n, cfg) == pytest.approx(1 / 64)


def test_fraction_direct_evaluation():
    cfg = make_cfg(nt=2, nr=5, mu_t=0.5, mu_r=0.2)
    expected = 0.2 ** 0 * (1 - 0.2) ** 5 * 0.5 ** 0 * (1 - 0.5) ** 2
    assert fractional_size(0, 0, cfg) == expected
    assert fractional_size(0, 0, cfg) == pytest.approx(0.08192)


def test_fraction_range_errors():
    cfg = make_cfg(nt=2, nr=3)
    with pytest.raises(ValueError):
        fractional_size(4, 0, cfg)
    with pytest.raises(ValueError):
        fractional_size(0, 3, cfg)


def _unity_defect(cfg):
    total = sum(
        math.comb(cfg.num_ues, m) * math.comb(cfg.num_ens, n) * fractional_size(m, n, cfg)
        for m in range(cfg.num_ues + 1)
        for n in range(cfg.num_ens + 1)
    )
    return abs(total - 1.0)


def test_partition_of_unity_grid():
    mus = [k / 10 for k in range(11)]
    for nt in range(2, 7):
        for nr in range(2, 7):
            for mu_t in mus:
                for mu_r in mus:
                    assert _unity_defect(make_cfg(nt=nt, nr=nr, mu_t=mu_t, mu_r=mu_r)) < 1e-12


@given(
    st.integers(2, 6),
    st.integers(2, 6),
    st.sampled_from([k / 20 for k in range(21)]),
    st.sampled_from([k / 20 for k in range(21)]),
)
def test_partition_of_unity_property(nt, nr, mu_t, mu_r):
    assert _unity_defect(make_cfg(nt=nt, nr=nr, mu_t=mu_t, mu_r=mu_r)) < 1e-12


def test_sample_all_or_nothing_edges():
    cfg = make_cfg(nt=2, nr=2, mu_t=0.0, mu_r=0.0)
    p = sample_placement(cfg, 64, seed=1)
    assert not p.bit_labels.any()
    cfg_full = make_cfg(nt=2, nr=2, mu_t=1.0, mu_r=1.0)
    p_full = sample_placement(cfg_full, 64, seed=1)
    assert (p_full.bit_labels == pack_label((1, 2), (1, 2), cfg_full)).all()


def test_sample_is_reproducible():
    cfg = make_cfg(nt=3, nr=2, mu_t=0.4, mu_r=0.7)
    a = sample_placement(cfg, 5000, seed=42)
    b = sample_placement(cfg, 5000, seed=42)
    assert np.array_equal(a.bit_labels, b.bit_labels)
    assert np.array_equal(a.file_bits, b.file_bits)
    c = sample_placement(cfg, 5000, seed=43)
    assert not np.array_equal(a.bit_labels, c.bit_labels)


def test_placements_compare_and_hash_by_identity():
    # Two equal samples are two placements: equality and hash never read the label array.
    cfg = make_cfg()
    p, q = sample_placement(cfg, 16, seed=1), sample_placement(cfg, 16, seed=1)
    assert p == p and not p != p
    assert p != q and not p == q
    assert {p: "p", q: "q"}[p] == "p"


def test_sample_rejects_bad_sizes():
    with pytest.raises(ValueError):
        sample_placement(make_cfg(), 0, seed=1)


def _subsets(ids):
    return [c for k in range(len(ids) + 1) for c in itertools.combinations(ids, k)]


def _all_cells(p, file_id):
    """Bit positions of every possible label of one file, read off the labels.

    Each label's span of the cell index must hold exactly that cell's bits,
    in position order, and only that label.
    """
    users, ens = range(1, p.cfg.num_ues + 1), range(1, p.cfg.num_ens + 1)
    index = p.cell_indices(file_id)
    cells = []
    for label in (pack_label(u, e, p.cfg) for u in _subsets(users) for e in _subsets(ens)):
        ref = np.flatnonzero(p.bit_labels[file_id - 1] == label)
        span = _span(index, label)
        assert np.array_equal(index.bits[span], p.file_bits[file_id - 1][ref])
        assert (index.labels[span] == label).all()
        cells.append(ref)
    return cells


def test_cell_concentration_2x2():
    # Every realized cell fraction within the binomial three-sigma band.
    cfg = make_cfg(nt=2, nr=2, mu_t=0.5, mu_r=0.5)
    F = 100_000
    p = sample_placement(cfg, F, seed=2024)
    f = 1 / 16
    band = 3 * math.sqrt(f * (1 - f) / F)
    for file_id in (1, 2):
        sizes = [idx.size for idx in _all_cells(p, file_id)]
        assert len(sizes) == 16 and all(sizes)
        for count in sizes:
            assert abs(count / F - f) <= band


def test_partition_covers_every_bit():
    cfg = make_cfg(nt=2, nr=3, mu_t=0.3, mu_r=0.6, nfiles=3)
    p = sample_placement(cfg, 4096, seed=5)
    for file_id in range(1, 4):
        merged = np.sort(np.concatenate(_all_cells(p, file_id)))
        assert np.array_equal(merged, np.arange(4096))
    with pytest.raises(ValueError):
        p.cell_indices(4)


def test_partition_degenerate_caches():
    empty = sample_placement(make_cfg(mu_t=0.0, mu_r=0.0), 128, seed=3)
    (cell,) = placement_to_replay(empty)["files"][0]["cells"]
    assert cell == {"ues": [], "ens": [], "count": 128, "ranges": [[0, 128]]}
    full = sample_placement(make_cfg(mu_t=1.0, mu_r=1.0), 128, seed=3)
    (cell,) = placement_to_replay(full)["files"][0]["cells"]
    assert (cell["ues"], cell["ens"]) == ([1, 2], [1, 2])


def test_cell_sizes_converge_with_file_size():
    cfg = make_cfg(nt=2, nr=2, mu_t=0.5, mu_r=0.5)
    devs = []
    for F in (1_000, 10_000, 100_000):
        p = sample_placement(cfg, F, seed=31)
        devs.append(max(abs(idx.size / F - 1 / 16) for f in (1, 2) for idx in _all_cells(p, f)))
    assert devs[2] < devs[1] < devs[0]


def test_label_packing_round_trip():
    cfg = make_cfg(nt=3, nr=2)
    label = pack_label((2,), (1, 3), cfg)
    assert unpack_label(label, cfg) == ((2,), (1, 3))
    with pytest.raises(ValueError):
        pack_label((3,), (), cfg)
    with pytest.raises(ValueError):
        pack_label((), (4,), cfg)


def test_replay_round_trip_seeded():
    cfg = make_cfg(nt=2, nr=3, mu_t=0.4, mu_r=0.2, nfiles=3)
    p = sample_placement(cfg, 2048, seed=77)
    doc = placement_to_replay(p)
    q = placement_from_replay(doc)
    assert q.cfg == cfg
    assert q.seed == 77
    assert np.array_equal(p.bit_labels, q.bit_labels)
    assert np.array_equal(p.file_bits, q.file_bits)


def test_replay_round_trip_manual_bits():
    cfg = make_cfg(nt=2, nr=2, nfiles=2)
    p = sample_placement(cfg, 512, seed=11)
    manual = type(p)(cfg, p.file_size_bits, None, p.bit_labels, p.file_bits)
    doc = placement_to_replay(manual)
    assert "file_bits_hex" in doc
    q = placement_from_replay(doc)
    assert q.seed is None
    assert np.array_equal(p.bit_labels, q.bit_labels)
    assert np.array_equal(p.file_bits, q.file_bits)


def test_replay_rejects_unknown_format():
    with pytest.raises(ValueError):
        placement_from_replay({"format": "bogus"})


def _replay_doc():
    cfg = make_cfg(nt=2, nr=2, mu_t=0.5, mu_r=0.5, nfiles=3)
    return placement_to_replay(sample_placement(cfg, 64, seed=5))


def _first_multi_range_cell(doc):
    return next(c for c in doc["files"][0]["cells"] if len(c["ranges"]) >= 2)


def test_replay_rejects_overlap_that_keeps_length_sum():
    # Shifting a range one bit left overlaps its neighbour by one bit and
    # leaves one bit unlabelled, but keeps the summed lengths unchanged.
    doc = _replay_doc()
    cells = doc["files"][0]["cells"]
    cell = next(c for c in cells if c["ranges"][0][0] > 0)
    cell["ranges"][0] = [cell["ranges"][0][0] - 1, cell["ranges"][0][1] - 1]
    with pytest.raises(ValueError, match="overlaps|ascending"):
        placement_from_replay(doc)


def test_replay_rejects_range_past_the_end():
    doc = _replay_doc()
    cell = doc["files"][1]["cells"][0]
    cell["ranges"].append([64, 66])
    cell["count"] += 2
    with pytest.raises(ValueError, match="inside"):
        placement_from_replay(doc)


def test_replay_rejects_file_id_zero():
    doc = _replay_doc()
    doc["files"][0]["file"] = 0
    with pytest.raises(ValueError, match="file ids"):
        placement_from_replay(doc)


def test_replay_rejects_duplicate_file_id():
    doc = _replay_doc()
    doc["files"][0]["file"] = 2
    with pytest.raises(ValueError, match="file ids"):
        placement_from_replay(doc)


def test_replay_rejects_missing_file_entry():
    doc = _replay_doc()
    del doc["files"][2]
    with pytest.raises(ValueError, match="no entry for files \\[3\\]"):
        placement_from_replay(doc)


def test_replay_rejects_descending_ranges():
    doc = _replay_doc()
    cell = _first_multi_range_cell(doc)
    cell["ranges"].reverse()
    with pytest.raises(ValueError, match="ascending"):
        placement_from_replay(doc)


@pytest.mark.parametrize(
    "fault",
    [
        lambda doc: doc.pop("config"),
        lambda doc: doc["files"][0]["cells"][0].pop("count"),
        lambda doc: doc.update(files=[1, 2]),
        lambda doc: doc.update(files=None),
        lambda doc: doc.update(seed="x"),
        lambda doc: doc["files"][0]["cells"][0]["ranges"][0].__setitem__(1, 2**70),
        lambda doc: doc["config"].update(num_file=3),
        lambda doc: doc["files"][0]["cells"][0].update(count=float(doc["files"][0]["cells"][0]["count"])),
    ],
    ids=["no_config", "no_count", "int_files", "null_files", "str_seed", "huge_range_end", "unknown_config_key",
         "float_count"],
)
def test_replay_structural_fault_raises_value_error(fault):
    doc = _replay_doc()
    fault(doc)
    with pytest.raises(ValueError):
        placement_from_replay(doc)


@pytest.mark.parametrize("count", [True, 1.0], ids=["bool", "float"])
def test_replay_refuses_a_count_that_is_not_an_int(count):
    # Two 1-bit cells per file, whose count 1 equals both True and 1.0.
    cfg = make_cfg(nt=2, nr=2, nfiles=2)
    labels = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    doc = placement_to_replay(PlacementRealization(cfg, 2, None, labels, np.zeros((2, 2), dtype=np.uint8)))
    placement_from_replay(doc)
    doc["files"][1]["cells"][0]["count"] = count
    with pytest.raises(ValueError, match=f"file 2: cell count must be an integer: {count}"):
        placement_from_replay(doc)


@pytest.mark.parametrize(
    "fault",
    [
        lambda doc, long: doc.update(format=long),
        lambda doc, long: doc.update(seed=long),
        lambda doc, long: doc["files"][0].update(file=long),
        lambda doc, long: doc["files"][0]["cells"][0].update(count=long),
        lambda doc, long: doc["files"][0]["cells"][0].update(ues=[long]),
    ],
    ids=["format", "seed", "file_id", "count", "node_id"],
)
def test_replay_error_echoes_a_bounded_value(fault):
    doc = _replay_doc()
    fault(doc, "9" * 1_000_000)
    with pytest.raises(ValueError) as err:
        placement_from_replay(doc)
    assert len(str(err.value)) < 200 and "'999" in str(err.value)


def test_replay_refuses_unallocatable_file_size():
    # 10**15-bit files exceed a 47-bit address space, so the allocation fails at once.
    doc = _replay_doc()
    doc["file_size_bits"] = 10**15
    with pytest.raises(ValueError, match="file_size_bits"):
        placement_from_replay(doc)


def test_replay_rejects_short_content_blob():
    cfg = make_cfg(nt=2, nr=2, nfiles=2)
    p = sample_placement(cfg, 64, seed=11)
    doc = placement_to_replay(type(p)(cfg, p.file_size_bits, None, p.bit_labels, p.file_bits))
    doc["file_bits_hex"][1] = doc["file_bits_hex"][1][:-2]
    with pytest.raises(ValueError, match="file_bits_hex"):
        placement_from_replay(doc)


def _corrupt(doc, data):
    """Apply one random corruption to a replay doc in place.

    Relabelling a cell with another valid node set keeps the doc consistent
    and cannot be detected, so node ids are only ever made invalid.
    """
    files = doc["files"]
    kind = data.draw(
        st.sampled_from(
            ["range_end", "range_start", "file_id", "drop_file", "drop_cell", "drop_range",
             "dup_range", "count", "size", "bad_node", "non_int", "drop_key", "wrong_type"]
        )
    )
    entry = data.draw(st.sampled_from(files))
    cell = data.draw(st.sampled_from(entry["cells"]))
    k = data.draw(st.integers(0, len(cell["ranges"]) - 1))
    delta = data.draw(st.integers(-3, 3))
    if kind == "range_end":
        cell["ranges"][k][1] += delta
    elif kind == "range_start":
        cell["ranges"][k][0] += delta
    elif kind == "file_id":
        entry["file"] += delta
    elif kind == "drop_file":
        files.remove(entry)
    elif kind == "drop_cell":
        entry["cells"].remove(cell)
    elif kind == "drop_range":
        cell["count"] -= cell["ranges"][k][1] - cell["ranges"][k][0]
        del cell["ranges"][k]
    elif kind == "dup_range":
        cell["ranges"].insert(k, list(cell["ranges"][k]))
        cell["count"] += cell["ranges"][k][1] - cell["ranges"][k][0]
    elif kind == "count":
        cell["count"] += delta
    elif kind == "size":
        doc["file_size_bits"] += delta
    elif kind == "bad_node":
        cell["ens"] = cell["ens"] + [data.draw(st.sampled_from([-1, 0, 3, 99]))]
    elif kind == "drop_key":
        target = data.draw(st.sampled_from([doc, doc["config"], entry, cell]))
        del target[data.draw(st.sampled_from(sorted(target)))]
    elif kind == "wrong_type":
        # Node ids are left to bad_node: a list of them is a valid relabelling.
        target = data.draw(st.sampled_from([doc, doc["config"], entry, cell]))
        key = data.draw(st.sampled_from(sorted(set(target) - {"ues", "ens"})))
        target[key] = data.draw(st.sampled_from([None, "x", 1.5, [1, 2], {"k": 1}]))
    else:
        cell["ranges"][k][0] = data.draw(st.sampled_from([0.5, "0", None, True]))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_corrupted_replay_raises_or_loads_identical_labels(data):
    original = _replay_doc()
    doc = copy.deepcopy(original)
    _corrupt(doc, data)
    try:
        loaded = placement_from_replay(doc)
    except ValueError:
        return
    assert np.array_equal(loaded.bit_labels, placement_from_replay(original).bit_labels)


# 4, 10 and 18 nodes: the cell index sorts 8-, 16- and 32-bit keys.
@pytest.mark.parametrize("shape", [(2, 2), (5, 5), (9, 9)])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_cell_index_matches_reference_partition(shape, data):
    cfg = make_cfg(nt=shape[0], nr=shape[1])
    size = data.draw(st.integers(1, 300))
    if data.draw(st.booleans()):
        # Hand-built uint32 labels from a few values, the widest label included,
        # once over each bit-plane of the bit positions: together the planes
        # tell every position apart, so that a misordered span shows.
        top = (1 << (cfg.num_ues + cfg.num_ens)) - 1
        palette = [top, *data.draw(st.lists(st.integers(0, top), min_size=1, max_size=5))]
        count = cfg.num_files * size
        values = data.draw(st.lists(st.sampled_from(palette), min_size=count, max_size=count))
        labels = np.array(values, dtype=np.uint32).reshape(cfg.num_files, size)
        planes = [(np.arange(count) >> k) & 1 for k in range(max(1, (count - 1).bit_length()))]
        placements = [PlacementRealization(cfg, size, None, labels, plane.reshape(labels.shape)) for plane in planes]
    else:
        placements = [sample_placement(cfg, size, data.draw(st.integers(0, 2**32 - 1)))]
    for placement, f in itertools.product(placements, range(cfg.num_files)):
        index = placement.cell_indices(f + 1)
        counts = placement.cell_counts(f + 1)
        assert counts.shape == (1 << (cfg.num_ues + cfg.num_ens),) and counts.dtype == np.int64
        spans = 0
        for label in np.unique(placement.bit_labels[f]).tolist():
            # Reference: the cell's bit positions, read off the labels.
            ref = np.flatnonzero(placement.bit_labels[f] == label)
            span = _span(index, label)
            assert np.array_equal(index.bits[span], placement.file_bits[f][ref])
            assert (index.labels[span] == label).all()
            assert counts[label] == span.stop - span.start
            spans += span.stop - span.start
        assert spans == size == counts.sum()


def test_cell_counts_add_up_over_pieces(monkeypatch):
    cfg = make_cfg(nt=2, nr=2)
    placement = sample_placement(cfg, 1000, seed=6)
    want = [np.bincount(labels, minlength=16) for labels in placement.bit_labels]
    # Pieces of 16 bits, the table's size, as counting never takes fewer.
    monkeypatch.setattr(placement_mod, "_LABEL_CHUNK_BITS", 5)
    for f, counts in enumerate(want):
        assert np.array_equal(placement.cell_counts(f + 1), counts)


def test_cell_counts_refuse_a_label_outside_the_network():
    # Refused at construction, so no count table ever holds it.
    cfg = make_cfg(nt=2, nr=2)
    labels = np.zeros((cfg.num_files, 8), dtype=np.uint16)
    placement = PlacementRealization(cfg, 8, None, labels, np.zeros_like(labels, dtype=np.uint8))
    assert placement.cell_counts(1).tolist() == [8] + [0] * 15
    with pytest.raises(ValueError, match="unknown file id"):
        placement.cell_counts(cfg.num_files + 1)
    labels[1, 3] = 16
    with pytest.raises(ValueError, match="file 2 holds a label outside the network: 16"):
        PlacementRealization(cfg, 8, None, labels, np.zeros_like(labels, dtype=np.uint8))


def test_replay_refuses_a_label_outside_the_network():
    # Such a label must not reach the document, so construction refuses it:
    # unpack_label keeps only the network's bits (16 and 17 of a 2x2 network
    # would read as 0 and 1), and narrowing a wider label type wraps it (256
    # would read as 0).
    cfg = make_cfg(nt=2, nr=2)
    for labels, file_id, bad in (
        (np.array([[0, 0, 0, 0], [16, 17, 0, 1]], dtype=np.uint8), 2, 17),
        (np.array([[0, 0, 0, 256], [0, 1, 2, 3]], dtype=np.uint16), 1, 256),
        (np.array([[0, 0, 0, 0], [0, -1, 0, 0]], dtype=np.int64), 2, -1),
    ):
        with pytest.raises(ValueError, match=f"^file {file_id} holds a label outside the network: {bad}$"):
            PlacementRealization(cfg, 4, None, labels, np.zeros(labels.shape, dtype=np.uint8))


def test_a_seeded_placement_takes_its_contents_from_the_seed_alone():
    # Contents given beside a seed would be lost on replay, which draws them
    # from the seed; sampled and replayed placements draw them on first read.
    cfg = make_cfg(nt=2, nr=2)
    p = sample_placement(cfg, 100, seed=3)
    with pytest.raises(ValueError, match="^a seeded placement draws its file_bits from the seed"):
        PlacementRealization(cfg, 100, 3, p.bit_labels, np.zeros(p.bit_labels.shape, dtype=np.uint8))
    q = placement_from_replay(placement_to_replay(p))
    assert "file_bits" not in vars(p) and "file_bits" not in vars(q)
    assert np.array_equal(q.file_bits, p.file_bits)
    assert q.file_bits is q.file_bits and q.file_bits.dtype == np.uint8


@pytest.mark.parametrize(
    "bits",
    [np.full((2, 4), 7, dtype=np.uint8), np.full((2, 4), -1, dtype=np.int8), np.full((2, 4), 2), np.full((2, 4), 0.0)],
    ids=["byte_7", "negative", "int_2", "float"],
)
def test_construction_refuses_contents_other_than_0_and_1(bits):
    # A byte 7 would replay as bit 1 (packbits takes any nonzero as 1) while
    # recorded payloads XOR the raw 7.
    cfg = make_cfg(nt=2, nr=2)
    labels = np.zeros((2, 4), dtype=np.uint8)
    with pytest.raises(ValueError, match="^file_bits must hold only 0 and 1"):
        PlacementRealization(cfg, 4, None, labels, bits)
    stored = PlacementRealization(cfg, 4, None, labels, np.eye(2, 4, dtype=bool)).file_bits
    assert stored.dtype == np.uint8 and stored.tolist() == [[1, 0, 0, 0], [0, 1, 0, 0]]


def test_a_placement_of_labels_alone_refuses_readers_of_contents():
    cfg = make_cfg(nt=2, nr=2)
    p = PlacementRealization(cfg, 4, None, np.zeros((2, 4), dtype=np.uint8), None)
    assert p.cell_counts(1).tolist() == [4] + [0] * 15
    for read in (placement_to_replay, lambda p: p.cell_indices(1), lambda p: p.file_bits):
        with pytest.raises(ValueError, match="^placement holds labels only: it has no file_bits$"):
            read(p)


_LABEL_TYPES = (np.uint8, np.uint16, np.uint32, np.uint64, np.int64)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_construction_checks_and_narrows_labels(data):
    # Labels of any integer type wide enough for the network: out-of-range
    # ones (top + 1, 256 on a 2x2 network, -1) and misshapen arrays are
    # refused at construction, naming the label as given; in-range ones are
    # stored narrow, and read as the same labels built narrow.
    shape = data.draw(st.sampled_from([(2, 2), (3, 3), (5, 5), (9, 9)]))
    cfg = make_cfg(nt=shape[0], nr=shape[1])
    top = (1 << (cfg.num_ues + cfg.num_ens)) - 1
    size = data.draw(st.integers(1, 40))
    label_type = data.draw(st.sampled_from([t for t in _LABEL_TYPES if np.iinfo(t).max >= top]))
    count = cfg.num_files * size
    values = data.draw(st.lists(st.integers(0, top), min_size=count, max_size=count))
    labels = np.array(values, dtype=label_type).reshape(cfg.num_files, size)
    file_bits = (np.arange(count) % 3 == 0).astype(np.uint8).reshape(labels.shape)
    info = np.iinfo(label_type)
    outside = [v for v in (top + 1, 256, -1, int(info.max)) if (v > top or v < 0) and info.min <= v <= info.max]
    fault = data.draw(st.sampled_from(["none", "labels_shape", "bits_shape", "float"] + ["label"] * bool(outside)))
    if fault == "label":
        spots = st.tuples(st.integers(0, cfg.num_files - 1), st.integers(0, size - 1))
        for f, b in data.draw(st.lists(spots, min_size=1, max_size=3)):
            labels[f, b] = data.draw(st.sampled_from(outside))
        f = int(np.flatnonzero(((labels < 0) | (labels > top)).any(axis=1))[0])
        bad = int(labels[f].max()) if labels[f].max() > top else int(labels[f].min())
        with pytest.raises(ValueError, match=f"^file {f + 1} holds a label outside the network: {bad}$"):
            PlacementRealization(cfg, size, None, labels, file_bits)
        return
    misshapen = [labels[1:], labels.reshape(-1), np.hstack([labels, labels[:, :1]]), labels[:, :0]]
    if fault == "labels_shape":
        with pytest.raises(ValueError, match="^bit_labels must be nonempty integers shaped"):
            PlacementRealization(cfg, size, None, data.draw(st.sampled_from(misshapen)), file_bits)
        return
    if fault == "bits_shape":
        with pytest.raises(ValueError, match="^file_bits must have shape"):
            PlacementRealization(cfg, size, None, labels, data.draw(st.sampled_from(misshapen)).astype(np.uint8))
        return
    if fault == "float":
        with pytest.raises(ValueError, match="^bit_labels must be nonempty integers shaped"):
            PlacementRealization(cfg, size, None, labels.astype(float), file_bits)
        return
    wide = PlacementRealization(cfg, size, None, labels, file_bits)
    narrow = PlacementRealization(cfg, size, None, labels.astype(_label_type(cfg)), file_bits)
    assert wide.bit_labels.dtype == _label_type(cfg) and np.array_equal(wide.bit_labels, labels)
    for f in range(1, cfg.num_files + 1):
        assert np.array_equal(wide.cell_counts(f), narrow.cell_counts(f))
        for got, want in zip(wide.cell_indices(f), narrow.cell_indices(f)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    assert placement_to_replay(wide) == placement_to_replay(narrow)


@pytest.mark.parametrize("size", [4, 1 << 62], ids=["small", "unallocatable"])
def test_replay_refuses_more_nodes_than_labels_pack_before_allocating(size):
    # A 32-node network, whose count table would hold 2^32 entries.  2^62
    # bits per file cannot be allocated at all, so a check made after the
    # label array would report that instead.
    cfg = make_cfg(nt=16, nr=16)
    cell = {"ues": [], "ens": [], "count": size, "ranges": [[0, size]]}
    doc = {
        "format": REPLAY_FORMAT,
        "seed": 0,
        "config": config_to_dict(cfg),
        "file_size_bits": size,
        "files": [{"file": f, "cells": [cell]} for f in range(1, cfg.num_files + 1)],
    }
    with pytest.raises(ValueError, match="^at most 30 nodes supported, got 32$"):
        placement_from_replay(doc)
    with pytest.raises(ValueError, match="^at most 30 nodes supported, got 32$"):
        sample_placement(cfg, size, 0)


def test_cell_index_holds_no_bit_positions():
    # A file's index is its labels and bits, nothing per bit beside them.
    for cfg in (make_cfg(nt=2, nr=2), make_cfg(nt=5, nr=5), make_cfg(nt=9, nr=9)):
        placement = sample_placement(cfg, 10_000, seed=4)
        for f in range(1, cfg.num_files + 1):
            index = placement.cell_indices(f)
            assert sum(a.nbytes for a in index) == 10_000 * (index.labels.itemsize + 1)


def _serial_reference(cfg, size, seed):
    """Labels and contents of one whole-file label draw per file and one contents draw."""
    content_ss, label_ss = np.random.SeedSequence(seed).spawn(2)
    shape = (cfg.num_files, size)
    bits = np.random.default_rng(content_ss).integers(0, 2, size=shape, dtype=np.uint8)
    rng = np.random.default_rng(label_ss)
    ue_weights = np.uint32(1) << np.arange(cfg.num_ues, dtype=np.uint32)
    en_weights = (np.uint32(1) << np.arange(cfg.num_ens, dtype=np.uint32)) << np.uint32(cfg.num_ues)
    labels = np.empty((cfg.num_files, size), dtype=np.uint32)
    for f in range(cfg.num_files):
        ue_draw = rng.random((size, cfg.num_ues)) < cfg.mu_r
        en_draw = rng.random((size, cfg.num_ens)) < cfg.mu_t
        labels[f] = ue_draw.astype(np.uint32) @ ue_weights + en_draw.astype(np.uint32) @ en_weights
    return labels, bits


@pytest.mark.parametrize("shape", [(2, 2), (3, 2)])
def test_chunked_labels_match_one_whole_file_draw(shape):
    cfg = make_cfg(nt=shape[0], nr=shape[1], mu_t=0.3, mu_r=0.6)
    size = 3 * _LABEL_CHUNK_BITS + 17
    labels, bits = _serial_reference(cfg, size, 21)
    for workers in (1, 3):
        got = sample_placement(cfg, size, seed=21, _workers=workers)
        assert got.bit_labels.dtype == np.uint8  # at most 8 nodes
        assert np.array_equal(got.bit_labels, labels)
        assert np.array_equal(got.file_bits, bits)


_MUS = st.sampled_from([0.0, 0.3, 0.6, 1.0])
_SIZES = [1, 7, 8, 9, *(k * _LABEL_CHUNK_BITS + d for k in (1, 2) for d in (-1, 1))]


# 4, 10 and 18 nodes: 8-, 16- and 32-bit labels.
@settings(max_examples=40, deadline=None)
@given(
    shape=st.sampled_from([(2, 2), (5, 5), (9, 9)]),
    size=st.sampled_from(_SIZES),
    workers=st.integers(1, 4),
    mu_t=_MUS,
    mu_r=_MUS,
    seed=st.integers(0, 2**64),
)
def test_worker_count_changes_no_byte(shape, size, workers, mu_t, mu_r, seed):
    cfg = make_cfg(nt=shape[0], nr=shape[1], mu_t=mu_t, mu_r=mu_r)
    got = sample_placement(cfg, size, seed, _workers=workers)
    labels, bits = _serial_reference(cfg, size, seed)
    assert np.array_equal(got.bit_labels, labels)
    assert np.array_equal(got.file_bits, bits)


def test_more_workers_than_cores_under_fast_switching_match_the_serial_draw():
    # Neighbouring shares write neighbouring label bytes; a lost OR would show.
    cfg = make_cfg(nt=5, nr=5, mu_t=0.3, mu_r=0.6)
    size = 4 * _LABEL_CHUNK_BITS + 3
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = sample_placement(cfg, size, 17, _workers=8)
    finally:
        sys.setswitchinterval(interval)
    labels, bits = _serial_reference(cfg, size, 17)
    assert np.array_equal(got.bit_labels, labels)
    assert np.array_equal(got.file_bits, bits)


@pytest.mark.parametrize("size", [1, 7, 8, 9, _LABEL_CHUNK_BITS + 1])
def test_contents_match_the_integers_draw(size):
    cfg = make_cfg(nt=2, nr=3)
    content_ss, _ = np.random.SeedSequence(9).spawn(2)
    shape = (cfg.num_files, size)
    want = np.random.default_rng(content_ss).integers(0, 2, size=shape, dtype=np.uint8)
    placement = sample_placement(cfg, size, 9)
    assert np.array_equal(placement.file_bits, want)
    assert np.array_equal(placement_from_replay(placement_to_replay(placement)).file_bits, want)


@pytest.mark.parametrize("failing", [1, 2])
def test_worker_failure_reaches_the_caller_after_every_join(monkeypatch, failing):
    draw_share = placement_mod._draw_share
    finished = []

    def flaky(cfg, label_ss, labels, start, stop):
        share = round(3 * start / labels.size)
        if share == failing:
            raise RuntimeError(f"share {share} failed")
        if share != 0:
            time.sleep(0.2)  # still drawing when the failure is stored
        draw_share(cfg, label_ss, labels, start, stop)
        finished.append(share)

    monkeypatch.setattr(placement_mod, "_draw_share", flaky)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match=f"share {failing} failed"):
        sample_placement(make_cfg(), 2 * _LABEL_CHUNK_BITS, 1, _workers=3)
    assert sorted(finished) == sorted({0, 1, 2} - {failing})
    assert threading.active_count() == threads


@pytest.mark.parametrize(
    ("cpus", "size", "threads"),
    [
        (1, 4 * _LABEL_CHUNK_BITS, 0),
        (8, _LABEL_CHUNK_BITS - 1, 0),
        (8, _LABEL_CHUNK_BITS, 1),
        (3, 4 * _LABEL_CHUNK_BITS, 2),
    ],
)
def test_threads_follow_cpus_and_placement_size(monkeypatch, cpus, size, threads):
    # Two files: one worker per CPU, but at most one per _LABEL_CHUNK_BITS bits.
    started = []

    class CountedThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(placement_mod, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(threading, "Thread", CountedThread)
    cfg = make_cfg(nfiles=2)
    got = sample_placement(cfg, size, 3)
    assert len(started) == threads
    assert np.array_equal(got.bit_labels, sample_placement(cfg, size, 3, _workers=1).bit_labels)


@pytest.mark.parametrize("seed", [True, False, 5.0, "5", -1, None, np.float64(5), np.bool_(True)])
def test_sample_refuses_a_seed_that_is_no_integer(seed):
    with pytest.raises(ValueError, match="seed must be a non-negative integer") as exc:
        sample_placement(make_cfg(), 16, seed)
    assert repr(seed) in str(exc.value)


@pytest.mark.parametrize("size", [True, 16.0, "16", 0, None, np.float64(16)])
def test_sample_refuses_a_size_that_is_no_integer(size):
    with pytest.raises(ValueError, match="file_size_bits must be a positive integer") as exc:
        sample_placement(make_cfg(), size, 1)
    assert repr(size) in str(exc.value)


def test_numpy_integer_seed_and_size_replay_through_json():
    cfg = make_cfg(nfiles=2)
    p = sample_placement(cfg, np.int64(300), np.uint32(5))
    assert type(p.seed) is int and type(p.file_size_bits) is int
    q = placement_from_replay(json.loads(json.dumps(placement_to_replay(p))))
    ref = sample_placement(cfg, 300, 5)
    assert (q.seed, q.file_size_bits) == (5, 300)
    assert np.array_equal(q.bit_labels, ref.bit_labels)
    assert np.array_equal(q.file_bits, ref.file_bits)
