from __future__ import annotations

import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fogndt.dof import per_user_dof_default
from fogndt.model import DemandVector, GroupIndex, config_from_dict
from fogndt.oracle import DecodeFailure, execute_schedule
from fogndt.placement import PlacementRealization, pack_label, sample_placement
from fogndt.scheduler import build_schedule
from conftest import make_cfg
from reference_oracle import reference_execute_schedule

FIXTURES = Path(__file__).parent / "fixtures"


def _run(cfg, file_bits, seed, record_payloads=False):
    placement = sample_placement(cfg, file_bits, seed)
    schedule = build_schedule(cfg)
    return schedule, execute_schedule(placement, schedule.demand, schedule, record_payloads)


def test_everything_cached_means_zero_traffic():
    cfg = make_cfg(nt=2, nr=2, mu_t=0.5, mu_r=1.0)
    schedule, report = _run(cfg, 1024, seed=3)
    assert schedule.groups == {}
    assert report.per_ue_success == (True, True)
    assert report.fronthaul_bits == 0
    assert report.empirical_tau_f == 0.0 and report.empirical_tau_a == 0.0


def test_2x2_concentrates_on_analytic_value():
    cfg = make_cfg(nt=2, nr=2, mu_t=0.5, mu_r=0.5, r=1.0)
    schedule, report = _run(cfg, 200_000, seed=7)
    assert all(report.per_ue_success)
    empirical = report.empirical_tau_f + report.empirical_tau_a
    assert abs(empirical - schedule.breakdown.total) / schedule.breakdown.total < 0.05


def test_seed_sweep_3x3_always_decodes():
    cfg = make_cfg(nt=3, nr=3, mu_t=0.5, mu_r=0.25, r=2.0)
    schedule = build_schedule(cfg)
    for seed in range(20):
        placement = sample_placement(cfg, 20_000, seed)
        report = execute_schedule(placement, schedule.demand, schedule)
        assert all(report.per_ue_success)


def _bits(rec):
    return np.unpackbits(np.frombuffer(bytes.fromhex(rec.payload_hex), dtype=np.uint8))[: rec.bit_len]


@pytest.mark.parametrize("nt, nr", [(3, 2), (2, 3)])
def test_access_records_slice_the_xor_of_demanded_cells(nt, nr):
    # Reference: constituent q of a message is user q's demanded file at
    # the cell cached by the other users and the message's cache set; the
    # zero-padded XOR splits among the sorted cooperation supersets, earlier
    # slices taking the remainder.  At 3x2 this DoF splits group (1, 1) two ways.
    def increasing(m, j, c):
        return 0.5 + 0.5 * j / c.num_ens

    cfg = make_cfg(nt=nt, nr=nr, nfiles=nr + 1, mu_t=0.4, mu_r=0.3, r=2.0)
    placement = sample_placement(cfg, 3000, seed=23)
    distinct = tuple(range(1, nr + 1))
    ens = range(1, nt + 1)
    decodes = [0, 0]  # edge-node decodes of naive and of coded fronthaul payloads
    for demand in (distinct, distinct[1:] + distinct[:1], (2,) * nr):
        schedule = build_schedule(cfg, DemandVector(demand), dof=increasing)
        report = execute_schedule(placement, schedule.demand, schedule, record_payloads=True)
        assert all(report.per_ue_success)
        assert {(g.m, g.n) for g in schedule.groups} >= {(0, 0), (0, 1), (1, 0)}
        expected = []
        for (m, n), plan in sorted(schedule.groups.items()):
            for ue_group in itertools.combinations(range(1, nr + 1), m + 1):
                for cache in itertools.combinations(ens, n):
                    rows = []
                    for q in ue_group:
                        others = tuple(u for u in ue_group if u != q)
                        f = demand[q - 1] - 1
                        idx = np.flatnonzero(placement.bit_labels[f] == pack_label(others, cache, cfg))
                        rows.append(placement.file_bits[f][idx])
                    xor = np.zeros(max(row.size for row in rows), dtype=np.uint8)
                    for row in rows:
                        xor[: row.size] ^= row
                    coops = [c for c in itertools.combinations(ens, n + plan.chosen_i) if set(cache) <= set(c)]
                    base, rem = divmod(xor.size, len(coops))
                    start = 0
                    for k, coop in enumerate(coops):
                        end = start + base + (k < rem)
                        if end > start:
                            hex_bits = np.packbits(xor[start:end]).tobytes().hex()
                            expected.append((m, n, ue_group, coop, (cache,), hex_bits, end - start))
                        start = end
        got = [rec[1:] for rec in report.payloads if rec.channel == "access"]
        assert len(expected) > 20 and got == expected
        # Each fronthaul record is the zero-padded XOR of the access slices its
        # cache sets name (none recorded: empty), and an edge node of its
        # cooperation set caching all of them but one recovers that one.
        slices = {
            (rec.m, rec.n, rec.ue_group, rec.coop_set, rec.cache_sets[0]): _bits(rec)
            for rec in report.payloads
            if rec.channel == "access"
        }
        for rec in report.payloads:
            if rec.channel != "fronthaul":
                continue
            padded = []
            for cache in rec.cache_sets:
                piece = slices.get((rec.m, rec.n, rec.ue_group, rec.coop_set, cache), np.empty(0, np.uint8))
                assert piece.size <= rec.bit_len
                padded.append(np.pad(piece, (0, rec.bit_len - piece.size)))
            payload = _bits(rec)
            assert np.array_equal(payload, np.bitwise_xor.reduce(padded))
            for p in rec.coop_set:
                unknown = [k for k, cache in enumerate(rec.cache_sets) if p not in cache]
                if len(unknown) == 1:
                    known = [row for k, row in enumerate(padded) if k != unknown[0]]
                    assert np.array_equal(np.bitwise_xor.reduce([payload, *known]), padded[unknown[0]])
                    decodes[len(rec.cache_sets) > 1] += 1
    assert min(decodes) > 0


def test_report_is_deterministic():
    cfg = make_cfg(nt=2, nr=3, nfiles=3, mu_t=0.25, mu_r=0.5, r=4.0)
    _, a = _run(cfg, 50_000, seed=13, record_payloads=True)
    _, b = _run(cfg, 50_000, seed=13, record_payloads=True)
    assert a == b


def test_duplicate_demands_are_served():
    cfg = make_cfg(nt=2, nr=2, nfiles=2, mu_t=0.5, mu_r=0.5, r=1.0)
    demand = DemandVector((2, 2))
    placement = sample_placement(cfg, 40_000, seed=21)
    schedule = build_schedule(cfg, demand)
    report = execute_schedule(placement, demand, schedule)
    assert all(report.per_ue_success)


def test_mismatched_demand_rejected():
    cfg = make_cfg(nt=2, nr=2, nfiles=2)
    placement = sample_placement(cfg, 128, seed=1)
    schedule = build_schedule(cfg, DemandVector((1, 2)))
    with pytest.raises(ValueError):
        execute_schedule(placement, DemandVector((2, 1)), schedule)


def test_padding_overhead_vanishes_with_file_size():
    cfg = make_cfg(nt=3, nr=3, mu_t=0.25, mu_r=0.25, r=4.0)
    fractions = []
    for file_bits in (1_000, 10_000, 100_000):
        _, report = _run(cfg, file_bits, seed=17)
        fractions.append(report.padding_overhead_bits / file_bits)
    assert fractions[2] < fractions[1] < fractions[0]


def test_empirical_ndt_converges_with_file_size():
    cfg = make_cfg(nt=2, nr=2, mu_t=0.5, mu_r=0.5, r=1.0)
    deltas = []
    for file_bits in (1_000, 10_000, 100_000):
        schedule, report = _run(cfg, file_bits, seed=29)
        empirical = report.empirical_tau_f + report.empirical_tau_a
        deltas.append(abs(empirical - schedule.breakdown.total))
    assert deltas[2] < deltas[1] < deltas[0]


def test_coded_bit_ratio_tracks_min_rule():
    cfg = make_cfg(nt=2, nr=2, mu_t=0.25, mu_r=0.25, r=4.0)
    _, report = _run(cfg, 200_000, seed=19)
    stats = report.per_group[GroupIndex(0, 1)]
    assert stats.mode == "coded_multicast" and stats.chosen_i == 1
    ratio = stats.coded_fronthaul_bits / stats.naive_fronthaul_bits
    assert abs(ratio - 1 / 2) < 0.02


def _increasing_dof(m, j, cfg):
    # Rewards wider cooperation, so some groups split among several cooperation sets.
    return 0.5 + 0.5 * j / cfg.num_ens


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_array_oracle_matches_the_reference_loop(data):
    nt, nr = data.draw(st.integers(2, 4)), data.draw(st.integers(2, 4))
    nfiles = data.draw(st.integers(nr, nr + 2))
    mus = st.sampled_from([0.0, 0.2, 0.5, 1.0])
    cfg = make_cfg(nt, nr, nfiles, data.draw(mus), data.draw(mus), data.draw(st.sampled_from([0.01, 1.0, 100.0])))
    if data.draw(st.booleans()):
        demand = DemandVector(tuple(data.draw(st.permutations(range(1, nfiles + 1)))[:nr]))
    else:
        demands = data.draw(st.lists(st.integers(1, nfiles), min_size=nr, max_size=nr))
        if data.draw(st.booleans()):
            # Two users demand one file, which gets one count table.
            demands[-1] = demands[0]
        demand = DemandVector(tuple(demands))
    size = data.draw(st.integers(1, 3000))
    seed = data.draw(st.integers(0, 2**32 - 1))
    if data.draw(st.booleans()):
        placement = sample_placement(cfg, size, seed)
    else:
        # Hand-built labels of any unsigned type wide enough, drawn from a
        # few labels or from all of them, whatever the cache fractions allow.
        rng = np.random.default_rng(seed)
        top = 1 << (nt + nr)
        palette = rng.integers(0, top, data.draw(st.sampled_from([1, 3, top])))
        label_type = data.draw(st.sampled_from([np.uint8, np.uint16, np.uint32, np.uint64]))
        labels = palette[rng.integers(0, palette.size, (nfiles, size))].astype(label_type)
        bits = rng.integers(0, 2, (nfiles, size), dtype=np.uint8)
        placement = PlacementRealization(cfg, size, None, labels, bits)
    schedule = build_schedule(cfg, demand, dof=data.draw(st.sampled_from([per_user_dof_default, _increasing_dof])))
    record = data.draw(st.booleans())
    got = execute_schedule(placement, demand, schedule, record)
    want = reference_execute_schedule(placement, demand, schedule, record)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    assert got == want


def _load_micro_fixture():
    doc = json.loads((FIXTURES / "micro_2x2.json").read_text(encoding="utf-8"))
    cfg = config_from_dict(doc["config"])
    file_size = doc["file_size_bits"]
    labels = np.zeros((cfg.num_files, file_size), dtype=np.uint32)
    for entry in doc["files"]:
        for cell in entry["cells"]:
            label = pack_label(cell["ues"], cell["ens"], cfg)
            for bit in cell["bits"]:
                labels[entry["file"] - 1, bit] = label
    bits = np.zeros((cfg.num_files, file_size), dtype=np.uint8)
    for file_id, values in doc["file_bits"].items():
        bits[int(file_id) - 1] = values
    placement = PlacementRealization(cfg, file_size, None, labels, bits)
    return doc, cfg, placement


def test_golden_micro_instance_traces_exactly():
    doc, cfg, placement = _load_micro_fixture()
    demand = DemandVector(tuple(doc["demand"]))
    schedule = build_schedule(cfg, demand)
    expected = doc["expected"]

    g01 = schedule.groups[GroupIndex(0, 1)]
    assert g01.chosen_i == expected["group_0_1"]["chosen_i"]
    assert g01.mode == expected["group_0_1"]["mode"]
    g11 = schedule.groups[GroupIndex(1, 1)]
    assert g11.chosen_i == expected["group_1_1"]["chosen_i"]
    assert g11.mode == expected["group_1_1"]["mode"]

    report = execute_schedule(placement, demand, schedule, record_payloads=True)
    assert list(report.per_ue_success) == expected["per_ue_success"]
    assert report.fronthaul_bits == expected["fronthaul_bits"]
    assert {str(k): v for k, v in report.access_bits_by_coop.items()} == expected["access_bits_by_coop"]
    assert report.padding_overhead_bits == expected["padding_overhead_bits"]
    assert report.empirical_tau_f == expected["empirical_tau_f"]
    assert report.empirical_tau_a == expected["empirical_tau_a"]

    got = [
        {
            "channel": rec.channel,
            "m": rec.m,
            "n": rec.n,
            "ue_group": list(rec.ue_group),
            "coop_set": list(rec.coop_set),
            "cache_sets": [list(c) for c in rec.cache_sets],
            "payload_hex": rec.payload_hex,
            "bit_len": rec.bit_len,
        }
        for rec in report.payloads
    ]
    assert got == expected["payloads"]


def test_golden_micro_loads_match_hand_computation():
    doc, cfg, placement = _load_micro_fixture()
    demand = DemandVector(tuple(doc["demand"]))
    schedule = build_schedule(cfg, demand)
    report = execute_schedule(placement, demand, schedule)
    # Group (0, 1) delivers four two-bit slices, two per user, at full
    # cooperation; group (1, 1) delivers one shared two-bit message alone.
    assert report.per_group[GroupIndex(0, 1)].max_per_ue_access_bits == 4
    assert report.per_group[GroupIndex(1, 1)].max_per_ue_access_bits == 2
    assert report.per_group[GroupIndex(1, 1)].fronthaul_bits == 0
    assert report.per_group[GroupIndex(1, 1)].naive_fronthaul_bits == 2


class _NoCellIndex(PlacementRealization):
    """A placement whose sorted cell index may not be built."""

    def cell_indices(self, file_id):
        raise _IndexBuilt(file_id)


class _IndexBuilt(Exception):
    pass


@pytest.mark.parametrize("source", ["sampled", "hand_built"])
def test_default_report_reads_no_payload_bit(source):
    if source == "sampled":
        cfg = make_cfg(nt=3, nr=3, mu_t=0.5, mu_r=0.25, r=2.0)
        placement, demand = sample_placement(cfg, 5000, seed=9), None
    else:
        doc, cfg, placement = _load_micro_fixture()
        demand = DemandVector(tuple(doc["demand"]))
    schedule = build_schedule(cfg, demand)
    want = execute_schedule(placement, schedule.demand, schedule)
    assert "_cells" not in vars(placement)
    # A sampled placement's contents stay undrawn until something reads them.
    assert ("file_bits" in vars(placement)) == (source == "hand_built")
    assert want.fronthaul_bits > 0 and sum(want.access_bits_by_coop.values()) > 0
    # No file contents and no sorted cell index: the report reads counts only.
    bare = _NoCellIndex(cfg, placement.file_size_bits, placement.seed, placement.bit_labels, None)
    assert execute_schedule(bare, schedule.demand, schedule).to_dict() == want.to_dict()
    # Recorded payloads do read the index.
    with pytest.raises(_IndexBuilt):
        execute_schedule(bare, schedule.demand, schedule, record_payloads=True)
    assert execute_schedule(placement, schedule.demand, schedule, record_payloads=True).payloads
    assert "_cells" in vars(placement)


def test_recorded_run_indexes_the_demanded_files_only():
    cfg = make_cfg(nt=3, nr=3, mu_t=0.5, mu_r=0.25, r=2.0)
    placement = sample_placement(cfg, 5000, seed=9)
    schedule = build_schedule(cfg, DemandVector((2, 2, 3)))
    assert execute_schedule(placement, schedule.demand, schedule, record_payloads=True).payloads
    # Rows 1 and 2 hold files 2 and 3; file 1 is never sorted.
    assert sorted(vars(placement)["_cells"]) == [1, 2]


class _SwappedCellIndex(PlacementRealization):
    """A placement whose sorted cell index of each file is the next file's."""

    def cell_indices(self, file_id):
        return super().cell_indices(file_id % self.cfg.num_files + 1)


def test_recorded_run_checks_the_cell_index_against_the_counts():
    cfg = make_cfg(nt=3, nr=3, mu_t=0.5, mu_r=0.25, r=2.0)
    placement = sample_placement(cfg, 5000, seed=9)
    swapped = _SwappedCellIndex(cfg, 5000, 9, placement.bit_labels, None)
    schedule = build_schedule(cfg)
    want = execute_schedule(placement, schedule.demand, schedule)
    assert execute_schedule(swapped, schedule.demand, schedule) == want
    with pytest.raises(RuntimeError, match="cell counts disagree with the sorted cell index"):
        execute_schedule(swapped, schedule.demand, schedule, record_payloads=True)


# Fault injection: the oracle reads the plan's own structure, so a wrong plan
# must surface as a decode failure.  At this 3x2 shape the increasing DoF
# gives group (1, 1) coded fronthaul at i = 1, group (0, 0) naive fronthaul
# at full cooperation and group (0, 1) no fronthaul at i = 0.  Each edited
# plan runs through the array oracle and the reference loop, which must fail
# alike or report alike.
def _faulty_run(edit_group, edit, cfg=make_cfg(nt=3, nr=2, mu_t=0.25, mu_r=0.25, r=2.0), placement=None):
    schedule = build_schedule(cfg, dof=_increasing_dof)
    plan = schedule.groups[edit_group]
    edit(plan)
    placement = sample_placement(cfg, 4000, seed=5) if placement is None else placement
    try:
        want = reference_execute_schedule(placement, schedule.demand, schedule)
    except DecodeFailure as failure:
        with pytest.raises(DecodeFailure) as err:
            execute_schedule(placement, schedule.demand, schedule)
        assert (err.value.node, err.value.message_key, err.value.missing) == (
            failure.node, failure.message_key, failure.missing
        )
        raise err.value
    got = execute_schedule(placement, schedule.demand, schedule)
    assert got == want
    return got


def _edit_transmissions(change):
    def edit(plan):
        vars(plan)["fronthaul"] = change(list(plan.fronthaul))

    return edit


def test_wrong_cache_set_fails_at_an_edge_node():
    def wrong(txs):
        assert txs[0].cache_sets == ((1,), (2,))
        return (txs[0]._replace(cache_sets=((1,), (3,))), *txs[1:])

    with pytest.raises(DecodeFailure) as err:
        _faulty_run(GroupIndex(1, 1), _edit_transmissions(wrong))
    assert err.value.node == ("en", 1)


@pytest.mark.parametrize("group", [GroupIndex(0, 0), GroupIndex(1, 1)])
def test_dropped_transmission_fails_at_an_edge_node(group):
    with pytest.raises(DecodeFailure) as err:
        _faulty_run(group, _edit_transmissions(lambda txs: tuple(txs[1:])))
    assert err.value.node[0] == "en"


def test_node_outside_a_payload_decodes_nothing_from_it():
    # At this 4x2 shape group (1, 2) is coded at i = 2: the cooperation set of
    # all four edge nodes gets one payload per 3-subset d, and a node outside
    # d caches none of its three pieces.  Without the payload for d = (1, 2, 3),
    # edge node 3 never learns sub-message (1, 2), though it is unknown to it
    # in the payload for (1, 2, 4).
    cfg = make_cfg(nt=4, nr=2, mu_t=0.5, mu_r=0.25, r=4.0)
    plan = build_schedule(cfg, dof=_increasing_dof).groups[GroupIndex(1, 2)]
    assert plan.fronthaul[0].cache_sets == ((1, 2), (1, 3), (2, 3))
    with pytest.raises(DecodeFailure) as err:
        _faulty_run(GroupIndex(1, 2), _edit_transmissions(lambda txs: tuple(txs[1:])), cfg)
    assert err.value.node == ("en", 3) and err.value.missing == (1, 2)


def test_dropped_message_leaves_its_user_undecoded():
    def drop_first(plan):
        assert plan.chosen_i == 0 and plan.messages[0].ue_group == (1,)
        vars(plan)["messages"] = plan.messages[1:]

    report = _faulty_run(GroupIndex(0, 1), drop_first)
    assert report.per_ue_success == (False, True)


def test_a_cell_recovered_twice_counts_once():
    # Both files hold two equal cells, cached at edge node 1 alone and at edge
    # node 1 with user 2.  Group (0, 1) sends user 1 the first; replacing that
    # message by group (1, 1)'s message to users 1 and 2 makes user 1 recover
    # the second cell twice and the first never.
    cfg = make_cfg(nt=3, nr=2, mu_t=0.25, mu_r=0.25, r=2.0)
    cells = [pack_label((), (1,), cfg), pack_label((2,), (1,), cfg)]
    labels = np.array([cells * 50] * 2, dtype=np.uint32)
    placement = PlacementRealization(cfg, 100, None, labels, np.ones_like(labels, dtype=np.uint8))

    def replace_first(plan):
        assert plan.messages[0] == ((1,), (1,))
        vars(plan)["messages"] = (((1, 2), (1,)), *plan.messages[1:])

    report = _faulty_run(GroupIndex(0, 1), replace_first, cfg, placement)
    assert report.per_ue_success == (False, True)


def test_coded_cost_counts_missing_sub_messages_as_empty():
    # Group (0, 1) sent naively at i = 2, alone in the schedule, without the
    # sub-messages of (2,) for user 1 and of (3,) for both users.  Its coded
    # payloads still name them: (3,) is a cache set no plan holds, and (2,)
    # one that user 1 lacks.  Each costs nothing, as in the reference.
    cfg = make_cfg(nt=3, nr=2, mu_t=0.25, mu_r=0.25, r=2.0)
    schedule = build_schedule(cfg)
    plan = dataclasses.replace(schedule.groups[GroupIndex(0, 1)], chosen_i=2)
    dropped = {((1,), (2,)), ((1,), (3,)), ((2,), (3,))}
    vars(plan)["messages"] = tuple(msg for msg in plan.messages if msg not in dropped)
    vars(plan)["fronthaul"] = tuple(tx for tx in plan.fronthaul if (tx.ue_group, *tx.cache_sets) not in dropped)
    vars(schedule)["groups"] = {plan.index: plan}
    placement = sample_placement(cfg, 4000, seed=5)
    got = execute_schedule(placement, schedule.demand, schedule)
    assert got == reference_execute_schedule(placement, schedule.demand, schedule)
    assert got.per_group[plan.index].coded_fronthaul_bits > 0


class _NoCounts(PlacementRealization):
    """A placement whose counts and sorted cell index may not be read."""

    def cell_counts(self, file_id):
        raise AssertionError(f"count table of file {file_id} read")

    def cell_indices(self, file_id):
        raise AssertionError(f"cell index of file {file_id} read")


def test_a_plan_error_reads_no_count():
    # The schedule stage raises every error of a plan before the count stage
    # reads the placement: the same DecodeFailure as with a placement that
    # may be read, and the same ValueError.
    cfg = make_cfg(nt=3, nr=2, mu_t=0.25, mu_r=0.25, r=2.0)
    bare = _NoCounts(cfg, 4000, 5, sample_placement(cfg, 4000, seed=5).bit_labels, None)
    drop_first = _edit_transmissions(lambda txs: tuple(txs[1:]))
    with pytest.raises(DecodeFailure) as want:
        _faulty_run(GroupIndex(1, 1), drop_first, cfg)
    schedule = build_schedule(cfg, dof=_increasing_dof)
    drop_first(schedule.groups[GroupIndex(1, 1)])
    with pytest.raises(DecodeFailure) as got:
        execute_schedule(bare, schedule.demand, schedule)
    assert (got.value.node, got.value.message_key, got.value.missing) == (
        want.value.node, want.value.message_key, want.value.missing
    )
    schedule = build_schedule(cfg)
    plan = schedule.groups[GroupIndex(0, 1)]
    vars(plan)["messages"] = (plan.messages[0], *plan.messages)
    with pytest.raises(ValueError, match="a plan lists a sub-message twice"):
        execute_schedule(bare, schedule.demand, schedule)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda msgs: (msgs[0], *msgs), "a plan lists a sub-message twice"),
        (lambda msgs: (((3,), (1,)), *msgs[1:]), "a message names a node outside the network"),
    ],
)
def test_malformed_messages_are_refused(edit, message):
    cfg = make_cfg(nt=3, nr=2, mu_t=0.25, mu_r=0.25, r=2.0)
    schedule = build_schedule(cfg)
    plan = schedule.groups[GroupIndex(0, 1)]
    vars(plan)["messages"] = edit(plan.messages)
    with pytest.raises(ValueError, match=message):
        execute_schedule(sample_placement(cfg, 400, seed=5), schedule.demand, schedule)
