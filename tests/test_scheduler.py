from __future__ import annotations

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fogndt.bounds import bounds_report, ndt_upper
from fogndt.dof import per_user_dof_default
from fogndt.model import DemandVector, GroupIndex, validate_group
from fogndt.placement import fractional_size
from fogndt.scheduler import (
    CODED_MULTICAST,
    NAIVE_MULTICAST,
    CodedMessage,
    FronthaulTransmission,
    build_schedule,
    coded_messages_for_group,
    cooperation_increments,
    coop_sets_for,
    fronthaul_mode,
    fronthaul_payloads,
    fronthaul_plan,
    _row_table,
)
from conftest import make_cfg, reference_3x3_group_pairs


def _fraction(m, n, cfg):
    """The subfile fraction of group (m, n), written out in the scheduler's operand order."""
    return cfg.mu_r ** m * (1.0 - cfg.mu_r) ** (cfg.num_ues - m) * cfg.mu_t ** n * (1.0 - cfg.mu_t) ** (cfg.num_ens - n)


def _rows(group, cfg, dof=per_user_dof_default):
    """Reference rows (total, i, load, tau_f, tau_a, d) of one group, by admissible i.

    Straight-line per-group formula: ``min`` over the rows is the plan the
    scheduler must pick, ties going to the smaller i.
    """
    m, n = group
    nt, nr, r = cfg.num_ens, cfg.num_ues, cfg.fronthaul_r
    f = _fraction(m, n, cfg)
    b_en = math.comb(nt, n)
    b_load = math.comb(nr, m + 1) * b_en
    access = math.comb(nr - 1, m) * b_en * f
    rows = {}
    for i in cooperation_increments(n, nt):
        load = b_load * min(1.0, i / (n + 1)) * f
        d = dof(m, n + i, cfg)
        tau_f = load / r
        tau_a = access / d
        rows[i] = (tau_f + tau_a, i, load, tau_f, tau_a, d)
    return rows


def test_message_count_3x3_group_1_1():
    cfg = make_cfg(nt=3, nr=3)
    msgs = coded_messages_for_group(GroupIndex(1, 1), cfg)
    assert len(msgs) == 9
    for msg in msgs:
        assert len(msg.ue_group) == 2
        assert len(msg.en_cache_set) == 1


def test_message_count_full_user_group():
    cfg = make_cfg(nt=3, nr=4, nfiles=4)
    msgs = coded_messages_for_group(GroupIndex(3, 2), cfg)
    assert len(msgs) == math.comb(3, 2)
    assert all(msg.ue_group == (1, 2, 3, 4) for msg in msgs)


def test_bare_subfiles_for_uncached_group():
    cfg = make_cfg(nt=2, nr=2)
    msgs = coded_messages_for_group(GroupIndex(0, 0), cfg)
    assert [(m.ue_group, m.en_cache_set) for m in msgs] == [((1,), ()), ((2,), ())]


def test_messages_demand_maps_files():
    # Demands map to files only where the oracle realizes constituents, so
    # the exported schedule differs between demands in its demand alone.
    cfg = make_cfg(nt=2, nr=2, nfiles=3)
    a = build_schedule(cfg, DemandVector((3, 3))).to_json()
    b = build_schedule(cfg).to_json()
    assert (a.pop("demand"), b.pop("demand")) == ([3, 3], [1, 2])
    assert a == b


def test_messages_emitted_in_lexicographic_order():
    cfg = make_cfg(nt=3, nr=3)
    msgs = coded_messages_for_group(GroupIndex(1, 1), cfg)
    keys = [(m.ue_group, m.en_cache_set) for m in msgs]
    assert keys == sorted(keys)


def test_candidates_2x2_against_straight_line_arithmetic():
    f = 0.5 ** 0 * (1 - 0.5) ** 2 * 0.5 ** 1 * (1 - 0.5) ** 1
    d1 = max(2 / (2 + (2 - 0 - 1) / (0 + 1)), 0.5)
    for r in (1.0, 1e9):
        cfg = make_cfg(nt=2, nr=2, mu_t=0.5, mu_r=0.5, r=r)
        expected = {
            0: (
                math.comb(2, 1) * math.comb(2, 1) * min(1.0, 0 / 2) * f / r,
                math.comb(1, 0) * math.comb(2, 1) * f / d1,
            ),
            1: (
                math.comb(2, 1) * math.comb(2, 1) * min(1.0, 1 / 2) * f / r,
                math.comb(1, 0) * math.comb(2, 1) * f / 1.0,
            ),
        }
        rows = _rows(GroupIndex(0, 1), cfg)
        for i, (tau_f, tau_a) in expected.items():
            assert rows[i][3:5] == (tau_f, tau_a)
        i_star = min(expected, key=lambda i: sum(expected[i]))
        plan = build_schedule(cfg).groups[GroupIndex(0, 1)]
        assert plan.chosen_i == i_star == (0 if r == 1.0 else 1)
        assert (plan.tau_f, plan.tau_a) == expected[i_star]


def test_candidates_3x3_single_en_fronthaul_form():
    # For one caching edge node the fronthaul time collapses to the
    # closed form 3 * C(3, m+1) * i * f / (2r).
    cfg = make_cfg(nt=3, nr=3, mu_t=0.4, mu_r=0.3, r=2.0)
    f = 0.3 ** 1 * (1 - 0.3) ** 2 * 0.4 ** 1 * (1 - 0.4) ** 2
    rows = _rows(GroupIndex(1, 1), cfg)
    for i in (0, 1, 2):
        assert rows[i][2] / cfg.fronthaul_r == 3 * math.comb(3, 2) * i * f / (2 * 2.0)


def test_candidates_zero_fronthaul_at_i_zero():
    cfg = make_cfg(nt=4, nr=3, mu_t=0.3, mu_r=0.3)
    assert _rows(GroupIndex(1, 1), cfg)[0][2] == 0.0


def test_candidates_n0_single_entry():
    cfg = make_cfg(nt=3, nr=3, mu_t=0.2, mu_r=0.2, r=2.0)
    f = 0.2 ** 1 * 0.8 ** 2 * 0.2 ** 0 * 0.8 ** 3
    assert list(cooperation_increments(0, cfg.num_ens)) == [3]
    plan = build_schedule(cfg).groups[GroupIndex(1, 0)]
    assert plan.chosen_i == 3
    assert (plan.tau_f, plan.tau_a) == (math.comb(3, 2) * f / 2.0, math.comb(2, 1) * f / 1.0)


def test_candidates_match_group_terms_bitwise():
    # Each plan carries the row min picks among its group's candidates, and
    # the closed-form bound sums the same per-group times.
    for cfg in (
        make_cfg(nt=3, nr=4, nfiles=4, mu_t=0.37, mu_r=0.81, r=0.7),
        make_cfg(nt=5, nr=2, mu_t=0.64, mu_r=0.11, r=13.0),
    ):
        schedule = build_schedule(cfg)
        assert len(schedule.groups) == cfg.num_ues * (cfg.num_ens + 1)
        for group, plan in schedule.groups.items():
            _total, i_star, load, tau_f, tau_a, d = min(_rows(group, cfg).values())
            assert plan.size_fraction == fractional_size(*group, cfg)
            assert (plan.chosen_i, plan.fronthaul_load, plan.tau_f, plan.tau_a, plan.dof_value) == (
                i_star, load, tau_f, tau_a, d
            )
            assert plan.fronthaul_load / cfg.fronthaul_r == plan.tau_f
        assert ndt_upper(cfg) == schedule.breakdown.total


def test_fractional_size_equals_the_written_out_product():
    # fractional_size reads the scheduler's factor tables.  Over every (m, n)
    # of shapes 2..6 and fractions of each type it may hold, it equals the
    # written-out product, bit for bit where nonzero: 0.0 and -0.0 share a
    # table, so only the sign of a zero may differ.
    mus = [0, 1, 0.0, -0.0, 1.0, 0.1, 0.37, 0.5, 0.81, np.float64(0.0), np.float64(-0.0), np.float64(0.3), np.float64(1.0)]
    for nt, nr, mu_t, mu_r in itertools.product(range(2, 7), range(2, 7), mus, mus):
        cfg = make_cfg(nt=nt, nr=nr, mu_t=mu_t, mu_r=mu_r)
        for m, n in itertools.product(range(nr + 1), range(nt + 1)):
            got, want = fractional_size(m, n, cfg), _fraction(m, n, cfg)
            assert got == want
            if want != 0.0:
                assert repr(got) == repr(want)


def _step_dof(m, j, cfg):
    return 1.0 if j >= 3 else 0.5


def _increasing_dof(m, j, cfg):
    return 0.5 + 0.5 * j / cfg.num_ens


_UNIT = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(
    nt=st.integers(2, 7),
    nr=st.integers(2, 7),
    mu_t=_UNIT,
    mu_r=_UNIT,
    r=st.one_of(st.floats(1e-3, 1e9), st.just(math.inf)),
    dof=st.sampled_from([per_user_dof_default, _step_dof, _increasing_dof]),
)
def test_plans_equal_reference_rows_bitwise(nt, nr, mu_t, mu_r, r, dof):
    # Every plan is the row min picks among the straight-line reference
    # rows, and the closed-form bound sums the same per-group times.  repr
    # round-trips floats and tells -0.0 from 0.0, so equal reprs are equal bits.
    cfg = make_cfg(nt=nt, nr=nr, mu_t=mu_t, mu_r=mu_r, r=r)
    schedule = build_schedule(cfg, dof=dof)
    nonzero = {
        GroupIndex(m, n)
        for m in range(nr)
        for n in range(nt + 1)
        if _fraction(m, n, cfg) != 0.0
    }
    assert set(schedule.groups) == nonzero
    for group, plan in schedule.groups.items():
        _total, *expected = min(_rows(group, cfg, dof).values())
        got = [plan.chosen_i, plan.fronthaul_load, plan.tau_f, plan.tau_a, plan.dof_value]
        assert repr(got) == repr(expected)
        assert repr(plan.size_fraction) == repr(_fraction(*group, cfg))
    # The totals re-summed from 0.0 in ascending (m, n) order: the one
    # reduction order both the breakdown and the bounds must keep.
    total_f = total_a = 0.0
    for group in sorted(schedule.groups):
        total_f += schedule.groups[group].tau_f
        total_a += schedule.groups[group].tau_a
    breakdown = schedule.breakdown
    assert repr((breakdown.total_f, breakdown.total_a, breakdown.total)) == repr((total_f, total_a, total_f + total_a))
    assert repr(ndt_upper(cfg, dof)) == repr(breakdown.total)
    assert repr(bounds_report(cfg, dof).tau_upper) == repr(breakdown.total)


@settings(max_examples=200, deadline=None)
@given(
    nt=st.integers(2, 6),
    nr=st.integers(2, 5),
    mu_t=_UNIT,
    mu_r=_UNIT,
    r=st.one_of(st.floats(1e-3, 1e9), st.just(math.inf)),
    data=st.data(),
)
def test_plans_equal_reference_rows_for_any_dof_table(nt, nr, mu_t, mu_r, r, data):
    # The row table drops each increment whose DoF is no larger than a smaller
    # increment's.  Against every reference row, for DoF values in (0, 1] that
    # may fall, repeat or rise in j, the plans must not change by a bit.
    values = st.one_of(st.sampled_from([0.25, 0.5, 1.0]), st.floats(1e-3, 1.0))
    table = data.draw(st.lists(st.lists(values, min_size=nt, max_size=nt), min_size=nr, max_size=nr))

    def dof(m, j, cfg):
        return table[m][j - 1]

    cfg = make_cfg(nt=nt, nr=nr, mu_t=mu_t, mu_r=mu_r, r=r)
    schedule = build_schedule(cfg, dof=dof)
    for group, plan in schedule.groups.items():
        _total, *expected = min(_rows(group, cfg, dof).values())
        assert repr([plan.chosen_i, plan.fronthaul_load, plan.tau_f, plan.tau_a, plan.dof_value]) == repr(expected)
    assert repr(ndt_upper(cfg, dof)) == repr(schedule.breakdown.total)


def test_providers_on_one_shape_keep_their_own_rows():
    # Each provider's values are kept per (provider, shape): alternating two
    # providers on one shape gives what each gives on a fresh memo.
    cfgs = [make_cfg(nt=4, nr=3, mu_t=mu, mu_r=1.0 - mu, r=r) for mu in (0.2, 0.5, 0.8) for r in (0.1, 1.0, 10.0)]

    def results(dof):
        schedules = [build_schedule(cfg, dof=dof) for cfg in cfgs]
        return [(s.breakdown, [(p.chosen_i, p.dof_value) for p in s.groups.values()]) for s in schedules], [
            bounds_report(cfg, dof) for cfg in cfgs
        ]

    fresh = {}
    for dof in (_step_dof, _increasing_dof):
        _row_table.cache_clear()
        fresh[dof] = results(dof)
    assert fresh[_step_dof] != fresh[_increasing_dof]
    for _ in range(2):
        for dof in (_step_dof, _increasing_dof):
            assert results(dof) == fresh[dof]


def test_optimize_prefers_no_fronthaul_when_r_tiny():
    cfg = make_cfg(nt=4, nr=4, nfiles=4, mu_t=0.5, mu_r=0.5, r=1e-9)
    groups = build_schedule(cfg).groups
    assert all(plan.chosen_i == 0 for g, plan in groups.items() if g.n >= 1)


def test_optimize_maxes_cooperation_when_r_huge():
    def increasing(m, j, cfg):
        return 0.5 + 0.5 * j / cfg.num_ens

    cfg = make_cfg(nt=3, nr=3, mu_t=0.5, mu_r=0.5, r=1e9)
    groups = build_schedule(cfg, dof=increasing).groups
    assert all(plan.chosen_i == cfg.num_ens - g.n for g, plan in groups.items())


def test_optimize_never_beats_i_zero_claim():
    cfg = make_cfg(nt=3, nr=3, mu_t=0.4, mu_r=0.3, r=2.0)
    for g, plan in build_schedule(cfg).groups.items():
        if g.n >= 1:
            access_at_i0 = math.comb(2, g.m) * math.comb(3, g.n) * plan.size_fraction
            assert plan.tau_f + plan.tau_a <= access_at_i0 / per_user_dof_default(g.m, g.n, cfg)


def test_optimize_ties_go_to_smaller_i():
    # At n = 1 the fronthaul load saturates from i = 2 on, and this DoF is
    # flat from cooperation level 3 on, so i = 2 and i = 3 tie exactly.
    def step(m, j, cfg):
        return 1.0 if j >= 3 else 0.5

    cfg = make_cfg(nt=4, nr=2, mu_t=0.5, mu_r=0.5, r=1e6)
    assert build_schedule(cfg, dof=step).groups[GroupIndex(0, 1)].chosen_i == 2


def test_optimize_rejects_n0():
    # A group cached at no edge node has no cooperation choice: where every
    # other group skips the costly fronthaul, it still takes full cooperation.
    cfg = make_cfg(nt=3, nr=3, r=1e-9)
    groups = build_schedule(cfg).groups
    assert all(plan.chosen_i == (cfg.num_ens if g.n == 0 else 0) for g, plan in groups.items())


def test_sub_message_split_counts():
    # Cooperation level 3 is worth its fronthaul under this step DoF, so
    # group (0, 1) splits each message among binom(3, 2) cooperation sets.
    def step(m, j, cfg):
        return 1.0 if j >= 3 else 0.3

    cfg = make_cfg(nt=4, nr=2, mu_t=0.5, mu_r=0.5, r=1e6)
    plan = build_schedule(cfg, dof=step).groups[GroupIndex(0, 1)]
    assert plan.chosen_i == 2
    assert list(plan.sub_messages) == [(1,), (2,), (3,), (4,)]
    for cache, coops in plan.sub_messages.items():
        assert len(coops) == math.comb(3, 2)
        for coop in coops:
            assert set(cache) <= set(coop)
            assert len(coop) == 3


def test_coop_sets_sorted_and_supersets():
    cfg = make_cfg(nt=4, nr=2)
    sets = coop_sets_for((2,), 2, cfg)
    assert sets == [(1, 2, 3), (1, 2, 4), (2, 3, 4)]


@settings(max_examples=300, deadline=None)
@given(nt=st.integers(2, 9), data=st.data())
def test_coop_sets_come_out_strictly_ascending(nt, data):
    cfg = make_cfg(nt=nt, nr=2)
    en_set = tuple(sorted(data.draw(st.sets(st.integers(1, nt), max_size=nt))))
    i = data.draw(st.integers(0, nt - len(en_set)))
    sets = coop_sets_for(en_set, i, cfg)
    assert sets == sorted(sets)
    assert all(a < b for a, b in zip(sets, sets[1:]))
    assert len(sets) == math.comb(nt - len(en_set), i)


def test_structure_helpers_refuse_malformed_input():
    cfg = make_cfg(nt=3, nr=3)
    for en_set in ((9,), (0,), (2, 2), (3, 1), (1.5,), (True,)):
        with pytest.raises(ValueError, match="edge-node cache set"):
            coop_sets_for(en_set, 1, cfg)
    for i in (1.0, True, np.int64(1), -1, 3):
        with pytest.raises(ValueError, match="cooperation increment"):
            coop_sets_for((2,), i, cfg)
        with pytest.raises(ValueError, match="cooperation increment"):
            fronthaul_plan(GroupIndex(0, 1), i, cfg)
    for group in ((0, True), (True, 0), (0, 1.0), (1.0, 0), (False, 1)):
        with pytest.raises(ValueError, match="group"):
            validate_group(group, cfg)
        with pytest.raises(ValueError, match="group"):
            coded_messages_for_group(group, cfg)
    assert coop_sets_for((), 3, cfg) == [(1, 2, 3)]


@pytest.mark.parametrize("en_set", [[2], [], range(1, 2), "2", 2, np.array([2])])
def test_coop_sets_refuse_a_cache_set_that_is_no_tuple(en_set):
    with pytest.raises(ValueError, match="edge-node cache set"):
        coop_sets_for(en_set, 1, make_cfg(nt=3, nr=3))


@pytest.mark.parametrize("mode", ["bogus", "", None, "CODED_MULTICAST", "naive"])
def test_fronthaul_payloads_refuse_an_unknown_mode(mode):
    with pytest.raises(ValueError, match="unknown fronthaul mode"):
        fronthaul_payloads((1, 2, 3), 1, mode)
    assert fronthaul_payloads((1, 2, 3), 1, CODED_MULTICAST) == [((1,), (2,)), ((1,), (3,)), ((2,), (3,))]


def test_structures_are_plain_named_tuples_in_reference_order():
    for nt, nr in itertools.product(range(2, 6), repeat=2):
        cfg = make_cfg(nt=nt, nr=nr)
        for m, n in itertools.product(range(nr), range(nt + 1)):
            ue_groups = list(itertools.combinations(range(1, nr + 1), m + 1))
            messages = coded_messages_for_group(GroupIndex(m, n), cfg)
            reference = list(itertools.starmap(
                CodedMessage, itertools.product(ue_groups, itertools.combinations(range(1, nt + 1), n))
            ))
            assert messages == reference
            assert all(type(msg) is CodedMessage for msg in messages)
            assert [(msg.ue_group, msg.en_cache_set) for msg in messages] == [tuple(msg) for msg in reference]
            for i in cooperation_increments(n, nt):
                plan = fronthaul_plan(GroupIndex(m, n), i, cfg)
                reference = list(itertools.starmap(FronthaulTransmission, (
                    (u, coop, caches)
                    for coop in itertools.combinations(range(1, nt + 1), n + i)
                    for u in ue_groups
                    for caches in fronthaul_payloads(coop, n, fronthaul_mode(n, i))
                )))
                assert list(plan) == reference
                assert all(type(tx) is FronthaulTransmission for tx in plan)
                assert [(tx.ue_group, tx.coop_set, tx.cache_sets) for tx in plan] == [tuple(tx) for tx in reference]
        for plan in build_schedule(cfg).groups.values():
            assert all(type(msg) is CodedMessage for msg in plan.messages)
            assert all(type(tx) is FronthaulTransmission for tx in plan.fronthaul)


def test_plans_with_one_sub_message_table_edit_apart():
    # Under this step DoF groups (0, 1) and (1, 1) both take i = 2, so their sub-message
    # tables are equal, with three cooperation sets per cache set.
    def step(m, j, cfg):
        return 1.0 if j >= 3 else 0.3

    schedule = build_schedule(make_cfg(nt=4, nr=2, r=10.0), dof=step)
    a, b = schedule.groups[GroupIndex(0, 1)], schedule.groups[GroupIndex(1, 1)]
    assert (a.index.n, a.chosen_i) == (b.index.n, b.chosen_i) == (1, 2)
    assert a.sub_messages == b.sub_messages
    assert a.sub_messages is not b.sub_messages
    ia, ib = map(sorted(schedule.groups).index, (a.index, b.index))
    b_doc = schedule.to_json()["groups"][ib]
    expected_b = dict(b.sub_messages)

    # In place: a's splits of cache set (1,) lose all but their first cooperation set.
    a.sub_messages[(1,)] = a.sub_messages[(1,)][:1]
    assert b.sub_messages == expected_b
    doc = schedule.to_json()
    assert doc["groups"][ib] == b_doc
    assert doc["groups"][ia]["messages"][0]["sub_messages"] == [{"coop_set": (1, 2, 3)}]
    assert "".join(schedule.json_chunks()) == json.dumps(doc, indent=2)

    # Through the instance dict: a's cache set (2,) is split over one set it does not hold.
    vars(a)["sub_messages"] = {**a.sub_messages, (2,): ((1, 3, 4),)}
    assert b.sub_messages == expected_b
    doc = schedule.to_json()
    assert doc["groups"][ib] == b_doc
    assert "".join(schedule.json_chunks()) == json.dumps(doc, indent=2)

    # A fresh schedule of the same config reads the unedited table.
    fresh = build_schedule(schedule.cfg, dof=step).groups[GroupIndex(0, 1)]
    assert fresh.sub_messages == expected_b


def test_fronthaul_mode_selection():
    cfg = make_cfg(nt=4, nr=2, mu_t=0.5, mu_r=0.5)
    # i = 1: XOR combining sends binom(2,2)=1 payload against binom(2,1)=2.
    assert fronthaul_mode(1, 1) == CODED_MULTICAST
    assert all(len(tx.cache_sets) == 2 for tx in fronthaul_plan(GroupIndex(0, 1), 1, cfg))
    # i = 3: binom(4,1)=4 one-by-one payloads against binom(4,2)=6 XORs.
    assert fronthaul_mode(1, 3) == NAIVE_MULTICAST
    assert all(len(tx.cache_sets) == 1 for tx in fronthaul_plan(GroupIndex(0, 1), 3, cfg))


def test_fronthaul_plan_i_zero_is_empty():
    cfg = make_cfg(nt=3, nr=2, mu_t=0.4, mu_r=0.4)
    assert fronthaul_mode(2, 0) == CODED_MULTICAST
    assert fronthaul_plan(GroupIndex(0, 2), 0, cfg) == ()


def test_fronthaul_load_matches_min_rule():
    cfg = make_cfg(nt=4, nr=3, nfiles=3, mu_t=0.3, mu_r=0.2)
    for n in (1, 2):
        f = fractional_size(1, n, cfg)
        rows = _rows(GroupIndex(1, n), cfg)
        for i in range(cfg.num_ens - n + 1):
            plan = fronthaul_plan(GroupIndex(1, n), i, cfg)
            expected = math.comb(3, 2) * math.comb(4, n) * min(1.0, i / (n + 1)) * f
            assert rows[i][2] == expected
            per_pair = math.comb(n + i, n + 1 if fronthaul_mode(n, i) == CODED_MULTICAST else n)
            assert len(plan) == math.comb(4, n + i) * math.comb(3, 2) * per_pair


def test_fronthaul_n0_multicasts_every_message():
    cfg = make_cfg(nt=3, nr=2, mu_t=0.4, mu_r=0.4)
    msgs = coded_messages_for_group(GroupIndex(0, 0), cfg)
    plan = fronthaul_plan(GroupIndex(0, 0), cfg.num_ens, cfg)
    assert fronthaul_mode(0, cfg.num_ens) == NAIVE_MULTICAST
    assert len(plan) == len(msgs)
    assert all(tx.coop_set == (1, 2, 3) for tx in plan)
    scheduled = build_schedule(cfg).groups[GroupIndex(0, 0)]
    assert scheduled.chosen_i == cfg.num_ens
    assert scheduled.fronthaul_load == math.comb(2, 1) * fractional_size(0, 0, cfg)
    # Full cooperation is the only admissible increment of an uncached group.
    with pytest.raises(ValueError):
        fronthaul_plan(GroupIndex(0, 0), 0, cfg)


def test_schedule_empty_when_users_cache_everything():
    schedule = build_schedule(make_cfg(nt=3, nr=3, mu_t=0.5, mu_r=1.0))
    assert schedule.groups == {}
    assert schedule.breakdown.total == 0.0


def test_schedule_3x3_matches_specialized_expressions():
    for mu_t, mu_r, r in [(0.5, 0.5, 1.0), (0.25, 0.5, 2.0), (0.7, 0.3, 0.5)]:
        cfg = make_cfg(nt=3, nr=3, mu_t=mu_t, mu_r=mu_r, r=r)
        schedule = build_schedule(cfg)
        expected = reference_3x3_group_pairs(mu_t, mu_r, r)
        assert set(schedule.groups) == set(GroupIndex(*g) for g in expected)
        for g, (tau_f, tau_a) in expected.items():
            plan = schedule.groups[GroupIndex(*g)]
            assert plan.tau_f == tau_f
            assert plan.tau_a == tau_a


def test_schedule_total_2x2_matches_straight_line_sum():
    cfg = make_cfg(nt=2, nr=2, mu_t=0.5, mu_r=0.5, r=1.0)
    d = {
        (m, j): per_user_dof_default(m, j, cfg)
        for m in range(2)
        for j in (1, 2)
    }
    total = 0.0
    for m in range(2):
        for n in range(3):
            f = 0.5 ** m * (1 - 0.5) ** (2 - m) * 0.5 ** n * (1 - 0.5) ** (2 - n)
            if n == 0:
                total += math.comb(2, m + 1) * f / 1.0 + math.comb(1, m) * f / d[(m, 2)]
            else:
                best = None
                for i in range(2 - n + 1):
                    tf = math.comb(2, m + 1) * math.comb(2, n) * min(1.0, i / (n + 1)) * f / 1.0
                    ta = math.comb(1, m) * math.comb(2, n) * f / d[(m, n + i)]
                    if best is None or tf + ta < best:
                        best = tf + ta
                total += best
    assert build_schedule(cfg).breakdown.total == pytest.approx(total, rel=1e-15)


def test_schedule_invariant_under_demand_permutation():
    cfg = make_cfg(nt=2, nr=3, nfiles=3, mu_t=0.4, mu_r=0.3, r=2.0)
    a = build_schedule(cfg, DemandVector((1, 2, 3)))
    b = build_schedule(cfg, DemandVector((3, 1, 2)))
    assert a.breakdown == b.breakdown


def test_schedule_messages_do_not_depend_on_dof_provider():
    cfg = make_cfg(nt=3, nr=3, mu_t=0.5, mu_r=0.5, r=2.0)
    a = build_schedule(cfg)
    b = build_schedule(cfg, dof=lambda m, j, c: 0.25 + 0.75 * j / c.num_ens)
    assert set(a.groups) == set(b.groups)
    for g in a.groups:
        assert a.groups[g].messages == b.groups[g].messages
        if a.groups[g].chosen_i == b.groups[g].chosen_i:
            assert a.groups[g].sub_messages == b.groups[g].sub_messages
            assert a.groups[g].fronthaul == b.groups[g].fronthaul


def test_schedule_mode_identity():
    for cfg in (
        make_cfg(nt=3, nr=3, mu_t=0.25, mu_r=0.25, r=4.0),
        make_cfg(nt=4, nr=2, mu_t=0.6, mu_r=0.1, r=50.0),
        make_cfg(nt=2, nr=5, nfiles=5, mu_t=0.5, mu_r=0.2, r=2.0),
    ):
        schedule = build_schedule(cfg)
        for g, plan in schedule.groups.items():
            if g.n == 0:
                assert plan.mode == NAIVE_MULTICAST
            else:
                assert (plan.mode == CODED_MULTICAST) == (plan.chosen_i <= g.n)


def test_schedule_total_non_increasing_in_r():
    previous = None
    for r in [0.01 * 10 ** (k / 4) for k in range(20)]:
        cfg = make_cfg(nt=3, nr=4, nfiles=4, mu_t=0.3, mu_r=0.2, r=r)
        total = build_schedule(cfg).breakdown.total
        if previous is not None:
            assert total <= previous
        previous = total


def test_schedule_json_is_stable_and_complete():
    cfg = make_cfg(nt=2, nr=2, mu_t=0.5, mu_r=0.5, r=4.0)
    doc_a = build_schedule(cfg).to_json()
    doc_b = build_schedule(cfg).to_json()
    assert json.dumps(doc_a, sort_keys=True) == json.dumps(doc_b, sort_keys=True)
    assert doc_a["format"] == "fogndt-schedule/1"
    assert doc_a["total_ndt"] == doc_a["fronthaul_ndt"] + doc_a["access_ndt"]
    by_group = {(g["m"], g["n"]): g for g in doc_a["groups"]}
    g01 = by_group[(0, 1)]
    assert g01["cooperation_increment"] == 1
    assert g01["fronthaul_mode"] == CODED_MULTICAST
    assert len(g01["messages"]) == 4
    assert all(len(m["sub_messages"]) == 1 for m in g01["messages"])


def test_sub_message_counts_in_schedule():
    # The default DoF at r = 4 gives one sub-message per message.  The step
    # DoF at 5x2 splits group (0, 1) six ways (naive, i = 2) and group (0, 2)
    # three ways (coded, i = 1).
    def step(m, j, cfg):
        return 1.0 if j >= 3 else 0.3

    for cfg, dof in (
        (make_cfg(nt=3, nr=3, mu_t=0.25, mu_r=0.25, r=4.0), per_user_dof_default),
        (make_cfg(nt=5, nr=2, mu_t=0.5, mu_r=0.25, r=10.0), step),
    ):
        schedule = build_schedule(cfg, dof=dof)
        exported = {(g["m"], g["n"]): g["messages"] for g in schedule.to_json()["groups"]}
        nt, nr = cfg.num_ens, cfg.num_ues
        for g, plan in schedule.groups.items():
            expected_msgs = math.comb(nr, g.m + 1) * math.comb(nt, g.n)
            assert len(plan.messages) == expected_msgs
            assert len(plan.sub_messages) == math.comb(nt, g.n)
            per_msg = math.comb(nt - g.n, plan.chosen_i)
            for msg, entry in zip(plan.messages, exported[g], strict=True):
                coops = plan.sub_messages[msg.en_cache_set]
                assert len(coops) == per_msg
                assert entry["sub_messages"] == [{"coop_set": coop} for coop in coops]
                for coop in coops:
                    assert set(msg.en_cache_set) <= set(coop)
                    assert len(coop) == g.n + plan.chosen_i

    def split_count(plan):
        return sum(len(plan.sub_messages[msg.en_cache_set]) for msg in plan.messages)

    groups = schedule.groups
    assert (groups[GroupIndex(0, 1)].mode, split_count(groups[GroupIndex(0, 1)])) == (NAIVE_MULTICAST, 5 * 2 * 6)
    assert (groups[GroupIndex(0, 2)].mode, split_count(groups[GroupIndex(0, 2)])) == (CODED_MULTICAST, 10 * 2 * 3)


@settings(deadline=None)
@given(
    nt=st.integers(2, 5),
    nr=st.integers(2, 4),
    mu_t=st.floats(0.05, 0.95),
    mu_r=st.floats(0.05, 0.95),
    r=st.sampled_from([1e-3, 0.5, 4.0, 1e6]),
    data=st.data(),
)
def test_schedule_json_follows_index_set_rules(nt, nr, mu_t, mu_r, r, data):
    # Messages are user groups x cache sets, each split among the sorted
    # cooperation supersets of its cache set; transmissions follow
    # fronthaul_payloads per cooperation set and user group.
    nfiles = data.draw(st.integers(nr, nr + 2))
    demand = tuple(data.draw(st.lists(st.integers(1, nfiles), min_size=nr, max_size=nr)))
    level = data.draw(st.integers(1, nt))
    low = data.draw(st.floats(0.1, 1.0))

    def step(m, j, cfg):
        return 1.0 if j >= level else low

    cfg = make_cfg(nt=nt, nr=nr, nfiles=nfiles, mu_t=mu_t, mu_r=mu_r, r=r)
    doc = build_schedule(cfg, DemandVector(demand), dof=step).to_json()
    assert doc["demand"] == list(demand)
    ens = range(1, nt + 1)
    for g in doc["groups"]:
        m, n, i, mode = g["m"], g["n"], g["cooperation_increment"], g["fronthaul_mode"]
        assert (mode == CODED_MULTICAST) == (i <= n)
        assert g["fronthaul_ndt"] == g["normalized_fronthaul_load"] / r
        ue_groups = list(itertools.combinations(range(1, nr + 1), m + 1))
        keys = [(tuple(msg["ue_group"]), tuple(msg["en_cache_set"])) for msg in g["messages"]]
        assert keys == list(itertools.product(ue_groups, itertools.combinations(ens, n)))
        for msg in g["messages"]:
            cache = set(msg["en_cache_set"])
            supersets = sorted(c for c in itertools.combinations(ens, n + i) if cache <= set(c))
            assert [tuple(sub["coop_set"]) for sub in msg["sub_messages"]] == supersets
        assert g["fronthaul_transmissions"] == [
            {"ue_group": u, "coop_set": coop, "cache_sets": caches}
            for coop in itertools.combinations(ens, n + i)
            for u in ue_groups
            for caches in fronthaul_payloads(coop, n, mode)
        ]


@settings(max_examples=150, deadline=None)
@given(
    nt=st.integers(2, 5),
    nr=st.integers(2, 4),
    extra_files=st.integers(0, 2),
    mu_t=_UNIT,
    mu_r=_UNIT,
    r=st.sampled_from([1e-3, 0.5, 4.0, 1e6, math.inf]),
    raw_demand=st.lists(st.integers(1, 6), min_size=4, max_size=4),
    step=st.none() | st.tuples(st.integers(1, 5), st.floats(0.1, 1.0)),
)
# A step DoF that picks naive mode for group (0, 1) and coded mode for (0, 2),
# with a repeated demand for a file outside 1..n_r.
@example(nt=5, nr=2, extra_files=1, mu_t=0.5, mu_r=0.25, r=4.0, raw_demand=[3, 3, 1, 1], step=(3, 0.3))
# Users cache everything: the document has no groups.
@example(nt=2, nr=2, extra_files=0, mu_t=0.5, mu_r=1.0, r=math.inf, raw_demand=[1, 1, 1, 1], step=None)
def test_json_chunks_join_to_json_dumps(nt, nr, extra_files, mu_t, mu_r, r, raw_demand, step):
    nfiles = nr + extra_files
    demand = DemandVector(tuple(1 + (d - 1) % nfiles for d in raw_demand[:nr]))
    if step is None:
        dof = per_user_dof_default
    else:
        level, low = step

        def dof(m, j, cfg):
            return 1.0 if j >= level else low

    cfg = make_cfg(nt=nt, nr=nr, nfiles=nfiles, mu_t=mu_t, mu_r=mu_r, r=r)
    schedule = build_schedule(cfg, demand, dof=dof)
    chunks = list(schedule.json_chunks())
    assert len(chunks) == len(schedule.groups) + (2 if schedule.groups else 1)
    assert "".join(chunks) == json.dumps(schedule.to_json(), indent=2)
