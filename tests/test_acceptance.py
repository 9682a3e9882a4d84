"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""
from __future__ import annotations

import math
import random
import time
from dataclasses import replace

import pytest

from fogndt.bounds import ndt_lower, ndt_upper, ndt_upper_limit_infinite_r
from fogndt.model import GroupIndex, NetworkConfig
from fogndt.oracle import execute_schedule
from fogndt.placement import fractional_size, sample_placement
from fogndt.scheduler import CODED_MULTICAST, build_schedule
from conftest import random_config, reference_3x3_group_pairs

# Criterion 8 pins shapes, cache fractions, file size, and seed count but not
# the fronthaul scaling; r = 4 makes both shapes choose coded fronthaul with
# i >= 1 so criterion 9 checks a nontrivial bit ratio.
ORACLE_SHAPES = ((2, 2), (2, 3), (3, 3))
ORACLE_MUS = (0.25, 0.5)
ORACLE_R = 4.0
ORACLE_FILE_BITS = 200_000
ORACLE_SEEDS = range(5)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_partition_of_unity():
    start = time.perf_counter()
    worst = 0.0
    mus = [k / 10 for k in range(11)]
    for nt in range(2, 7):
        for nr in range(2, 7):
            for mu_t in mus:
                for mu_r in mus:
                    cfg = NetworkConfig(nt, nr, nr, mu_t, mu_r, 1.0)
                    total = sum(
                        math.comb(nr, m) * math.comb(nt, n) * fractional_size(m, n, cfg)
                        for m in range(nr + 1)
                        for n in range(nt + 1)
                    )
                    worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - start
    _report(1, worst < 1e-12 and elapsed < 1.0, f"max defect {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_3x3_specialization():
    start = time.perf_counter()
    ok = True
    detail = "all group pairs bit-equal"
    for mu_t in (0.2, 0.5, 0.8):
        for mu_r in (0.25, 0.5, 0.75):
            for r in (0.5, 1.0, 2.0):
                cfg = NetworkConfig(3, 3, 3, mu_t, mu_r, r)
                schedule = build_schedule(cfg)
                expected = reference_3x3_group_pairs(mu_t, mu_r, r)
                for (m, n), (tau_f, tau_a) in expected.items():
                    plan = schedule.groups[GroupIndex(m, n)]
                    if plan.tau_f != tau_f or plan.tau_a != tau_a:
                        ok = False
                        detail = f"mismatch at group ({m},{n}) mu=({mu_t},{mu_r}) r={r}"
                total_f = 0.0
                total_a = 0.0
                for m in range(3):
                    for n in range(4):
                        pair = expected[(m, n)]
                        total_f += pair[0]
                        total_a += pair[1]
                if schedule.breakdown.total != total_f + total_a:
                    ok = False
                    detail = f"total mismatch at mu=({mu_t},{mu_r}) r={r}"
    elapsed = time.perf_counter() - start
    _report(2, ok and elapsed < 1.0, f"{detail}, {elapsed:.2f}s")


def test_criterion_03_cross_module_equality():
    start = time.perf_counter()
    rng = random.Random(20260809)
    exact = all(
        ndt_upper(cfg) == build_schedule(cfg).breakdown.total
        for cfg in (random_config(rng) for _ in range(200))
    )
    elapsed = time.perf_counter() - start
    _report(3, exact and elapsed < 1.0, f"200 configs bit-equal, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def grid_scan():
    mus = [round(0.05 * k, 2) for k in range(1, 20)]
    rs = (0.1, 0.3, 1.0, 3.0, 10.0, 100.0)
    start = time.perf_counter()
    worst_gap = 0.0
    sound = True
    for nt in range(2, 7):
        for nr in range(2, 7):
            for mu_t in mus:
                for mu_r in mus:
                    for r in rs:
                        cfg = NetworkConfig(nt, nr, nr, mu_t, mu_r, r)
                        upper = ndt_upper(cfg)
                        lower, _, _ = ndt_lower(cfg)
                        worst_gap = max(worst_gap, upper / lower)
                        sound = sound and upper > lower
    return worst_gap, sound, time.perf_counter() - start


def test_criterion_04_gap_within_12(grid_scan):
    worst_gap, _, elapsed = grid_scan
    _report(4, worst_gap <= 12.0 and elapsed < 10.0, f"worst gap {worst_gap:.3f}, {elapsed:.2f}s")


def test_criterion_05_soundness(grid_scan):
    _, sound, elapsed = grid_scan
    _report(5, sound, f"upper strictly above lower on the full grid, shared {elapsed:.2f}s scan")


def test_criterion_06_infinite_r_limit():
    start = time.perf_counter()
    rng = random.Random(42)
    worst = max(
        abs(
            ndt_upper(replace(cfg, fronthaul_r=1e12))
            - ndt_upper_limit_infinite_r(cfg)
        )
        for cfg in (random_config(rng) for _ in range(50))
    )
    elapsed = time.perf_counter() - start
    _report(6, worst < 1e-6 and elapsed < 1.0, f"max |delta| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_07_monotone_in_r():
    start = time.perf_counter()
    rng = random.Random(7)
    ok = True
    for _ in range(50):
        base = random_config(rng)
        previous = None
        for k in range(20):
            r = 1e-2 * (1e5) ** (k / 19)
            cfg = replace(base, fronthaul_r=r)
            upper = ndt_upper(cfg)
            lower, _, _ = ndt_lower(cfg)
            if previous is not None and (upper > previous[0] or lower > previous[1]):
                ok = False
            previous = (upper, lower)
    elapsed = time.perf_counter() - start
    _report(7, ok and elapsed < 2.0, f"50 geometric sweeps non-increasing, {elapsed:.2f}s")


@pytest.fixture(scope="module")
def oracle_runs():
    runs = []
    start = time.perf_counter()
    for nt, nr in ORACLE_SHAPES:
        for mu_t in ORACLE_MUS:
            for mu_r in ORACLE_MUS:
                cfg = NetworkConfig(nt, nr, nr, mu_t, mu_r, ORACLE_R)
                schedule = build_schedule(cfg)
                for seed in ORACLE_SEEDS:
                    placement = sample_placement(cfg, ORACLE_FILE_BITS, seed)
                    report = execute_schedule(placement, schedule.demand, schedule)
                    runs.append((cfg, schedule, report))
    return runs, time.perf_counter() - start


def test_criterion_08_oracle_fidelity(oracle_runs):
    runs, elapsed = oracle_runs
    all_decoded = all(all(report.per_ue_success) for _, _, report in runs)
    worst = max(
        abs(report.empirical_tau_f + report.empirical_tau_a - schedule.breakdown.total)
        / schedule.breakdown.total
        for _, schedule, report in runs
    )
    ok = all_decoded and worst < 0.05 and elapsed < 60.0
    _report(8, ok, f"{len(runs)} runs decoded, worst NDT deviation {worst:.3%}, {elapsed:.1f}s")


def test_criterion_09_fronthaul_mode_identity(oracle_runs):
    runs, _ = oracle_runs
    identity_ok = True
    worst = 0.0
    checked = 0
    for _, _, report in runs:
        for group, stats in report.per_group.items():
            if group.n == 0:
                continue
            if (stats.mode == CODED_MULTICAST) != (stats.chosen_i <= group.n):
                identity_ok = False
            if stats.mode == CODED_MULTICAST and stats.naive_fronthaul_bits:
                ratio = stats.coded_fronthaul_bits / stats.naive_fronthaul_bits
                worst = max(worst, abs(ratio - stats.chosen_i / (group.n + 1)))
                if stats.chosen_i >= 1:
                    checked += 1
    ok = identity_ok and worst < 0.02 and checked > 0
    _report(
        9, ok,
        f"mode identity holds, {checked} nontrivial ratios, worst |ratio error| {worst:.4f}",
    )


def test_criterion_10_reference_curve_shape():
    # Absolute published curve values and third-party baselines are out of
    # scope; the named configuration must reproduce the qualitative shape:
    # both bounds fall monotonically in r and flatten onto the access-only
    # limit, with the upper bound staying above the lower one throughout.
    cfg = NetworkConfig(2, 5, 5, 0.5, 0.2, 1.0)
    values = []
    for k in range(25):
        r = 1e-2 * (1e11) ** (k / 24)
        point = replace(cfg, fronthaul_r=r)
        values.append((ndt_upper(point), ndt_lower(point)[0]))
    monotone = all(
        b[0] <= a[0] and b[1] <= a[1] for a, b in zip(values, values[1:])
    )
    sound = all(u >= l for u, l in values)
    limit = ndt_upper_limit_infinite_r(cfg)
    flattens = abs(values[-1][0] - limit) < 1e-6
    _report(
        10, monotone and sound and flattens,
        f"monotone shape, flattens onto limit {limit:.4f}",
    )
