from __future__ import annotations

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from fogndt.bounds import (
    CSV_HEADER,
    bounds_report,
    gap,
    ndt_lower,
    ndt_upper,
    ndt_upper_limit_infinite_r,
)
from fogndt.dof import DofContractError, per_user_dof_default
from fogndt.model import ConfigError, NetworkConfig
from fogndt.scheduler import build_schedule
from conftest import make_cfg, random_config, reference_3x3_group_pairs


def test_upper_zero_when_users_cache_everything():
    assert ndt_upper(make_cfg(nt=4, nr=3, mu_t=0.5, mu_r=1.0)) == 0.0


def test_upper_3x3_matches_reference_sum():
    cfg = make_cfg(nt=3, nr=3, mu_t=0.5, mu_r=0.5, r=1.0)
    pairs = reference_3x3_group_pairs(0.5, 0.5, 1.0)
    total_f = sum(p[0] for p in pairs.values())
    total_a = sum(p[1] for p in pairs.values())
    assert ndt_upper(cfg) == pytest.approx(total_f + total_a, rel=1e-14)


def test_upper_equals_schedule_breakdown_bitwise():
    rng = random.Random(1234)
    for _ in range(60):
        cfg = random_config(rng)
        assert ndt_upper(cfg) == build_schedule(cfg).breakdown.total


def test_lower_uncached_2x2():
    value, l1, l2 = ndt_lower(make_cfg(nt=2, nr=2, mu_t=0.0, mu_r=0.0, r=1.0))
    assert value == 3.0
    assert (l1, l2) == (2, 1)


def test_lower_full_edge_cache():
    value, l1, l2 = ndt_lower(make_cfg(nt=2, nr=5, nfiles=5, mu_t=1.0, mu_r=0.0, r=1.0))
    assert value == 2.5
    assert l1 == 1  # fronthaul maximand vanishes everywhere, ties go small
    assert l2 == 5


def test_lower_zero_when_users_cache_everything():
    value, _, _ = ndt_lower(make_cfg(mu_r=1.0))
    assert value == 0.0


def test_lower_matches_redundant_scan():
    rng = random.Random(99)
    for _ in range(40):
        cfg = random_config(rng)
        value, l1, l2 = ndt_lower(cfg)
        nt, nr, r = cfg.num_ens, cfg.num_ues, cfg.fronthaul_r
        front = [
            l * (1.0 - cfg.mu_t) ** nt * (1.0 - cfg.mu_r) ** l / r for l in range(1, nr + 1)
        ]
        access = [l * (1.0 - cfg.mu_r) ** l / min(l, nt) for l in range(1, nr + 1)]
        assert value == max(front) + max(access)
        assert front[l1 - 1] == max(front) and front.index(max(front)) == l1 - 1
        assert access[l2 - 1] == max(access) and access.index(max(access)) == l2 - 1


def test_gap_conventions_and_value():
    assert gap(make_cfg(mu_r=1.0)) == 1.0
    cfg = make_cfg(nt=2, nr=2, mu_t=0.5, mu_r=0.5, r=1.0)
    assert gap(cfg) == ndt_upper(cfg) / ndt_lower(cfg)[0]


def test_gap_small_grid_within_12():
    for nt in (2, 4):
        for nr in (2, 5):
            for mu in (0.05, 0.5, 0.95):
                for r in (0.1, 1.0, 100.0):
                    cfg = make_cfg(nt=nt, nr=nr, nfiles=nr, mu_t=mu, mu_r=mu, r=r)
                    g = gap(cfg)
                    assert g <= 12.0
                    assert ndt_upper(cfg) >= ndt_lower(cfg)[0]


def test_limit_trivial_and_uniform_cases():
    assert ndt_upper_limit_infinite_r(make_cfg(mu_r=1.0)) == 0.0
    # Only the m = 0 term survives with empty user caches, and full
    # cooperation on the square network has unit per-user DoF.
    assert ndt_upper_limit_infinite_r(make_cfg(nt=3, nr=3, mu_r=0.0)) == 1.0


def test_limit_agrees_with_huge_r():
    rng = random.Random(5)
    for _ in range(50):
        cfg = replace(random_config(rng), fronthaul_r=1e12)
        assert abs(ndt_upper(cfg) - ndt_upper_limit_infinite_r(cfg)) < 1e-6


def test_bounds_non_increasing_in_r():
    rng = random.Random(7)
    for _ in range(20):
        base = random_config(rng)
        previous = None
        for k in range(20):
            r = 1e-2 * (1e5) ** (k / 19)
            cfg = replace(base, fronthaul_r=r)
            upper = ndt_upper(cfg)
            lower, _, _ = ndt_lower(cfg)
            if previous is not None:
                assert upper <= previous[0]
                assert lower <= previous[1]
            previous = (upper, lower)


def test_bounds_non_increasing_in_cache_sizes():
    grid = [k / 10 for k in range(11)]
    for nt, nr in ((2, 3), (3, 3), (4, 2)):
        for mu_r in (0.0, 0.3, 0.7):
            uppers = [ndt_upper(make_cfg(nt=nt, nr=nr, nfiles=nr, mu_t=mu, mu_r=mu_r)) for mu in grid]
            lowers = [ndt_lower(make_cfg(nt=nt, nr=nr, nfiles=nr, mu_t=mu, mu_r=mu_r))[0] for mu in grid]
            for a, b in zip(uppers, uppers[1:]):
                assert b <= a + 1e-12
            for a, b in zip(lowers, lowers[1:]):
                assert b <= a + 1e-12
        for mu_t in (0.0, 0.3, 0.7):
            uppers = [ndt_upper(make_cfg(nt=nt, nr=nr, nfiles=nr, mu_t=mu_t, mu_r=mu)) for mu in grid]
            lowers = [ndt_lower(make_cfg(nt=nt, nr=nr, nfiles=nr, mu_t=mu_t, mu_r=mu))[0] for mu in grid]
            for a, b in zip(uppers, uppers[1:]):
                assert b <= a + 1e-12
            for a, b in zip(lowers, lowers[1:]):
                assert b <= a + 1e-12


def test_report_fields_and_serialization():
    cfg = make_cfg(nt=2, nr=5, nfiles=5, mu_t=0.5, mu_r=0.2, r=2.0)
    report = bounds_report(cfg)
    assert report.tau_upper == ndt_upper(cfg)
    assert report.tau_lower == ndt_lower(cfg)[0]
    assert report.gap == gap(cfg)
    assert report.limit_inf_r == ndt_upper_limit_infinite_r(cfg)
    doc = report.to_dict()
    assert doc["config"]["num_ens"] == 2
    assert doc["tau_upper"] == report.tau_upper
    row = report.to_csv_row()
    assert row.startswith("2,5,0.5,0.2,2.0,")
    assert len(row.split(",")) == len(CSV_HEADER.split(","))


def test_report_degenerate_point():
    report = bounds_report(make_cfg(mu_r=1.0))
    assert report.tau_upper == 0.0
    assert report.tau_lower == 0.0
    assert report.gap == 1.0


def test_overflowing_bounds_raise_config_error():
    # At r = 1e-310 the fronthaul time of an uncached group overflows to inf.
    cfg = make_cfg(r=1e-310)
    assert ndt_upper(cfg) == math.inf
    for call in (bounds_report, gap):
        with pytest.raises(ConfigError) as info:
            call(cfg)
        assert info.value.field == "fronthaul_r"
    # Infinite r only removes the fronthaul cost: both bounds stay finite.
    report = bounds_report(make_cfg(r=math.inf))
    assert math.isfinite(report.tau_upper) and math.isfinite(report.tau_lower)
    assert report.tau_upper == report.limit_inf_r


def test_overflowing_access_time_names_the_dof():
    # A contract-abiding but tiny DoF overflows only the access times; the
    # fronthaul times are fine, so r must not be blamed.
    def tiny(m, j, cfg):
        return 1e-310

    calls = (bounds_report, gap, lambda cfg, dof: build_schedule(cfg, dof=dof))
    for r, field in ((1.0, "dof"), (1e-310, "fronthaul_r")):
        for call in calls:
            with pytest.raises(ConfigError) as info:
                call(make_cfg(r=r), tiny)
            assert info.value.field == field


def test_limit_refuses_shape_whose_binomials_overflow():
    with pytest.raises(ConfigError) as info:
        ndt_upper_limit_infinite_r(NetworkConfig(2, 1100, 1100, 0.5, 0.5, 1.0))
    assert info.value.field == "shape"


def test_csv_row_uses_repr_floats():
    cfg = NetworkConfig(2, 2, 2, 0.1, 0.30000000000000004, 1.0)
    row = bounds_report(cfg).to_csv_row()
    assert "0.30000000000000004" in row


def test_csv_row_writes_numpy_floats_as_plain_floats():
    # numpy 2's repr of np.float64(0.5) is "np.float64(0.5)"; the JSON writers
    # and the CSV both write the float's own shortest form.
    plain = bounds_report(NetworkConfig(2, 2, 2, 0.5, 0.5, 1.0)).to_csv_row()
    numpy_cfg = NetworkConfig(2, 2, 2, np.float64(0.5), np.float64(0.5), np.float64(1.0))
    assert bounds_report(numpy_cfg).to_csv_row() == plain
    assert plain == "2,2,0.5,0.5,1.0,0.75,0.625,1.2,1,1,0.5"
    # Whole numbers from a config document stay as written.
    assert bounds_report(NetworkConfig(2, 2, 2, 1, 0, 1)).to_csv_row().startswith("2,2,1,0,1,")


class _Counting:
    """A provider that counts its calls and can be told to fail."""

    def __init__(self, fail=False):
        self.calls = 0
        self.fail = fail

    def __call__(self, m, j, cfg):
        self.calls += 1
        if self.fail:
            raise RuntimeError("provider failed")
        return per_user_dof_default(m, j, cfg)


def test_provider_is_evaluated_once_per_shape():
    provider = _Counting()
    nt, nr = 3, 4
    for mu_t in (0.0, 0.3, 1.0):
        for mu_r in (0.0, 0.3, 1.0):
            for r in (0.5, 2.0, math.inf):
                cfg = NetworkConfig(nt, nr, nr, mu_t, mu_r, r)
                assert bounds_report(cfg, provider) == bounds_report(cfg)
    assert provider.calls == nt * nr
    ndt_upper_limit_infinite_r(make_cfg(nt=nt, nr=nr), provider)
    build_schedule(make_cfg(nt=nt, nr=nr), dof=provider)
    assert provider.calls == nt * nr
    bounds_report(make_cfg(nt=nr, nr=nt), provider)
    assert provider.calls == 2 * nt * nr


def test_provider_that_raises_is_not_cached():
    provider = _Counting(fail=True)
    cfg = make_cfg(nt=2, nr=3, mu_t=0.3, mu_r=0.6, r=2.0)
    for _ in range(2):
        with pytest.raises(RuntimeError):
            bounds_report(cfg, provider)
    assert provider.calls == 2
    provider.fail = False
    assert bounds_report(cfg, provider) == bounds_report(cfg)


def test_unhashable_provider_is_refused_at_first_use():
    class Unhashable(_Counting):
        __hash__ = None

    provider = Unhashable()
    cfg = make_cfg(nt=2, nr=3)
    for call in (bounds_report, ndt_upper, ndt_upper_limit_infinite_r, lambda c, d: build_schedule(c, dof=d)):
        with pytest.raises(TypeError, match="unhashable"):
            call(cfg, provider)
    assert provider.calls == 0


@pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, math.nan])
def test_provider_value_outside_the_contract_is_refused(bad):
    def provider(m, j, cfg):
        return bad if (m, j) == (1, 2) else 0.5

    cfg = make_cfg(nt=3, nr=3, mu_t=0.5, mu_r=0.0)  # group (1, n) is empty, yet its row is checked
    for call in (bounds_report, lambda c, d: build_schedule(c, dof=d)):
        with pytest.raises(DofContractError, match=r"outside \(0, 1\] at \(m=1, j=2, n_t=3, n_r=3\)"):
            call(cfg, provider)
