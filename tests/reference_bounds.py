"""The closed form evaluated point by point, kept as the reference the memoized bounds must match.

This is ``fogndt.scheduler._row_table``, ``fogndt.scheduler._group_terms`` and
the converse and limit of ``fogndt.bounds`` as they were written before the
per-value factor tables: every power of ``mu_t`` and ``mu_r`` is computed
anew for each point, and each row table anew for each call.  They are
unchanged but for the ``lru_cache`` on ``_row_table``, which is dropped so
that no memo state is shared with the code under test.  Tests compare
``reference_bounds_report`` with ``fogndt.bounds.bounds_report`` by ``repr``.
"""
from __future__ import annotations

import math

from fogndt.bounds import BoundsReport, _gap_ratio
from fogndt.dof import DofProvider, dof_rows, per_user_dof_default
from fogndt.model import ConfigError, GroupIndex, NetworkConfig
from fogndt.scheduler import cooperation_increments


def _row_table(dof: DofProvider, nt: int, nr: int) -> tuple:
    table = []
    for m, dof_row in enumerate(dof_rows(dof, nt, nr)):
        groups = []
        for n in range(nt + 1):
            b_en = math.comb(nt, n)
            b_load = math.comb(nr, m + 1) * b_en
            rows = []
            for i in cooperation_increments(n, nt):
                d = dof_row[n + i - 1]
                if rows and d <= rows[-1][2]:
                    continue
                try:
                    rows.append((i, b_load * min(1.0, i / (n + 1)), d))
                except OverflowError:
                    raise ConfigError("shape", f"n_t={nt}, n_r={nr}: binomial factors overflow a double") from None
            groups.append((GroupIndex(m, n), n, math.comb(nr - 1, m) * b_en, tuple(rows)))
        table.append((math.comb(nr - 1, m), dof_row[nt - 1], tuple(groups)))
    return tuple(table)


def _group_terms(cfg: NetworkConfig, dof: DofProvider, plans: list | None = None) -> tuple[float, float]:
    nt, nr, r = cfg.num_ens, cfg.num_ues, cfg.fronthaul_r
    mu_r, mu_t = cfg.mu_r, cfg.mu_t
    pow_mr = [mu_r ** k for k in range(nr + 1)]
    pow_qr = [(1.0 - mu_r) ** k for k in range(nr + 1)]
    pow_mt = [mu_t ** k for k in range(nt + 1)]
    pow_qt = [(1.0 - mu_t) ** k for k in range(nt + 1)]
    total_f = 0.0
    total_a = 0.0
    for m, (_c_limit, _d_full, groups) in enumerate(_row_table(dof, nt, nr)):
        ue_part = pow_mr[m] * pow_qr[nr - m]
        for group, n, c_access, rows in groups:
            f = ue_part * pow_mt[n] * pow_qt[nt - n]
            if f == 0.0:
                continue
            access = c_access * f
            best = None
            for row in rows:
                _i, c_load, d = row
                tau_f = c_load * f / r
                tau_a = access / d
                total = tau_f + tau_a
                if best is None or total < best_total:
                    best, best_total, best_f, best_a = row, total, tau_f, tau_a
            total_f += best_f
            total_a += best_a
            if plans is not None:
                i, c_load, d = best
                plans.append((group, f, i, c_load * f, best_f, best_a, d))
    return total_f, total_a


def ndt_lower(cfg: NetworkConfig) -> tuple[float, int, int]:
    nt, nr, r = cfg.num_ens, cfg.num_ues, cfg.fronthaul_r
    mu_t, mu_r = cfg.mu_t, cfg.mu_r
    best_f = -math.inf
    best_l1 = 0
    for l in range(1, nr + 1):
        value = l * (1.0 - mu_t) ** nt * (1.0 - mu_r) ** l / r
        if value > best_f:
            best_f, best_l1 = value, l
    best_a = -math.inf
    best_l2 = 0
    for l in range(1, nr + 1):
        value = l * (1.0 - mu_r) ** l / min(l, nt)
        if value > best_a:
            best_a, best_l2 = value, l
    return best_f + best_a, best_l1, best_l2


def ndt_upper_limit_infinite_r(cfg: NetworkConfig, dof: DofProvider = per_user_dof_default) -> float:
    nr, mu_r = cfg.num_ues, cfg.mu_r
    total = 0.0
    for m, (c_limit, d_full, _groups) in enumerate(_row_table(dof, cfg.num_ens, nr)):
        total += c_limit * mu_r ** m * (1.0 - mu_r) ** (nr - m) / d_full
    return total


def reference_bounds_report(cfg: NetworkConfig, dof: DofProvider = per_user_dof_default) -> BoundsReport:
    total_f, total_a = _group_terms(cfg, dof)
    upper = total_f + total_a
    lower, l1, l2 = ndt_lower(cfg)
    return BoundsReport(
        cfg=cfg,
        tau_upper=upper,
        tau_lower=lower,
        gap=_gap_ratio(cfg, upper, lower, total_f, total_a),
        argmax_l1=l1,
        argmax_l2=l2,
        limit_inf_r=ndt_upper_limit_infinite_r(cfg, dof),
    )
