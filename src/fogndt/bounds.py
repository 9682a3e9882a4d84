"""Closed-form delivery-time calculus: upper and lower bounds, gap, limits."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .dof import DofProvider, per_user_dof_default
from .model import NetworkConfig, config_to_dict
from .scheduler import _FACTOR_TABLES, _cache_factors, _group_terms, _overflow_error, _row_table

CSV_HEADER = "n_t,n_r,mu_t,mu_r,r,tau_upper,tau_lower,gap,l1,l2,limit_inf_r"


@dataclass(frozen=True)
class BoundsReport:
    cfg: NetworkConfig
    tau_upper: float
    tau_lower: float
    gap: float
    argmax_l1: int
    argmax_l2: int
    limit_inf_r: float

    def to_dict(self) -> dict:
        return {
            "config": config_to_dict(self.cfg),
            "tau_upper": self.tau_upper,
            "tau_lower": self.tau_lower,
            "gap": self.gap,
            "argmax_l1": self.argmax_l1,
            "argmax_l2": self.argmax_l2,
            "limit_inf_r": self.limit_inf_r,
        }

    def to_csv_row(self) -> str:
        """One CSV line; floats are written by ``float.__repr__``, as the JSON writers do,
        so a numpy float in the config reads ``0.5`` and not ``np.float64(0.5)``."""
        cfg = self.cfg
        return ",".join((
            str(cfg.num_ens),
            str(cfg.num_ues),
            _csv_number(cfg.mu_t),
            _csv_number(cfg.mu_r),
            _csv_number(cfg.fronthaul_r),
            float.__repr__(self.tau_upper),
            float.__repr__(self.tau_lower),
            float.__repr__(self.gap),
            str(self.argmax_l1),
            str(self.argmax_l2),
            float.__repr__(self.limit_inf_r),
        ))


def _csv_number(v) -> str:
    """A config number: an int as it is, any float by its shortest round-trip form."""
    return float.__repr__(v) if isinstance(v, float) else str(v)


def ndt_upper(cfg: NetworkConfig, dof: DofProvider = per_user_dof_default) -> float:
    """Achievable delivery time: best cooperation choice summed over all groups."""
    total_f, total_a = _group_terms(cfg, dof)
    return total_f + total_a


def ndt_lower(cfg: NetworkConfig) -> tuple[float, int, int]:
    """Converse bound with the maximizing user-subset sizes; ties to smaller l.

    The fronthaul maximand ``l * (1-mu_t)**n_t * (1-mu_r)**l / r`` is scanned per point, its
    powers read from the factor tables; the access maximum depends on ``mu_r`` and the shape
    alone and is kept per value by :func:`_access_maximum`."""
    nt, nr, r = cfg.num_ens, cfg.num_ues, cfg.fronthaul_r
    qt = _cache_factors(cfg.mu_t, nt)[0][1]
    ue_factors = _cache_factors(cfg.mu_r, nr)
    best_f = -math.inf
    best_l1 = 0
    for l in range(1, nr + 1):
        value = l * qt * ue_factors[nr - l][1] / r
        if value > best_f:
            best_f, best_l1 = value, l
    best_a, best_l2 = _access_maximum(cfg.mu_r, nr, nt)
    return best_f + best_a, best_l1, best_l2


@lru_cache(maxsize=_FACTOR_TABLES, typed=True)
def _access_maximum(mu_r: float, nr: int, nt: int) -> tuple[float, int]:
    """The converse's access term ``max_l l * (1-mu_r)**l / min(l, n_t)`` and its first maximizer."""
    ue_factors = _cache_factors(mu_r, nr)
    best_a = -math.inf
    best_l2 = 0
    for l in range(1, nr + 1):
        value = l * ue_factors[nr - l][1] / min(l, nt)
        if value > best_a:
            best_a, best_l2 = value, l
    return best_a, best_l2


def _gap_ratio(cfg: NetworkConfig, upper: float, lower: float, total_f: float, total_a: float) -> float:
    """Upper over lower bound; 1 when both vanish, +inf when only the lower does.
    A bound that overflows leaves no ratio: a ConfigError naming r or the DoF."""
    if not (math.isfinite(upper) and math.isfinite(lower)):
        raise _overflow_error(cfg, total_f, total_a)
    if lower > 0.0:
        return upper / lower
    return 1.0 if upper == 0.0 else math.inf


def gap(cfg: NetworkConfig, dof: DofProvider = per_user_dof_default) -> float:
    """Multiplicative gap between the achievable NDT and the converse bound."""
    return bounds_report(cfg, dof).gap


def ndt_upper_limit_infinite_r(cfg: NetworkConfig, dof: DofProvider = per_user_dof_default) -> float:
    """Access-only delivery time left when the fronthaul cost vanishes."""
    return _limit_infinite_r(dof, cfg.num_ens, cfg.num_ues, cfg.mu_r)


@lru_cache(maxsize=_FACTOR_TABLES, typed=True)
def _limit_infinite_r(dof: DofProvider, nt: int, nr: int, mu_r: float) -> float:
    """The large-r limit, once per provider, shape and ``mu_r``: it does not depend on ``mu_t``."""
    total = 0.0
    for (c_limit, d_full, _groups), (mr, qr) in zip(_row_table(dof, nt, nr), _cache_factors(mu_r, nr)):
        total += c_limit * mr * qr / d_full
    return total


def bounds_report(cfg: NetworkConfig, dof: DofProvider = per_user_dof_default) -> BoundsReport:
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
