"""Shared problem-instance types.

A :class:`NetworkConfig` checks its fields when it is constructed, so every
instance lies inside the network model and no function that takes one checks
it again.  Groups and demand vectors are checked against a config.
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple


def short_repr(value, limit: int = 100) -> str:
    """``repr(value)`` for an error message, its middle cut out past ``limit`` characters."""
    text = repr(value)
    return text if len(text) <= limit else f"{text[: limit // 2 - 2]}...{text[2 - limit // 2 :]}"


class ConfigError(ValueError):
    """A configuration field is outside its allowed range."""

    def __init__(self, field: str, message: str) -> None:
        super().__init__(message)
        self.field = field


@dataclass(frozen=True)
class NetworkConfig:
    """One cache-aided network instance.

    ``num_ens`` edge nodes and ``num_ues`` users each hold a local cache sized
    as a fraction (``mu_t``, ``mu_r``) of the ``num_files``-file library.
    ``fronthaul_r`` is the power scaling (equivalently the multiplexing gain)
    of the shared wireless fronthaul relative to the access link.
    """

    num_ens: int
    num_ues: int
    num_files: int
    mu_t: float
    mu_r: float
    fronthaul_r: float

    def __post_init__(self) -> None:
        """Refuse any field outside the network model, naming it in ConfigError."""
        for name in ("num_ens", "num_ues", "num_files"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, int):
                raise ConfigError(name, f"{name} must be an integer, got {short_repr(value)}")
        for name in ("mu_t", "mu_r", "fronthaul_r"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, (int, float)):
                raise ConfigError(name, f"{name} must be a number, got {short_repr(value)}")
        if self.num_ens < 2:
            raise ConfigError("num_ens", f"num_ens below minimum: {self.num_ens} < 2")
        if self.num_ues < 2:
            raise ConfigError("num_ues", f"num_ues below minimum: {self.num_ues} < 2")
        if self.num_files < self.num_ues:
            raise ConfigError("num_files", f"num_files below num_ues: {self.num_files} < {self.num_ues}")
        if not 0.0 <= self.mu_t <= 1.0:
            raise ConfigError("mu_t", f"mu_t outside [0, 1]: {self.mu_t}")
        if not 0.0 <= self.mu_r <= 1.0:
            raise ConfigError("mu_r", f"mu_r outside [0, 1]: {self.mu_r}")
        if not self.fronthaul_r > 0.0:
            raise ConfigError("fronthaul_r", f"fronthaul_r must be positive: {self.fronthaul_r}")


_FIELDS = tuple(f.name for f in fields(NetworkConfig))


def config_to_dict(cfg: NetworkConfig) -> dict:
    return {name: getattr(cfg, name) for name in _FIELDS}


def config_from_dict(doc: dict) -> NetworkConfig:
    """The config a JSON object describes; a key outside the six fields or a missing one is a ConfigError."""
    for key in doc:
        if key not in _FIELDS:
            raise ConfigError(str(key), f"unknown configuration key: {short_repr(key)}")
    try:
        return NetworkConfig(**{name: doc[name] for name in _FIELDS})
    except KeyError as exc:
        raise ConfigError(str(exc.args[0]), f"missing configuration key: {exc.args[0]}") from None


class GroupIndex(NamedTuple):
    """A delivery group: subfiles cached at exactly m users and n edge nodes."""

    m: int
    n: int


def validate_group(group: GroupIndex, cfg: NetworkConfig) -> GroupIndex:
    """``group``, if m and n are ints (no bool) in range; else ValueError naming the field."""
    m, n = group
    if type(m) is bool or not isinstance(m, int) or not 0 <= m <= cfg.num_ues - 1:
        raise ValueError(f"group m not an int in [0, {cfg.num_ues - 1}]: {short_repr(m)}")
    if type(n) is bool or not isinstance(n, int) or not 0 <= n <= cfg.num_ens:
        raise ValueError(f"group n not an int in [0, {cfg.num_ens}]: {short_repr(n)}")
    return group


@dataclass(frozen=True)
class DemandVector:
    """One requested file id per user, duplicates permitted."""

    demands: tuple[int, ...]

    @staticmethod
    def distinct(cfg: NetworkConfig) -> "DemandVector":
        """Worst-case demand: user q requests file q."""
        return DemandVector(tuple(range(1, cfg.num_ues + 1)))

    def validated(self, cfg: NetworkConfig) -> "DemandVector":
        if len(self.demands) != cfg.num_ues:
            raise ValueError(
                f"demand length {len(self.demands)} does not match num_ues {cfg.num_ues}"
            )
        for q, d in enumerate(self.demands, start=1):
            if not isinstance(d, int) or isinstance(d, bool) or not 1 <= d <= cfg.num_files:
                raise ValueError(f"demand of user {q} outside [1, {cfg.num_files}]: {d!r}")
        return self


@dataclass(frozen=True)
class NdtBreakdown:
    """Fixed-order fronthaul, access and total delivery times."""

    total_f: float
    total_a: float
    total: float
