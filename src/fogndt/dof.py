"""Pluggable per-user degrees-of-freedom provider for the access channel.

A provider maps (m, j, cfg) to the achievable per-user DoF when every group
of j edge nodes cooperatively serves every group of m+1 users.  The default
is built only from safe anchors: the single-node cooperation closed form,
the 1/2 floor when there are at least as many edge nodes as users, and full
DoF at full cooperation in that same regime.  It is therefore a conservative
lower bound; exact values from richer analyses can be vetted with
:func:`check_contract` and passed as ``dof=`` to any bound or scheduling call.

The DoF is a property of the access channel of one shape: a provider's value
may depend only on ``m``, ``j``, ``cfg.num_ens`` and ``cfg.num_ues``.  The bounds
and the scheduler call each provider once per (m, j) and shape, on that shape's
canonical config ``NetworkConfig(n_t, n_r, n_r, 0.5, 0.5, 1.0)``, and keep the
values in a bounded memo keyed by the provider itself, which must therefore be
hashable.  The signature stays ``(m, j, cfg)``: perfbench's call-counting
provider wraps it, so the narrower ``(m, j, n_t, n_r)`` waits for the next
version of perfbench.
"""
from __future__ import annotations

import json
from typing import Callable, Iterator, Sequence

from .model import NetworkConfig, short_repr

DofProvider = Callable[[int, int, NetworkConfig], float]


class DofContractError(ValueError):
    """A provider returned a value outside (0, 1] or decreasing in j."""


def per_user_dof_default(m: int, j: int, cfg: NetworkConfig) -> float:
    """Largest anchored lower bound on the per-user DoF at cooperation level j."""
    nt, nr = cfg.num_ens, cfg.num_ues
    if not 0 <= m <= nr - 1:
        raise ValueError(f"m outside [0, {nr - 1}]: {m}")
    if not 1 <= j <= nt:
        raise ValueError(f"j outside [1, {nt}]: {j}")
    d = nt / (nt + (nr - m - 1) / (m + 1))
    if nt >= nr:
        if j == nt:
            return 1.0
        d = max(d, 0.5)
    return d


_DEFAULT_CHECK_SHAPES = ((2, 2), (2, 5), (3, 3), (4, 3), (5, 2), (6, 6))


def _where(m: int, j: int, nt: int, nr: int) -> str:
    return f"(m={m}, j={j}, n_t={nt}, n_r={nr})"


def dof_rows(provider: DofProvider, nt: int, nr: int) -> Iterator[list[float]]:
    """The provider's values on shape (n_t, n_r), one row per m, ascending: d(m, j) for
    j = 1..n_t, each taken on the shape's canonical config.  A row is evaluated only
    when it is reached; a value outside (0, 1] raises DofContractError naming its place."""
    cfg = NetworkConfig(nt, nr, nr, 0.5, 0.5, 1.0)
    for m in range(nr):
        row = [provider(m, j, cfg) for j in range(1, nt + 1)]
        for j, d in enumerate(row, start=1):
            if not 0.0 < d <= 1.0:
                raise DofContractError(f"dof {d} outside (0, 1] at {_where(m, j, nt, nr)}")
        yield row


def check_contract(provider: DofProvider, configs: Sequence[NetworkConfig] | None = None) -> None:
    """Vet the provider on each config's shape; raise DofContractError on any violation."""
    shapes = _DEFAULT_CHECK_SHAPES if configs is None else [(cfg.num_ens, cfg.num_ues) for cfg in configs]
    for nt, nr in shapes:
        for m, row in enumerate(dof_rows(provider, nt, nr)):
            for j in range(2, nt + 1):
                if row[j - 1] < row[j - 2]:
                    raise DofContractError(
                        f"dof decreases from {row[j - 2]} to {row[j - 1]} in j at {_where(m, j, nt, nr)}"
                    )


_TABLE_KEYS = ("m", "j", "n_t", "n_r")


def table_provider_from_json(path) -> DofProvider:
    """Build a provider from a JSON table of {m, j, n_t, n_r, d} entries.

    Pairs missing from the table fall back to :func:`per_user_dof_default`, so
    partial tables (for one network shape, say) stay usable everywhere else.
    Every shape the table names is vetted with :func:`check_contract`;
    malformed entries raise DofContractError.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except RecursionError:
            raise DofContractError(f"DoF table nests too deeply: {path}") from None
    entries = doc.get("entries") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        raise DofContractError("a DoF table is a JSON object with an 'entries' list")
    table: dict[tuple[int, int, int, int], float] = {}
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != {*_TABLE_KEYS, "d"}:
            raise DofContractError(f"DoF table entry needs exactly the keys m, j, n_t, n_r, d: {short_repr(entry)}")
        key = m, j, nt, nr = tuple(entry[k] for k in _TABLE_KEYS)
        d = entry["d"]
        if not all(type(v) is int for v in key) or type(d) not in (int, float):
            raise DofContractError(f"DoF table entry with non-numeric fields: {short_repr(entry)}")
        if not (nt >= 2 and nr >= 2 and 0 <= m < nr and 1 <= j <= nt and 0 < d <= 1) or key in table:
            raise DofContractError(f"DoF table entry out of range or repeated: {short_repr(entry)}")
        table[key] = float(d)

    def provider(m: int, j: int, cfg: NetworkConfig) -> float:
        value = table.get((m, j, cfg.num_ens, cfg.num_ues))
        if value is None:
            return per_user_dof_default(m, j, cfg)
        return value

    shapes = sorted({(nt, nr) for _m, _j, nt, nr in table})
    check_contract(provider, [NetworkConfig(nt, nr, nr, 0.5, 0.5, 1.0) for nt, nr in shapes])
    return provider
