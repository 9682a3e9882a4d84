"""Two-hop delivery scheduling: coded multicast construction and timing.

Requested subfiles are split into groups by how many users (m) and edge
nodes (n) already cache them.  For each group the m+1 subfiles wanted by a
user set are XOR-combined into one coded message; the transmitting edge-node
set can be widened by i extra nodes fetched over the fronthaul, and i is
chosen per group to minimize the summed fronthaul and access delivery time.
The fronthaul itself sends sub-messages either one by one or XOR-combined
over (n+1)-subsets, whichever is cheaper.

Floating-point note: the per-shape row table fixes the operand order of
every per-group product, the scan over increments breaks ties to smaller i,
and totals accumulate in ascending (m, n) order, so the closed-form bound
and a schedule breakdown agree bit for bit.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cache, cached_property, lru_cache, partial
from typing import Iterable, Iterator, NamedTuple

from .dof import DofProvider, dof_rows, per_user_dof_default
from .model import (
    ConfigError,
    DemandVector,
    GroupIndex,
    NdtBreakdown,
    NetworkConfig,
    config_to_dict,
    short_repr,
    validate_group,
)

NAIVE_MULTICAST = "naive_multicast"
CODED_MULTICAST = "coded_multicast"


class CodedMessage(NamedTuple):
    """XOR of the m+1 subfiles exchanged within one user group, named by its index sets.

    Constituent k is user q = ``ue_group[k]``'s demanded file at the cell
    cached by exactly the other users of ``ue_group`` and the edge nodes
    ``en_cache_set``, so every addressed user can cancel all but its own.
    For m = 0 the message degenerates to a single bare subfile.
    """

    ue_group: tuple[int, ...]
    en_cache_set: tuple[int, ...]


class FronthaulTransmission(NamedTuple):
    """One fronthaul payload for ``coop_set``: the sub-messages XORed into it.

    ``cache_sets`` holds the edge-node cache sets of the combined
    sub-messages; a single entry means the sub-message is sent as is.
    """

    ue_group: tuple[int, ...]
    coop_set: tuple[int, ...]
    cache_sets: tuple[tuple[int, ...], ...]


# A message or transmission from a plain tuple of its fields, built in C: a NamedTuple's own
# ``__new__`` is a Python function, called once per item.
_new_message = partial(tuple.__new__, CodedMessage)
_new_transmission = partial(tuple.__new__, FronthaulTransmission)


def coded_messages_for_group(group: GroupIndex, cfg: NetworkConfig) -> list[CodedMessage]:
    """All coded messages of one group, in lexicographic (ue_group, en_set) order."""
    m, n = validate_group(group, cfg)
    return list(
        map(
            _new_message,
            itertools.product(
                itertools.combinations(range(1, cfg.num_ues + 1), m + 1),
                itertools.combinations(range(1, cfg.num_ens + 1), n),
            ),
        )
    )


def cooperation_increments(n: int, num_ens: int) -> range | tuple[int]:
    """Admissible cooperation increments i of a group cached at n edge nodes.

    A subfile cached at no edge node is fetched whole over the fronthaul and
    sent by all edge nodes together: its only increment is num_ens, full
    cooperation, and the general per-group rules apply to it unchanged.
    """
    return range(num_ens - n + 1) if n >= 1 else (num_ens,)


def fronthaul_mode(n: int, i: int) -> str:
    """Coded combining pays C(n+i, n+1) payloads per (coop set, user group)
    against C(n+i, n) for one-by-one sending, so it wins exactly when i is at most n."""
    return CODED_MULTICAST if i <= n else NAIVE_MULTICAST


def coop_sets_for(en_cache_set: tuple[int, ...], i: int, cfg: NetworkConfig) -> list[tuple[int, ...]]:
    """The C(num_ens - n, i) supersets of size n + i, sorted lexicographically.

    They come out sorted with no sort of the list: two equal-size sorted tuples have X < Y
    exactly when min(X △ Y) lies in X, and adding one fixed set disjoint from both leaves
    X △ Y unchanged, so the supersets keep the order in which ``combinations`` lists the
    added nodes.
    """
    nt = cfg.num_ens
    bounds = (0, *en_cache_set, nt + 1)
    if not all(type(b) is int and a < b for a, b in zip(bounds, bounds[1:])):
        raise ValueError(f"edge-node cache set not strictly ascending inside 1..{nt}: {short_repr(en_cache_set)}")
    others = [p for p in range(1, nt + 1) if p not in en_cache_set]
    if type(i) is not int or not 0 <= i <= len(others):
        raise ValueError(f"cooperation increment not an int in [0, {len(others)}]: {short_repr(i)}")
    return [tuple(sorted(en_cache_set + extra)) for extra in itertools.combinations(others, i)]


def fronthaul_payloads(coop: tuple[int, ...], n: int, mode: str) -> list[tuple[tuple[int, ...], ...]]:
    """Cache-set lists of the payloads cooperation set ``coop`` receives per user group.

    Naive multicast sends the sub-message of each n-subset of ``coop`` alone;
    coded multicast XORs the n-subsets of each (n+1)-subset.  A group cached
    at no edge node has nothing to combine against, so at n = 0 coded
    multicast has no payloads.
    """
    if mode == NAIVE_MULTICAST:
        return [(cache,) for cache in itertools.combinations(coop, n)]
    if n == 0:
        return []
    return [tuple(itertools.combinations(d, n)) for d in itertools.combinations(coop, n + 1)]


def fronthaul_plan(group: GroupIndex, i: int, cfg: NetworkConfig) -> tuple[FronthaulTransmission, ...]:
    """Fronthaul transmissions for one group at cooperation increment i, in
    the mode :func:`fronthaul_mode` picks.

    At i = 0 every owning set already caches its sub-message and the
    transmission list is empty.
    """
    validate_group(group, cfg)
    m, n = group
    nt = cfg.num_ens
    if type(i) is not int or i not in cooperation_increments(n, nt):
        raise ValueError(f"cooperation increment {short_repr(i)} not admissible for group {tuple(group)}")
    ue_groups = list(itertools.combinations(range(1, cfg.num_ues + 1), m + 1))
    mode = fronthaul_mode(n, i)
    transmissions = []
    for coop in itertools.combinations(range(1, nt + 1), n + i):
        payloads = fronthaul_payloads(coop, n, mode)
        transmissions += map(_new_transmission, itertools.product(ue_groups, (coop,), payloads))
    return tuple(transmissions)


# Row tables kept at once.  A table belongs to one (provider, shape) pair, and callers may
# make a provider per call (a counting wrapper, a closure per example), so the memo is bounded.
_ROW_TABLES = 128
# Entries kept at once by each memo keyed by a cache fraction: the factor tables here, and
# the converse's access maximum and the large-r limit in the bounds.  A grid of 9 fractions
# over shapes 2..6 fills 45 factor tables and 225 access maxima.
_FACTOR_TABLES = 1024


@lru_cache(maxsize=_FACTOR_TABLES, typed=True)
def _cache_factors(mu: float, k: int) -> tuple[tuple[float, float], ...]:
    """``(mu**j, (1.0 - mu)**(k - j))`` for j = 0..k: the two factors of the fraction of a file
    cached at exactly j given nodes of an axis of k, computed once per value.

    ``typed`` keeps an int, a float and a numpy float of equal value apart, so each call reads
    the types it would compute itself.  0.0 and -0.0 share a table: the only factor they
    differ in is ``mu**j`` for odd j, and a subfile fraction it enters is a zero, which
    :func:`_group_terms` skips and the limit adds to a positive total.
    """
    q = 1.0 - mu
    return tuple((mu ** j, q ** (k - j)) for j in range(k + 1))


@lru_cache(maxsize=_ROW_TABLES)
def _row_table(dof: DofProvider, nt: int, nr: int) -> tuple:
    """Per m, ``(c_limit, d_full, groups)``: ``c_limit = C(n_r - 1, m)``, ``d_full = d(m, n_t)``
    and one ``(group, c_access, first, rest)`` per n, ascending.  ``first`` and the rows of
    ``rest`` are ``(i, c_load, d)``, with ``d = d(m, n + i)``: ``first`` is the smallest
    admissible i, and ``rest`` the larger ones, ascending, except each i whose d is no larger
    than a smaller kept i's: its load factor is no smaller either, and rounding is monotone,
    so its total is never strictly smaller and the scan in ``_group_terms`` would not pick
    it.  Under the default DoF ``rest`` is empty when n_t < n_r and holds at most one row
    otherwise.  The constant factor of each load is built here, once per shape and in a
    fixed operand order.

    The provider is called once per (m, j), through :func:`fogndt.dof.dof_rows`: a DoF
    depends on the shape alone.  A value outside (0, 1] is a DofContractError, and a
    provider that raises leaves no table behind.  The first row of each group turns the
    group's exact load factor into a double; ``c_access`` and ``c_limit`` are never larger,
    so a shape whose factors exceed the double range fails here alone, with a ConfigError.
    """
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
            groups.append((GroupIndex(m, n), math.comb(nr - 1, m) * b_en, rows[0], tuple(rows[1:])))
        table.append((math.comb(nr - 1, m), dof_row[nt - 1], tuple(groups)))
    return tuple(table)


def _group_terms(cfg: NetworkConfig, dof: DofProvider, plans: list | None = None) -> tuple[float, float]:
    """The (fronthaul, access) totals of the fastest increment per group, for a config the
    caller has validated; into ``plans``, if given, each group's
    ``(group, f, chosen_i, load, tau_f, tau_a, dof_value)``.

    ``f = (mu_r**m * (1-mu_r)**(n_r-m)) * mu_t**n * (1-mu_t)**(n_t-n)``, its four powers read
    from :func:`_cache_factors`; ``load = c_load * f``, ``tau_f = load / r`` and
    ``tau_a = (c_access * f) / d``.  The group's first row is taken outright, and a row of
    its rest replaces it only if its total is strictly smaller, so ties go to the smaller i.
    Groups with zero subfile fraction are skipped.  The accumulation order is part of the
    contract: the totals start from 0.0 and add the groups in ascending (m, n) order, so
    re-summing the plans' times in that order gives the same bits.  This one pass serves
    both the closed-form bound and the schedule breakdown, which keeps the two
    bit-identical.
    """
    nt, nr, r = cfg.num_ens, cfg.num_ues, cfg.fronthaul_r
    en_factors = _cache_factors(cfg.mu_t, nt)
    total_f = 0.0
    total_a = 0.0
    for (_c_limit, _d_full, groups), (mr, qr) in zip(_row_table(dof, nt, nr), _cache_factors(cfg.mu_r, nr)):
        ue_part = mr * qr
        for (group, c_access, first, rest), (mt, qt) in zip(groups, en_factors):
            f = ue_part * mt * qt
            if f == 0.0:
                continue
            access = c_access * f
            best = first
            _i, c_load, d = first
            best_f = c_load * f / r
            best_a = access / d
            best_total = best_f + best_a
            for row in rest:
                _i, c_load, d = row
                tau_f = c_load * f / r
                tau_a = access / d
                total = tau_f + tau_a
                if total < best_total:
                    best, best_total, best_f, best_a = row, total, tau_f, tau_a
            total_f += best_f
            total_a += best_a
            if plans is not None:
                i, c_load, d = best
                plans.append((group, f, i, c_load * f, best_f, best_a, d))
    return total_f, total_a


@dataclass(frozen=True)
class GroupPlan:
    """Delivery plan of one group; message structure materializes on demand."""

    index: GroupIndex
    chosen_i: int
    size_fraction: float
    fronthaul_load: float
    tau_f: float
    tau_a: float
    dof_value: float
    cfg: NetworkConfig = field(repr=False)
    # Sub-message tables by (num_ens, n, i), shared by the plans of one schedule.
    _sub_tables: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def coop_level(self) -> int:
        return self.index.n + self.chosen_i

    @property
    def mode(self) -> str:
        return fronthaul_mode(self.index.n, self.chosen_i)

    @cached_property
    def messages(self) -> tuple[CodedMessage, ...]:
        return tuple(coded_messages_for_group(self.index, self.cfg))

    @cached_property
    def sub_messages(self) -> dict[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """The cooperation sets splitting each message, by its edge-node cache set.

        The plan's own dict, copied from the table its schedule shares; the values are tuples,
        so an edit of one plan's dict leaves every other plan unchanged.
        """
        nt, n, i = self.cfg.num_ens, self.index.n, self.chosen_i
        table = self._sub_tables.get((nt, n, i))
        if table is None:
            caches = itertools.combinations(range(1, nt + 1), n)
            table = self._sub_tables[nt, n, i] = {cache: tuple(coop_sets_for(cache, i, self.cfg)) for cache in caches}
        return dict(table)

    @cached_property
    def fronthaul(self) -> tuple[FronthaulTransmission, ...]:
        return fronthaul_plan(self.index, self.chosen_i, self.cfg)

    def _json_fields(self) -> dict:
        """The ten scalar fields of this group's schedule entry, in document order."""
        return {
            "m": self.index.m,
            "n": self.index.n,
            "cooperation_increment": self.chosen_i,
            "cooperation_level": self.coop_level,
            "fronthaul_mode": self.mode,
            "size_fraction": self.size_fraction,
            "fronthaul_ndt": self.tau_f,
            "access_ndt": self.tau_a,
            "per_user_dof": self.dof_value,
            "normalized_fronthaul_load": self.fronthaul_load,
        }


def _json_list(texts: Iterable[str], nl: str) -> str:
    """A JSON array of already-written, nonempty items at json's indent 2; ``nl`` is a newline
    plus the indent of the brackets."""
    inner = nl + "  "
    body = ("," + inner).join(texts)
    return f"[{inner}{body}{nl}]" if body else "[]"


def _json_ints(ints: tuple[int, ...], nl: str) -> str:
    return _json_list([*map(repr, ints)], nl)


@dataclass(frozen=True)
class DeliverySchedule:
    """Per-group plans plus the fixed-order delivery-time breakdown."""

    cfg: NetworkConfig
    demand: DemandVector
    groups: dict[GroupIndex, GroupPlan]
    breakdown: NdtBreakdown

    def _json_head(self) -> dict:
        """The schedule document's fields before ``groups``, in document order."""
        return {
            "format": "fogndt-schedule/1",
            "config": config_to_dict(self.cfg),
            "demand": list(self.demand.demands),
            "fronthaul_ndt": self.breakdown.total_f,
            "access_ndt": self.breakdown.total_a,
            "total_ndt": self.breakdown.total,
        }

    def to_json(self) -> dict:
        groups = []
        for g in sorted(self.groups):
            plan = self.groups[g]
            coops = plan.sub_messages
            groups.append(
                {
                    **plan._json_fields(),
                    "messages": [
                        {
                            "ue_group": ue_group,
                            "en_cache_set": cache,
                            "sub_messages": [{"coop_set": coop} for coop in coops[cache]],
                        }
                        for ue_group, cache in plan.messages
                    ],
                    "fronthaul_transmissions": [
                        {"ue_group": tx.ue_group, "coop_set": tx.coop_set, "cache_sets": tx.cache_sets}
                        for tx in plan.fronthaul
                    ],
                }
            )
        return {**self._json_head(), "groups": groups}

    def json_chunks(self) -> Iterator[str]:
        """``json.dumps(self.to_json(), indent=2)`` in pieces: the head, one piece per group, the tail.

        Only one group's text exists at a time.  Each text that repeats is written once per
        call and shared by every group of the call: each int list at each indent, each user
        group's head, each message tail (an ``en_cache_set`` with its ``sub_messages``, keyed
        by that content, not by (n, i)) and each fronthaul ``(coop_set, cache_sets)`` tail.
        Nothing is kept across calls.  Each message or transmission is then one concatenation,
        and each group's piece one join.  Exact ints and finite floats are written by their
        ``__repr__``, as json writes them, and any other scalar by ``json.dumps``.
        """
        import json  # local: this writer is the module's only json user

        def scalar(v) -> str:
            t = type(v)
            return t.__repr__(v) if t is int or t is float and math.isfinite(v) else json.dumps(v)

        nl6, nl8, nl10, nl12, nl14 = ("\n" + " " * k for k in (6, 8, 10, 12, 14))
        ints = cache(_json_ints)

        @cache
        def ue_head(ue_group: tuple[int, ...]) -> str:
            return "{" + nl10 + '"ue_group": ' + ints(ue_group, nl10) + "," + nl10

        @cache
        def message_tail(en_set: tuple[int, ...], coops: tuple[tuple[int, ...], ...]) -> str:
            subs = _json_list(["{" + nl14 + '"coop_set": ' + ints(c, nl14) + nl12 + "}" for c in coops], nl10)
            return '"en_cache_set": ' + ints(en_set, nl10) + "," + nl10 + '"sub_messages": ' + subs + nl8 + "}"

        @cache
        def tx_tail(coop: tuple[int, ...], caches: tuple[tuple[int, ...], ...]) -> str:
            cache_sets = _json_list([ints(c, nl12) for c in caches], nl10)
            return '"coop_set": ' + ints(coop, nl10) + "," + nl10 + '"cache_sets": ' + cache_sets + nl8 + "}"

        head = json.dumps(self._json_head(), indent=2)[:-2] + ',\n  "groups": '
        if not self.groups:
            yield head + "[]\n}"
            return
        yield head + "["
        sep = "\n    "
        for g in sorted(self.groups):
            plan = self.groups[g]
            fields = [json.encoder.encode_basestring_ascii(k) + ": " + scalar(v) for k, v in plan._json_fields().items()]
            tails = {en_set: message_tail(en_set, coops) for en_set, coops in plan.sub_messages.items()}
            ue_groups, en_sets = tuple(zip(*plan.messages)) or ((), ())
            messages = map(operator.add, map(ue_head, ue_groups), map(tails.__getitem__, en_sets))
            tx_ues, coops, caches = tuple(zip(*plan.fronthaul)) or ((), (), ())
            transmissions = map(operator.add, map(ue_head, tx_ues), map(tx_tail, coops, caches))
            yield "".join((
                sep, "{", nl6, ("," + nl6).join(fields), ",", nl6, '"messages": ', _json_list(messages, nl6),
                ",", nl6, '"fronthaul_transmissions": ', _json_list(transmissions, nl6), "\n    }",
            ))
            sep = ",\n    "
        yield "\n  ]\n}"


def build_schedule(
    cfg: NetworkConfig,
    demand: DemandVector | None = None,
    dof: DofProvider = per_user_dof_default,
) -> DeliverySchedule:
    """Assemble the full two-hop schedule over all nonempty groups."""
    demand = DemandVector.distinct(cfg) if demand is None else demand.validated(cfg)
    terms: list = []
    total_f, total_a = _group_terms(cfg, dof, terms)
    sub_tables: dict = {}
    plans = {
        group: GroupPlan(
            index=group,
            chosen_i=i_star,
            size_fraction=f,
            fronthaul_load=load,
            tau_f=tau_f,
            tau_a=tau_a,
            dof_value=d,
            cfg=cfg,
            _sub_tables=sub_tables,
        )
        for group, f, i_star, load, tau_f, tau_a, d in terms
    }
    breakdown = NdtBreakdown(total_f, total_a, total_f + total_a)
    if not math.isfinite(breakdown.total):
        raise _overflow_error(cfg, breakdown.total_f, breakdown.total_a)
    return DeliverySchedule(cfg, demand, plans, breakdown)


def _overflow_error(cfg: NetworkConfig, total_f: float, total_a: float) -> ConfigError:
    """Overflowing delivery times: the DoF's fault if only the access total overflows, else r's."""
    if math.isfinite(total_f) and not math.isfinite(total_a):
        return ConfigError("dof", "per-user DoF too small, the access times overflow")
    return ConfigError("fronthaul_r", f"fronthaul_r too small, the delivery times overflow: {cfg.fronthaul_r!r}")
