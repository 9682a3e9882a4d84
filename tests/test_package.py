"""The package's public names, eager and resolved on first access."""
from __future__ import annotations

import pytest

import fogndt
from fogndt import bounds, dof, model, oracle, placement, scheduler

PUBLIC = {
    bounds: ["BoundsReport", "bounds_report", "gap", "ndt_lower", "ndt_upper", "ndt_upper_limit_infinite_r"],
    dof: ["DofContractError", "check_contract", "per_user_dof_default", "table_provider_from_json"],
    model: ["ConfigError", "DemandVector", "GroupIndex", "NdtBreakdown", "NetworkConfig"],
    oracle: ["DecodeFailure", "DecodeReport", "execute_schedule"],
    placement: ["PlacementRealization", "fractional_size", "placement_from_replay", "placement_to_replay",
                "sample_placement"],
    scheduler: ["CodedMessage", "DeliverySchedule", "GroupPlan", "build_schedule", "coded_messages_for_group",
                "fronthaul_plan"],
}
OWNER = {name: module for module, names in PUBLIC.items() for name in names}
NAMES = list(OWNER)
LAZY = PUBLIC[oracle] + PUBLIC[placement]


def test_all_lists_every_public_name():
    assert sorted(fogndt.__all__) == sorted(NAMES)
    assert set(NAMES) <= set(dir(fogndt))
    star = {}
    exec("from fogndt import *", star)
    assert set(NAMES) <= set(star)


@pytest.mark.parametrize("name", NAMES)
def test_public_name_is_the_submodule_object(name):
    assert getattr(fogndt, name) is getattr(OWNER[name], name)


@pytest.mark.parametrize("name", LAZY)
def test_lazy_name_resolves_once_and_is_cached(monkeypatch, name):
    monkeypatch.delitem(vars(fogndt), name, raising=False)
    assert name not in vars(fogndt) and name in dir(fogndt)
    value = getattr(fogndt, name)
    assert vars(fogndt)[name] is value


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'fogndt' has no attribute 'no_such_name'$"):
        fogndt.no_such_name
