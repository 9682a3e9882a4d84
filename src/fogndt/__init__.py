"""Delivery-time calculus and bit-exact delivery simulation for cache-aided
fog networks with a wireless fronthaul.

The closed-form modules load with the package.  The oracle and placement
names need numpy, so they are imported on first access (PEP 562)."""

from importlib import import_module as _import_module

from .bounds import (
    BoundsReport,
    bounds_report,
    gap,
    ndt_lower,
    ndt_upper,
    ndt_upper_limit_infinite_r,
)
from .dof import (
    DofContractError,
    check_contract,
    per_user_dof_default,
    table_provider_from_json,
)
from .model import (
    ConfigError,
    DemandVector,
    GroupIndex,
    NdtBreakdown,
    NetworkConfig,
)
from .scheduler import (
    CodedMessage,
    DeliverySchedule,
    GroupPlan,
    build_schedule,
    coded_messages_for_group,
    fronthaul_plan,
)

__version__ = "0.1.0"

_LAZY = {
    "DecodeFailure": "oracle",
    "DecodeReport": "oracle",
    "execute_schedule": "oracle",
    "PlacementRealization": "placement",
    "fractional_size": "placement",
    "placement_from_replay": "placement",
    "placement_to_replay": "placement",
    "sample_placement": "placement",
}

__all__ = [
    "BoundsReport",
    "bounds_report",
    "gap",
    "ndt_lower",
    "ndt_upper",
    "ndt_upper_limit_infinite_r",
    "DofContractError",
    "check_contract",
    "per_user_dof_default",
    "table_provider_from_json",
    "ConfigError",
    "DemandVector",
    "GroupIndex",
    "NdtBreakdown",
    "NetworkConfig",
    "CodedMessage",
    "DeliverySchedule",
    "GroupPlan",
    "build_schedule",
    "coded_messages_for_group",
    "fronthaul_plan",
    *_LAZY,
]


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(_import_module(f".{module}", __name__), name)  # later reads skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
