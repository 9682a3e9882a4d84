"""Delivery-time calculus and bit-exact delivery simulation for cache-aided
fog networks with a wireless fronthaul."""

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
from .oracle import DecodeFailure, DecodeReport, execute_schedule
from .placement import (
    PlacementRealization,
    fractional_size,
    placement_from_replay,
    placement_to_replay,
    sample_placement,
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
