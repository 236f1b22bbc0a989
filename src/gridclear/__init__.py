"""Risk-aware day-ahead electricity market clearing.

Committed power is sized by the conditional value-at-risk of the aggregate
net load, dispatched in merit order (optionally on a radial feeder with a
line limit and locational prices), certified against the optimality system
by one routine for both markets, and settled across Monte Carlo renewable
scenarios.
"""

from .congestion import (CongestedDispatch, RadialGrid, dispatch_radial,
                         dispatch_radial_batch)
from .dcopf import KktReport, kkt_residuals, kkt_verify_network
from .errors import (ConfigurationError, FleetParseError, GridClearError,
                     InfeasibleDispatchError)
from .experiment import (PointResult, RunConfig, emit_csv, load_fleet, point_row, run_grid,
                         scenario_config)
from .merit_order import (DispatchResult, Fleet, GeneratorSpec, Regime,
                          builtin_fleet, commit, commit_batch, fleet_from_csv)
from .risk import cvar_rows
from .scenarios import ScenarioConfig
from .settlement import (curtail_and_pay_renewables,
                         deviation_envelopes, expected_profit, realized_profit,
                         reserve_and_ramp_check)

__version__ = "0.1.0"

__all__ = [
    "CongestedDispatch", "RadialGrid", "dispatch_radial", "dispatch_radial_batch",
    "KktReport", "kkt_residuals", "kkt_verify_network",
    "ConfigurationError", "FleetParseError", "GridClearError", "InfeasibleDispatchError",
    "PointResult", "RunConfig", "emit_csv", "load_fleet",
    "point_row", "run_grid", "scenario_config",
    "DispatchResult", "Fleet", "GeneratorSpec", "Regime",
    "builtin_fleet", "commit", "commit_batch", "fleet_from_csv",
    "cvar_rows",
    "ScenarioConfig",
    "curtail_and_pay_renewables",
    "deviation_envelopes", "expected_profit", "realized_profit",
    "reserve_and_ramp_check",
]
