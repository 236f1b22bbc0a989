"""Risk-aware day-ahead electricity market clearing.

Committed power is sized by the conditional value-at-risk of the aggregate
net load, dispatched in merit order (optionally on a radial feeder with a
line limit and locational prices), certified against the optimality system,
and settled across Monte Carlo renewable scenarios.
"""

from .congestion import (CongestedDispatch, FeederCase, RadialGrid,
                         committed_upper_bound, dispatch_radial,
                         dispatch_radial_batch, validate_feeder_assumptions)
from .dcopf import (NetworkKktReport, OpfSolution, kkt_verify_network,
                    solve_deterministic)
from .errors import (ConfigurationError, FleetParseError, GridClearError,
                     InfeasibleDispatchError)
from .experiment import (PointResult, RunConfig, emit_csv, evaluate_point,
                         load_fleet, point_row, run_grid, scenario_config)
from .merit_order import (DispatchResult, Fleet, GeneratorSpec, KktReport,
                          Regime, backdown_feasibility, builtin_fleet, commit,
                          commit_batch, fleet_from_csv, kkt_residuals,
                          validate_assumptions)
from .risk import (EmpiricalSample, committed_requirement, cvar_direct,
                   cvar_rockafellar, cvar_rows, rockafellar_objective, var)
from .scenarios import (ScenarioConfig, ScenarioSet, aggregate_net_load,
                        generate_scenarios, net_load, suffix_net_load,
                        write_scenario_csv)
from .settlement import (SettlementReport, curtail_and_pay_renewables, deviation_cost,
                         deviation_envelopes, expected_profit, realized_profit,
                         recovery_rate, reserve_and_ramp_check)

__version__ = "0.1.0"

__all__ = [
    "CongestedDispatch", "FeederCase", "RadialGrid", "committed_upper_bound",
    "dispatch_radial", "dispatch_radial_batch", "validate_feeder_assumptions",
    "NetworkKktReport", "OpfSolution", "kkt_verify_network", "solve_deterministic",
    "ConfigurationError", "FleetParseError", "GridClearError", "InfeasibleDispatchError",
    "PointResult", "RunConfig", "emit_csv", "evaluate_point", "load_fleet",
    "point_row", "run_grid", "scenario_config",
    "DispatchResult", "Fleet", "GeneratorSpec", "KktReport", "Regime",
    "backdown_feasibility", "builtin_fleet", "commit", "commit_batch", "fleet_from_csv",
    "kkt_residuals", "validate_assumptions",
    "EmpiricalSample", "committed_requirement", "cvar_direct", "cvar_rockafellar",
    "cvar_rows", "rockafellar_objective", "var",
    "ScenarioConfig", "ScenarioSet", "aggregate_net_load", "generate_scenarios",
    "net_load", "suffix_net_load", "write_scenario_csv",
    "SettlementReport", "curtail_and_pay_renewables",
    "deviation_cost", "deviation_envelopes", "expected_profit", "realized_profit",
    "recovery_rate", "reserve_and_ramp_check",
]
