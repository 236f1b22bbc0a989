"""The one optimality certificate of a dispatch and its prices.

Both markets clear the same linear program: minimise the purchase cost
``asks @ power`` subject to each bus's balance, the line limits and each
unit's box.  The single-bus market is that program on a one-bus grid without
lines, and ``kkt_residuals`` is a one-bus call of ``kkt_verify_network``.

On a radial feeder the flows are fixed by the injections (line i carries
the net injection of buses 0..i), so a dispatch and its bus prices are all
the certificate takes; the multipliers follow from the prices.  A unit's
bound multipliers are ``mu = max(lmp - ask, 0)`` and
``mu_bar = max(ask - lmp, 0)``, and a line's multiplier is the price rise
across it (its downstream limit binds) or the price drop (its upstream
limit binds).  Stationarity and sign then hold by construction, and what is
left to check is primal feasibility and complementary slackness.  This is
the LP's dual certificate: derived multipliers that satisfy complementarity
exist exactly when any multipliers do.  It proves optimality for the
dispatched on/off pattern only; whether another pattern of units with
positive minimums costs less lies outside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .congestion import RadialGrid
from .merit_order import DispatchResult, Fleet


@dataclass(frozen=True)
class KktReport:
    """Maximum absolute residuals per block of the optimality system."""

    balance: float
    line_feasibility: float
    box_feasibility: float
    complementary_slackness: float

    @property
    def max_residual(self) -> float:
        """The largest block residual; NaN when any block is NaN."""
        return float(np.max([self.balance, self.line_feasibility,
                             self.box_feasibility, self.complementary_slackness]))


def kkt_verify_network(grid: RadialGrid, fleet: Fleet, power, lmps, loads) -> KktReport:
    """Check a dispatch and its bus prices against the optimality system.

    ``loads`` holds each bus's net load (renewables already subtracted).  On
    a one-bus grid every unit sits at bus 0; on a feeder unit i sits at bus
    i.  Blocks: balance (the feeder's total mismatch, since the flows are
    the cumulative injections), line and box feasibility, and complementary
    slackness of the multipliers the prices imply on lines and generator
    bounds.  A unit that is off while its minimum is positive was
    decommitted: its box is [0, 0] and it is left out of complementarity.
    A certified optimum stays within 1e-8.  Raises ValueError for a layout
    with other than one unit per feeder bus, for a ``power`` without one
    entry per unit, ``lmps`` without one entry per bus, other than one load
    per bus, and for a non-finite input, naming it.
    """
    power = np.asarray(power, dtype=float)
    lmps = np.asarray(lmps, dtype=float)
    loads = np.asarray(loads, dtype=float)
    n, units = grid.n_buses, len(fleet)
    if n > 1 and units != n:
        raise ValueError(f"a {n}-bus feeder needs one unit per bus, got {units} units")
    if power.shape != (units,):
        raise ValueError(f"power needs one entry per unit ({units}), got shape {power.shape}")
    if lmps.shape != (n,):
        raise ValueError(f"lmps needs one entry per bus ({n}), got shape {lmps.shape}")
    if loads.shape != (n,):
        raise ValueError(f"need one load per bus ({n})")
    for name, values in (("power", power), ("lmps", lmps), ("loads", loads)):
        if not np.isfinite(values).all():
            raise ValueError(f"{name} must be finite, got {values}")
    bus = np.zeros(units, dtype=int) if n == 1 else np.arange(n)
    limit, asks, p_max = grid.line_limit, fleet.ask_prices, fleet.p_maxs

    injections = np.bincount(bus, weights=power, minlength=n) - loads
    flows = np.cumsum(injections)  # the last entry is what leaves the feeder's end
    balance, flows = abs(flows[-1]), flows[:-1]
    line_feas = np.maximum(np.abs(flows) - limit, 0.0).max(initial=0.0)

    committed = (power > 0.0) | (fleet.p_mins == 0.0)
    lower = np.where(power > 0.0, fleet.p_mins, 0.0)
    box_feas = np.maximum(np.maximum(lower - power, power - p_max), 0.0).max()

    rise = np.diff(lmps)
    mu = np.maximum(lmps[bus] - asks, 0.0)
    mu_bar = np.maximum(asks - lmps[bus], 0.0)
    cs = np.max([np.abs(np.maximum(rise, 0.0) * (flows - limit)).max(initial=0.0),
                 np.abs(np.maximum(-rise, 0.0) * (flows + limit)).max(initial=0.0),
                 np.abs(mu * (power - p_max))[committed].max(initial=0.0),
                 np.abs(mu_bar * (lower - power))[committed].max(initial=0.0)])
    return KktReport(*map(float, (balance, line_feas, box_feas, cs)))


_ONE_BUS = RadialGrid(1, 1.0)  # no lines, so the limit is never read


def kkt_residuals(fleet: Fleet, result: DispatchResult, demand: float) -> KktReport:
    """Certificate of a single-bus dispatch against its demand.

    A one-bus call of ``kkt_verify_network``: every unit sits at bus 0,
    which carries the demand as its load and clears at the dispatch's price;
    with no lines the line blocks are 0.  A valid dispatch yields a max
    residual at float precision.
    """
    return kkt_verify_network(_ONE_BUS, fleet, result.power, [result.clearing_price],
                              [demand])
