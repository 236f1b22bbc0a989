"""Closed-form risk-based commitment and market clearing for a single bus.

Generators are dispatched in strictly increasing ask-price order against a
demand equal to the CVaR of the aggregate net load.  The solution has three
regimes: the marginal unit sits inside its box (clearing price = its ask),
the residual falls below the marginal unit's minimum so the previous unit
backs down (price = previous unit's ask), or the demand is smaller than the
cheapest unit's minimum and a single unit carries it alone.

The dispatch and its price are all the optimality certificate takes: it
derives the bound multipliers from the price, and a unit that is off while
its minimum is positive is a commitment decision whose bound is taken at
zero.  That certificate is the network one on a one-bus grid
(``dcopf.kkt_residuals``).

``commit_batch`` is the one clearing kernel: it dispatches a whole array of
demands at once, choosing the regime of each row with masks.  ``commit`` is
a one-row call of it that names the regime.  Feasibility has one answer,
the kernel's: a demand it cannot clear raises InfeasibleDispatchError, whose
message names the failed check (a non-finite demand, the servable range, the
single-unit regime or the adjustable-range assumption of the back-down).
A grid clears many levels through the kernel's unraising form,
``_commit_rows`` (each commitment in one call, the re-dispatch in row
blocks), and reads each level's first failing row from its masks.
"""

from __future__ import annotations

import csv
import enum
import math
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import FleetParseError, InfeasibleDispatchError

_BALANCE_TOL = 1e-9


_SPEC_NUMBERS = ("ask_price", "p_min", "p_max", "rp_max", "ramp_max", "start_cost_hot",
                 "start_cost_cold", "no_load_cost")


def _read_only(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class GeneratorSpec:
    """Cost and physical parameters of one non-renewable unit."""

    name: str
    ask_price: float          # $/MWh
    p_min: float = 0.0        # MW
    p_max: float = 0.0        # MW
    rp_max: float = 0.0       # MW, contingency reserve cap
    ramp_max: float = 0.0     # MW/h
    start_cost_hot: float = 0.0
    start_cost_cold: float = 0.0
    no_load_cost: float = 0.0  # $/h

    def __post_init__(self):
        # the name is written unquoted into CSV rows
        if not self.name or any(c in ',"' or unicodedata.category(c) == "Cc"
                                for c in self.name):
            raise ValueError(f"unit name {self.name!r} must be non-empty and free of "
                             "commas, double quotes and control characters")
        for name in _SPEC_NUMBERS:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{self.name}: {name} must be finite, got {value}")
        if not 0.0 <= self.p_min <= self.p_max:
            raise ValueError(f"{self.name}: need 0 <= p_min <= p_max, "
                             f"got [{self.p_min}, {self.p_max}]")
        if self.rp_max < 0.0 or self.ramp_max < 0.0:
            raise ValueError(f"{self.name}: reserve and ramp caps must be non-negative")
        if min(self.ask_price, self.start_cost_hot, self.start_cost_cold,
               self.no_load_cost) < 0.0:
            raise ValueError(f"{self.name}: costs and prices must be non-negative")


@dataclass(frozen=True)
class Fleet:
    """Ordered generator list; the order is the dispatch merit order.

    Ask prices must be strictly increasing (ties are rejected rather than
    broken, the closed-form solution needs a unique marginal unit), and the
    cheapest ask must be positive.

    The per-unit columns are built once, at construction, as read-only
    arrays; ``p_max_prefix`` is ``[0, p_max[0], p_max[0] + p_max[1], ...]``.
    """

    generators: tuple[GeneratorSpec, ...]
    ask_prices: np.ndarray = field(init=False, repr=False, compare=False)
    p_mins: np.ndarray = field(init=False, repr=False, compare=False)
    p_maxs: np.ndarray = field(init=False, repr=False, compare=False)
    p_max_prefix: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        if not self.generators:
            raise ValueError("a fleet needs at least one generator")
        asks = [g.ask_price for g in self.generators]
        if asks[0] <= 0.0:
            raise ValueError(f"the cheapest ask {asks[0]} must be positive")
        for lo, hi in zip(asks, asks[1:]):
            if hi <= lo:
                raise ValueError(f"ask prices must be strictly increasing, got {lo} then {hi}")
        for name, attr in (("ask_prices", "ask_price"), ("p_mins", "p_min"),
                           ("p_maxs", "p_max")):
            object.__setattr__(self, name,
                               _read_only([getattr(g, attr) for g in self.generators]))
        # Python floats sum to inf without the warning numpy's cumsum raises
        if sum(g.p_max for g in self.generators) == math.inf:
            raise ValueError("the units' capacities overflow their total")
        object.__setattr__(self, "p_max_prefix",
                           _read_only(np.concatenate(([0.0], np.cumsum(self.p_maxs)))))

    def __len__(self) -> int:
        return len(self.generators)

    @property
    def total_capacity(self) -> float:
        return float(self.p_maxs.sum())

    def head(self, n: int) -> "Fleet":
        """First n units (used to place one generator per feeder bus)."""
        if n > len(self.generators):
            raise ValueError(f"fleet has {len(self.generators)} units, need {n}")
        return Fleet(self.generators[:n])


class Regime(enum.Enum):
    """Which branch of the closed-form solution produced a dispatch."""

    INTERIOR = "interior"           # marginal unit inside its box
    BELOW_PMIN = "below_pmin"       # previous unit backs down to admit the marginal one
    SMALL_DEMAND = "small_demand"   # one unit alone carries a sub-minimum demand


@dataclass(frozen=True)
class DispatchResult:
    power: np.ndarray          # MW per generator, merit order
    clearing_price: float      # $/MWh
    regime: Regime
    marginal_index: int        # 0-based index of the price-setting unit

    @property
    def total_power(self) -> float:
        return float(self.power.sum())


_REGIMES = tuple(Regime)  # regime code -> Regime, in definition order


@dataclass(frozen=True)
class DispatchBatch:
    """Dispatch of m demands against one fleet; row r answers demand r."""

    power: np.ndarray           # (m, n) MW per generator, merit order
    clearing_price: np.ndarray  # (m,) $/MWh
    regime: np.ndarray          # (m,) regime codes, index into tuple(Regime)
    marginal_index: np.ndarray  # (m,) 0-based index of the price-setting unit


def _backdown_target(fleet: Fleet, demand, k):
    """Output left to unit k-1 when unit k runs at its minimum and the units
    before k-1 at their maximum: demand - sum(p_max[:k-1]) - p_min[k]."""
    return demand - fleet.p_max_prefix[k - 1] - fleet.p_mins[k]


def _commit_rows(fleet: Fleet, demands):
    """``commit_batch`` without the raise: the batch, the mask of its
    infeasible rows (whose entries mean nothing) and a function giving the
    error of row r, worded from the masks that failed it.  A grid reads each
    level's first failing row from it.
    """
    d = np.asarray(demands, dtype=float)
    if d.ndim != 1:
        raise ValueError(f"demands must be a 1-D array, got shape {d.shape}")
    asks, p_min, p_max, prefix = (fleet.ask_prices, fleet.p_mins, fleet.p_maxs,
                                  fleet.p_max_prefix)
    n = len(fleet)

    capacity = fleet.total_capacity
    unservable = ~np.isfinite(d) | (d < 0.0) | (d > capacity + _BALANCE_TOL)
    zero = d == 0.0
    small = (d < p_min[0]) & ~zero
    k = np.minimum(np.searchsorted(prefix[1:], d, side="left"), n - 1)
    residual = d - prefix[k]
    below = ~zero & ~small & (residual < p_min[k])
    # in the back-down regime k >= 1, because d >= p_min[0] and k = 0 give
    # residual = d; other rows read a harmless index
    prev = np.maximum(k - 1, 0)
    backdown = _backdown_target(fleet, d, k)
    bad = unservable | (below & ~((p_min[prev] < backdown) & (backdown < p_max[prev])))

    marginal = np.where(below, prev, k)  # k = 0 on zero rows
    output = np.where(below, backdown, residual)
    output[zero] = 0.0  # a -0.0 demand dispatches +0.0
    if small.any():
        ds = d[small, None]
        fits = (p_min <= ds) & (ds < p_max)
        bad[small] |= ~fits.any(axis=1)
        marginal[small] = fits.argmax(axis=1)
        output[small] = d[small]
    del residual, prev, backdown  # freed before the (m, n) power is allocated

    saturated = np.where(small, 0, marginal)
    power = np.where(np.arange(n) < saturated[:, None], p_max, 0.0)
    rows = np.arange(d.size)
    power[rows, marginal] = output
    power[rows[below], k[below]] = p_min[k[below]]
    regime = np.where(small, 2, np.where(below, 1, 0)).astype(np.int8)

    def error_at(r):
        demand = float(d[r])
        if not math.isfinite(demand):
            message = f"demand {demand} MW must be finite"
        elif unservable[r]:
            message = f"demand {demand:.6g} MW outside the servable range [0, {capacity:.6g}]"
        elif small[r]:
            message = f"no single unit can carry the sub-minimum demand {demand:.6g} MW"
        else:  # the back-down left unit k-1 outside its box
            j = k[r]
            message = (f"back-down target {_backdown_target(fleet, demand, j):.6g} MW "
                       f"outside unit {j - 1}'s box [{p_min[j - 1]:.6g}, {p_max[j - 1]:.6g}]; "
                       f"adjustable-range assumption violated")
        return InfeasibleDispatchError(message)

    return DispatchBatch(power, asks[marginal], regime, marginal), bad, error_at


def commit_batch(fleet: Fleet, demands) -> DispatchBatch:
    """Dispatch the fleet against every demand of a 1-D array in one pass.

    Cheapest units saturate first.  Each row takes one of three regimes,
    chosen by masks: INTERIOR (the marginal unit k sits inside its box and
    sets the price; a zero demand is INTERIOR at unit 0 with no output),
    BELOW_PMIN (the residual after saturation is below unit k's minimum, so
    k runs at its minimum and unit k-1 backs down and sets the price) and
    SMALL_DEMAND (the demand is below the cheapest unit's minimum and the
    first unit able to run at it carries it alone).  Raises
    InfeasibleDispatchError for the first row, in row order, that is not
    finite, lies outside [0, total capacity], or that no unit pattern can
    balance.
    """
    batch, bad, error_at = _commit_rows(fleet, demands)
    if bad.any():
        raise error_at(int(np.argmax(bad)))
    return batch


def commit(fleet: Fleet, demand_cvar: float) -> DispatchResult:
    """Dispatch the fleet against a demand (the CVaR of the aggregate net load).

    A one-row call of ``commit_batch``.  Raises InfeasibleDispatchError when
    no unit pattern can balance the demand.
    """
    batch = commit_batch(fleet, [float(demand_cvar)])
    return DispatchResult(batch.power[0], float(batch.clearing_price[0]),
                          _REGIMES[batch.regime[0]], int(batch.marginal_index[0]))


# Production cost, maximum output, hot/cold start cost and ramp rate of the
# seven-unit reference fleet; reserve caps default to the unit maximum and
# the no-load cost to zero.
_TABLE1 = (
    ("gen1", 7.37, 400.0, 0.0, 0.0, 400.0),
    ("gen2", 22.23, 155.0, 2258.6, 616.2, 155.0),
    ("gen3", 31.55, 76.0, 1412.5, 1412.5, 76.0),
    ("gen4", 176.05, 197.0, 14182.5, 8106.9, 197.0),
    ("gen5", 180.75, 100.0, 10357.8, 4575.0, 100.0),
    ("gen6", 241.91, 12.0, 1244.4, 695.4, 12.0),
    ("gen7", 315.81, 20.0, 109.5, 109.5, 20.0),
)


def builtin_fleet() -> Fleet:
    """The built-in seven-generator reference fleet."""
    gens = tuple(
        GeneratorSpec(name=name, ask_price=price, p_min=0.0, p_max=cap,
                      rp_max=cap, ramp_max=ramp, start_cost_hot=hot,
                      start_cost_cold=cold, no_load_cost=0.0)
        for name, price, cap, hot, cold, ramp in _TABLE1
    )
    return Fleet(gens)


_FLEET_HEADER = ["name", "ask_price", "p_min", "p_max", "rp_max", "ramp_max",
                 "hot_start", "cold_start", "no_load_cost"]


def _numbered_rows(fh):
    """Yield (first physical line, fields) per CSV record; a quoted newline spans lines."""
    reader = csv.reader(fh)
    start = 1
    for row in reader:
        yield start, row
        start = reader.line_num + 1


def fleet_from_csv(path) -> Fleet:
    """Load a fleet file and validate it; rows are sorted by ask price."""
    path = Path(path)
    gens = []
    try:
        # a leading byte-order mark is not part of the header
        with path.open(newline="", encoding="utf-8-sig") as fh:
            rows = list(_numbered_rows(fh))
    except OSError as exc:
        raise FleetParseError(f"{path}: cannot read fleet file: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise FleetParseError(f"{path}: fleet file is not UTF-8 text ({exc.reason})") from exc
    if not rows:
        raise FleetParseError(f"{path}: empty fleet file")
    if [h.strip() for h in rows[0][1]] != _FLEET_HEADER:
        raise FleetParseError(f"{path}: expected header {','.join(_FLEET_HEADER)}")
    first_line = {}  # unit name -> the line that named it
    for lineno, row in rows[1:]:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(_FLEET_HEADER):
            raise FleetParseError(f"{path}:{lineno}: expected "
                                  f"{len(_FLEET_HEADER)} fields, got {len(row)}")
        try:
            gens.append(GeneratorSpec(
                name=row[0].strip(),
                ask_price=float(row[1]), p_min=float(row[2]), p_max=float(row[3]),
                rp_max=float(row[4]), ramp_max=float(row[5]),
                start_cost_hot=float(row[6]), start_cost_cold=float(row[7]),
                no_load_cost=float(row[8])))
        except ValueError as exc:
            raise FleetParseError(f"{path}:{lineno}: {exc}") from exc
        name = gens[-1].name
        if name in first_line:
            raise FleetParseError(f"{path}:{lineno}: unit name {name!r} already used on "
                                  f"line {first_line[name]}")
        first_line[name] = lineno
    if not gens:
        raise FleetParseError(f"{path}: no generator rows")
    gens.sort(key=lambda g: g.ask_price)
    try:
        return Fleet(tuple(gens))
    except ValueError as exc:
        raise FleetParseError(f"{path}: {exc}") from exc
