"""Command-line harness: sweeps, single dispatch and settlement runs.

Exit codes: 0 success, 2 configuration or usage error, 3 infeasible dispatch.
"""

from __future__ import annotations

import errno
import os
import sys
from dataclasses import replace
from pathlib import Path

import click

from .errors import ConfigurationError, InfeasibleDispatchError
from .experiment import (ALPHA_SWEEP_COLUMNS, ALPHA_SWEEP_PENETRATION,
                         PENETRATION_SWEEP_ALPHA, PENETRATION_SWEEP_COLUMNS,
                         SETTLEMENT_COLUMNS, RunConfig, emit_csv, point_row, run_grid)

EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3


def _parse_grid(text: str, what: str) -> tuple[float, ...]:
    values = []
    for entry in filter(str.strip, text.split(",")):
        try:
            values.append(float(entry))
        except ValueError:
            raise click.UsageError(f"{what} grid entry {entry.strip()!r} is not a number")
    if not values:
        raise click.UsageError(f"empty {what} grid")
    return tuple(values)


def _parse_line_limit(text: str) -> float | None:
    if text.strip().lower() == "unlimited":
        return None
    try:
        return float(text)
    except ValueError:
        raise click.UsageError(f"line limit must be a number or 'unlimited', got {text!r}")


def _grid_text(values, spec: str = "") -> str:
    return ",".join(format(v, spec) for v in values)


# the defaults are RunConfig's, shown as the flags spell them
_SHARED = [
    click.option("--fleet", "fleet_source", default=RunConfig.fleet_source,
                 show_default=True, help="Fleet CSV path or 'builtin'."),
    click.option("--scenarios", "n_scenarios", default=RunConfig.n_scenarios,
                 show_default=True, type=int),
    click.option("--seed", default=RunConfig.seed, show_default=True, type=int),
    click.option("--line-limit", default="unlimited", show_default=True,
                 help="Uniform feeder line limit in MW, or 'unlimited'."),
    click.option("--cost-recovery", type=click.Choice(["0", "1"]),
                 default=str(RunConfig.cost_recovery), show_default=True),
    click.option("--horizon", default=RunConfig.horizon, show_default=True, type=int),
    click.option("--load-mean", "load_mean", default=None,
                 help="Comma-separated mean load per bus in MW (sets the bus count; "
                      f"default {_grid_text(RunConfig.load_mean_per_bus, 'g')})."),
    click.option("--out", "out_dir", default="out", show_default=True,
                 help="Output directory for CSV files."),
]


def _shared_options(fn):
    for opt in reversed(_SHARED):
        fn = opt(fn)
    return fn


def _check_out(out: Path) -> None:
    """Exit before a run whose ``--out`` could not be created: its nearest
    existing ancestor must be a writable directory, and no missing component
    may be longer than that directory's file system allows.  Creates nothing."""
    paths = (out, *out.parents)
    found = next(i for i, p in enumerate(paths) if os.path.lexists(p))
    ancestor = paths[found]
    if not (ancestor.is_dir() and os.access(ancestor, os.W_OK | os.X_OK)):
        click.echo(f"configuration error: --out {out}: {ancestor} is not a writable "
                   "directory", err=True)
        sys.exit(EXIT_CONFIG)
    name_max = os.pathconf(ancestor, "PC_NAME_MAX")
    if any(len(os.fsencode(p.name)) > name_max for p in paths[:found]):
        exc = OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG), str(out))
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)


def _build_config(alpha, penetration, capacity_mode, **kw) -> tuple[RunConfig, Path]:
    """The validated run and its output directory, which ``_write`` creates;
    a run whose ``--out`` could not be created exits before it starts."""
    alphas = _parse_grid(alpha, "alpha")
    penetrations = _parse_grid(penetration, "penetration")
    load_mean = kw.pop("load_mean")
    if load_mean is not None:
        kw["load_mean_per_bus"] = _parse_grid(load_mean, "load mean")
    out = Path(kw.pop("out_dir"))
    try:
        run = RunConfig(
            alphas=alphas,
            penetrations=penetrations,
            line_limit=_parse_line_limit(kw.pop("line_limit")),
            cost_recovery=int(kw.pop("cost_recovery")),
            capacity_mode=capacity_mode,
            **kw,
        )
    except ConfigurationError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    _check_out(out)
    return run, out


def _run_grid(run: RunConfig, diagnostics: list[str] | None = None):
    """``run_grid`` with a fatal error turned into its exit code; a run too
    large for the memory it can get is a configuration error."""
    try:
        return run_grid(run, diagnostics)
    except InfeasibleDispatchError as exc:
        click.echo(f"infeasible dispatch: {exc}", err=True)
        sys.exit(EXIT_INFEASIBLE)
    except (ConfigurationError, MemoryError) as exc:
        click.echo(f"configuration error: {str(exc) or 'out of memory'}", err=True)
        sys.exit(EXIT_CONFIG)


def _write(rows: list[dict], out: Path, csv_name: str, columns) -> Path:
    """Create the output directory, so a run that fails leaves none, and write the CSV."""
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    return emit_csv(rows, out / csv_name, columns)


def _sweep(run: RunConfig, out: Path, csv_name: str, columns) -> None:
    """Run the grid, report each skipped point and write one row per point."""
    diagnostics: list[str] = []
    points = _run_grid(run, diagnostics)
    for msg in diagnostics:
        click.echo(f"skipped: {msg}", err=True)
    rows = [point_row(run, point) for point in points]
    path = _write(rows, out, csv_name, columns)
    click.echo(f"wrote {path} ({len(rows)} rows)")


def _single_point(run: RunConfig):
    """The grid's first (alpha, penetration) point; its failure is fatal."""
    one = replace(run, alphas=run.alphas[:1], penetrations=run.penetrations[:1])
    return _run_grid(one)[0]


@click.group()
def main():
    """Risk-aware day-ahead market clearing simulator."""


@main.command("sweep-alpha")
@click.option("--alpha", default=_grid_text(RunConfig.alphas), show_default=True,
              help="Comma-separated confidence levels.")
@click.option("--penetration", default=str(ALPHA_SWEEP_PENETRATION), show_default=True,
              help="Fixed penetration for the sweep (first value used).")
@_shared_options
def sweep_alpha(alpha, penetration, **kw):
    """Sweep the reliability level at a fixed renewable penetration."""
    run, out = _build_config(alpha, penetration, capacity_mode="tracking", **kw)
    _sweep(replace(run, penetrations=run.penetrations[:1]), out, "alpha_sweep.csv",
           ALPHA_SWEEP_COLUMNS)


@main.command("sweep-penetration")
@click.option("--alpha", default=str(PENETRATION_SWEEP_ALPHA), show_default=True,
              help="Fixed confidence level for the sweep (first value used).")
@click.option("--penetration", default=_grid_text(RunConfig.penetrations),
              show_default=True, help="Comma-separated penetration levels.")
@_shared_options
def sweep_penetration(alpha, penetration, **kw):
    """Sweep the renewable penetration at a fixed reliability level."""
    run, out = _build_config(alpha, penetration, capacity_mode="buildout", **kw)
    _sweep(replace(run, alphas=run.alphas[:1]), out, "penetration_sweep.csv",
           PENETRATION_SWEEP_COLUMNS)


@main.command("dispatch")
@click.option("--alpha", default="0.9", show_default=True)
@click.option("--penetration", default=str(ALPHA_SWEEP_PENETRATION), show_default=True)
@_shared_options
def dispatch_cmd(alpha, penetration, **kw):
    """Commit the fleet once and write the per-unit dispatch.

    With --horizon T above 1, committed_mw is each unit's sum over the T
    hours and the printed total is the T-hour sum, while lmp is hour 0's
    price and the printed clearing price the mean of the hourly prices.
    """
    run, out = _build_config(alpha, penetration, capacity_mode="tracking", **kw)
    point = _single_point(run)
    rows = [{"generator": gen.name, "committed_mw": float(point.committed[:, i].sum()),
             "ask_price": gen.ask_price, "lmp": float(point.lmps[0, i])}
            for i, gen in enumerate(point.fleet.generators)]
    path = _write(rows, out, "dispatch.csv", ("generator", "committed_mw", "ask_price", "lmp"))
    click.echo(f"wrote {path} (clearing price {point.price:.2f} $/MWh, "
               f"total {point.committed_total:.2f} MW)")


@main.command("settle")
@click.option("--alpha", default="0.9", show_default=True)
@click.option("--penetration", default=str(ALPHA_SWEEP_PENETRATION), show_default=True)
@_shared_options
def settle_cmd(alpha, penetration, **kw):
    """Run one full market settlement and write the settlement summary."""
    run, out = _build_config(alpha, penetration, capacity_mode="tracking", **kw)
    point = _single_point(run)
    path = _write([point_row(run, point)], out, "settlement.csv", SETTLEMENT_COLUMNS)
    for msg in point.violations:
        click.echo(f"note: {msg}", err=True)
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
