"""Command-line harness: sweeps, single dispatch and settlement runs.

Exit codes: 0 success, 2 configuration or usage error, 3 infeasible dispatch.
"""

from __future__ import annotations

import sys
from pathlib import Path

import click

from .errors import ConfigurationError, InfeasibleDispatchError
from .experiment import (ALPHA_SWEEP_COLUMNS, ALPHA_SWEEP_PENETRATION,
                         PENETRATION_SWEEP_ALPHA, PENETRATION_SWEEP_COLUMNS,
                         SETTLEMENT_COLUMNS, RunConfig, emit_csv, evaluate_point,
                         generate_scenarios, load_fleet, run_alpha_sweep,
                         run_penetration_sweep, scenario_config, settlement_row)

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


_SHARED = [
    click.option("--fleet", "fleet_source", default="builtin", show_default=True,
                 help="Fleet CSV path or 'builtin'."),
    click.option("--scenarios", "n_scenarios", default=200, show_default=True, type=int),
    click.option("--seed", default=7, show_default=True, type=int),
    click.option("--line-limit", default="unlimited", show_default=True,
                 help="Uniform feeder line limit in MW, or 'unlimited'."),
    click.option("--cost-recovery", type=click.Choice(["0", "1"]), default="1",
                 show_default=True),
    click.option("--horizon", default=1, show_default=True, type=int),
    click.option("--load-mean", "load_mean", default=None,
                 help="Comma-separated mean load per bus in MW "
                      "(sets the bus count; default 232,174,174)."),
    click.option("--out", "out_dir", default="out", show_default=True,
                 help="Output directory for CSV files."),
]


def _shared_options(fn):
    for opt in reversed(_SHARED):
        fn = opt(fn)
    return fn


def _build_config(alphas, penetrations, capacity_mode, **kw) -> RunConfig:
    load_mean = kw.pop("load_mean")
    extra = {}
    if load_mean is not None:
        means = _parse_grid(load_mean, "load mean")
        extra = {"load_mean_per_bus": means, "n_buses": len(means)}
    try:
        run = RunConfig(
            alphas=alphas,
            penetrations=penetrations,
            line_limit=_parse_line_limit(kw.pop("line_limit")),
            cost_recovery=int(kw.pop("cost_recovery")),
            capacity_mode=capacity_mode,
            **extra,
            **kw,
        )
        Path(run.out_dir).mkdir(parents=True, exist_ok=True)
    except (ConfigurationError, OSError) as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)
    return run


def _run_guarded(fn):
    try:
        return fn()
    except InfeasibleDispatchError as exc:
        click.echo(f"infeasible dispatch: {exc}", err=True)
        sys.exit(EXIT_INFEASIBLE)
    except ConfigurationError as exc:
        click.echo(f"configuration error: {exc}", err=True)
        sys.exit(EXIT_CONFIG)


@click.group()
def main():
    """Risk-aware day-ahead market clearing simulator."""


@main.command("sweep-alpha")
@click.option("--alpha", default="0.5,0.6,0.7,0.8,0.9,0.99", show_default=True,
              help="Comma-separated confidence levels.")
@click.option("--penetration", default=str(ALPHA_SWEEP_PENETRATION), show_default=True,
              help="Fixed penetration for the sweep (first value used).")
@_shared_options
def sweep_alpha(alpha, penetration, **kw):
    """Sweep the reliability level at a fixed renewable penetration."""
    run = _build_config(_parse_grid(alpha, "alpha"), _parse_grid(penetration, "penetration"),
                        capacity_mode="tracking", **kw)
    diagnostics: list[str] = []
    rows = _run_guarded(lambda: run_alpha_sweep(run, diagnostics))
    for msg in diagnostics:
        click.echo(f"skipped: {msg}", err=True)
    path = emit_csv(rows, Path(run.out_dir) / "alpha_sweep.csv", ALPHA_SWEEP_COLUMNS)
    click.echo(f"wrote {path} ({len(rows)} rows)")


@main.command("sweep-penetration")
@click.option("--alpha", default=str(PENETRATION_SWEEP_ALPHA), show_default=True,
              help="Fixed confidence level for the sweep (first value used).")
@click.option("--penetration", default="0.0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9,1.0",
              show_default=True, help="Comma-separated penetration levels.")
@_shared_options
def sweep_penetration(alpha, penetration, **kw):
    """Sweep the renewable penetration at a fixed reliability level."""
    run = _build_config(_parse_grid(alpha, "alpha"), _parse_grid(penetration, "penetration"),
                        capacity_mode="buildout", **kw)
    diagnostics: list[str] = []
    rows = _run_guarded(lambda: run_penetration_sweep(run, diagnostics))
    for msg in diagnostics:
        click.echo(f"skipped: {msg}", err=True)
    path = emit_csv(rows, Path(run.out_dir) / "penetration_sweep.csv",
                    PENETRATION_SWEEP_COLUMNS)
    click.echo(f"wrote {path} ({len(rows)} rows)")


def _single_point(run: RunConfig):
    fleet = load_fleet(run.fleet_source)
    sset = generate_scenarios(scenario_config(run, run.penetrations[0]))
    return evaluate_point(fleet, run, sset, run.alphas[0], run.penetrations[0])


@main.command("dispatch")
@click.option("--alpha", default="0.9", show_default=True)
@click.option("--penetration", default=str(ALPHA_SWEEP_PENETRATION), show_default=True)
@_shared_options
def dispatch_cmd(alpha, penetration, **kw):
    """Commit the fleet once and write the per-unit dispatch."""
    run = _build_config(_parse_grid(alpha, "alpha"), _parse_grid(penetration, "penetration"),
                        capacity_mode="tracking", **kw)
    point = _run_guarded(lambda: _single_point(run))
    rows = []
    for i, gen in enumerate(point.fleet.generators):
        rows.append({
            "generator": gen.name,
            "committed_mw": float(point.committed[:, i].sum()),
            "ask_price": gen.ask_price,
            "lmp": float(point.lmps[0, i]),
        })
    path = emit_csv(rows, Path(run.out_dir) / "dispatch.csv",
                    ("generator", "committed_mw", "ask_price", "lmp"))
    click.echo(f"wrote {path} (clearing price {point.price:.2f} $/MWh, "
               f"total {point.committed_total:.2f} MW)")


@main.command("settle")
@click.option("--alpha", default="0.9", show_default=True)
@click.option("--penetration", default=str(ALPHA_SWEEP_PENETRATION), show_default=True)
@_shared_options
def settle_cmd(alpha, penetration, **kw):
    """Run one full market settlement and write the settlement summary."""
    run = _build_config(_parse_grid(alpha, "alpha"), _parse_grid(penetration, "penetration"),
                        capacity_mode="tracking", **kw)
    point = _run_guarded(lambda: _single_point(run))
    rows = [settlement_row(run, point)]
    path = emit_csv(rows, Path(run.out_dir) / "settlement.csv", SETTLEMENT_COLUMNS)
    for msg in point.settlement.violations:
        click.echo(f"note: {msg}", err=True)
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
