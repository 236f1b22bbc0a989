"""Golden bytes: small CLI runs whose CSV digests are pinned.

Criterion 9 compares two runs of the same code, so it cannot see a change
that shifts output.  These digests were recorded before the clearing,
payment and scenario loops were batched, and every later change must keep
them (or say why the numbers moved); the two sweeps added last were
recorded before the penetration levels of a grid were cleared as one
batch.  Each run exercises different code:

- settle on one bus: the merit-order re-dispatch, with curtailment active
- settle on an 80 MW feeder: feeder dispatch and per-bus prices, with
  curtailment paid at differing bus prices
- a penetration sweep over six buses: per-hour scenario draws on many
  buses, the sweep loop and a multi-row CSV
- dispatch on one bus and on the 80 MW feeder: the per-unit committed
  output and price of each clearing path
- an alpha sweep over four hours: the cost-recovery total H (start-up,
  reserve and ramp costs) and both profits, R and R_tilde
- a penetration sweep on the 80 MW feeder: the per-hour tail CVaRs and
  the feeder re-dispatch at every level, up to a congested full level
- a penetration sweep over eight buses with distinct non-integer means:
  each hour's renewable target is a sum of unequal bus means, so a
  reordered bus sum would round differently
- the flags whose first value alone is used (a sweep's fixed axis, and both
  axes of settle): a second value must not change a byte, so these digests
  equal those of the one-value runs above or of settle at its defaults
- settle on one bus and on the 80 MW feeder, and the alpha sweep, with
  ``--cost-recovery 0``: the mode whose uplift is zero, recorded before the
  uplift term was dropped from both profits
- an alpha sweep on a 50 MW feeder whose last two buses carry no load:
  their per-bus and tail rows are all zeros, so the CVaR merges each such
  row's tied draws into one atom
- the benchmark's three workloads at full size (T 24, K 1000 and a 24-bus
  sweep), whose seed-7 digests ``perfbench/workloads.json`` pins
- grids with no load or weather spread on one bus and on the 80 MW feeder:
  every CVaR row is one tied, non-zero atom; these and the sweep above were
  recorded before the tied rows' vectorised merge was replaced by a
  row-by-row one

A sweep that skips points is pinned on its stderr as well: which error a
point reports (its commitment's, else its level's re-dispatch's, else an
unrecoverable H) and how a skipped level or point names its coordinates.
"""

import hashlib
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from gridclear.cli import main
from gridclear.experiment import RunConfig, emit_csv, point_row, run_grid

GOLDEN = {
    "settle-bus": (
        ["settle", "--horizon", "24", "--scenarios", "100", "--penetration", "0.9"],
        "settlement.csv",
        "53b536a1cbb065e4abdfdd1c634b1ebf9bc5ce881a6c31f202d094129b86017b"),
    "settle-feeder": (
        ["settle", "--horizon", "24", "--scenarios", "100", "--penetration", "0.9",
         "--line-limit", "80", "--load-mean", "150,75,45"],
        "settlement.csv",
        "db1f94028c90ab51fdd557f0b8c53024161874706729a53f5e89922c0a890789"),
    "sweep-penetration": (
        ["sweep-penetration", "--horizon", "4", "--scenarios", "40",
         "--load-mean", "120,100,90,80,70,60"],
        "penetration_sweep.csv",
        "91b293975321e698a8aa2395f8d2ad14371ed957df1ec729121ad69b68b52428"),
    "sweep-penetration-feeder": (
        ["sweep-penetration", "--line-limit", "80", "--load-mean", "150,75,45",
         "--horizon", "4", "--scenarios", "40"],
        "penetration_sweep.csv",
        "f6286d5949cefd725e997718aa7c9d33465b20b42cc48558bafc5c20787beecf"),
    "sweep-penetration-eight-buses": (
        ["sweep-penetration", "--load-mean", "31.7,12.25,40.1,18.6,27.35,9.9,22.45,35.8",
         "--horizon", "4", "--scenarios", "40"],
        "penetration_sweep.csv",
        "78311f0713d986d6d144fc81e9f8880885e9a1055a4a43014dc2710722ec8c64"),
    "dispatch-bus": (
        ["dispatch"],
        "dispatch.csv",
        "8419a32c21c4933ac5426ba2e9c4968975f54ff1da7d92f60b0346374afebd76"),
    "dispatch-feeder": (
        ["dispatch", "--line-limit", "80", "--load-mean", "150,75,45"],
        "dispatch.csv",
        "f64b5866ca2f3f518a95c58ba6dfd279cd165b6026395d5fa6d978645ead02bc"),
    "sweep-alpha": (
        ["sweep-alpha", "--horizon", "4"],
        "alpha_sweep.csv",
        "6a3a588b9739d976e54d5c20383408a96c674ac44c571e419ce2f5b75922e2b8"),
    "sweep-alpha-two-penetrations": (
        ["sweep-alpha", "--horizon", "4", "--penetration", "0.009,0.5"],
        "alpha_sweep.csv",
        "6a3a588b9739d976e54d5c20383408a96c674ac44c571e419ce2f5b75922e2b8"),
    "sweep-penetration-two-alphas": (
        ["sweep-penetration", "--horizon", "4", "--scenarios", "40",
         "--load-mean", "120,100,90,80,70,60", "--alpha", "0.95,0.5"],
        "penetration_sweep.csv",
        "91b293975321e698a8aa2395f8d2ad14371ed957df1ec729121ad69b68b52428"),
    "settle-two-alphas": (
        ["settle", "--alpha", "0.9,0.5"],
        "settlement.csv",
        "99d82699ab5b9520f01641395afaccb1fc8aa644b850a30ce76d8300a7085d46"),
    "settle-bus-no-recovery": (
        ["settle", "--horizon", "24", "--scenarios", "100", "--penetration", "0.9",
         "--cost-recovery", "0"],
        "settlement.csv",
        "8d6f96e2a98a46ba21fed9dd8189fc8e9a67fb40f5d1f3ab210d268da4ce69b1"),
    "settle-feeder-no-recovery": (
        ["settle", "--horizon", "24", "--scenarios", "100", "--penetration", "0.9",
         "--line-limit", "80", "--load-mean", "150,75,45", "--cost-recovery", "0"],
        "settlement.csv",
        "9977cb338ad8a7f45ca5dde053601bbd1c2d59141f43222dd91163937f5727be"),
    "sweep-alpha-no-recovery": (
        ["sweep-alpha", "--horizon", "4", "--cost-recovery", "0"],
        "alpha_sweep.csv",
        "3ef43b01a90650ed03c9a2315099be5091ebc4ff3f2a9e60893fd00b5d20a93c"),
    "sweep-alpha-feeder-zero-buses": (
        ["sweep-alpha", "--line-limit", "50", "--load-mean", "100,0,0", "--horizon", "4"],
        "alpha_sweep.csv",
        "8f4e1b771fafaf9e66c384d814fb1a9ca32c2ab954c15ad9757e7d4ed9bc7c90"),
}


# the benchmark's workloads at full size: their seed-7 digests are read from
# the benchmark's own file, so that every test run checks them
WORKLOADS = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                        / "workloads.json").read_text())["workloads"]
GOLDEN.update({f"benchmark-{name}": (w["argv"], w["csv"], w["sha256_reference_seed"])
               for name, w in WORKLOADS.items()})


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_csv_bytes(name, tmp_path):
    argv, csv, digest = GOLDEN[name]
    result = CliRunner().invoke(main, argv + ["--seed", "7", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    data = (tmp_path / csv).read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest, data.decode()


TIED_GRIDS = {
    "bus": ({}, "bb2334182c342347221766ce26395fc35c1f47872b2dfaaf92be93e7e32e02c3"),
    "feeder": (dict(line_limit=80.0, load_mean_per_bus=(150.0, 75.0, 45.0)),
               "e9c77803bfa0f384045915a2305f0c2a0e852d0129a5d8c57c8a4a062f0f3cc5"),
}


@pytest.mark.parametrize("name", sorted(TIED_GRIDS))
def test_all_tied_grid_bytes(name, tmp_path):
    # every scenario draws the same loads and renewables, so each CVaR row is
    # a single tied atom; every point_row column is pinned
    kw, digest = TIED_GRIDS[name]
    run = RunConfig(load_std_frac=0.0, uncertainty_growth=0.0, horizon=4, n_scenarios=40,
                    alphas=(0.5, 0.9, 0.99), **kw)
    rows = [point_row(run, point) for point in run_grid(run)]
    path = emit_csv(rows, tmp_path / "grid.csv", tuple(rows[0]))
    data = path.read_bytes()
    assert len(rows) == 33
    assert hashlib.sha256(data).hexdigest() == digest, data.decode()


# recorded before a failed level was settled with the rest of its grid
SKIPPING_SWEEP = (
    ["sweep-penetration", "--line-limit", "80", "--load-mean", "150,80,65",
     "--penetration", "0.0,0.4,1.1,2.0,0.9", "--horizon", "3", "--scenarios", "40",
     "--seed", "11"],
    "skipped: alpha=0.95, penetration=0.0: bus 1: tail requirement 155.072 MW "
    "exceeds generator capacity 155\n"
    "skipped: penetration=2.0: hour 0: required system-wide mean share 1.8182 of "
    "capacity exceeds 1; infeasible Beta mean on [0, w]\n",
    "b3e8ba7e3ce74f6a3797b9e3041d9812b9c5e5ee5bd11eb541e9059a920e10fc")


def test_skipping_sweep_stderr_and_csv_bytes(tmp_path):
    argv, stderr, digest = SKIPPING_SWEEP
    result = CliRunner().invoke(main, argv + ["--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert result.stderr == stderr
    data = (tmp_path / "penetration_sweep.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest, data.decode()
