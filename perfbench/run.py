"""Run one gridclear benchmark workload and print its metrics.

    python3 perfbench/run.py --workload settle-bus --seed 7 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics (tracing off); ``--trace 1``
prints the per-layer metrics of a traced run.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full report (environment, CSV digest,
every sample) goes to ``.perfbench_out/`` in the checkout, and a traced
run also writes its spans there.  Exit code 2 means the benchmark could
not run here, for example because the checkout holds no ``src/gridclear``.
"""

from __future__ import annotations

import argparse
import json
import sys

import harness


def _print_summary(report: dict) -> None:
    env = report["environment"]
    print(f"workload {report['workload']} seed {report['seed']} trace {int(report['trace'])}")
    print("env " + json.dumps(env, sort_keys=True))
    digest = report["csv_sha256"]
    if report["csv_sha256_recorded"] is None:
        print(f"csv sha256 {digest} (no recorded digest for this seed; repetitions must agree)")
    else:
        print(f"csv sha256 {digest} (recorded {report['csv_sha256_recorded']})")
    for name, values in report["samples"].items():
        q1, med, q3 = harness.quartiles(values)
        print(f"  {name:<16} median {med:.4f}  q1 {q1:.4f}  q3 {q3:.4f}  max {max(values):.4f}"
              f"  n={len(values)}")
    for name, m in report["result"]["metrics"].items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")
    for reason in report["failures"] + report["problems"]:
        print(f"FAILED: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=harness.REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace))
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    path = harness.OUT / (f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    path.write_text(json.dumps(report, indent=1) + "\n")
    _print_summary(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
