"""kabminor benchmark: one run of one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
`src/` directory, never from an installed copy.  With --trace 0 the run
is timed and prints the end-to-end metrics; with --trace 1 it is a
separate traced run that prints the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds raw figures and any failure
messages.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOADS = ("search-n8", "spectral-rank", "minor-decide")


def _import_program():
    """Put the checkout's src/ first on the path and make sure kabminor
    comes from there."""
    if not (SRC / "kabminor" / "__init__.py").is_file():
        sys.exit(f"error: no kabminor sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import kabminor

    if Path(kabminor.__file__).resolve().parent != (SRC / "kabminor").resolve():
        sys.exit(f"error: kabminor imported from {kabminor.__file__}, not {SRC}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set the workload up, print 'ready' and stop (times setup_s)")
    ap.add_argument("--worker", action="store_true",
                    help="measuring child of a timed run: print its operations as JSON")
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    _import_program()
    sys.path.insert(0, str(HERE))
    import harness
    import workloads

    if args.setup_only:
        workloads.prepare(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.worker:
        print(json.dumps(workloads.worker(args.workload, args.seed, args.seconds)), flush=True)
        return 0

    harness.pin_to_one_cpu()
    if args.trace:
        import trace_run

        tally, metrics, detail = trace_run.traced_run(args.workload, args.seed, args.seconds)
    else:
        tally, metrics, detail = workloads.timed_run(args.workload, args.seed, args.seconds)
    detail = dict(detail, wrong=tally.wrong, errors=tally.errors)
    print(json.dumps(detail), flush=True)
    if not metrics:
        print("error: every operation failed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
