"""Run one workload of the time-to-legitimate-tree benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mdst-cold-sync-n16 --seed 1 \\
        --seconds 55 --trace 0

Imports the library from the checkout's ``src/`` (never from an installed
copy), runs the workload for ``--seconds`` and prints one JSON object as the
last line of standard output: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  Human-readable metric lines and
any verification problem go to standard error.  Exits 1 when a check fails
and 2 when the library cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_harness():
    """Import the harness (this script's directory is already on the path)
    with the checkout's ``src/`` first on the path."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {src}: {exc}",
              file=sys.stderr)
        raise SystemExit(2)
    if src not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: library imported from {repro.__file__}, "
              f"not from {src}", file=sys.stderr)
        raise SystemExit(2)
    import harness
    return harness


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    harness = _import_harness()
    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"known: {sorted(harness.WORKLOADS)}")
    result, problems = harness.run_workload(
        harness.WORKLOADS[args.workload], seed=args.seed,
        seconds=args.seconds, trace=bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload}  {name:32s} {metric['value']:.6g} {metric['unit']}",
              file=sys.stderr)
    for problem in problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
