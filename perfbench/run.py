"""Seeded offline benchmark for ragkit.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Builds its inputs from --seed, sets ragkit up from the sources under src/,
measures one workload for --seconds, checks the outputs, prints every
metric by name with its unit, and prints as its last line one JSON object
with the keys correct, attempted, failed and metrics. --trace 0 gives the
end-to-end metrics; --trace 1 gives the per-layer metrics of a traced
phase. Exits 1 when an output check fails, 2 when it cannot run at all.
See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("search", "rag_experiment", "ircot")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Seeded offline benchmark for ragkit.")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ragkit" / "__init__.py").is_file():
        print(f"perfbench: no ragkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    out = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    result = out["result"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in out["info"].items()))
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    for error in out["errors"][:20]:
        print(f"  CHECK FAILED: {error}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
