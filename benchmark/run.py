"""End-to-end and per-layer benchmark of the mspp planner.

Run from the root of a repository checkout:

    python3 benchmark/run.py --workload grid-exact --seed 1 --seconds 36 --trace 0

The benchmark imports mspp from the checkout's src/ directory and drives
its public API as a closed loop: one process, one thread, one query in
flight.  --seed draws the workload's inputs (the same seed gives the same
inputs); workloads.py says why each workload exists.

--trace 0 measures end-to-end metrics (measure.py).  The whole query list
runs in passes, back to back, at least three times and then for as long
as the next pass is expected to end within --seconds of the program's
start; input generation, reference answers and set-up samples count
against that budget.

Plan latencies are given in reference units ("ref"): a query's time
divided by the time of a fixed loop of heap and dict operations that
runs between queries, every 0.1 s of query time (measure.py).  The CPU
of a shared machine moves between speeds up to twice apart for seconds
to minutes; the loop slows with the machine and not with the program,
so the ratio keeps what a change to mspp moves and drops most of what
the machine does.  Each query's latency is the median of its ratios over
the passes, and the plan percentiles are taken over those per-query
medians.  Queries slower than four times the first pass's p90 are timed
once.  setup_s is in seconds: the median of set-up samples taken before
each pass, in each of which a fresh interpreter imports mspp and runs
the workload's one-time preparation.

--trace 1 makes one pass that runs each query untraced and then traced,
and prints the per-layer metrics (layers.py).  Spans go to .bench_out/ in
the checkout (spans.py).  The traced run is a fixed amount of work, and
--seconds does not apply to it.

Every answer is checked against uniform A* on the same grid (check.py),
outside the timed region.  The last line of standard output is a JSON
object: correct, attempted (queries), failed (queries that failed the
gate) and metrics, each a {"value", "unit"} pair.  The metric names and
units are those BENCHMARK.json lists: end_to_end with --trace 0,
per_layer with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main(argv=None) -> int:
    began = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mspp" / "__init__.py").is_file():
        print(f"no mspp sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mspp

    if Path(mspp.__file__).resolve().parent != SRC / "mspp":
        print(f"imported mspp from {mspp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from measure import Run, measure
    from workloads import WORKLOADS, make_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    run = Run(make_workload(args.workload, args.seed))
    if args.trace:
        from layers import traced_metrics

        values = traced_metrics(run, ROOT / ".bench_out")
    else:
        values = measure(run, began + args.seconds)
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        print(f"metrics listed in BENCHMARK.json but not computed: {missing}",
              file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:14.6g} {m['unit']}")
    print(f"queries {len(run.queries)}, failed {run.failed}, correct {run.correct}")
    for i, v in enumerate(run.verdicts):
        if v.failed:
            print(f"  query {i} ({run.queries[i].label}): {v.reason}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": len(run.queries),
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
