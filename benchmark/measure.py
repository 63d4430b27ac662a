"""Timed passes over a workload, set-up samples and the end-to-end metrics.

run.py documents the measurement scheme; this module carries it out.
"""

from __future__ import annotations

import heapq
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import Gate, references, same_result
from workloads import plan_query, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3
# Set-up samples taken before each pass, so that they spread over the run.
SETUP_PER_PASS = 3
# After the first pass, queries slower than SLOW times its p90 are not
# repeated: their single time already ranks far above p90, so repeating
# them would move neither percentile and only take time from the others.
SLOW = 4.0

# The reference loop is timed before a pass and again after every
# SEGMENT_SECONDS of query time; see calibrated_pass().
SEGMENT_SECONDS = 0.1
REFERENCE_ITERATIONS = 3000

# One set-up in a fresh interpreter: the import of mspp and the workload's
# preparation are timed; regenerating the workload's maps is not.
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "began = time.perf_counter()\n"
    "import mspp\n"
    "seconds = time.perf_counter() - began\n"
    "from workloads import prepare, shared_worlds\n"
    "worlds = shared_worlds(sys.argv[3], int(sys.argv[4]))\n"
    "began = time.perf_counter()\n"
    "prepare(worlds)\n"
    "print(seconds + time.perf_counter() - began)\n"
)


def setup_seconds(workload) -> float:
    """Set-up time of one fresh process: import mspp, then prepare.

    The sample runs in a child so that the measuring process builds the
    set-up trees only once and its peak memory is that of one set-up.
    """
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(HERE),
         workload.name, str(workload.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def reference_seconds() -> float:
    """Time of a fixed loop of heap, dict and tuple operations.

    The loop does the kind of work the planner's own inner loops do and
    none of mspp's code, so it slows down with the machine and not with
    the program.
    """
    began = time.perf_counter()
    heap, counts = [], {}
    for i in range(REFERENCE_ITERATIONS):
        heapq.heappush(heap, ((i * 7919) % 1000, i))
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    return time.perf_counter() - began


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """One workload instance: inputs, set-up, references and the gate."""

    def __init__(self, workload):
        self.workload = workload
        self.queries = workload.queries
        self.shared = prepare(workload.shared_worlds)
        self.refs = references(self.queries)
        self.gate = Gate(self.queries, self.refs, self.shared)
        self.results = None
        self.verdicts = None
        self.consistent = True

    def one_pass(self, plan=None, indices=None, between=None) -> list[float]:
        """Run the given queries (default all) once and return their times.

        between(seconds), if given, is called after each query, off the
        clock.  The first pass must cover every query; its results are
        checked by the gate, and later results must equal them.
        """
        plan = plan or (lambda q: plan_query(q, self.shared))
        indices = range(len(self.queries)) if indices is None else indices
        times, results = [], []
        for i in indices:
            began = time.perf_counter()
            result = plan(self.queries[i])
            times.append(time.perf_counter() - began)
            results.append(result)
            if between is not None:
                between(times[-1])
        if self.results is None:
            self.results = results
            self.verdicts = [self.gate.check(i, r) for i, r in enumerate(results)]
        else:
            self.consistent &= all(same_result(self.results[i], r) for i, r in zip(indices, results))
        return times

    @property
    def failed(self) -> int:
        return sum(v.failed for v in self.verdicts)

    @property
    def correct(self) -> bool:
        return self.consistent and not any(v.wrong for v in self.verdicts)


def calibrated_pass(run: Run, indices) -> list[float]:
    """One pass over the given queries; times in reference-loop units.

    The reference loop runs before the first query and again after every
    SEGMENT_SECONDS of query time.  Each query's time is divided by the
    mean of the two reference times around its segment, which cancels the
    machine's speed at that moment.
    """
    refs = [reference_seconds()]
    segment_of = []
    spent = 0.0

    def between(seconds):
        nonlocal spent
        segment_of.append(len(refs) - 1)
        spent += seconds
        if spent >= SEGMENT_SECONDS:
            refs.append(reference_seconds())
            spent = 0.0

    times = run.one_pass(indices=indices, between=between)
    if segment_of[-1] == len(refs) - 1:
        refs.append(reference_seconds())
    return [t * 2 / (refs[s] + refs[s + 1]) for t, s in zip(times, segment_of)]


def measure(run: Run, deadline: float) -> dict[str, float]:
    """End-to-end metrics of the workload, measured until `deadline`.

    Passes, with their set-up samples, run while the next one is expected
    to end by `deadline` (a time.perf_counter() value), and at least
    MIN_PASSES times.  peak_rss_mb is the peak of this process: one set of
    set-up trees, the queries' own memory, and the benchmark's inputs and
    reference answers, which no change to mspp moves.
    """
    samples = [[] for _ in run.queries]
    active = list(range(len(run.queries)))
    setup = []
    passes = 0
    last = 0.0
    while passes < MIN_PASSES or time.perf_counter() + last <= deadline:
        began = time.perf_counter()
        setup += [setup_seconds(run.workload) for _ in range(SETUP_PER_PASS)]
        units = calibrated_pass(run, active)
        for i, u in zip(active, units):
            samples[i].append(u)
        passes += 1
        if passes == 1:
            cut = SLOW * percentile(units, 90)
            active = [i for i in active if units[i] <= cut]
        last = time.perf_counter() - began
    latency = [statistics.median(v) for v in samples]
    print(
        f"latency samples: {len(latency)} queries, median of {passes} passes "
        f"({len(latency) - len(active)} slow queries timed once); "
        f"{len(setup)} set-up samples"
    )
    return {
        "setup_s": statistics.median(setup),
        "plan_p50_ref": statistics.median(latency),
        "plan_p90_ref": percentile(latency, 90),
        "path_len_ratio": run.gate.path_len_ratio(run.verdicts),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
