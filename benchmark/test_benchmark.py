"""Self-tests of the benchmark: wrappers, gate, determinism and names.

Run from the repository root:

    python3 -m pytest -q benchmark/test_benchmark.py
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import mspp.reduced as mreduced  # noqa: E402
import mspp.search as msearch  # noqa: E402
import mspp.tree as mtree  # noqa: E402
from mspp import OccupancyTree, PlannerSession, SphereSet, ValueEstimator  # noqa: E402
from mspp.search import PlanResult  # noqa: E402

import layers  # noqa: E402
import measure as bench  # noqa: E402
from check import Gate, same_result  # noqa: E402
from spans import Tracer, counting, instrument  # noqa: E402
from workloads import Workload, make_workload, plan_query, prepare, realize  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small(name: str, seed: int = 7) -> Workload:
    """A few queries of each kind from the named workload."""
    w = make_workload(name, seed)
    if name == "oracle-mapfree":
        queries = w.queries[:3] + w.queries[-3:]
    elif name == "local-exact":
        queries = w.queries[:40]
    else:
        queries = w.queries[:8]
    return dataclasses.replace(w, queries=queries)


@pytest.fixture(scope="module", params=["grid-exact", "oracle-mapfree", "local-exact"])
def workload(request):
    return small(request.param)


def test_wrappers_leave_results_identical(workload):
    shared = prepare(workload.shared_worlds)
    plain = [plan_query(q, shared) for q in workload.queries]
    tracer = Tracer()
    with instrument(tracer):
        traced = [
            plan_query(q, shared, counting(q.predicate, tracer) if q.predicate else None)
            for q in workload.queries
        ]
    assert all(map(same_result, plain, traced))
    assert len(tracer.start) > 0


def _entry_points():
    return (
        msearch.refresh, msearch.find_neighbors, msearch.astar_lazy,
        msearch.grid_connected, mtree.build_from_grid, mreduced.RTNode,
        OccupancyTree.value, ValueEstimator.estimate, ValueEstimator.exact,
        PlannerSession.__init__, PlannerSession.run,
    )


def test_instrument_restores_every_original():
    before = _entry_points()
    with pytest.raises(RuntimeError):
        with instrument(Tracer()):
            assert msearch.refresh is not before[0]
            raise RuntimeError("leave the block early")
    assert all(a is b for a, b in zip(before, _entry_points()))


def test_counting_wrapper_keeps_batch_exactly_when_present():
    spheres = SphereSet([[4.0, 4.0]], [1.0])
    with_batch = counting(spheres, Tracer())
    assert hasattr(with_batch, "batch")
    assert not hasattr(counting(lambda p: False, Tracer()), "batch")
    assert bool(with_batch((4.0, 4.0))) and not with_batch((0.5, 0.5))
    assert with_batch.batch(np.array([[4.0, 4.0], [0.5, 0.5], [4.5, 4.0]])).tolist() == [
        True, False, True,
    ]
    assert (with_batch.points, with_batch.scalar_calls, with_batch.batch_calls) == (5, 2, 1)


def _traced_counts(workload: Workload) -> dict:
    run = bench.Run(workload)
    tracer, oracles, untraced = layers.traced_pass(run)
    assert run.correct
    metrics = layers.layer_metrics(run, tracer, oracles, untraced)
    metrics["path_len_ratio"] = run.gate.path_len_ratio(run.verdicts)
    metrics["failed"] = run.failed
    return metrics


def test_counts_repeat_exactly_and_self_times_add_up(workload):
    first = _traced_counts(workload)
    second = _traced_counts(workload)
    for name in ("search.iterations", "search.pops", "predicates.points",
                 "sampling.nodes", "reduced.rtnodes_allocated", "path_len_ratio",
                 "fail_rate", "failed"):
        assert first[name] == second[name], name
    layer_total = sum(
        first[name] for name in (
            "tree.self_s", "reduced.refresh_s", "reduced.cells_s", "neighbors.s",
            "search.astar_self_s", "search.session_self_s", "sampling.self_s",
            "predicates.s",
        )
    )
    assert math.isclose(layer_total, first["trace.query_s"], rel_tol=1e-9)
    if workload.name == "oracle-mapfree":
        assert first["predicates.points"] > 0 and first["sampling.nodes"] > 0
    else:
        assert first["predicates.points"] == 0 and first["sampling.nodes"] == 0


def test_gate_counts_loops_as_failures_and_bad_paths_as_wrong():
    workload = small("grid-exact")
    run = bench.Run(workload)
    run.one_pass()
    i = next(k for k, v in enumerate(run.verdicts) if v.length is not None)
    good = run.results[i]
    gate = Gate(run.queries, run.refs)

    def with_path(path):
        return PlanResult(good.status, path, good.cost, good.iterations,
                          good.stats, good.blocked)

    looping = with_path(good.path[:2] + good.path)
    verdict = gate.check(i, looping)
    assert verdict.failed and not verdict.wrong
    jumping = with_path(good.path[:1] + good.path[2:])
    verdict = gate.check(i, jumping)
    assert verdict.failed and verdict.wrong


def test_realize_answers_like_the_oracle_at_every_cell_centre():
    from itertools import product

    from mspp.environments import random_spheres

    for dim, depth in ((2, 3), (3, 3)):
        scene = random_spheres(dim, depth, 5, 0.3)
        grid = realize(scene, dim, depth)
        for cell in product(range(1 << depth), repeat=dim):
            assert grid.occupied(cell) == scene(tuple(c + 0.5 for c in cell))


def test_every_seed_gets_the_same_reachability_mix():
    for name in ("grid-exact", "oracle-mapfree"):
        mixes = []
        for seed in (1, 2):
            run = bench.Run(make_workload(name, seed))
            mixes.append(sorted((q.label, ref.reachable) for q, ref in zip(run.queries, run.refs)))
        assert mixes[0] == mixes[1]
        assert any(r for _, r in mixes[0]) and not all(r for _, r in mixes[0])


def test_every_listed_metric_is_computed_and_well_named(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = bench.Run(small("local-exact"))
    e2e = bench.measure(run, deadline=0.0)
    per_layer = layers.traced_metrics(run, tmp_path)
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert set(per_layer) == {m["name"] for m in spec["per_layer"]}
    for name in list(e2e) + list(per_layer) + [w["name"] for w in spec["workloads"]]:
        assert NAME.fullmatch(name), name


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "grid-exact",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
