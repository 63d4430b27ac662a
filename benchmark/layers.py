"""Per-layer metrics from one pass that runs each query untraced, then traced.

Layer times are self times: a span's duration minus its children's, so
the layers' times add up to the traced query time.  The query root span,
the session constructor and run() bodies and the A* loop are charged to
search; search.session_self_s is the part outside astar_lazy.

Which end-to-end metric each layer metric should move, and where:
  tree.*        build: plan latency on grid-exact, setup_s and peak_rss_mb
                on local-exact; connected: plan latency on local-exact
  reduced.*     plan_p90_ref on grid-exact, plan_p50_ref on local-exact
  neighbors.*   plan latency on grid-exact and oracle-mapfree
  search.*      plan_p90_ref and path_len_ratio on grid-exact, fail_rate
                on local-exact
  sampling.*, predicates.*, oracle_calls_per_query
                plan_p50_ref on oracle-mapfree; zero on the exact workloads
  reference.*, trace.*   context only
queries_per_s, fail_rate and oracle_calls_per_query are reported here,
without a bound, rather than end to end: a few long queries whose presence
depends on the seed dominate queries_per_s, and the other two are zero on
some workloads.
"""

from __future__ import annotations

import time

from mspp.search import NO_PATH

from check import same_result
from spans import LAYER_SPANS, Tracer, counting, instrument
from workloads import plan_query, prepare


def _div(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced_pass(run, out_path=None):
    """One pass with every layer wrapped; returns (tracer, oracles, untraced).

    Each traced query runs right after an untraced run of the same query,
    whose time goes to `untraced`, so a slow phase of the machine affects
    both sides of the overhead ratio alike.  The two results must be
    equal, and the traced ones go through the gate.
    """
    tracer = Tracer()
    oracles = []
    untraced = []

    def plan(q):
        began = time.perf_counter()
        plain = plan_query(q, run.shared)
        untraced.append(time.perf_counter() - began)
        tracer.query += 1
        oracle = None
        if q.predicate is not None:
            oracle = counting(q.predicate, tracer)
            oracles.append(oracle)
        with instrument(tracer):
            root = tracer.open("query")
            try:
                result = plan_query(q, run.shared, oracle)
            finally:
                tracer.close(root)
        run.consistent &= same_result(plain, result)
        return result

    with instrument(tracer):
        prepare(run.workload.shared_worlds)  # traced only for the build figures
    run.one_pass(plan)
    if out_path is not None:
        out_path.parent.mkdir(exist_ok=True)
        tracer.write(out_path)
    return tracer, oracles, untraced


def traced_metrics(run, out_dir) -> dict[str, float]:
    tracer, oracles, untraced = traced_pass(
        run, out_dir / f"trace-{run.workload.name}-{run.workload.seed}.npz"
    )
    return layer_metrics(run, tracer, oracles, untraced)


def layer_metrics(run, tracer: Tracer, oracles, untraced) -> dict:
    spans = tracer.summary(queries_only=True)
    every = tracer.summary(queries_only=False)
    counts = tracer.counts
    layer_self = {
        layer: sum(spans[name]["self_s"] for name in names)
        for layer, names in LAYER_SPANS.items()
    }
    query_s = spans["query"]["s"]

    def share(seconds):
        return _div(seconds, query_s)

    results = run.results
    iterations = sum(r.iterations for r in results)
    backtracks = sum(r.blocked for r in results)
    dead_ends = sum(r.status == NO_PATH and r.iterations > 0 for r in results)
    pops = sum(r.stats.pops for r in results)
    reachable = [i for i, ref in enumerate(run.refs) if ref.reachable]
    ref_s = sum(run.refs[i].seconds for i in reachable)
    session_self = sum(spans[n]["self_s"] for n in ("query", "search.init", "search.run"))
    sampling_calls = spans["sampling.estimate"]["calls"] + spans["sampling.exact"]["calls"]
    points = sum(o.points for o in oracles)
    return {
        "tree.build_ms": _div(every["tree.build"]["s"], every["tree.build"]["calls"]) * 1e3,
        "tree.nodes": _div(counts["tree_nodes"], every["tree.build"]["calls"]),
        "tree.connected_ms": _div(spans["tree.connected"]["s"], spans["tree.connected"]["calls"]) * 1e3,
        "tree.connected_calls": spans["tree.connected"]["calls"],
        "tree.value_calls": spans["tree.value"]["calls"],
        "tree.self_s": layer_self["tree"],
        "tree.share": share(layer_self["tree"]),
        "reduced.refresh_calls": spans["reduced.refresh"]["calls"],
        "reduced.refresh_s": spans["reduced.refresh"]["self_s"],
        "reduced.refresh_share": share(spans["reduced.refresh"]["self_s"]),
        "reduced.cells_s": spans["reduced.cells"]["self_s"],
        "reduced.view_leaves": _div(counts["view_leaves"], spans["reduced.refresh"]["calls"]),
        "reduced.rtnodes_allocated": counts["rtnodes"],
        "neighbors.calls": spans["neighbors.find"]["calls"],
        "neighbors.s": layer_self["neighbors"],
        "neighbors.share": share(layer_self["neighbors"]),
        "neighbors.leaves_per_call": _div(counts["neighbor_leaves"], spans["neighbors.find"]["calls"]),
        "search.iterations": iterations,
        "search.backtracks": backtracks,
        "search.commit_ratio": _div(iterations - backtracks - dead_ends, iterations),
        "search.pops": pops,
        "search.pops_per_iteration": _div(pops, iterations),
        "search.touched": sum(r.stats.touched for r in results),
        "search.astar_self_s": spans["search.astar"]["self_s"],
        "search.astar_share": share(spans["search.astar"]["self_s"]),
        "search.session_init_ms": _div(spans["search.init"]["s"], spans["search.init"]["calls"]) * 1e3,
        "search.session_self_s": session_self,
        "sampling.nodes": counts["fresh_nodes"],
        "sampling.estimate_calls": spans["sampling.estimate"]["calls"],
        "sampling.exact_calls": spans["sampling.exact"]["calls"],
        "sampling.fresh_ratio": _div(counts["fresh_nodes"], sampling_calls),
        "sampling.self_s": layer_self["sampling"],
        "sampling.share": share(layer_self["sampling"]),
        "predicates.points": points,
        "predicates.batch_calls": sum(o.batch_calls for o in oracles),
        "predicates.scalar_calls": sum(o.scalar_calls for o in oracles),
        "predicates.s": layer_self["predicates"],
        "predicates.share": share(layer_self["predicates"]),
        "oracle_calls_per_query": _div(points, len(run.queries)),
        "reference.astar_ms": _div(ref_s, len(reachable)) * 1e3,
        "reference.expanded": sum(run.refs[i].expanded for i in reachable),
        "reference.slowdown": _div(sum(untraced[i] for i in reachable), ref_s),
        "trace.query_s": query_s,
        "trace.overhead_ratio": _div(query_s, sum(untraced)),
        "queries_per_s": _div(len(untraced), sum(untraced)),
        "fail_rate": _div(run.failed, len(run.queries)),
    }
