"""Command-line front end: plan, bound, gen-map.

Configuration precedence is defaults < MSPP_SEED environment fallback
(seed only) < JSON config file (--config) < explicit flags.  Exit codes:
0 success, 1 usage or I/O error, 2 planner failure (blocked endpoints or
no path), 3 iteration budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .environments import GeneratorSpec, generate_map, grid_predicate
from .predicates import parse_predicate
from .sampling import BoundParams, failure_bound
from .search import (
    BUDGET_EXCEEDED,
    SUCCESS,
    CostModel,
    PlannerSession,
    verify_path,
    verify_path_sampled,
)
from .tree import build_from_grid, map_text, read_map, write_map

DEFAULTS = {
    "dim": 2,
    "depth": 5,
    "eps": 0.5,
    "gamma": 0.1,
    "samples": 256,
    "alpha": 1.0,
    "weight": 1.0,
    "regions": 1,
    "seed": 0,
    "mode": "exact",
    "density": 0.3,
    "kind": "bernoulli",
}

MODES = ("exact", "sampling")
MAP_KINDS = ("bernoulli", "blobs")
# Config keys limited to a set of values; every other key holds a number of
# its default's type.
CHOICES = {"mode": MODES, "kind": MAP_KINDS}


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dim", type=int, help="world dimension d")
    p.add_argument("--depth", type=int, help="tree depth (side = 2**depth)")
    p.add_argument("--eps", type=float, help="obstacle threshold scale, in (0,1)")
    p.add_argument("--gamma", type=float, help="sampling margin, > 0")
    p.add_argument("--samples", type=int, help="samples per node")
    p.add_argument("--alpha", type=float, help="window scale multiplier")
    p.add_argument("--weight", type=float, help="occupancy cost weight w")
    p.add_argument("--regions", type=int, help="independent-region count Z")
    p.add_argument("--seed", type=int, help="random seed (MSPP_SEED fallback)")
    p.add_argument("--mode", choices=MODES, help="planner mode")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output file (default: standard output)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mspp",
        description="Multiscale path planning on dyadic occupancy trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="plan one instance")
    p.add_argument("--map", dest="map_file", help="occupancy map file")
    p.add_argument(
        "--predicate",
        help="obstacle predicate, e.g. spheres:8,8,3 checkerboard:4 "
        "wall:0,15.5,4 slab:0,3.2",
    )
    p.add_argument("--start", help="start point, comma-separated coordinates")
    p.add_argument("--goal", help="goal point, comma-separated coordinates")
    p.add_argument("--budget", type=int, help="iteration budget")
    _common_flags(p)

    p = sub.add_parser("bound", help="failure-probability bound curve, CSV output")
    p.add_argument("--n-range", default="1,300", help="inclusive sample range lo,hi")
    _common_flags(p)

    p = sub.add_parser("gen-map", help="generate a random map file")
    p.add_argument("--density", type=float, help="obstacle density")
    p.add_argument("--kind", choices=MAP_KINDS, help="map texture")
    p.add_argument("--blobs", help="blob count range lo,hi")
    p.add_argument("--blob-size", help="blob side range lo,hi")
    p.add_argument("--free-start", action="store_true", help="keep first corner free")
    p.add_argument("--free-goal", action="store_true", help="keep last corner free")
    _common_flags(p)
    return parser


def _merged_config(args: argparse.Namespace) -> dict:
    cfg = dict(DEFAULTS)
    env_seed = os.environ.get("MSPP_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"MSPP_SEED={env_seed!r} is not an integer")
    if getattr(args, "config", None):
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(loaded) - set(DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(loaded)
    for key in DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    # A config file skips argparse, so its values get the flags' checks here.
    for key, default in DEFAULTS.items():
        value = cfg[key]
        if key in CHOICES:
            if value not in CHOICES[key]:
                raise ValueError(
                    f"{key} must be one of {', '.join(CHOICES[key])}, got {value!r}"
                )
        else:
            kinds = int if isinstance(default, int) else (int, float)
            if isinstance(value, bool) or not isinstance(value, kinds):
                what = "an integer" if kinds is int else "a number"
                raise ValueError(f"{key} must be {what}, got {value!r}")
    if not 0.0 < cfg["eps"] < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    if cfg["gamma"] <= 0:
        raise ValueError("gamma must be positive")
    if cfg["samples"] < 1 or cfg["regions"] < 1:
        raise ValueError("samples and regions must be >= 1")
    if cfg["alpha"] <= 0:
        raise ValueError("alpha must be positive")
    if cfg["weight"] < 0:
        raise ValueError("weight must be nonnegative")
    if cfg["dim"] < 1 or cfg["depth"] < 0:
        raise ValueError("need dim >= 1 and depth >= 0")
    return cfg


def _parse_range(text: str, flag: str) -> tuple[int, int]:
    try:
        lo, hi = (int(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be lo,hi integers, got {text!r}")
    return lo, hi


def _parse_point(text: str, dim: int, side: int, name: str) -> tuple[float, ...]:
    try:
        point = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise ValueError(f"{name} must be comma-separated numbers, got {text!r}")
    if len(point) != dim:
        raise ValueError(f"{name} needs {dim} coordinates, got {len(point)}")
    if any(not 0.0 <= x <= side for x in point):
        raise ValueError(f"{name} {point} outside the world box [0, {side}]^{dim}")
    return point


def _out_stream(cfg_out):
    if cfg_out:
        return open(cfg_out, "w", encoding="utf-8", newline="")
    return None


def cmd_plan(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    if args.map_file and args.predicate:
        raise ValueError("give either --map or --predicate, not both")
    if not args.map_file and not args.predicate:
        raise ValueError("plan needs --map or --predicate")
    mode = cfg["mode"]
    if args.predicate and mode == "exact":
        raise ValueError("--predicate requires --mode sampling")
    if args.predicate:
        mode = "sampling"

    tree = predicate = world = None
    cell_picks = False
    if args.map_file:
        world = read_map(args.map_file)
        dim, depth = world.dim, world.depth
        if mode == "exact":
            tree = build_from_grid(world)
        else:
            predicate = grid_predicate(world)
            cell_picks = True
    else:
        dim, depth = cfg["dim"], cfg["depth"]
        predicate = parse_predicate(args.predicate, dim, 1 << depth)
    side = 1 << depth

    start = (
        _parse_point(args.start, dim, side, "start")
        if args.start
        else (0.5,) * dim
    )
    goal = (
        _parse_point(args.goal, dim, side, "goal")
        if args.goal
        else (side - 0.5,) * dim
    )

    session = PlannerSession(
        tree=tree,
        predicate=predicate,
        dim=dim,
        depth=depth,
        start=start,
        goal=goal,
        eps=cfg["eps"],
        gamma=cfg["gamma"],
        samples=cfg["samples"],
        alpha=cfg["alpha"],
        cost=CostModel(cfg["weight"]),
        seed=cfg["seed"],
        budget=args.budget,
        cell_picks=cell_picks,
    )
    result = session.run()

    stream = _out_stream(args.out) or sys.stdout
    try:
        if result.success:
            if tree is not None:
                ok, why = verify_path(tree, result.path, cfg["eps"], start, goal)
            else:
                ok, why = verify_path_sampled(
                    predicate, result.path, depth, start, goal
                )
            if not ok:
                print(f"internal error: planned path failed check: {why}", file=sys.stderr)
                return 1
            for idx in result.path:
                centers = " ".join(f"{c / 2:g}" for c in idx.center2)
                print(f"{idx.scale} {centers}", file=stream)
        summary = (
            f"status={result.status} nodes={len(result.path) if result.path else 0} "
            f"cost={result.cost if result.cost is not None else 'none'} "
            f"iterations={result.iterations} pops={result.stats.pops} "
            f"blocked={result.blocked}"
        )
        print(summary, file=stream)
    finally:
        if stream is not sys.stdout:
            stream.close()
    if result.status == SUCCESS:
        return 0
    if result.status == BUDGET_EXCEEDED:
        return 3
    return 2


def cmd_bound(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    lo, hi = _parse_range(args.n_range, "--n-range")
    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi in --n-range")
    stream = _out_stream(args.out) or sys.stdout
    try:
        print("n,bound", file=stream)
        for n in range(lo, hi + 1):
            params = BoundParams(
                depth=cfg["depth"],
                dim=cfg["dim"],
                eps=cfg["eps"],
                gamma=cfg["gamma"],
                samples=n,
                regions=cfg["regions"],
            )
            print(f"{n},{failure_bound(params):.10g}", file=stream)
    finally:
        if stream is not sys.stdout:
            stream.close()
    return 0


def cmd_gen_map(args: argparse.Namespace) -> int:
    cfg = _merged_config(args)
    extra = {}
    if args.blobs:
        extra["blobs"] = _parse_range(args.blobs, "--blobs")
    if args.blob_size:
        extra["blob_size"] = _parse_range(args.blob_size, "--blob-size")
    spec = GeneratorSpec(
        cfg["dim"],
        cfg["depth"],
        cfg["density"],
        kind=cfg["kind"],
        seed=cfg["seed"],
        free_start=args.free_start,
        free_goal=args.free_goal,
        **extra,
    )
    world = generate_map(spec)
    if args.out:
        write_map(world, args.out)
    else:
        sys.stdout.write(map_text(world))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    handlers = {
        "plan": cmd_plan,
        "bound": cmd_bound,
        "gen-map": cmd_gen_map,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
