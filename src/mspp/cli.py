"""Command-line front end: plan, bound, gen-map.

Each subcommand reads only its own settings (READS), and each setting is
stated once (SETTINGS: its default, its flag's help and its valid
values).  A subcommand has a flag and a config key for each setting it
reads and no other, so a setting it would ignore is refused:

  plan     dim depth eps gamma samples alpha weight seed mode
  bound    dim depth eps gamma regions
  gen-map  dim depth seed density kind

Configuration precedence is defaults < MSPP_SEED environment fallback
(seed only, where the subcommand reads seed) < JSON config file
(--config) < explicit flags.  plan --map takes dim and depth from the
map file and refuses them from flags or the config file.  eps, gamma,
samples and seed act only map-free (a map node is an obstacle exactly
when it is full), so plan --map in exact mode refuses them the same way
and does not read MSPP_SEED.  Exit codes:
0 success, 1 usage, I/O or out-of-memory error, 2 planner failure
(blocked endpoints or no path), 3 iteration budget exceeded.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import Callable, NamedTuple

from .environments import GeneratorSpec, generate_map, grid_predicate
from .predicates import parse_predicate
from .sampling import BoundParams, failure_bound
from .search import (
    BUDGET_EXCEEDED,
    SUCCESS,
    PlannerSession,
    verify_path,
    verify_path_sampled,
)
from .tree import build_from_grid, map_text, read_map


class Setting(NamedTuple):
    """A setting's default, its flag's help, and its valid values.

    valid is the tuple of allowed values of a text setting, or a test
    that a number must pass (stated by rule in errors), or None.
    """

    default: int | float | str
    help: str
    valid: tuple | Callable | None = None
    rule: str = ""


SETTINGS = {
    "dim": Setting(2, "world dimension d", lambda v: v >= 1, ">= 1"),
    "depth": Setting(5, "tree depth (side = 2**depth)", lambda v: v >= 0, ">= 0"),
    "eps": Setting(0.5, "map-free threshold scale", lambda v: 0 < v < 1, "in (0, 1)"),
    "gamma": Setting(0.1, "sampling margin", lambda v: v > 0, "> 0"),
    "samples": Setting(256, "map-free: nodes of <= SAMPLES cells are enumerated, "
                       "others draw SAMPLES points where they can change the "
                       "plan (at weight 0, only in the flag band)",
                       lambda v: v >= 1, ">= 1"),
    "alpha": Setting(1.0, "window scale multiplier", lambda v: v > 0, "> 0"),
    "weight": Setting(0.0, "occupancy cost weight w (0 plans for length)",
                      lambda v: v >= 0, ">= 0"),
    "regions": Setting(1, "independent-region count Z", lambda v: v >= 1, ">= 1"),
    "seed": Setting(0, "random seed (MSPP_SEED fallback)"),
    "mode": Setting("exact", "planner mode", ("exact", "sampling")),
    "density": Setting(0.3, "obstacle density", lambda v: 0 <= v <= 1, "in [0, 1]"),
    "kind": Setting("bernoulli", "map texture", ("bernoulli", "blobs")),
}

# The settings each subcommand reads: its setting flags and config keys.
READS = {
    "plan": (
        "dim", "depth", "eps", "gamma", "samples", "alpha", "weight", "seed", "mode"
    ),
    "bound": ("dim", "depth", "eps", "gamma", "regions"),
    "gen-map": ("dim", "depth", "seed", "density", "kind"),
}

# The plan settings that only map-free mode reads.
MAP_FREE = ("eps", "gamma", "samples", "seed")


def _setting_flags(p: argparse.ArgumentParser, command: str) -> None:
    for key in READS[command]:
        setting = SETTINGS[key]
        if isinstance(setting.default, str):
            p.add_argument(f"--{key}", choices=setting.valid, help=setting.help)
        else:
            p.add_argument(f"--{key}", type=type(setting.default), help=setting.help)
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
    _setting_flags(p, "plan")

    p = sub.add_parser(
        "bound",
        help="failure-probability bound curve, CSV output",
        description="Failure-probability bound per sample count n, CSV output. "
        "With --regions 1 each row is either 0, when no scale above the "
        "enumeration cutoff where a saturated estimate is flagged lies in the "
        "tree (sampling decides no node), or above exp(-2 eps^2 / n).",
    )
    p.add_argument("--n-range", default="1,300", help="inclusive sample range lo,hi")
    _setting_flags(p, "bound")

    p = sub.add_parser("gen-map", help="generate a random map file")
    p.add_argument("--blobs", help="blob count range lo,hi")
    p.add_argument("--blob-size", help="blob side range lo,hi")
    p.add_argument("--free-start", action="store_true", help="keep first corner free")
    p.add_argument("--free-goal", action="store_true", help="keep last corner free")
    _setting_flags(p, "gen-map")
    return parser


def _merged_config(args: argparse.Namespace, from_map: bool = False) -> dict:
    """The settings args.command reads, each from its highest source.

    from_map says that plan takes dim and depth from its map file; setting
    either by flag or config file is then an error, and so is setting one
    of MAP_FREE in exact mode, which then does not read MSPP_SEED either.
    """
    keys = READS[args.command]
    cfg = {key: SETTINGS[key].default for key in keys}
    given = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            given = json.load(fh)
        if not isinstance(given, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(given) - set(keys)
        if unknown:
            raise ValueError(
                f"unknown config keys: {sorted(unknown)} "
                f"({args.command} reads {', '.join(keys)})"
            )
    for key in keys:
        if getattr(args, key) is not None:
            given[key] = getattr(args, key)
    cfg.update(given)
    # A config file skips argparse, so its values get the flags' checks here.
    for key, value in cfg.items():
        setting = SETTINGS[key]
        if isinstance(setting.default, str):
            if value not in setting.valid:
                raise ValueError(
                    f"{key} must be one of {', '.join(setting.valid)}, got {value!r}"
                )
            continue
        kinds = int if isinstance(setting.default, int) else (int, float)
        if isinstance(value, bool) or not isinstance(value, kinds):
            what = "an integer" if kinds is int else "a number"
            raise ValueError(f"{key} must be {what}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{key} must be a finite number, got {value!r}")
        if setting.valid is not None and not setting.valid(value):
            raise ValueError(f"{key} must be {setting.rule}, got {value!r}")
    map_exact = from_map and cfg["mode"] == "exact"
    for refused, names, reason in (
        (from_map, ("dim", "depth"), "the map file fixes dim and depth"),
        (map_exact, MAP_FREE, "exact mode reads no eps, gamma, samples or seed"),
    ):
        clash = [key for key in names if refused and key in given]
        if clash:
            raise ValueError(f"{reason}; do not set {', '.join(clash)}")
    env_seed = os.environ.get("MSPP_SEED")
    fallback = "seed" in keys and "seed" not in given and not map_exact
    if fallback and env_seed is not None:
        try:
            cfg["seed"] = int(env_seed)
        except ValueError:
            raise ValueError(f"MSPP_SEED={env_seed!r} is not an integer")
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


@contextlib.contextmanager
def _output(path: str | None):
    """The --out file, written and closed on exit, or standard output."""
    if not path:
        yield sys.stdout
        return
    with open(path, "w", encoding="utf-8", newline="") as stream:
        yield stream


def cmd_plan(args: argparse.Namespace) -> int:
    cfg = _merged_config(args, from_map=bool(args.map_file))
    if args.map_file and args.predicate:
        raise ValueError("give either --map or --predicate, not both")
    if not args.map_file and not args.predicate:
        raise ValueError("plan needs --map or --predicate")
    mode = cfg["mode"]
    if args.predicate and mode == "exact":
        raise ValueError("--predicate requires --mode sampling")

    tree = predicate = None
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
        weight=cfg["weight"],
        seed=cfg["seed"],
        budget=args.budget,
        cell_picks=cell_picks,
    )
    result = session.run()

    with _output(args.out) as stream:
        if result.success:
            if tree is not None:
                ok, why = verify_path(tree, result.path, start=start, goal=goal)
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
    with _output(args.out) as stream:
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
    with _output(args.out) as stream:
        stream.write(map_text(world))
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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
