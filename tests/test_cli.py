"""The mspp command line: exit codes, outputs and input checks."""

import json
import math

import numpy as np
import pytest

from mspp.cli import SETTINGS, main
from mspp.predicates import parse_predicate
from mspp.search import verify_path_sampled
from mspp.tree import GridWorld, NodeIndex, map_text, read_map


def map_file(tmp_path, occupied, dim=2, depth=3):
    """Write a map whose listed cells are obstacles and return its path."""
    cells = np.zeros(1 << (dim * depth), dtype=np.uint8)
    world = GridWorld(dim, depth, cells)
    for cell in occupied:
        cells[world.flat_index(cell)] = 1
    path = tmp_path / "world.map"
    path.write_text(map_text(GridWorld(dim, depth, cells)))
    return str(path)


def config_file(tmp_path, values):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_plan_exit_codes(tmp_path, capsys):
    # two obstacles split both corner quadrants, so the walk takes several steps
    open_map = map_file(tmp_path, [(3, 3), (4, 4)])
    code, out, _ = run(capsys, "plan", "--map", open_map)
    assert code == 0
    assert out.splitlines()[-1].startswith("status=success")

    code, out, _ = run(capsys, "plan", "--map", open_map, "--budget", "1")
    assert code == 3
    assert "status=budget_exceeded" in out

    code, out, err = run(capsys, "plan", "--map", open_map, "--budget", "-1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: budget must be nonnegative")

    walled = map_file(tmp_path, [(2, y) for y in range(8)])
    code, out, _ = run(capsys, "plan", "--map", walled)
    assert code == 2
    assert "status=no_path" in out

    code, _, err = run(
        capsys, "plan", "--predicate", "slab:0,3.2", "--mode", "exact",
        "--dim", "2", "--depth", "3",
    )
    assert code == 1
    assert err.startswith("error:")

    # map-free planning builds no map that would check the depth
    code, out, err = run(
        capsys, "plan", "--predicate", "spheres:8,8,3", "--mode", "sampling",
        "--depth", "40",
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: depth must be in [0, 10]")


def test_plan_refuses_a_weight_that_overflows_path_costs(tmp_path, capsys):
    # 1e308 would overflow edge costs to inf, which the search drops as if
    # the map were walled; 1e300 keeps every cost finite and plans
    map_path = str(tmp_path / "m.txt")
    code, _, _ = run(
        capsys, "gen-map", "--depth", "3", "--free-start", "--free-goal",
        "--out", map_path,
    )
    assert code == 0
    code, out, err = run(capsys, "plan", "--map", map_path, "--weight", "1e308")
    assert code == 1
    assert out == ""
    assert err.startswith("error: weight 1e+308 lets path costs overflow")
    assert len(err.splitlines()) == 1
    code, out, _ = run(capsys, "plan", "--map", map_path, "--weight", "1e300")
    assert code == 0
    assert out.splitlines()[-1].startswith("status=success")


def test_bound_prints_one_row_per_sample_count(capsys):
    code, out, _ = run(capsys, "bound", "--n-range", "3,9")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,bound"
    assert [line.split(",")[0] for line in lines[1:]] == [str(n) for n in range(3, 10)]


def test_bound_past_float_range_prints_one(capsys):
    # the misclassifiable band holds more nodes than a float can count
    code, out, _ = run(
        capsys, "bound", "--depth", "600", "--dim", "2", "--gamma", "0.001",
        "--n-range", "1,2",
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows == [["1", "1"], ["2", "1"]]


def test_bound_is_zero_when_no_band_scale_lies_in_the_tree(capsys):
    # a depth-0 world has one node, which map-free mode enumerates
    code, out, _ = run(
        capsys, "bound", "--depth", "0", "--eps", "0.9", "--gamma", "0.001",
        "--n-range", "1,2",
    )
    assert code == 0
    assert out.splitlines()[1:] == ["1,0", "2,0"]


def test_a_world_too_large_to_allocate_is_an_error(tmp_path, capsys):
    # 2**60 cells: the allocation fails at once on any 64-bit address space
    out_path = tmp_path / "huge.map"
    code, out, err = run(
        capsys, "gen-map", "--dim", "6", "--depth", "10", "--out", str(out_path)
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    assert not out_path.exists()


OPEN = [(3, 3), (4, 4)]
WALL = [(2, y) for y in range(8)]


@pytest.mark.parametrize(
    "argv, occupied",
    [
        (["plan", "--map"], OPEN),
        (["plan", "--mode", "sampling", "--map"], OPEN),
        (["plan", "--map"], WALL),
        (["bound", "--n-range", "1,5"], None),
        (["gen-map", "--depth", "3", "--seed", "4"], None),
    ],
)
def test_out_file_holds_what_standard_output_gets(tmp_path, capsys, argv, occupied):
    if occupied is not None:
        argv = argv + [map_file(tmp_path, occupied)]
    code, printed, _ = run(capsys, *argv)
    out_path = tmp_path / "out.txt"
    again, rest, _ = run(capsys, *argv, "--out", str(out_path))
    assert again == code
    assert rest == ""
    assert printed
    assert out_path.read_text(encoding="utf-8") == printed


def test_gen_map_round_trip_keeps_corners_free(tmp_path, capsys):
    out_path = str(tmp_path / "gen.map")
    code, _, _ = run(
        capsys, "gen-map", "--dim", "2", "--depth", "3", "--density", "0.9",
        "--kind", "blobs", "--blobs", "2,3", "--blob-size", "2,4", "--seed", "5",
        "--free-start", "--free-goal", "--out", out_path,
    )
    assert code == 0
    world = read_map(out_path)
    assert (world.dim, world.depth) == (2, 3)
    assert world.cells[0] == 0 and world.cells[-1] == 0
    assert world.cells.sum() == round(0.9 * 64)


@pytest.mark.parametrize(
    "command, values, message",
    [
        (
            ["plan", "--predicate", "slab:0,3.2"],
            {"mode": "exactly"},
            "mode must be one of",
        ),
        (
            ["plan", "--predicate", "slab:0,3.2"],
            {"algo": "mspp-fn"},
            "unknown config keys: ['algo']",
        ),
        (["gen-map"], {"kind": "maze"}, "kind must be one of"),
        (["bound"], {"depth": "3"}, "depth must be an integer"),
        (
            ["plan", "--predicate", "slab:0,3.2"],
            {"samples": 2.5},
            "samples must be an integer",
        ),
        (["bound"], {"eps": True}, "eps must be a number"),
        (["bound"], {"gamma": "0.1"}, "gamma must be a number"),
        # spheres is a predicate, not a map texture gen-map can write
        (["gen-map"], {"kind": "spheres"}, "kind must be one of"),
        # json writes these as Infinity, which passes the range rules
        (
            ["plan", "--predicate", "slab:0,3.2"],
            {"alpha": math.inf},
            "alpha must be a finite number",
        ),
        (
            ["plan", "--predicate", "slab:0,3.2"],
            {"weight": math.inf},
            "weight must be a finite number",
        ),
    ],
)
def test_config_values_get_the_flag_checks(tmp_path, capsys, command, values, message):
    code, out, err = run(capsys, *command, "--config", config_file(tmp_path, values))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")


def test_config_numbers_are_accepted(tmp_path, capsys):
    config = config_file(tmp_path, {"depth": 4, "eps": 0.25, "gamma": 1})
    code, out, _ = run(capsys, "bound", "--n-range", "1,2", "--config", config)
    assert code == 0
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gen-map", "--kind", "blobs", "--blobs", "3"], "--blobs"),
        (["gen-map", "--kind", "blobs", "--blob-size", "2,x"], "--blob-size"),
        (["bound", "--n-range", "1,2,3"], "--n-range"),
    ],
)
def test_ranges_name_their_flag(capsys, argv, flag):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag} must be lo,hi integers")


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("plan", "--regions", "2"),
        ("bound", "--samples", "9"),
        ("bound", "--alpha", "9"),
        ("bound", "--weight", "5"),
        ("bound", "--seed", "3"),
        ("bound", "--mode", "sampling"),
        ("gen-map", "--eps", "0.3"),
        ("gen-map", "--gamma", "0.2"),
        ("gen-map", "--samples", "9"),
        ("gen-map", "--alpha", "2"),
        ("gen-map", "--weight", "2"),
        ("gen-map", "--regions", "2"),
        ("gen-map", "--mode", "sampling"),
    ],
)
def test_flags_a_subcommand_does_not_read_are_refused(capsys, command, flag, value):
    code, out, err = run(capsys, command, flag, value)
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize(
    "command, key",
    [
        (["plan", "--predicate", "slab:0,3.2"], "regions"),
        (["bound"], "seed"),
        (["bound"], "weight"),
        (["gen-map"], "eps"),
        (["gen-map"], "mode"),
    ],
)
def test_config_keys_of_other_subcommands_are_refused(tmp_path, capsys, command, key):
    config = config_file(tmp_path, {key: SETTINGS[key].default})
    code, out, err = run(capsys, *command, "--config", config)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: unknown config keys: ['{key}'] ({command[0]} reads ")


def test_plan_map_refuses_dim_and_depth(tmp_path, capsys):
    world = map_file(tmp_path, [])
    for extra in (["--depth", "4"], ["--dim", "2"]):
        code, out, err = run(capsys, "plan", "--map", world, *extra)
        assert code == 1
        assert out == ""
        assert err.startswith("error: the map file fixes dim and depth")
    config = config_file(tmp_path, {"depth": 3})
    code, _, err = run(capsys, "plan", "--map", world, "--config", config)
    assert code == 1
    assert "do not set depth" in err
    code, _, _ = run(capsys, "plan", "--map", world, "--mode", "sampling")
    assert code == 0


@pytest.mark.parametrize(
    "key, value", [("eps", 0.3), ("gamma", 0.2), ("samples", 9), ("seed", 3)]
)
def test_exact_plan_refuses_map_free_settings(tmp_path, capsys, key, value):
    # a map node is an obstacle exactly when it is full, so exact mode
    # would ignore these; map-free mode reads them
    world = map_file(tmp_path, OPEN)
    refused = (
        f"error: exact mode reads no eps, gamma, samples or seed; do not set {key}"
    )
    code, out, err = run(capsys, "plan", "--map", world, f"--{key}", str(value))
    assert code == 1
    assert out == ""
    assert err.startswith(refused)
    config = config_file(tmp_path, {key: value})
    code, out, err = run(capsys, "plan", "--map", world, "--config", config)
    assert code == 1
    assert out == ""
    assert err.startswith(refused)
    code, out, _ = run(
        capsys, "plan", "--map", world, "--mode", "sampling", f"--{key}", str(value)
    )
    assert code == 0
    assert out.splitlines()[-1].startswith("status=success")
    config = config_file(tmp_path, {key: value, "mode": "sampling"})
    code, out, _ = run(capsys, "plan", "--map", world, "--config", config)
    assert code == 0
    assert out.splitlines()[-1].startswith("status=success")


def test_exact_plan_does_not_read_mspp_seed(tmp_path, capsys, monkeypatch):
    world = map_file(tmp_path, OPEN)
    monkeypatch.setenv("MSPP_SEED", "x")
    code, out, _ = run(capsys, "plan", "--map", world)
    assert code == 0
    assert out.splitlines()[-1].startswith("status=success")
    code, out, err = run(capsys, "plan", "--map", world, "--mode", "sampling")
    assert code == 1
    assert out == ""
    assert err.startswith("error: MSPP_SEED='x' is not an integer")


def test_mspp_seed_seeds_only_where_seed_is_read(tmp_path, capsys, monkeypatch):
    def generated(*flags):
        out_path = tmp_path / "gen.map"
        code, _, _ = run(
            capsys, "gen-map", "--depth", "3", "--out", str(out_path), *flags
        )
        assert code == 0
        return read_map(str(out_path)).cells.tobytes()

    by_flag = generated("--seed", "7")
    monkeypatch.setenv("MSPP_SEED", "7")
    assert generated() == by_flag
    assert generated("--seed", "8") != by_flag
    monkeypatch.setenv("MSPP_SEED", "x")
    code, out, err = run(capsys, "gen-map", "--depth", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error: MSPP_SEED='x' is not an integer")
    # bound reads no seed, so it never looks at MSPP_SEED
    code, _, _ = run(capsys, "bound", "--n-range", "1,2")
    assert code == 0


@pytest.mark.parametrize(
    "predicate, syntax",
    [
        ("spheres:8,x,3", "spheres:x1,..,xd,r[;x1,..,xd,r]..."),
        ("checkerboard:x", "checkerboard:period"),
        ("wall:a,3,2", "wall:axis,position,gap"),
        ("slab:0,x", "slab:axis,limit"),
        # a non-finite parameter would silently empty the world
        ("spheres:8,8,nan", "spheres:x1,..,xd,r[;x1,..,xd,r]..."),
        ("checkerboard:inf", "checkerboard:period"),
        ("wall:0,inf,2", "wall:axis,position,gap"),
        # the constructors' own range checks
        ("checkerboard:-1", "checkerboard:period"),
        ("spheres:8,8,-1", "spheres:x1,..,xd,r[;x1,..,xd,r]..."),
        ("wall:0,3,-2", "wall:axis,position,gap"),
    ],
)
def test_predicate_errors_name_the_kind_and_its_syntax(capsys, predicate, syntax):
    code, out, err = run(capsys, "plan", "--predicate", predicate, "--mode", "sampling")
    assert code == 1
    assert out == ""
    kind = predicate.partition(":")[0]
    assert err.startswith(f"error: {kind} needs ")
    assert f"({syntax})" in err


def test_one_dimensional_wall_with_a_gap_is_open(capsys):
    code, out, _ = run(
        capsys, "plan", "--predicate", "wall:0,3,2", "--mode", "sampling",
        "--dim", "1", "--depth", "3",
    )
    assert code == 0
    assert out.splitlines()[-1].startswith("status=success")


def test_eight_axis_sphere_plan_passes_its_own_check(capsys):
    # the goal cell's centre lies on this sphere's surface to within the
    # rounding of its squared distance, which batch and a pairwise sum
    # round apart: the planner and the path check must ask the same rule
    spheres = (
        "spheres:1.499999988824129,1.4999999925494194,1.499999988824129,"
        "1.4999999850988388,1.0,1.4999999850988388,0.75,0.75,1.1726039399558577"
    )
    code, out, err = run(
        capsys, "plan", "--predicate", spheres, "--mode", "sampling",
        "--dim", "8", "--depth", "1",
    )
    assert code == 0, err
    *rows, summary = out.splitlines()
    assert summary.startswith("status=success")
    path = [NodeIndex(int(k), tuple(round(2 * float(c)) for c in cs))
            for k, *cs in map(str.split, rows)]
    predicate = parse_predicate(spheres, 8, 2)
    assert verify_path_sampled(predicate, path, 1, (0.5,) * 8, (1.5,) * 8) == (True, None)
