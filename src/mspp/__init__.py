"""Multiscale path planning on dyadic occupancy trees.

The package plans over a recursive halving of a d-dimensional box: maps
become 2**d-ary trees whose nodes carry obstacle-volume fractions, a
per-iteration reduced view keeps cells fine near the walker and coarse far
away, and a lazy A* searches that view.  A map-free mode estimates node
occupancy by sampling an obstacle predicate instead of building the tree,
with Hoeffding-style bounds on the added failure probability.
"""

from .environments import (
    BaselineResult,
    GeneratorSpec,
    GridPredicate,
    generate_map,
    grid_predicate,
    uniform_astar,
)
from .neighbors import (
    are_neighbors,
    find_containing,
    find_neighbors,
)
from .predicates import Checkerboard, Slab, SphereSet, WallWithGap, parse_predicate
from .reduced import CellTracker, ReducedTree, RTNode, refresh
from .sampling import (
    BoundParams,
    SampleEstimate,
    ValueEstimator,
    band_node_count,
    exact_scale_cutoff,
    failure_bound,
    is_flagged_obstacle,
)
from .search import (
    BUDGET_EXCEEDED,
    GOAL_BLOCKED,
    NO_PATH,
    START_BLOCKED,
    SUCCESS,
    PlanResult,
    PlannerSession,
    SearchStats,
    astar_lazy,
    verify_path,
    verify_path_sampled,
)
from .tree import (
    GridWorld,
    NodeIndex,
    OccupancyTree,
    build_from_grid,
    map_text,
    parse_map_text,
    read_map,
)

__version__ = "0.1.0"
