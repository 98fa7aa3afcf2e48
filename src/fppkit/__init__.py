"""First-passage percolation on Z^d: geodesics, local patterns,
renormalization boxes, and environment-modification experiments."""

from .distributions import DistributionSpec, UsefulnessReport, usefulness_check
from .fields import (
    EdgeConstraintSet,
    WeightField,
    constant_field,
    constraint_probability,
    sample_conditioned,
    sample_field,
    splice,
)
from .geodesics import (
    Disconnected,
    GeodesicDag,
    GeodesicSet,
    RegionGraph,
    enumerate_geodesics,
    exact_norm_oracle,
    extreme_length_geodesics,
    first_lex_geodesic,
    passage_time,
    restricted_geodesic_time,
)
from .lattice import (
    Annulus,
    L1Ball,
    LatticePath,
    LInfBall,
    ProductBox,
    Region,
    canonical_edge,
    cut_loops,
    l1,
    linf,
    monotone_path,
    translate,
)
from .patterns import (
    OrientedPattern,
    Pattern,
    PatternHit,
    atom_square_pattern,
    condition_holds,
    count_disjoint_occurrences,
    count_occurrences,
    enlarge_to_cube,
    external_normals,
    heavy_edge_pattern,
    inner_optimal_paths,
    obstruction_pattern,
    orient_pattern,
    shift_concavity_pattern,
    shift_concavity_properties,
    shift_concavity_search_delta,
    two_route_pattern_bounded,
    two_route_pattern_unbounded,
    two_route_pattern_zero_atom,
    validate_pattern,
)
from .renormalization import (
    BoxScale,
    ConstantsSet,
    crosses,
    derive_constants,
    m_sequence,
    meta_cube_animal,
    nu_level,
    successful_box_check,
    typicality_bounded,
    typicality_unbounded,
)
from .experiments import NormEstimate, estimate_time_constant
from .modification import (
    PlanError,
    build_plan_bounded,
    build_plan_unbounded,
    connector_path_unbounded,
    first_stage_bounded,
    oriented_connector_bounded,
    radial_disjoint_paths,
    verify_modification_bounded,
    verify_modification_unbounded,
)

__version__ = "0.1.0"
