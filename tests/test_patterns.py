import math
import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppkit.distributions import DistributionSpec
from fppkit.fields import (
    EdgeConstraintSet,
    RegionGraph,
    constant_field,
    sample_conditioned,
    sample_field,
)
from fppkit.geodesics import enumerate_geodesics, restricted_geodesic_time
from fppkit.lattice import LatticePath, LInfBall, ProductBox, direction_order, l1, monotone_path, vadd
from fppkit.oracle import exact_optimal_set, oracle_pattern_count, region_edges
from fppkit.patterns import (
    Pattern,
    heavy_edge_pattern,
    hits_inside,
    condition_holds,
    count_disjoint_occurrences,
    count_occurrences,
    enlarge_to_cube,
    external_normals,
    obstruction_pattern,
    inner_optimal_paths,
    atom_square_pattern,
    orient_pattern,
    pattern_hits,
    shift_concavity_pattern,
    shift_concavity_properties,
    shift_concavity_search_delta,
    two_route_pattern_bounded,
    two_route_pattern_unbounded,
    two_route_pattern_zero_atom,
    validate_pattern,
)

ATOMS14 = DistributionSpec(atoms=((1.0, 0.5), (4.0, 0.5)))
ATOMS12 = DistributionSpec(atoms=((1.0, 0.5), (2.0, 0.5)))
UNBOUNDED = DistributionSpec(atoms=((1.0, 0.5),), exp_tails=((1.0, 1.0, 0.5),))


def test_external_normals_corners_and_faces():
    box = ProductBox((0, 0), (2, 2))
    assert external_normals((0, 0), box) == {(-1, 0), (0, -1)}
    assert external_normals((1, 0), box) == {(0, -1)}
    with pytest.raises(ValueError):
        external_normals((1, 1), box)


def test_pattern_validation_fails_loudly():
    box = ProductBox((0, 0), (2, 2))
    edge = EdgeConstraintSet({((0, 0), (1, 0)): (1.0, 2.0)})
    assert Pattern(box, (0, 0), (2, 1), edge).event is edge
    with pytest.raises(ValueError, match="distinct"):
        Pattern(box, (0, 0), (0, 0), edge)
    with pytest.raises(ValueError, match="support boundary"):
        Pattern(box, (1, 1), (2, 1), edge)  # interior endpoint
    with pytest.raises(ValueError, match="support boundary"):
        Pattern(box, (0, 0), (3, 1), edge)  # endpoint outside the region
    outside = EdgeConstraintSet({((0, 0), (1, 0)): (1.0, 2.0), ((2, 2), (3, 2)): (1.0, 2.0)})
    with pytest.raises(ValueError, match=r"outside the support: \[\(\(2, 2\), \(3, 2\)\)\]"):
        Pattern(box, (0, 0), (2, 1), outside)
    for z in [(3, 0), (-1, -1), (5, 5)]:
        with pytest.raises(ValueError, match="not on the region boundary"):
            external_normals(z, box)


def test_pattern_build_makes_few_membership_tests(monkeypatch):
    # the support is tested on arrays, not probed vertex by vertex
    calls = []
    contains = LInfBall.contains
    monkeypatch.setattr(LInfBall, "contains", lambda self, v: calls.append(v) or contains(self, v))
    ball = LInfBall((0, 0), 40)
    p = Pattern(ball, (-40, 0), (40, 0), EdgeConstraintSet({((0, 0), (1, 0)): (1.0, 2.0)}))
    assert len(calls) <= 8
    assert external_normals(p.u_end, ball) == {(-1, 0)} and len(calls) <= 8 + 5


def test_obstruction_normals_single_shared_face():
    pat = obstruction_pattern()
    assert external_normals((0, 2), pat.region) == {(-1, 0)}
    assert external_normals((0, 1), pat.region) == {(-1, 0)}


def test_validate_obstruction():
    pat = obstruction_pattern()
    assert not validate_pattern(pat, ATOMS14).valid  # single shared normal
    # same geometry with an unbounded-support law: the normals no longer matter
    rich = DistributionSpec(atoms=((1.0, 0.5), (4.0, 0.25)), exp_tails=((4.0, 1.0, 0.25),))
    assert validate_pattern(pat, rich).valid


def test_validate_atom_square_distinct_normals():
    pat = atom_square_pattern(1.0)
    v = validate_pattern(pat, ATOMS12)
    assert v.valid and v.has_distinct_normals


def test_condition_holds_and_translation_covariance():
    pat = heavy_edge_pattern(2.0)
    region = ProductBox((-6, -6), (12, 8))
    import random

    rng = random.Random(4)
    from fppkit.geodesics import first_lex_geodesic
    from fppkit.lattice import translate

    checked = 0
    for seed in range(100):
        f = sample_field(region, ATOMS12, seed)
        g = first_lex_geodesic((0, 0), (6, 2), f)
        for _ in range(5):
            x = (rng.randint(-3, 3), rng.randint(-3, 3))
            lhs = condition_holds(x, g, pat, f)
            rhs = condition_holds((0, 0), translate(g, x), pat, f.translate(x))
            assert (lhs is None) == (rhs is None)
            checked += 1
    assert checked == 500


def test_condition_holds_av_pattern():
    pat = heavy_edge_pattern(5.0)
    region = ProductBox((0, 0), (4, 1))
    f = constant_field(region, 1.0).replaced({((2, 0), (3, 0)): 5.0})
    g = LatticePath([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])
    hit = condition_holds((2, 0), g, pat, f)
    assert (hit.translate, hit.entry_index, hit.exit_index) == ((2, 0), 2, 3)
    assert condition_holds((1, 0), g, pat, f) is None  # event fails there
    assert count_occurrences(g, pat, f) == 1


def test_condition_containment_failure():
    # path visits both endpoints but leaves the support in between
    pat = atom_square_pattern(1.0)
    region = ProductBox((-1, -1), (3, 3))
    f = constant_field(region, 1.0)
    g = LatticePath([(0, 0), (1, 0), (2, 0), (2, 1), (1, 1)])
    assert condition_holds((0, 0), g, pat, f) is None
    direct = LatticePath([(0, 0), (1, 0), (1, 1)])
    assert condition_holds((0, 0), direct, pat, f) is not None


def test_count_occurrences_three_disjoint_hits():
    pat = heavy_edge_pattern(9.0)
    region = ProductBox((0, 0), (12, 0))
    f = constant_field(region, 1.0).replaced(
        {((1, 0), (2, 0)): 9.0, ((5, 0), (6, 0)): 9.5, ((9, 0), (10, 0)): 11.0}
    )
    g = monotone_path((0, 0), (12, 0))
    assert count_occurrences(g, pat, f) == 3
    assert oracle_pattern_count(g, pat, f) == 3
    assert count_disjoint_occurrences(g, pat, f) == 3
    # the support translated by (9, 0) covers x = 9, 10, past the box
    assert [h.translate for h in hits_inside(g, pat, f, ProductBox((0, 0), (9, 0)))] == [(1, 0), (5, 0)]


def test_index_of_is_the_first_visit():
    g = LatticePath([(0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (1, 0), (2, 0)])
    assert [g.index_of(v) for v in [(0, 0), (1, 0), (1, 1), (0, 1), (2, 0)]] == [0, 1, 2, 3, 6]
    assert g.index_of([1, 0]) == 1
    with pytest.raises(ValueError):
        g.index_of((5, 5))


def test_pattern_hits_on_a_long_straight_path():
    n = 2000
    pat = heavy_edge_pattern(2.0)
    f = sample_field(ProductBox((0, -1), (n, 1)), ATOMS12, 11)
    g = monotone_path((0, 0), (n, 0))
    # per candidate: the translate x = (i, 0) hits iff its edge is heavy
    want = [(i, i + 1) for i in range(n) if f.time(((i, 0), (i + 1, 0))) >= 2.0]
    hits = pattern_hits(g, pat, f)
    assert [(h.entry_index, h.exit_index) for h in hits] == want
    assert [h.translate for h in hits] == [(i, 0) for i, _ in want]
    assert 800 < len(want) < 1200


ZERO_ATOM = DistributionSpec(atoms=((0.0, 0.3), (1.0, 0.4), (2.0, 0.3)))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize(
    "pattern, spec",
    [
        (heavy_edge_pattern(2.0), ZERO_ATOM),
        (atom_square_pattern(1.0), DistributionSpec(atoms=((0.0, 0.2), (1.0, 0.8)))),
        (atom_square_pattern(0.0), DistributionSpec(atoms=((0.0, 0.8), (1.0, 0.2)))),
    ],
    ids=["heavy-edge", "atom-square-1", "atom-square-0"],
)
def test_pattern_hits_on_a_path_that_revisits_vertices(pattern, spec, seed):
    region = ProductBox((0, 0), (3, 2))
    f = sample_field(region, spec, seed)
    rng = random.Random(seed)
    walk = [(0, 0)]
    while len(walk) < 40:
        step = vadd(walk[-1], rng.choice(direction_order(2)))
        if region.contains(step):
            walk.append(step)
    g = LatticePath(walk)
    assert len(set(walk)) < len(walk)
    hits = pattern_hits(g, pattern, f)
    assert len({h.translate for h in hits}) == len(hits) == oracle_pattern_count(g, pattern, f)


# interval ends at an atom, exactly or just inside or outside the reach of TIME_ATOL
ATOMS = (0.0, 1.0, 2.0)
NUDGES = (0.0, 0.5e-9, -0.5e-9, 1.5e-9, -1.5e-9)
LAWS = (ZERO_ATOM, DistributionSpec(atoms=((0.0, 0.2),), uniforms=((1.0, 2.0, 0.8),)), ATOMS12)


@st.composite
def events_and_translates(draw):
    """A field on a box of at most 5 x 4 vertices, a pattern on a box
    support from (0, 0) to v with an interval per edge, and up to eight
    translates or all of them from (-1, -1) to the box's far corner; some
    move event edges out of the field's graph."""
    cols, rows = draw(st.integers(2, 5)), draw(st.integers(1, 4))
    f = sample_field(ProductBox((0, 0), (cols - 1, rows - 1)), draw(st.sampled_from(LAWS)), draw(st.integers(0, 2**32 - 1)))
    v = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (2, 1)]))
    cons = {}
    for e in RegionGraph(ProductBox((0, 0), v)).edges:
        if draw(st.booleans()):  # an edge that always holds leaves the decision to the others
            cons[e] = (0.0, math.inf)
            continue
        a = draw(st.sampled_from(ATOMS))
        b = draw(st.sampled_from([b for b in ATOMS if b >= a]))
        lo, hi = a + draw(st.sampled_from(NUDGES)), b + draw(st.sampled_from(NUDGES))
        cons[e] = (max(lo, 0.0), max(hi, lo, 0.0))
    pattern = Pattern(ProductBox((0, 0), v), (0, 0), v, EdgeConstraintSet(cons))
    grid = list(product(range(-1, cols), range(-1, rows)))
    z = draw(st.one_of(st.lists(st.sampled_from(grid), max_size=8), st.just(grid)))
    return f, pattern, np.array(z, dtype=np.int64).reshape(len(z), 2)


@settings(max_examples=300, deadline=None)
@given(events_and_translates())
def test_holds_at_is_the_event_of_the_oracle_count(inst):
    """Row x of holds_at is the event at x as oracle_pattern_count reads it:
    on the monotone path from u + x to v + x, x is the only translate whose
    path condition holds, so the oracle's count there is 1 exactly when the
    event holds at x."""
    f, pattern, z = inst
    got = pattern.event.holds_at(f, z)
    assert got.dtype == bool and got.shape == (len(z),)
    paths = (monotone_path(vadd(pattern.u_end, x), vadd(pattern.v_end, x)) for x in map(tuple, z.tolist()))
    assert got.tolist() == [oracle_pattern_count(g, pattern, f) == 1 for g in paths]


def test_count_occurrences_bounded_by_vertices():
    pat = heavy_edge_pattern(1.0)
    region = ProductBox((0, 0), (10, 0))
    f = constant_field(region, 1.0)
    g = monotone_path((0, 0), (10, 0))
    assert count_occurrences(g, pat, f) == 10 <= len(g.vertices)


def test_disjoint_counting_overlap():
    # two hits sharing a vertex collapse to one
    pat = atom_square_pattern(1.0)
    region = ProductBox((0, 0), (2, 1))
    f = constant_field(region, 1.0)
    g = LatticePath([(0, 0), (1, 0), (1, 1), (2, 1)])
    n = count_occurrences(g, pat, f)
    assert n == 2  # translates x=(0,0) and x=(-1,-1)... staircase hits both
    assert count_disjoint_occurrences(g, pat, f) == 1


def test_inner_optimal_paths_requires_event():
    pat = obstruction_pattern()
    f = constant_field(pat.region, 1.0)
    with pytest.raises(ValueError):
        inner_optimal_paths(pat, f)


def _tight_edges(dag):
    """The arcs (u, v) with dist(v) = dist(u) + T({u, v}), as vertex pairs."""
    vs = dag.graph.vertices
    return {(vs[u], vs[v]) for v in range(dag.graph.n) for u, _ in dag.parents[v]}


def test_two_route_bounded_geometry_and_times():
    pat = two_route_pattern_bounded(4, 2, [1.0] * 8, [2.0] * 4)
    assert pat.alpha == 5
    vs = list(pat.region.vertices())
    assert max(v[0] for v in vs) == 20 and max(v[1] for v in vs) == 10
    assert sum([1.0] * 8) == sum([2.0] * 4)  # equal route sums
    f = sample_conditioned(pat.region, ATOMS12, pat.event, 0)
    plus, pp = pat.routes
    assert f.path_time(plus) == 40.0 and f.path_time(pp) == 40.0
    t, dag = restricted_geodesic_time(pat.u_end, pat.v_end, f, region=pat.region)
    assert t == 40.0
    tight = _tight_edges(dag)
    for route in (plus, pp):
        for a, b in zip(route.vertices, route.vertices[1:]):
            assert (a, b) in tight


def test_two_route_zero_atom_exactly_two_optima():
    spec = DistributionSpec(atoms=((0.0, 0.5), (1.0, 0.5)))
    pat = two_route_pattern_zero_atom(1, 1, spec)
    vs = list(pat.region.vertices())
    assert max(v[0] for v in vs) == 3 and max(v[1] for v in vs) == 3
    assert pat.u_end == (0, 1) and pat.v_end == (3, 1)
    f = sample_conditioned(pat.region, spec, pat.event, 1)
    res = exact_optimal_set(pat.u_end, pat.v_end, pat.region, f)
    assert res.optimum == 0.0
    assert len(res.paths) == 2
    # the walls sit on the lowest positive atom, never on the zero atom
    # (so the atom tolerance must stay below the wall level)
    for spec, k, l in ((spec, 1, 1), (DistributionSpec(atoms=((0.0, 0.2), (1.0, 0.4), (2.0, 0.4))), 2, 1)):
        intervals = set(two_route_pattern_zero_atom(k, l, spec).event.constraints.values())
        assert intervals == {(0.0, 0.0), (1.0, math.inf)}


def test_two_route_unbounded_two_optima():
    pat = two_route_pattern_unbounded(2, 1, [1.0, 2.0, 1.0, 2.0], [3.0, 3.0], M=7.0)
    spec = DistributionSpec(
        atoms=((1.0, 0.25), (2.0, 0.25), (3.0, 0.25)), exp_tails=((7.0, 1.0, 0.25),)
    )
    f = sample_conditioned(pat.region, spec, pat.event, 0)
    res = exact_optimal_set(pat.u_end, pat.v_end, pat.region, f)
    assert res.optimum == 6.0
    assert sorted(p.vertices for p in res.paths) == sorted(
        p.vertices for p in pat.routes
    )


def test_shift_concavity_inequality_gate():
    with pytest.raises(ValueError):
        shift_concavity_pattern(2, 1, 2.0, 3.0, 0.5)  # k(s+d) >= (k+2l)(r-d)
    shift_concavity_pattern(2, 1, 2.0, 3.0, 0.2)


def test_shift_concavity_properties_on_conditioned_samples():
    spec = DistributionSpec(uniforms=((1.8, 2.2, 0.5), (2.8, 3.2, 0.5)))
    pat, delta = shift_concavity_search_delta(2, 1, 2.0, 3.0, spec, seed=5, delta0=0.2)
    for seed in range(10):
        f = sample_conditioned(pat.region, spec, pat.event, 100 + seed)
        p1, p2 = shift_concavity_properties(pat, f)
        assert p1 and p2


def test_enlarge_to_cube_properties():
    pat = obstruction_pattern()
    cube = enlarge_to_cube(pat, m_cap=4.0)
    assert cube.region.radius == 3  # lambda = max(L_1, ..., L_d)
    # the cube pattern is never easier to take: N^P >= N^P_cube
    import random

    rng = random.Random(9)
    region = ProductBox((-8, -8), (16, 12))
    from fppkit.geodesics import first_lex_geodesic

    for seed in range(100):
        f = sample_field(region, UNBOUNDED, seed)
        g = first_lex_geodesic((0, 0), (7, 3), f)
        assert count_occurrences(g, pat, f) >= count_occurrences(g, cube, f)


def _obstruction_geometry_for(spec_hi: float):
    """Figure-1 box and endpoints with intervals that an unbounded law hits."""
    from fppkit.patterns import Pattern

    region = ProductBox((0, 0), (1, 3))
    u, v = (0, 2), (0, 1)
    cons = {}
    for e in region_edges(region):
        cons[e] = (4.0, spec_hi) if (u in e or v in e) else (1.0, 1.0)
    return Pattern(region, u, v, EdgeConstraintSet(cons), "obstruction-geometry")


def test_enlarge_to_cube_inner_optima_cross_base_pattern():
    pat = _obstruction_geometry_for(6.0)
    cube = enlarge_to_cube(pat, m_cap=6.0)
    assert cube.region.radius == 3  # lambda = max box side
    for seed in range(20):
        f = sample_conditioned(cube.region, UNBOUNDED, cube.event, seed)
        gs = inner_optimal_paths(cube, f, cap=64)
        assert len(gs.paths) >= 1
        for g in gs.paths:
            hit = condition_holds((0, 0), g, pat, f)
            assert hit is not None


def test_enlarge_to_cube_identity_like_case():
    # an already centered cube pattern with endpoints on opposite faces
    pat = atom_square_pattern(1.0)
    # the atom square is corner-anchored; enlarging embeds it in the radius-1 cube
    cube = enlarge_to_cube(pat, m_cap=1.0)
    assert cube.region.radius == 1
    pu, pv = cube.connectors
    assert len(pu) + len(pv) <= 4


def test_enlarge_to_cube_needs_headroom():
    pat = heavy_edge_pattern(5.0)
    with pytest.raises(ValueError):
        enlarge_to_cube(pat, m_cap=2.0)  # cap below the event floor


ORIENT_SPEC = DistributionSpec(atoms=((1.0, 1 / 3), (2.0, 1 / 3)), uniforms=((1.2, 1.8, 1 / 3),))


def test_orient_pattern_constants_and_event_inclusion():
    pat = atom_square_pattern(1.0)
    op = orient_pattern(pat, 0, ORIENT_SPEC, nu=2.0, nu0=1.5, delta_p=0.25 / 3)
    assert op.l0 > op.l1_const > 0
    assert op.delta_pp < 0.25 / 3
    assert op.pattern.u_end == (op.l0, 0) and op.pattern.v_end == (-op.l0, 0)
    # the base event is implied by the oriented event on the base edges
    for e, (lo, hi) in pat.event.constraints.items():
        olo, ohi = op.pattern.event.constraints[e]
        assert lo <= olo + 1e-12 and ohi <= hi + 1e-12
    assert op.guide.is_self_avoiding()
    # 215,824 interval masses multiply to 0.0, yet every interval carries mass
    assert validate_pattern(op.pattern, ORIENT_SPEC).valid


def test_orient_pattern_guide_oriented_between_u1_v1():
    pat = atom_square_pattern(1.0)
    for j in (0, 1):
        op = orient_pattern(pat, j, ORIENT_SPEC, nu=2.0, nu0=1.5, delta_p=0.25 / 3)
        g = op.guide
        # u1 = last vertex on the +l0 face, v1 = first on the -l0 face
        top = [z for z in g.vertices if z[j] == op.l0]
        bottom = [z for z in g.vertices if z[j] == -op.l0]
        u1, v1 = top[-1], bottom[0]
        seg = g.subpath(u1, v1)
        assert len(seg) == l1(u1, v1)  # oriented


def test_orient_pattern_requires_distinct_normals():
    pat = obstruction_pattern()  # both endpoints share the single normal -e1
    with pytest.raises(ValueError):
        orient_pattern(pat, 0, ATOMS14, nu=4.0, nu0=2.0, delta_p=0.05)


def test_pattern_serialization_round_trippable_text():
    pat = obstruction_pattern()
    text = pat.serialize()
    assert "dims=" in text and "constraints=" in text


def test_three_dimensional_patterns():
    # spec'd geometry: {0..3} x {0..3} x {0..2} with u = e2 + e3, v = u + 3 e1
    zspec = DistributionSpec(atoms=((0.0, 0.5), (1.0, 0.5)))
    pat = two_route_pattern_zero_atom(1, 1, zspec, d=3)
    vs = list(pat.region.vertices())
    hi = tuple(max(v[i] for v in vs) for i in range(3))
    assert hi == (3, 3, 2)
    assert pat.u_end == (0, 1, 1) and pat.v_end == (3, 1, 1)
    nk = atom_square_pattern(1.0, d=3)
    assert validate_pattern(nk, ATOMS12).valid
    f = sample_conditioned(nk.region, ATOMS12, nk.event, 0)
    gs = enumerate_geodesics(nk.u_end, nk.v_end, f, region=nk.region)
    assert len(gs.paths) == 2 and gs.time == 2.0


def test_two_route_bounded_extremal_gap():
    # inner extremal lengths differ by exactly 2 l' on the conditioned field
    from fppkit.geodesics import extreme_length_geodesics

    pat = two_route_pattern_bounded(4, 2, [1.0] * 8, [2.0] * 4)
    f = sample_conditioned(pat.region, ATOMS12, pat.event, 0)
    ext = extreme_length_geodesics(pat.u_end, pat.v_end, f, region=pat.region)
    alpha = pat.alpha
    assert ext.exact
    assert ext.lmin == alpha * 4
    assert ext.gap == 2 * alpha * 2


def test_atom_square_on_corridor_equal_extremes():
    # both optimal routes through the square have the same length, so a
    # straight corridor through it keeps lmax = lmin
    from fppkit.geodesics import extreme_length_geodesics

    region = ProductBox((-3, -1), (5, 2))
    f = constant_field(region, 1.0)
    bumps = {
        e: 5.0
        for e in region_edges(region)
        if not (0 <= e[0][0] <= 1 and 0 <= e[0][1] <= 1 and 0 <= e[1][0] <= 1 and 0 <= e[1][1] <= 1)
        and not (e[0][1] == 0 and e[1][1] == 0)
    }
    f = f.replaced(bumps)
    ext = extreme_length_geodesics((-3, 0), (5, 0), f)
    assert ext.lmin == ext.lmax  # the square detour has equal length


ONE_EDGE_PATTERNS = (
    heavy_edge_pattern(2.0),
    heavy_edge_pattern(0.0),
    # along e2, endpoints listed downwards, an interval that holds the zero atom
    Pattern(ProductBox((0, 0), (0, 1)), (0, 1), (0, 0), EdgeConstraintSet({((0, 0), (0, 1)): (0.0, 1.0)})),
)


@pytest.mark.parametrize("pattern", ONE_EDGE_PATTERNS)
@pytest.mark.parametrize("seed", range(3))
def test_edge_cost_is_the_one_step_condition(pattern, seed):
    spec = DistributionSpec(atoms=((0.0, 0.3), (1.0, 0.3), (2.0, 0.4)))
    f = sample_field(ProductBox((0, 0), (4, 3)), spec, seed)
    cost = pattern.edge_cost(f)
    assert cost.dtype == bool and cost.shape == f.w.shape
    for e, c in zip(f.edges(), cost.tolist()):
        for step in (LatticePath(e), LatticePath(e[::-1])):  # both directions of travel
            assert c == (count_occurrences(step, pattern, f) == 1)


def test_edge_cost_is_none_beyond_one_edge():
    f = sample_field(ProductBox((0, 0), (4, 3)), ATOMS12, 0)
    for pattern in (atom_square_pattern(1.0), obstruction_pattern()):
        assert pattern.edge_cost(f) is None
