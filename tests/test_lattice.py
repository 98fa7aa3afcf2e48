import random
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppkit.fields import RegionGraph
from fppkit.lattice import (
    Annulus,
    L1Ball,
    LatticePath,
    LInfBall,
    ProductBox,
    cut_loops,
    l1,
    monotone_path,
    neighbors,
    translate,
    unit,
    vadd,
    vertex_tuples,
)


def region_boundary(region):
    graph = RegionGraph(region)
    return {graph.vertices[i] for i in graph.boundary_indices()}


def random_walk(rng, start, steps):
    vs = [start]
    for _ in range(steps):
        vs.append(rng.choice(neighbors(vs[-1])))
    return LatticePath(vs)


def test_translate_identity_and_point():
    p = LatticePath([(0, 0), (1, 0)])
    assert translate(p, (0, 0)) == p
    assert translate((2, 3), (2, 3)) == (0, 0)


def test_translate_round_trip_on_random_paths():
    rng = random.Random(0)
    for _ in range(100):
        p = random_walk(rng, (rng.randint(-5, 5), rng.randint(-5, 5)), 12)
        x = (rng.randint(-9, 9), rng.randint(-9, 9))
        assert translate(translate(p, x), tuple(-c for c in x)) == p


def test_translate_regions_and_edges():
    assert translate(L1Ball((3, 4), 2), (1, 1)) == L1Ball((2, 3), 2)
    assert translate(((0, 0), (1, 0)), (1, 0)) == ((-1, 0), (0, 0))


def test_region_boundary_tiny_box_all_boundary():
    # {0,1}^2: every vertex has an outside neighbor
    box = ProductBox((0, 0), (1, 1))
    assert region_boundary(box) == set(box.vertices())


def test_region_boundary_l1_ball_oracle():
    # oracle: direct neighbor enumeration
    ball = L1Ball((0, 0), 2)
    expected = {v for v in ball.vertices() if any(l1(w) > 2 for w in neighbors(v))}
    assert region_boundary(ball) == expected
    assert {v for v in expected if l1(v) == 2} == expected
    assert len(expected) == 8


def test_region_boundary_3x3_box():
    box = ProductBox((0, 0), (2, 2))
    assert region_boundary(box) == set(box.vertices()) - {(1, 1)}


def test_region_edges_counts():
    assert len(RegionGraph(ProductBox((0, 0), (1, 1))).edges) == 4
    # Figure-1 shaped box {0,1} x {0..3}: 4 horizontal + 6 vertical
    assert len(RegionGraph(ProductBox((0, 0), (1, 3))).edges) == 10
    assert len(RegionGraph(LInfBall((0, 0), 1)).edges) == 12


def test_l1_ball_edge_count_closed_form():
    for d in range(1, 5):
        for radius in range(7):
            for ball in (L1Ball(tuple(range(d)), radius), LInfBall(tuple(range(d)), radius)):
                assert ball.edge_count() == len(RegionGraph(ball).edges), (ball, d, radius)


def test_region_edges_both_endpoints_inside():
    ball = L1Ball((0, 0), 3)
    for e in RegionGraph(ball).edges:
        assert ball.contains(e[0]) and ball.contains(e[1])


def test_subpath_basics():
    p = LatticePath([(0, 0), (1, 0), (1, 1)])
    assert p.subpath((0, 0), (1, 1)) == p
    assert p.subpath((1, 0), (1, 1)) == LatticePath([(1, 0), (1, 1)])
    with pytest.raises(ValueError):
        p.subpath((1, 1), (0, 0))
    with pytest.raises(ValueError):
        p.subpath((0, 0), (5, 5))


def test_subpath_random_indices():
    rng = random.Random(1)
    for _ in range(50):
        p = monotone_path((0, 0), (rng.randint(1, 6), rng.randint(1, 6)))
        i, j = sorted(rng.sample(range(len(p.vertices)), 2))
        seg = p.subpath(p.vertices[i], p.vertices[j])
        assert len(seg) == j - i


def test_cut_loops_identity_and_single_loop():
    p = LatticePath([(0, 0), (1, 0), (2, 0)])
    assert cut_loops(p) == p
    loop = LatticePath([(0, 0), (1, 0), (1, 1), (1, 0), (2, 0)])
    assert cut_loops(loop) == LatticePath([(0, 0), (1, 0), (2, 0)])


def test_cut_loops_properties_on_random_walks():
    rng = random.Random(2)
    for _ in range(200):
        p = random_walk(rng, (0, 0), 30)
        q = cut_loops(p)
        assert q.is_self_avoiding()
        assert q.start == p.start and q.end == p.end
        assert set(q.vertices) <= set(p.vertices)
        # edge multiset inclusion => passage time monotone for any weights
        pe, qe = p.edges(), q.edges()
        for e in set(qe):
            assert qe.count(e) <= pe.count(e)
        assert cut_loops(q) == q  # idempotent


def test_annulus_membership():
    a = Annulus(2, 3, 2, 2)  # ||y||_1 in [6, 12)
    assert not a.contains((5, 0))
    assert a.contains((6, 0))
    assert a.contains((11, 0))
    assert not a.contains((12, 0))


@st.composite
def regions_and_points(draw):
    """A region of one of the four kinds in d = 1..4 and integer points around it."""
    d = draw(st.integers(1, 4))
    center = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    kind = draw(st.sampled_from(["box", "l1", "linf", "annulus"]))
    reach = 5  # points within this l-inf distance of the region's centre
    if kind == "box":
        region = ProductBox(center, tuple(c + draw(st.integers(0, 3)) for c in center))
    elif kind == "annulus":
        region = Annulus(draw(st.integers(1, 3)), draw(st.integers(1, 2)), draw(st.integers(1, 2)), d)
        center, reach = (0,) * d, region.outer_norm
    else:
        region = (L1Ball if kind == "l1" else LInfBall)(center, draw(st.integers(0, 4)))
    point = st.tuples(*[st.integers(c - reach, c + reach) for c in center])
    # the axis lines through the centre cross every face of the region
    axes = [vadd(center, unit(d, a, k)) for a in range(d) for k in range(-reach, reach + 1)]
    return region, np.array(draw(st.lists(point, max_size=40)) + axes, dtype=np.int64).reshape(-1, d)


@settings(max_examples=200, deadline=None)
@given(regions_and_points())
def test_mask_equals_contains(inst):
    region, coords = inst
    want = [region.contains(tuple(v)) for v in coords.tolist()]
    assert region.mask(coords).tolist() == want


@st.composite
def regions_in_reach(draw):
    """A region of one of the four kinds in d = 1..4, a centre, and an l-inf
    reach from that centre that covers the region (at most 7^4 points)."""
    d = draw(st.integers(1, 4))
    reach = {1: 12, 2: 8, 3: 5, 4: 3}[d]
    center = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    kind = draw(st.sampled_from(["box", "l1", "linf", "annulus"]))
    if kind == "box":
        region = ProductBox(center, tuple(c + draw(st.integers(0, reach)) for c in center))
    elif kind == "annulus":
        r, N = draw(st.integers(1, 2)), draw(st.integers(1, 2))
        # every vertex has l1 norm below index * r * N, so l-inf at most reach
        region, center = Annulus(draw(st.integers(1, (reach + 1) // (r * N))), r, N, d), (0,) * d
    else:
        region = (L1Ball if kind == "l1" else LInfBall)(center, draw(st.integers(0, reach)))
    return region, center, reach


@settings(max_examples=200, deadline=None)
@given(regions_in_reach())
def test_coords_are_the_padded_box_filtered_by_contains(inst):
    region, center, reach = inst
    padded = [range(c - reach - 1, c + reach + 2) for c in center]
    want = [v for v in product(*padded) if region.contains(v)]  # lexicographic
    coords = region.coords()
    assert coords.dtype == np.int64 and coords.shape == (len(want), region.dim)
    assert vertex_tuples(coords) == want
    assert list(region.vertices()) == want
    # the bounds are tight: each face of the box holds a vertex
    box = region.bounds
    assert tuple(coords.min(axis=0).tolist()) == box.lo and tuple(coords.max(axis=0).tolist()) == box.hi


def _from_directions(start, text):
    """The path from start that LatticePath.directions() serialised as text."""
    vs = [tuple(start)]
    for token in text.split(",") if text else ():
        vs.append(vadd(vs[-1], unit(len(start), int(token[1:]) - 1, 1 if token[0] == "+" else -1)))
    return LatticePath(vs)


def test_direction_serialization_round_trip():
    p = LatticePath([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert p.directions() == "+1,+2,-1"
    assert _from_directions((0, 0), p.directions()) == p
