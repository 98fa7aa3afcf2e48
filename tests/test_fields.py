"""The one form of an environment: a read-only array on a shared RegionGraph.

Every field operation is checked against a plain edge-keyed dict kept here,
on random boxes; sampling on a graph is checked bit for bit against the
bare edge-list sampler; the CSV dump round-trips for d = 2..5 and refuses
files that miss a region edge or hold an edge outside it.  The region index
itself (vertices, edges, boundary, sub-region edges) is checked against the membership-test
enumeration of `oracle.region_vertices` and `oracle.region_edges` on the four region shapes,
and `edges_within` refuses a sub-region that sticks out.  Events
(the arrays behind `EdgeConstraintSet`) are checked against an edge-keyed
dict reference, and conditioned sampling against the dict-grouped sampler.
A graph's `EdgeList` is checked to sample the same bytes as its plain-list
copy, to refuse edits, to pickle, and to leave no reference cycle.  The
graph's vertex and index views are checked against an eager reference in
d = 1..4, a vertex off the region must raise KeyError, and the
`modify-demo` world must never build its full tuple lists.  Seed
derivation is checked against the numpy-scalar chain of
`oracle.derive_seed_scalars`, and takes numpy integers as their value.
"""

import copy
import gc
import math
import pickle
import re
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fppkit.distributions import DistributionSpec
from fppkit.fields import (
    EdgeConstraintSet,
    EdgeList,
    RegionGraph,
    WeightField,
    edge_times_for,
    sample_conditioned,
    sample_field,
    splice,
)
from fppkit.cli import main
from fppkit.geodesics import GeodesicDag, passage_time
from fppkit.lattice import (
    Annulus,
    L1Ball,
    LatticePath,
    LInfBall,
    ProductBox,
    box_containing,
    canonical_edge,
    direction_order,
    edge_axis,
    neighbors,
    translate_edge,
    unit,
    vadd,
)
from fppkit.oracle import _splitmix64, derive_seed_scalars, region_edges, region_vertices
from fppkit.patterns import condition_holds, heavy_edge_pattern, two_route_pattern_unbounded
from fppkit.renormalization import BoxScale
from fppkit.rng import derive_seed, edge_uniforms, pack_edge_keys
from fppkit.tolerance import at_least

SPEC = DistributionSpec(atoms=((0.0, 0.2), (1.0, 0.3)), uniforms=((1.0, 2.0, 0.5),))
EXTENTS = {2: (4, 3), 3: (2, 2, 1)}  # boxes up to 5x4 and 3x3x2 vertices


@st.composite
def regions(draw, dims=(2, 4)):
    """A box, an l1 ball, an l-inf ball or an annulus in d = dims[0]..dims[1],
    with at most about 700 vertices."""
    d = draw(st.integers(*dims))
    size = {1: 6, 2: 4, 3: 3, 4: 2}[d]
    center = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    kind = draw(st.sampled_from(["box", "l1", "linf", "annulus"]))
    if kind == "box":
        return ProductBox(center, tuple(c + draw(st.integers(0, size)) for c in center))
    if kind == "l1":
        return L1Ball(center, draw(st.integers(0, size)))
    if kind == "linf":
        return LInfBall(center, draw(st.integers(0, size // 2)))
    index, r = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    N = draw(st.integers(1, max(1, size // (index * r))))
    return Annulus(index, r, N, d)


@settings(max_examples=120, deadline=None)
@given(regions())
def test_region_graph_matches_membership_tests(region):
    graph = RegionGraph(region)
    assert graph.vertices == region_vertices(region)  # the oracle's scalar enumeration
    assert graph.coords.tolist() == [list(v) for v in graph.vertices]
    assert graph.edges == region_edges(region)  # the same order, so the same summation order
    assert all(graph.vindex[v] == i for i, v in enumerate(graph.vertices))
    if graph.edges:
        flipped = [(v, u) for u, v in graph.edges]
        assert graph.edge_ids(flipped).tolist() == list(range(len(graph.edges)))
    boundary = {v for v in graph.vertices if any(not region.contains(w) for w in neighbors(v))}
    assert {graph.vertices[i] for i in graph.boundary_indices()} == boundary
    big = RegionGraph(box_containing(graph.vertices, pad=1))
    assert [big.arrays[i] for i in big.edges_within(region)] == graph.edges


def _built(graph: RegionGraph) -> bool:
    """Whether the graph holds its full vertex-tuple or edge-tuple list."""
    return graph.vertices._list is not None or "edges" in vars(graph)


def _not_a_key(index, v) -> bool:
    try:
        index[v]
    except KeyError:
        return v not in index and index.get(v) is None and index.get(v, -7) == -7
    return False


@settings(max_examples=150, deadline=None)
@given(regions(dims=(1, 4)))
def test_vertex_and_edge_views_equal_an_eager_reference(region):
    vs, edges = region_vertices(region), region_edges(region)  # the eager reference
    index = {v: i for i, v in enumerate(vs)}
    graph = RegionGraph(region)
    views = graph.vertices, graph.vindex
    assert len(views[0]) == graph.n == len(vs) and [views[0][i] for i in range(len(vs))] == vs
    assert views[0][-1] == vs[-1] and views[0][1:-1:2] == vs[1:-1:2]
    assert all(views[1][v] == i and views[1].get(v) == i and v in views[1] for v, i in index.items())
    assert len(views[1]) == len(vs) and list(views[1]) == vs and dict(views[1]) == index
    big = RegionGraph(box_containing(vs, pad=1))
    within = big.edges_within(region)
    assert [big.arrays[i] for i in within] == edges and big.lower[within].tolist() == [list(u) for u, _ in edges]
    assert not _built(graph)  # item by item and by lookup so far
    assert graph.edges_within(region).tolist() == list(range(len(edges)))
    assert graph.edges == edges and list(graph.vertices) == vs
    assert graph.vertices == vs and vs == graph.vertices and graph.vertices != vs[:-1]
    # off the region: just off each face (the padding row above the top face
    # included), below bounds.lo, one table width away on each axis (a
    # negative offset that wrapped around would land back on a vertex), the
    # rest of the bounding box, and vertices of other dimensions
    lo, hi = region.bounds.lo, region.bounds.hi
    off = {w for v in vs for w in neighbors(v)} | set(region.bounds.vertices())
    off |= {tuple(c - 1 for c in lo), tuple(c - 2 for c in lo), tuple(c + 2 for c in hi)}
    for v in vs[:: max(1, len(vs) // 25)]:
        for a, width in enumerate(h - l + 2 for l, h in zip(lo, hi)):
            off |= {vadd(v, unit(region.dim, a, -width)), vadd(v, unit(region.dim, a, width))}
        off |= {v + (0,), v[:-1], v + v}
    assert all(_not_a_key(views[1], w) for w in off - set(index))
    assert not any(_not_a_key(views[1], v) for v in vs)


@st.composite
def fields(draw):
    """A field on a random box, its dict reference, and a random walk in it."""
    d = draw(st.sampled_from(sorted(EXTENTS)))
    lo = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    hi = tuple(a + draw(st.integers(1 if i == 0 else 0, m)) for i, (a, m) in enumerate(zip(lo, EXTENTS[d])))
    region = ProductBox(lo, hi)
    edges = region_edges(region)
    times = draw(st.lists(st.floats(0.0, 8.0), min_size=len(edges), max_size=len(edges)))
    walk = [tuple(draw(st.integers(a, b)) for a, b in zip(lo, hi))]
    for step in draw(st.lists(st.sampled_from(direction_order(d)), max_size=12)):
        if region.contains(vadd(walk[-1], step)):
            walk.append(vadd(walk[-1], step))
    graph = RegionGraph(region)
    return graph.field_from(np.array(times)), dict(zip(edges, times)), LatticePath(walk)


def _matches(f: WeightField, ref: dict) -> bool:
    return f.edges() == sorted(ref) and all(f.time(e) == t for e, t in ref.items())


@settings(max_examples=150, deadline=None)
@given(fields(), st.floats(0.0, 3.0), st.data())
def test_field_operations_match_a_dict_reference(inst, b, data):
    f, ref, walk = inst
    edges = sorted(ref)
    assert _matches(f, ref)
    for u, v in edges:
        assert type(f.time((v, u))) is float and f.time((v, u)) == ref[(u, v)]
    total = 0.0
    for a, c in zip(walk.vertices, walk.vertices[1:]):
        total += ref[canonical_edge(a, c)]
    assert type(f.path_time(walk)) is float and f.path_time(walk) == total

    assert _matches(f.shift(b), {e: t + b for e, t in ref.items()})
    picked = data.draw(st.lists(st.sampled_from(edges), unique=True))
    new = {e: 0.5 + i for i, e in enumerate(picked)}
    assert _matches(f.replaced({(v, u): t for (u, v), t in new.items()}), {**ref, **new})

    x = data.draw(st.tuples(*[st.integers(-4, 4)] * f.region.dim))
    moved = f.translate(x)
    assert _matches(moved, {translate_edge(e, x): t for e, t in ref.items()})
    assert np.shares_memory(moved.w, f.w)


@settings(max_examples=100, deadline=None)
@given(fields(), st.data())
def test_splice_and_sub_region_gather_match_a_dict_reference(inst, data):
    f, ref, _ = inst
    lo, hi = f.region.lo, f.region.hi
    # a donor on another box that overlaps this one
    shift = data.draw(st.tuples(*[st.integers(-1, 1)] * len(lo)))
    donor_region = ProductBox(tuple(a + s for a, s in zip(lo, shift)), tuple(b + s + 1 for b, s in zip(hi, shift)))
    donor = sample_field(donor_region, SPEC, data.draw(st.integers(0, 99)))
    shared = sorted(set(ref) & set(donor.edges()))
    picked = data.draw(st.lists(st.sampled_from(shared), unique=True)) if shared else []
    spliced = splice(f, donor, picked)
    assert _matches(spliced, {**ref, **{e: donor.time(e) for e in picked}})
    assert splice(f, donor, f.graph.edge_ids(picked)).w.tobytes() == spliced.w.tobytes()
    assert _matches(splice(f, f.shift(1.0), picked), {**ref, **{e: ref[e] + 1.0 for e in picked}})

    sub = ProductBox(tuple(data.draw(st.integers(a, b)) for a, b in zip(lo, hi)), hi)
    got = RegionGraph(sub).weights_of(f)
    assert got.tolist() == [ref[e] for e in region_edges(sub)]
    if sub != f.region:
        with pytest.raises(KeyError):
            f.graph.weights_of(RegionGraph(sub).field_from(got))


def test_field_from_is_a_read_only_view():
    graph = RegionGraph(ProductBox((0, 0), (3, 2)))
    w = graph.sample_weights(SPEC, 4)
    f = graph.field_from(w, seed=4)
    assert np.shares_memory(graph.weights_of(graph.field_from(w)), w)
    assert graph.weights_of(f) is f.w and f.seed == 4 and f.region == graph.region
    with pytest.raises(ValueError):
        f.w[0] = 1.0
    with pytest.raises(ValueError):
        graph.field_from(w[:-1])


def test_edges_outside_the_field_fail_loudly():
    f = sample_field(ProductBox((0, 0), (2, 2)), SPEC, 1)
    outside = ((2, 2), (3, 2))
    with pytest.raises(KeyError):
        f.time(outside)
    with pytest.raises(KeyError, match="outside the field"):
        passage_time(LatticePath([(1, 2), (2, 2), (3, 2)]), f)
    with pytest.raises(KeyError):
        f.replaced({outside: 1.0})
    with pytest.raises(ValueError, match="outside the base field"):
        splice(f, f, [outside])
    for ids in ([-1], [len(f.w)]):
        with pytest.raises(ValueError, match="outside the base field"):
            splice(f, f, np.array(ids))
    assert f.graph.edge_id(outside) == -1
    assert f.graph.edge_ids([((0, 0), (2, 0)), ((1, 0), (0, 0))]).tolist() == [-1, f.graph.edge_id(((0, 0), (1, 0)))]


def test_edge_times_for_reads_either_endpoint_order_and_refuses_non_edges():
    e, flipped, other = ((0, 0), (1, 0)), ((1, 0), (0, 0)), ((0, 0), (0, 1))
    for seed in (7, 8):
        w = edge_times_for([e, other], SPEC, seed)
        assert edge_times_for([flipped, other], SPEC, seed).tobytes() == w.tobytes()
        cons = EdgeConstraintSet({flipped: (1.2, 1.3)})
        got = edge_times_for([flipped, other], SPEC, seed, cons)
        assert got.tobytes() == edge_times_for([e, other], SPEC, seed, cons).tobytes()
        assert 1.2 <= got[0] <= 1.3 and got[1] == w[1]
    for bad in [((0, 0), (2, 0)), ((0, 0), (0, 0)), ((0, 0), (1, 1))]:
        with pytest.raises(ValueError, match="not lattice neighbors"):
            edge_times_for([e, bad], SPEC, 7)


@pytest.mark.parametrize("region", [ProductBox((-2, -1), (3, 2)), L1Ball((0, 1, 0), 3)])
def test_graph_sampling_equals_edge_list_sampling(region):
    graph = RegionGraph(region)
    picked = graph.edges[::3]
    cons = EdgeConstraintSet({e: ((1.2, 1.7) if i % 2 else (0.0, 0.0)) for i, e in enumerate(picked)})
    for seed in (0, 7, 2**63 + 5):
        for c in (None, cons):
            w = graph.sample_weights(SPEC, seed, c)
            assert w.tobytes() == edge_times_for(graph.edges, SPEC, seed, c).tobytes()
        assert sample_field(region, SPEC, seed).w.tobytes() == graph.sample_weights(SPEC, seed).tobytes()
        assert sample_conditioned(region, SPEC, cons, seed).w.tobytes() == w.tobytes()
    with pytest.raises(ValueError, match="zero mass"):
        graph.sample_weights(SPEC, 0, EdgeConstraintSet({picked[0]: (0.5, 0.9)}))
    with pytest.raises(KeyError, match="outside the sampled region"):
        graph.sample_weights(SPEC, 0, EdgeConstraintSet({((90,) * region.dim, (91,) + (90,) * (region.dim - 1)): (1.0, 2.0)}))


INTERVALS = [(0.0, 0.0), (1.0, 1.0), (1.2, 1.7), (0.0, math.inf), (1.5, 2.0)]  # each has mass under SPEC


@settings(max_examples=150, deadline=None)
@given(fields(), st.data())
def test_events_match_a_dict_reference(inst, data):
    f, ref, _ = inst
    d = f.region.dim
    outside = (f.region.hi, vadd(f.region.hi, unit(d, 0)))  # one edge past the box
    pool = sorted(ref) + [outside]

    def draw_event() -> dict:
        picked = data.draw(st.lists(st.sampled_from(pool), unique=True, max_size=12))
        return {e: data.draw(st.sampled_from(INTERVALS)) for e in picked}

    a, b = draw_event(), draw_event()
    ev = EdgeConstraintSet({(v, u): iv for (u, v), iv in a.items()})  # endpoints given in reverse
    assert len(ev) == len(a) and list(ev.constraints.items()) == sorted(a.items())
    x = tuple(data.draw(st.integers(-3, 3)) for _ in range(d))
    assert list(ev.translate(x).constraints.items()) == sorted((translate_edge(e, x), iv) for e, iv in a.items())
    if any(e in b and b[e] != iv for e, iv in a.items()):
        with pytest.raises(ValueError, match="conflicting constraints"):
            ev.merged_with(EdgeConstraintSet(b))
    else:
        assert list(ev.merged_with(EdgeConstraintSet(b)).constraints.items()) == sorted({**a, **b}.items())
    if outside in a:
        with pytest.raises(KeyError):
            ev.satisfied_by(f)
    else:
        assert ev.satisfied_by(f) == all(lo - 1e-9 <= ref[e] <= hi + 1e-9 for e, (lo, hi) in a.items())
    # bound at translate x, the event reads the edges e + x
    moved = [(vadd(u, x), vadd(v, x)) for u, v in sorted(a)]
    assert f.graph.ids_at(ev.lower + np.array(x), ev.axis).tolist() == f.graph.edge_ids(moved).tolist()


def _dict_grouped_times(edges: list, seed: int, cons: dict) -> np.ndarray:
    """edge_times_for as a per-edge index dict and a per-interval dict of positions compute it."""
    canonical = [canonical_edge(*e) for e in edges]
    lower, axes = np.array([e[0] for e in canonical]), np.array([edge_axis(e) for e in canonical])
    u = edge_uniforms(seed, *pack_edge_keys(lower, axes))
    times = SPEC.ppf(u)
    index = {e: i for i, e in enumerate(canonical)}
    by_interval: dict = {}
    for e, iv in cons.items():
        by_interval.setdefault(iv, []).append(index[e])
    for (lo, hi), idx in by_interval.items():
        times[idx] = SPEC.conditional_ppf(u[idx], lo, hi)
    return times


@settings(max_examples=100, deadline=None)
@given(fields(), st.data())
def test_edge_times_for_matches_a_dict_grouped_reference(inst, data):
    f, ref, _ = inst
    edges = [(v, u) if data.draw(st.booleans()) else (u, v) for u, v in data.draw(st.permutations(sorted(ref)))]
    picked = data.draw(st.lists(st.sampled_from(sorted(ref)), unique=True, max_size=12))
    cons = {e: data.draw(st.sampled_from(INTERVALS)) for e in picked}
    seed = data.draw(st.integers(0, 2**64 - 1))
    got = edge_times_for(edges, SPEC, seed, EdgeConstraintSet(cons))
    assert got.tobytes() == _dict_grouped_times(edges, seed, cons).tobytes()
    first = canonical_edge(*edges[0])
    with pytest.raises(ValueError, match=re.escape(f"[0.5, 0.9] on {first} has zero mass")):
        edge_times_for(edges, SPEC, seed, EdgeConstraintSet({**cons, first: (0.5, 0.9)}))


@pytest.mark.parametrize(
    "spec", [SPEC, DistributionSpec(atoms=((1.0, 0.05),), exp_tails=((3.0, 0.5, 0.95),))], ids=["mixture", "exp-tail"]
)
def test_a_partial_event_draws_free_edges_from_the_unconditioned_law(spec):
    graph = RegionGraph(ProductBox((-3, -2), (4, 3)))
    ids = np.arange(0, len(graph.edges), 3)
    event = EdgeConstraintSet.on_graph(graph, np.where(ids % 2, 1.0, 1.5), np.where(ids % 2, 1.0, math.inf), ids)
    for seed in (0, 7, 2**63 + 5):
        u = edge_uniforms(seed, *pack_edge_keys(graph.lower, graph.axis))
        got = graph.sample_weights(spec, seed, event)
        free = np.ones(len(graph.edges), dtype=bool)
        free[ids] = False
        assert got[free].tobytes() == spec.ppf(u)[free].tobytes()
        for lo, hi, members in event.intervals:
            idx = ids[members]
            assert got[idx].tobytes() == spec.conditional_ppf(u[idx], lo, hi).tobytes()


def test_edges_within_refuses_a_sub_region_that_sticks_out():
    graph = RegionGraph(ProductBox((0, 0), (4, 4)))
    assert [graph.arrays[i] for i in graph.edges_within(L1Ball((2, 2), 2))] == region_edges(L1Ball((2, 2), 2))
    for sub in (L1Ball((2, 2), 3), ProductBox((-1, 0), (2, 2)), LInfBall((4, 4), 1)):
        with pytest.raises(ValueError, match="sticks out"):
            graph.edges_within(sub)


def test_satisfied_by_and_condition_holds_share_one_tolerance():
    heavy = heavy_edge_pattern(2.0)
    light = replace(heavy, event=EdgeConstraintSet({((0, 0), (1, 0)): (0.0, 1.0)}))
    path = LatticePath([(0, 0), (1, 0)])
    for pat, t, holds in (
        (heavy, 2.0 - 0.5e-9, True), (heavy, 2.0 - 2e-9, False), (light, 1.0 + 0.5e-9, True), (light, 1.0 + 1.5e-9, False),
    ):
        f = RegionGraph(pat.region).field_from(np.array([t]))
        assert pat.event.satisfied_by(f) is holds
        assert pat.event.holds_at(f, np.zeros((1, 2), dtype=np.int64)).tolist() == [holds]
        assert (condition_holds((0, 0), path, pat, f) is not None) is holds


def test_an_event_survives_pickle_and_stays_read_only():
    pat = two_route_pattern_unbounded(2, 1, [1.0] * 4, [2.0, 2.0], 5.0)
    ev = pat.event
    for _ in range(2):  # before and after the mapping view is built
        back = pickle.loads(pickle.dumps(pat))
        assert back.serialize() == pat.serialize() and len(back.event.intervals) == len(ev.intervals) == 3
        assert pickle.loads(pickle.dumps(ev.constraints)) == ev.constraints
    e = next(iter(ev.constraints))
    with pytest.raises(TypeError):
        ev.constraints[e] = (0.0, 1.0)
    with pytest.raises(ValueError):
        ev.lo[0] = 0.0


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_field_csv_round_trip_in_every_dimension(tmp_path, d):
    region = ProductBox((0,) * d, (2, 1) + (1,) * (d - 2))
    f = sample_field(region, SPEC, 30 + d)
    path = tmp_path / "field.csv"
    f.to_csv(str(path))
    header = path.read_text().splitlines()[0].split(",")
    assert len(header) == 2 * d + 1
    if d <= 4:
        assert header[:d] == [f"e{a}" for a in "xyzw"[:d]]
    g = WeightField.from_csv(str(path), region)
    assert g.edges() == f.edges() and g.w.tobytes() == f.w.tobytes()


def test_field_csv_refuses_missing_and_outside_edges(tmp_path):
    region = ProductBox((0, 0), (2, 1))
    path = tmp_path / "field.csv"
    sample_field(region, SPEC, 3).to_csv(str(path))
    lines = path.read_text().splitlines(keepends=True)
    short = tmp_path / "short.csv"
    short.write_text("".join(lines[:3] + lines[4:]))
    with pytest.raises(ValueError, match=r"region edge \(\(0, 1\), \(1, 1\)\) is missing"):
        WeightField.from_csv(str(short), region)
    extra = tmp_path / "extra.csv"
    extra.write_text("".join(lines) + "2,1,3,1,1.5\n")
    with pytest.raises(ValueError, match=r"edge \(\(2, 1\), \(3, 1\)\) lies outside the region"):
        WeightField.from_csv(str(extra), region)


@st.composite
def graphs_with_events(draw):
    """A box, an l1 ball or an l-inf ball in d = 2 or 3, a sub-region
    inside it, and an event on some of its edges (or none)."""
    d = draw(st.sampled_from([2, 3]))
    center = tuple(draw(st.integers(-3, 3)) for _ in range(d))
    radius = draw(st.integers(1, 3 if d == 2 else 2))
    kind = draw(st.sampled_from(["box", "l1", "linf"]))
    if kind == "box":
        region = ProductBox(center, tuple(c + draw(st.integers(1, 4 if d == 2 else 2)) for c in center))
    else:
        region = (L1Ball if kind == "l1" else LInfBall)(center, radius)
    graph = RegionGraph(region)
    picked = draw(st.lists(st.sampled_from(graph.edges), unique=True, max_size=15))
    event = EdgeConstraintSet({e: draw(st.sampled_from(INTERVALS)) for e in picked})
    sub = L1Ball(center, radius - 1) if kind == "l1" else ProductBox(center, tuple(c + 1 for c in center))
    return graph, sub, draw(st.sampled_from([None, event]))


@settings(max_examples=120, deadline=None)
@given(graphs_with_events(), st.integers(0, 2**64 - 1))
def test_an_edge_list_samples_the_bytes_of_its_plain_copy(inst, seed):
    graph, sub, event = inst
    assert isinstance(graph.edges, EdgeList)
    got = edge_times_for(graph.edges, SPEC, seed, event)
    assert got.tobytes() == edge_times_for(list(graph.edges), SPEC, seed, event).tobytes()
    assert got.tobytes() == graph.sample_weights(SPEC, seed, event).tobytes()
    f = graph.field_from(got)
    assert graph.edge_ids(graph.edges).tolist() == list(range(len(graph.edges)))
    assert f.times_at(graph.edges).tobytes() == f.times_at(list(graph.edges)).tobytes() == got.tobytes()
    within, sub_edges = graph.edges_within(sub), RegionGraph(sub).edges
    assert [graph.arrays[i] for i in within] == sub_edges == region_edges(sub)
    assert sub_edges.lower.tolist() == [list(u) for u, _ in sub_edges]
    assert sub_edges.axis.tolist() == [edge_axis(e) for e in sub_edges]
    assert edge_times_for(sub_edges, SPEC, seed).tobytes() == edge_times_for(list(sub_edges), SPEC, seed).tobytes()
    assert splice(f, f.shift(1.0), within).w.tobytes() == splice(f, f.shift(1.0), list(sub_edges)).w.tobytes()


@pytest.mark.parametrize("region", [ProductBox((-2, -1), (3, 2)), L1Ball((0, 1, 0), 2)])
def test_an_edge_list_refuses_an_outside_event_like_a_plain_list(region):
    graph = RegionGraph(region)
    d = region.dim
    outside = EdgeConstraintSet({((9,) * d, (10,) + (9,) * (d - 1)): (1.0, 2.0), graph.edges[0]: (1.0, 2.0)})
    messages = []
    for edges in (graph.edges, list(graph.edges)):
        with pytest.raises(KeyError, match="outside the sampled region") as err:
            edge_times_for(edges, SPEC, 5, outside)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_slices_and_copies_of_an_edge_list_are_plain_lists():
    graph = RegionGraph(ProductBox((0, 0), (4, 3)))
    w = edge_times_for(graph.edges, SPEC, 11)
    for part, ids in ((graph.edges[::2], slice(None, None, 2)), (graph.edges[3:9], slice(3, 9))):
        assert type(part) is list
        assert edge_times_for(part, SPEC, 11).tobytes() == w[ids].tobytes()
    for other in (list(graph.edges), graph.edges + [], graph.edges * 1, graph.edges[:]):
        assert type(other) is list and other == graph.edges
        assert edge_times_for(other, SPEC, 11).tobytes() == w.tobytes()
    same = copy.copy(graph.edges)  # a copy of an immutable list may stay one
    assert same == graph.edges and np.array_equal(same.lower, graph.lower)


def test_an_edge_list_cannot_be_edited():
    graph = RegionGraph(ProductBox((0, 0), (2, 2)))
    edges, before = graph.edges, list(graph.edges)
    e = edges[0]
    edits = [
        lambda: edges.__setitem__(0, e),
        lambda: edges.__delitem__(0),
        lambda: edges.__iadd__([e]),
        lambda: edges.__imul__(2),
        lambda: edges.append(e),
        lambda: edges.extend([e]),
        lambda: edges.insert(0, e),
        lambda: edges.pop(),
        lambda: edges.remove(e),
        lambda: edges.clear(),
        lambda: edges.sort(),
        lambda: edges.reverse(),
    ]
    for edit in edits:
        with pytest.raises(TypeError, match="read-only"):
            edit()
    for a in (edges.lower, edges.axis, graph.lower, graph.axis):
        with pytest.raises(ValueError):
            a[0] = 1
    assert edges == before and edges.lower.tolist() == [list(u) for u, _ in before]


def test_a_weight_field_survives_pickle():
    graph = RegionGraph(L1Ball((1, 0), 3))
    event = EdgeConstraintSet({graph.edges[4]: (1.2, 1.7)})
    f = graph.field_from(graph.sample_weights(SPEC, 9, event), seed=9)
    back = pickle.loads(pickle.dumps(f))
    assert back.w.tobytes() == f.w.tobytes() and back.seed == 9
    edges = back.graph.edges
    assert isinstance(edges, EdgeList) and edges == graph.edges
    assert np.array_equal(edges.lower, graph.lower) and np.array_equal(edges.axis, graph.axis)
    assert not (edges.lower.flags.writeable or edges.axis.flags.writeable)
    assert back.graph.sample_weights(SPEC, 9, event).tobytes() == f.w.tobytes()
    assert back.time(graph.edges[4]) == f.time(graph.edges[4])


def test_a_region_graph_is_freed_without_the_cycle_collector():
    # the edge list holds the graph's arrays, not the graph: no reference cycle
    enabled = gc.isenabled()
    gc.disable()
    try:
        graph = RegionGraph(ProductBox((0, 0), (5, 4)))
        event = EdgeConstraintSet({graph.edges[2]: (1.2, 1.7)})
        f = graph.field_from(edge_times_for(graph.edges, SPEC, 3, event))
        passage_time(LatticePath([(0, 0), (1, 0)]), f)
        ref = weakref.ref(graph)
        del graph, f
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


UNBOUNDED = DistributionSpec(atoms=((1.0, 0.05),), exp_tails=((3.0, 0.5, 0.95),))


def test_the_modify_demo_world_builds_no_full_tuple_list(tmp_path, monkeypatch):
    # the world of `fpp modify-demo` at N = 4, radii (2, 6, 10): 177 x 113 vertices
    graph = RegionGraph(ProductBox((-56, -56), (120, 56)))
    f = graph.field_from(graph.sample_weights(UNBOUNDED, 5), seed=5)
    dag = GeodesicDag.between(graph, f.w, (0, 0), (64, 0))
    first = dag.first_lex()
    assert dag.geodesics(256).paths[0] == first
    assert dag.min_cost(at_least(f.w, 8.0))[0] >= 0
    b2 = BoxScale((12, 0), 4, (2, 6, 10)).ball(2)
    assert len(graph.edges_within(b2)) == b2.edge_count()
    assert not _built(graph)
    # one whole operation, as the benchmark runs it
    made, init = [], RegionGraph.__init__

    def recorded(self, region):
        init(self, region)
        made.append(self)

    monkeypatch.setattr(RegionGraph, "__init__", recorded)
    (tmp_path / "demo.cfg").write_text(
        "atoms = [(1.0, 0.05)]\nexptail = [(3.0, 0.5, 0.95)]\npattern = av_edge\n"
        'pattern_params = {"M": 8.0}\ninstances = 1\ncap = 256\ndelta = 2.0660447436604943\n'
    )
    argv = ["--config", str(tmp_path / "demo.cfg"), "--out", str(tmp_path / "demo.csv"), "--seed", "5"]
    assert main(["modify-demo", *argv]) == 0
    worlds = [g for g in made if g.region == graph.region]
    assert len(worlds) == 1 and not _built(worlds[0])


WORDS = st.integers(-(2**70), 2**70)
TAGS = st.one_of(st.text(), st.sampled_from(["", "nu", "\x00", "naïve", "ν(N) 🙂"]))


@settings(max_examples=300, deadline=None)
@given(WORDS, st.lists(st.one_of(WORDS, TAGS), max_size=5))
@example(2**64 + 3, [-1, 2**64, 2**64 - 1, "", "ν"])
def test_derive_seed_matches_the_numpy_scalar_chain(master, parts):
    assert derive_seed(master, *parts) == derive_seed_scalars(master, *parts)


KEY_WORDS = st.integers(0, 2**64 - 1)


@settings(max_examples=200, deadline=None)
@given(WORDS, st.integers(0, 2**62), st.lists(st.tuples(KEY_WORDS, KEY_WORDS), min_size=1, max_size=40))
@example(0, 0, [(0, 0)])
@example(-1, 2**62, [(2**64 - 1, 2**64 - 1), (1, 2)])
def test_edge_uniforms_match_the_splitmix64_chain(seed, draw, keys):
    # the stream definition, one copying splitmix64 step at a time
    lo, hi = (np.array(col, dtype=np.uint64) for col in zip(*keys))
    golden = 0x9E3779B97F4A7C15
    h = _splitmix64(lo ^ np.uint64((seed % 2**64) ^ golden))
    h = _splitmix64(h ^ hi ^ np.uint64(golden * (draw + 1) % 2**64))
    h = _splitmix64(h)
    want = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    assert edge_uniforms(seed, lo, hi, draw).tobytes() == want.tobytes()


def test_derive_seed_and_edge_uniforms_take_numpy_integers_as_their_value():
    keys = pack_edge_keys(np.array([[0, 0], [3, -2]]), np.array([0, 1]))
    for five in (np.int64(5), np.uint64(5), np.int32(5), np.uint8(5)):
        assert derive_seed(1, "x", five) == derive_seed(1, "x", 5)
        assert derive_seed(five, "x") == derive_seed(5, "x")
        assert edge_uniforms(five, *keys).tobytes() == edge_uniforms(5, *keys).tobytes()
    assert derive_seed(np.int64(-3), np.int64(-1)) == derive_seed(2**64 - 3, np.uint64(2**64 - 1))
    assert derive_seed(np.int64(-3), np.int64(-1)) == derive_seed_scalars(-3, -1)
    with pytest.raises(TypeError):
        derive_seed(1, 2.0)
