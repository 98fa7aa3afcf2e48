"""Property tests of the tight-DAG engine on random small boxes.

The admissible and single-source arc lists are checked against per-arc
loops kept here as the reference, and the enumerated geodesics, extremal
lengths and heavy-edge minimum against the exhaustive oracle.  The
compiled shortest-path kernel is checked bit for bit against the oracle's
heapq Dijkstra.
"""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppkit.distributions import DistributionSpec
from fppkit.fields import sample_field
from fppkit.geodesics import GeodesicDag, RegionGraph, dijkstra, tight_min_cost
from fppkit.lattice import L1Ball, ProductBox, canonical_edge, direction_order, vadd
from fppkit.oracle import exact_optimal_set, heap_dijkstra, region_edges, restricted_times
from fppkit.tolerance import SUM_RTOL

# zero atoms give zero-weight tight cycles (the budgeted walk); the first
# law keeps the admissible digraph acyclic, and its detours of three light
# edges around one heavy edge tie in time (the longest-path DP)
LAWS = (
    DistributionSpec(atoms=((1.0, 0.6), (3.0, 0.4))),
    DistributionSpec(atoms=((0.0, 0.4), (1.0, 0.3), (2.0, 0.3))),
    DistributionSpec(atoms=((0.0, 0.6), (1.0, 0.4))),
    DistributionSpec(atoms=((0.0, 0.3),), uniforms=((1.0, 2.0, 0.7),)),
)
HEAVY = 1.5


@st.composite
def instances(draw):
    cols = draw(st.integers(1, 5))
    rows = draw(st.integers(2 if cols == 1 else 1, 4))  # at least one edge
    region = ProductBox((0, 0), (cols - 1, rows - 1))
    f = sample_field(region, draw(st.sampled_from(LAWS)), draw(st.integers(0, 2**32 - 1)))
    # endpoints in the first and last columns: long geodesics, many ties
    x, y = (0, draw(st.integers(0, rows - 1))), (cols - 1, draw(st.integers(0, rows - 1)))
    return region, f, x, y


def _close(a: float, b: float) -> bool:
    return math.isfinite(a) and math.isfinite(b) and abs(a - b) <= SUM_RTOL * max(1.0, abs(a), abs(b))


def _tight_edges(dag):
    """The arcs (u, v) with dist(v) = dist(u) + T({u, v}), as vertex pairs."""
    vs = dag.graph.vertices
    return {(vs[u], vs[v]) for v in range(dag.graph.n) for u, _ in dag.parents[v]}


def _engine(region, f, x, y):
    graph = RegionGraph(region)
    return GeodesicDag.between(graph, graph.weights_of(f), x, y)


def _adjacency(region):
    """Per vertex index, its (neighbour index, edge id) pairs in direction
    order e1 < -e1 < e2 < ..., read off the oracle's sorted edge list."""
    vertices = sorted(region.vertices())
    index = {v: i for i, v in enumerate(vertices)}
    eid = {e: i for i, e in enumerate(region_edges(region))}
    steps = direction_order(region.dim)
    return [
        [(index[vadd(u, s)], eid[canonical_edge(u, vadd(u, s))]) for s in steps if vadd(u, s) in index]
        for u in vertices
    ]


@settings(max_examples=80, deadline=None)
@given(instances())
def test_arc_lists_equal_per_arc_loops(inst):
    region, f, x, y = inst
    dag = _engine(region, f, x, y)
    g, w, dx, dy, t = dag.graph, dag.weights, dag.dist, dag.dist_y, dag.time
    adjacency = _adjacency(region)
    for u in range(g.n):
        assert dag.arcs[u] == [
            (v, e) for v, e in adjacency[u] if _close(dx[u] + w[e] + dy[v], t)
        ]
        assert dag.parents[u] == [(v, e) for v, e in adjacency[u] if _close(dx[v] + w[e], dx[u])]
    vs = g.vertices
    assert _tight_edges(dag) == {
        (vs[u], vs[v]) for u in range(g.n) for v, e in adjacency[u] if _close(dx[u] + w[e], dx[v])
    }


@settings(max_examples=200, deadline=None)
@given(instances())
def test_engine_agrees_with_oracle(inst):
    region, f, x, y = inst
    dag = _engine(region, f, x, y)
    truth = exact_optimal_set(x, y, region, f)
    gs = dag.geodesics(cap=10**6)
    assert not gs.truncated
    assert {p.vertices for p in gs.paths} == {p.vertices for p in truth.paths}
    assert len(gs.paths) == len(truth.paths)
    ext = dag.extremes()
    assert ext.exact
    lengths = [len(p) for p in truth.paths]
    assert (ext.lmin, ext.lmax) == (min(lengths), max(lengths))
    assert dag.first_lex() == ext.witness_min and len(ext.witness_max) == ext.lmax

    heavy = dag.weights >= HEAVY
    g = dag.graph
    hmin = tight_min_cost(g, dag.weights, dag.dist[None], np.array([g.vindex[x]]), heavy)[0]
    brute = min(sum(f.time(e) >= HEAVY for e in p.edges()) for p in truth.paths)
    assert hmin[g.vindex[y]] == brute


@settings(max_examples=150, deadline=None)
@given(instances())
def test_min_cost_and_count_agree_with_oracle(inst):
    region, f, x, y = inst
    dag = _engine(region, f, x, y)
    truth = exact_optimal_set(x, y, region, f)
    heavy = dag.weights >= HEAVY
    least, witness = dag.min_cost(heavy)
    # the witness is one of the self-avoiding geodesics, zero-weight cycles or not
    assert witness.vertices in {p.vertices for p in truth.paths}
    assert least == sum(f.time(e) >= HEAVY for e in witness.edges())
    assert least == min(sum(f.time(e) >= HEAVY for e in p.edges()) for p in truth.paths)
    # the admissible arcs hold a cycle iff one of them weighs zero (its
    # reverse is then admissible too); labels from the oracle's heapq search
    tx, ty = restricted_times(region, f, x), restricted_times(region, f, y)
    cyclic = any(
        f.time((a, b)) == 0 and _close(tx[a] + ty[b], truth.optimum) for a, b in region_edges(region)
    )
    assert dag.count() == (None if cyclic else len(truth.paths))


def test_count_is_none_on_a_zero_weight_tight_cycle():
    region = ProductBox((0, 0), (2, 1))
    graph = RegionGraph(region)
    w = np.ones(len(graph.edges))
    w[graph.edge_ids([((1, 0), (1, 1))])] = 0.0  # both ways across it are tight
    dag = GeodesicDag.between(graph, w, (0, 0), (2, 1))
    assert dag.count() is None
    assert dag.geodesics().paths and dag.min_cost(w == 0)[0] == 1


KERNEL_LAWS = (
    DistributionSpec(atoms=((0.0, 0.4), (1.0, 0.3), (2.0, 0.3))),
    DistributionSpec(atoms=((1.0, 0.5), (2.0, 0.5))),
    DistributionSpec(uniforms=((1.0, 2.0, 1.0),)),
)


@st.composite
def kernel_instances(draw):
    shape = draw(st.sampled_from(("box", "ball", "cube")))
    if shape == "box":
        cols, rows = draw(st.integers(1, 6)), draw(st.integers(1, 5))
        region = ProductBox((0, 0), (cols - 1, rows - 1))
    elif shape == "ball":
        region = L1Ball((0, 0), draw(st.integers(1, 4)))
    else:
        region = ProductBox((0, 0, 0), (2, 2, 1))
    graph = RegionGraph(region)
    w = graph.sample_weights(draw(st.sampled_from(KERNEL_LAWS)), draw(st.integers(0, 2**32 - 1)))
    return region, graph, w, draw(st.integers(0, graph.n - 1))


@settings(max_examples=150, deadline=None)
@given(kernel_instances())
def test_kernel_labels_equal_heapq_bit_for_bit(inst):
    region, graph, w, source = inst
    truth = restricted_times(region, graph.field_from(w), graph.vertices[source])
    want = np.array([truth.get(v, math.inf) for v in graph.vertices])
    assert np.array_equal(dijkstra(graph, w, source), want)


sources_of = st.lists(st.integers(0, 2**16), min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(kernel_instances(), sources_of)
def test_multi_source_rows_equal_single_source_labels(inst, picks):
    region, graph, w, _ = inst
    sources = np.array(picks) % graph.n  # any order, repeats allowed
    rows = dijkstra(graph, w, sources)
    assert rows.shape == (len(sources), graph.n)
    for row, s in zip(rows, sources.tolist()):
        assert np.array_equal(row, dijkstra(graph, w, s))


@settings(max_examples=100, deadline=None)
@given(kernel_instances(), sources_of)
def test_tight_min_heavy_all_equals_the_heapq_dict(inst, picks):
    region, graph, w, source = inst
    sources = np.array([source] + picks) % graph.n
    dist = dijkstra(graph, w, sources)
    heavy = w >= HEAVY
    hmin = tight_min_cost(graph, w, dist, sources, heavy)
    assert hmin.shape == (len(sources), graph.n)
    for row, s, d in zip(hmin, sources.tolist(), dist):
        # the loop the kernel replaced: heapq over the single-source tight arcs u -> v
        children = {u: [] for u in range(graph.n)}
        for v, out in enumerate(GeodesicDag(graph, w, graph.vertices[s], d).parents):
            for u, e in out:
                children[u].append((v, int(heavy[e])))
        truth = heap_dijkstra(children, s)
        assert np.array_equal(row, [truth.get(j, math.inf) for j in range(graph.n)])


@pytest.mark.parametrize("bad", [-1.0, math.nan])
def test_dijkstra_refuses_negative_and_nan_weights(bad):
    graph = RegionGraph(ProductBox((0, 0), (2, 2)))
    w = np.ones(len(graph.edges))
    w[3] = bad
    with pytest.raises(ValueError, match="negative or NaN"):
        dijkstra(graph, w, 0)


def test_cli_import_does_not_load_scipy():
    # scipy is imported on the first search, not with the package
    code = "import sys, numpy, fppkit.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
