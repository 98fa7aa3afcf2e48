"""Property tests of the tight-DAG engine on random small boxes.

The admissible and single-source arc lists are checked against per-arc
loops kept here as the reference, and the enumerated geodesics, extremal
lengths and heavy-edge minimum against the exhaustive oracle.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from fppkit.distributions import DistributionSpec
from fppkit.fields import sample_field
from fppkit.geodesics import GeodesicDag, RegionGraph
from fppkit.lattice import ProductBox
from fppkit.oracle import exact_optimal_set
from fppkit.renormalization import _tight_min_heavy_all
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


def _engine(region, f, x, y):
    graph = RegionGraph(region)
    return GeodesicDag.between(graph, graph.weights_of(f), x, y)


@settings(max_examples=80, deadline=None)
@given(instances())
def test_arc_lists_equal_per_arc_loops(inst):
    region, f, x, y = inst
    dag = _engine(region, f, x, y)
    g, w, dx, dy, t = dag.graph, dag.weights, dag.dist, dag.dist_y, dag.time
    for u in range(g.n):
        assert dag.arcs[u] == [
            (v, e) for v, e in g.adjacency[u] if _close(dx[u] + w[e] + dy[v], t)
        ]
        assert dag.parents[u] == [(v, e) for v, e in g.adjacency[u] if _close(dx[v] + w[e], dx[u])]
        assert sorted(dag.children[u]) == sorted(
            (v, e) for v, e in g.adjacency[u] if _close(dx[u] + w[e], dx[v])
        )


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
    hmin = _tight_min_heavy_all(GeodesicDag(g, dag.weights, x, dag.dist), heavy)
    brute = min(sum(f.time(e) >= HEAVY for e in p.edges()) for p in truth.paths)
    assert hmin[g.vindex[y]] == brute
