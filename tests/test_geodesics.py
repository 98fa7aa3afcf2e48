import math
import random

import numpy as np
import pytest

from fppkit.distributions import DistributionSpec
from fppkit.experiments import estimate_time_constant
from fppkit.fields import constant_field, sample_conditioned, sample_field
from fppkit.geodesics import (
    RegionGraph,
    enumerate_geodesics,
    exact_norm_oracle,
    extreme_length_geodesics,
    first_lex_geodesic,
    passage_time,
    restricted_geodesic_time,
)
from fppkit.lattice import L1Ball, LatticePath, ProductBox, l1
from fppkit.oracle import exact_optimal_set, floyd_warshall_times
from fppkit.patterns import obstruction_pattern, atom_square_pattern

UNIF12 = DistributionSpec(uniforms=((1.0, 2.0, 1.0),))
ATOMS12 = DistributionSpec(atoms=((1.0, 0.5), (2.0, 0.5)))
ATOMS14 = DistributionSpec(atoms=((1.0, 0.5), (4.0, 0.5)))
ATOMS13 = DistributionSpec(atoms=((1.0, 0.6), (3.0, 0.4)))


def binom(n, k):
    return math.comb(n, k)


def test_passage_time_basics():
    region = ProductBox((0, 0), (5, 5))
    f = constant_field(region, 3.0)
    p = LatticePath([(0, 0)])
    assert passage_time(p, f) == 0.0
    p5 = LatticePath([(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2)])
    assert passage_time(p5, f) == 15.0


def test_passage_time_obstruction_field():
    pat = obstruction_pattern()
    f = sample_conditioned(pat.region, ATOMS14, pat.event, 1)
    p = LatticePath([(0, 3), (0, 2), (0, 1)])
    assert passage_time(p, f) == 8.0


def test_restricted_time_constant_field():
    region = ProductBox((-2, -2), (6, 6))
    f = constant_field(region, 1.5)
    t, _ = restricted_geodesic_time((0, 0), (4, 3), f)
    assert t == pytest.approx(1.5 * 7)


def test_restricted_time_obstruction_unique_direct_edge():
    pat = obstruction_pattern()
    f = sample_conditioned(pat.region, ATOMS14, pat.event, 1)
    t, _ = restricted_geodesic_time((0, 2), (0, 1), f, region=pat.region)
    assert t == 4.0
    gs = enumerate_geodesics((0, 2), (0, 1), f, region=pat.region)
    assert [p.vertices for p in gs.paths] == [((0, 2), (0, 1))]


def test_restricted_time_endpoint_outside():
    region = ProductBox((0, 0), (1, 0))
    f = constant_field(region, 1.0)
    with pytest.raises(ValueError):
        restricted_geodesic_time((0, 0), (5, 5), f)


@pytest.mark.parametrize("spec,exact", [(ATOMS12, True), (UNIF12, False)])
def test_oracle_equivalence_small_grids(spec, exact):
    region = ProductBox((0, 0), (4, 4))
    graph = RegionGraph(region)
    for seed in range(20):
        f = sample_field(region, spec, seed)
        verts, mat = floyd_warshall_times(region, f)
        from fppkit.geodesics import dijkstra

        w = graph.weights_of(f)
        for i, src in enumerate(verts):
            dist = dijkstra(graph, w, graph.vindex[src])
            for j, dst in enumerate(verts):
                got = dist[graph.vindex[dst]]
                if exact:
                    assert got == mat[i, j]
                else:
                    assert got == pytest.approx(mat[i, j], rel=1e-12)


def test_enumerate_constant_field_binomial_counts():
    region = ProductBox((0, 0), (3, 2))
    f = constant_field(region, 2.0)
    gs = enumerate_geodesics((0, 0), (3, 2), f)
    assert len(gs.paths) == binom(5, 2)
    assert not gs.truncated
    gs22 = enumerate_geodesics((0, 0), (2, 2), constant_field(ProductBox((0, 0), (2, 2)), 1.0))
    assert len(gs22.paths) == 6


def test_enumerate_atom_square_two_paths():
    pat = atom_square_pattern(1.0)
    spec = DistributionSpec(atoms=((1.0, 0.5), (3.0, 0.5)))
    f = sample_conditioned(pat.region, spec, pat.event, 0)
    gs = enumerate_geodesics((0, 0), (1, 1), f, region=pat.region)
    assert len(gs.paths) == 2
    assert gs.time == 2.0


def test_unique_geodesic_continuous():
    region = ProductBox((-2, -2), (10, 6))
    unique = 0
    for seed in range(200):
        f = sample_field(region, UNIF12, seed)
        gs = enumerate_geodesics((0, 0), (8, 4), f)
        unique += len(gs.paths) == 1
    assert unique >= 198  # ties have probability zero


def _tight_edges(dag):
    """The arcs (u, v) with dist(v) = dist(u) + T({u, v}), as vertex pairs."""
    vs = dag.graph.vertices
    return {(vs[u], vs[v]) for v in range(dag.graph.n) for u, _ in dag.parents[v]}


def test_dag_soundness_and_subpath_optimality():
    region = ProductBox((-1, -1), (7, 7))
    for seed in range(30):
        f = sample_field(region, ATOMS12, seed)
        gs = enumerate_geodesics((0, 0), (5, 5), f)
        t, dag = restricted_geodesic_time((0, 0), (5, 5), f)
        tight = _tight_edges(dag)
        for g in gs.paths[:20]:
            assert passage_time(g, f) == pytest.approx(gs.time)
            for a, b in zip(g.vertices, g.vertices[1:]):
                assert (a, b) in tight
            i, j = sorted(random.Random(seed).sample(range(len(g.vertices)), 2))
            a, b = g.vertices[i], g.vertices[j]
            assert passage_time(g.subpath(a, b), f) == pytest.approx(
                dag.dist_at(b) - dag.dist_at(a)
            )


def test_symmetry():
    region = ProductBox((-1, -1), (6, 6))
    for seed in range(100):
        f = sample_field(region, UNIF12, seed)
        t1, _ = restricted_geodesic_time((0, 0), (5, 4), f)
        t2, _ = restricted_geodesic_time((5, 4), (0, 0), f)
        assert t1 == pytest.approx(t2)


def test_first_lex_geodesic():
    f = constant_field(ProductBox((0, 0), (2, 1)), 1.0)
    lex = first_lex_geodesic((0, 0), (2, 1), f)
    assert lex.directions() == "+1,+1,+2"
    # unique-geodesic field returns that geodesic
    region = ProductBox((-1, -1), (6, 4))
    for seed in range(20):
        f = sample_field(region, UNIF12, seed)
        gs = enumerate_geodesics((0, 0), (5, 3), f)
        if len(gs.paths) == 1:
            assert first_lex_geodesic((0, 0), (5, 3), f) == gs.paths[0]


def test_first_lex_matches_enumeration_order():
    region = ProductBox((-1, -1), (5, 5))
    order = ["+1", "-1", "+2", "-2"]

    def word(path):
        return [order.index(tok) for tok in path.directions().split(",")]

    for seed in range(100):
        f = sample_field(region, ATOMS12, seed)
        gs = enumerate_geodesics((0, 0), (4, 3), f)
        shortest = min(len(p) for p in gs.paths)
        best = min((p for p in gs.paths if len(p) == shortest), key=word)
        assert first_lex_geodesic((0, 0), (4, 3), f) == best


def test_extreme_lengths_constant_and_parity():
    f = constant_field(ProductBox((0, 0), (4, 3)), 2.0)
    ext = extreme_length_geodesics((0, 0), (4, 3), f)
    assert ext.lmin == ext.lmax == 7 and ext.exact
    region = ProductBox((-2, -2), (8, 8))
    for seed in range(40):
        fr = sample_field(region, ATOMS12, seed)
        e = extreme_length_geodesics((0, 0), (6, 4), fr)
        assert e.lmin <= e.lmax
        assert e.lmin % 2 == (6 + 4) % 2 and e.lmax % 2 == (6 + 4) % 2
        assert len(e.witness_min) == e.lmin and len(e.witness_max) == e.lmax
        assert passage_time(e.witness_max, fr) == pytest.approx(
            passage_time(e.witness_min, fr)
        )


def test_extreme_lengths_against_enumeration():
    region = ProductBox((-1, -1), (6, 6))
    # under ATOMS13 a detour of three light edges ties with one heavy edge
    for spec in (ATOMS12, ATOMS13):
        for seed in range(40):
            f = sample_field(region, spec, seed)
            gs = enumerate_geodesics((0, 0), (4, 4), f, cap=100_000)
            assert not gs.truncated
            ext = extreme_length_geodesics((0, 0), (4, 4), f)
            assert ext.lmin == min(len(p) for p in gs.paths)
            assert ext.lmax == max(len(p) for p in gs.paths)


def test_extreme_lengths_zero_atoms_match_oracle():
    spec = DistributionSpec(atoms=((0.0, 0.3), (1.0, 0.7)))
    region = ProductBox((0, 0), (4, 4))
    for seed in range(15):
        f = sample_field(region, spec, seed)
        res = exact_optimal_set((0, 0), (4, 4), region, f)
        ext = extreme_length_geodesics((0, 0), (4, 4), f)
        if ext.exact:
            assert ext.lmin == min(len(p) for p in res.paths)
            assert ext.lmax == max(len(p) for p in res.paths)



def test_extreme_lengths_budget_spent_before_reaching_y():
    f = constant_field(ProductBox((0, 0), (4, 4)), 0.0)
    ext = extreme_length_geodesics((0, 0), (4, 4), f, node_budget=3)
    assert not ext.exact
    assert ext.lmin == ext.lmax == 8 and ext.witness_max == ext.witness_min

def test_geodesic_time_agrees_with_doubled_region():
    for seed in range(100):
        small = L1Ball((3, 0), 14)
        big = L1Ball((3, 0), 28)
        fs = sample_field(small, ATOMS12, seed)
        fb = sample_field(big, ATOMS12, seed)
        t_small, _ = restricted_geodesic_time((0, 0), (6, 0), fs)
        t_big, _ = restricted_geodesic_time((0, 0), (6, 0), fb)
        assert t_small == t_big  # monotone in the region, equal once certified


def test_estimate_time_constant_deterministic_spec():
    est = estimate_time_constant([(1, 0)], DistributionSpec(atoms=((2.0, 1.0),)), [4, 8], 5, 1)
    for n, mean, half in est.per_direction[(1, 0)]:
        assert mean == pytest.approx(2.0) and half == 0.0
    assert est.c_mu == pytest.approx(2.0) and est.C_mu == pytest.approx(2.0)


def test_estimate_time_constant_monotone_and_above_rho():
    est = estimate_time_constant([(1, 0)], ATOMS12, [10, 20, 40], 500, 3)
    series = est.per_direction[(1, 0)]
    means = [m for _, m, _ in series]
    assert means[0] >= means[1] >= means[2]  # subadditive trend
    assert means[-1] > 1.05  # strictly above rho = 1
    assert est.c_mu <= est.C_mu


def test_enumeration_cap_sets_truncated_flag():
    f = constant_field(ProductBox((0, 0), (4, 4)), 1.0)
    gs = enumerate_geodesics((0, 0), (4, 4), f, cap=10)
    assert gs.truncated and len(gs.paths) == 10


def test_geodesic_set_csv_dump(tmp_path):
    f = constant_field(ProductBox((0, 0), (2, 1)), 1.0)
    gs = enumerate_geodesics((0, 0), (2, 1), f)
    path = str(tmp_path / "gs.csv")
    gs.to_csv(path)
    lines = open(path).read().strip().splitlines()
    assert lines[0] == "path_id,length,time,directions"
    assert len(lines) == 1 + len(gs.paths)
    assert ",3,3," in lines[1]


def test_dag_triangle_inequality_and_source_zero():
    region = ProductBox((-1, -1), (6, 6))
    for seed in range(20):
        f = sample_field(region, ATOMS12, seed)
        t, dag = restricted_geodesic_time((0, 0), (5, 5), f)
        assert dag.dist_at((0, 0)) == 0.0
        g = dag.graph
        for eid, (a, b) in enumerate(g.edges):
            da, db = dag.dist_at(a), dag.dist_at(b)
            assert abs(da - db) <= dag.weights[eid] + 1e-9


def test_exact_norm_oracle_on_arrays_equals_the_scalar_form():
    # one double times one exact integer either way: equal bit for bit
    rs = np.random.default_rng(11)
    for a in (1.5, 0.1, 1 / 3, 2.0660447436604943, 1e-7 + 1):
        mu = exact_norm_oracle(a)
        for d in (1, 2, 3, 5):
            disp = rs.integers(-10**6, 10**6, size=(200, d))
            disp[:20] = rs.integers(-3, 4, size=(20, d))  # small ones, zero vectors among them
            got = mu(disp)
            assert got.shape == (200,) and got.dtype == np.float64
            want = [a * l1(tuple(y)) for y in disp.tolist()]
            assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))
            assert [f"{m:.6g}" for m in got] == [f"{m:.6g}" for m in want]
            assert mu(disp.reshape(4, 50, d)).tolist() == np.reshape(want, (4, 50)).tolist()
            assert mu(tuple(disp[0].tolist())) == want[0]  # a vertex tuple is one displacement
