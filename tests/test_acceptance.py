"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines as
they complete.  Tolerances are pinned here; Monte Carlo criteria run at
fixed seeds so results are reproducible bit for bit.
"""

import math
import random
from dataclasses import replace

from fppkit.distributions import DistributionSpec
from fppkit.experiments import (
    run_deficiency,
    run_gap,
    run_modification_demo_unbounded,
    run_shift_concavity,
    summarize_deficiency,
    summarize_gap,
)
from fppkit.fields import sample_conditioned, sample_field, splice
from fppkit.geodesics import (
    RegionGraph,
    dijkstra,
    enumerate_geodesics,
    exact_norm_oracle,
    first_lex_geodesic,
    restricted_geodesic_time,
)
from fppkit.lattice import (
    LatticePath,
    L1Ball,
    ProductBox,
    cut_loops,
    l1,
    neighbors,
    translate,
)
from fppkit.oracle import exact_optimal_set, floyd_warshall_times, region_edges
from fppkit.patterns import (
    heavy_edge_pattern,
    condition_holds,
    obstruction_pattern,
    atom_square_pattern,
    orient_pattern,
    shift_concavity_properties,
    shift_concavity_search_delta,
    two_route_pattern_bounded,
    two_route_pattern_zero_atom,
    validate_pattern,
)
from fppkit.renormalization import (
    BoxScale,
    box_in_annulus,
    derive_constants,
    m_sequence,
    meta_cube_animal,
    typicality_bounded,
    typicality_unbounded,
)

ATOMS12 = DistributionSpec(atoms=((1.0, 0.5), (2.0, 0.5)))
ATOMS14 = DistributionSpec(atoms=((1.0, 0.5), (4.0, 0.5)))
UNIF12 = DistributionSpec(uniforms=((1.0, 2.0, 1.0),))
UNB = DistributionSpec(atoms=((1.0, 0.05),), exp_tails=((3.0, 0.5, 0.95),))


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_oracle_equivalence():
    region = ProductBox((0, 0), (4, 4))
    graph = RegionGraph(region)
    worst = 0.0
    for spec, exact in ((ATOMS12, True), (UNIF12, False)):
        for seed in range(200):
            f = graph.field_from(graph.sample_weights(spec, seed))
            verts, mat = floyd_warshall_times(region, f)
            w = graph.weights_of(f)
            for i, src in enumerate(verts):
                dist = dijkstra(graph, w, graph.vindex[src])
                for j, dst in enumerate(verts):
                    got, want = dist[graph.vindex[dst]], mat[i, j]
                    if exact:
                        assert got == want
                    else:
                        err = abs(got - want) / max(1.0, abs(want))
                        worst = max(worst, err)
                        assert err <= 1e-12
    report(1, True, f"5x5 all-pairs match on 2x200 fields (worst rel err {worst:.2e})")


def test_criterion_02_constant_field_exactness():
    a = 1.5
    checked = 0
    for total in range(1, 13):
        for p in range(total + 1):
            q = total - p
            region = ProductBox((0, 0), (max(p, 1), max(q, 1)))
            from fppkit.fields import constant_field

            f = constant_field(region, a)
            t, _ = restricted_geodesic_time((0, 0), (p, q), f)
            assert t == a * (p + q)
            gs = enumerate_geodesics((0, 0), (p, q), f, cap=2000)
            assert not gs.truncated
            assert len(gs.paths) == math.comb(p + q, p)
            checked += 1
    report(2, True, f"t = a(p+q) and count = C(p+q, p) for {checked} endpoints")


def test_criterion_03_obstruction_example():
    pat = obstruction_pattern()
    f = sample_conditioned(pat.region, ATOMS14, pat.event, 0)
    res = exact_optimal_set(pat.u_end, pat.v_end, pat.region, f)
    ok = (
        res.optimum == 4.0
        and len(res.paths) == 1
        and res.paths[0] == LatticePath([(0, 2), (0, 1)])
        and not validate_pattern(pat, ATOMS14).valid
    )
    report(3, ok, "unique inner optimum is the direct edge at time 4; invalid under the bounded law")


def _tight_edges(dag):
    """The arcs (u, v) with dist(v) = dist(u) + T({u, v}), as vertex pairs."""
    vs = dag.graph.vertices
    return {(vs[u], vs[v]) for v in range(dag.graph.n) for u, _ in dag.parents[v]}


def test_criterion_04_two_route_patterns():
    pat = two_route_pattern_bounded(4, 2, [1.0] * 8, [2.0] * 4)
    f = sample_conditioned(pat.region, ATOMS12, pat.event, 0)
    t, dag = restricted_geodesic_time(pat.u_end, pat.v_end, f, region=pat.region)
    plus, pp = pat.routes
    assert t == 40.0
    assert f.path_time(plus) == 40.0 and f.path_time(pp) == 40.0
    tight = _tight_edges(dag)
    for route in (plus, pp):
        for a, b in zip(route.vertices, route.vertices[1:]):
            assert (a, b) in tight
    zspec = DistributionSpec(atoms=((0.0, 0.5), (1.0, 0.5)))
    zpat = two_route_pattern_zero_atom(1, 1, zspec)
    zf = sample_conditioned(zpat.region, zspec, zpat.event, 0)
    res = exact_optimal_set(zpat.u_end, zpat.v_end, zpat.region, zf)
    assert res.optimum == 0.0 and len(res.paths) == 2
    report(4, True, "20x10 pattern: optimum 40 with both routes tight; zero-atom variant has exactly 2 optima")


def test_criterion_05_shift_concavity_properties():
    spec = DistributionSpec(uniforms=((1.8, 2.2, 0.5), (2.8, 3.2, 0.5)))
    pat, delta = shift_concavity_search_delta(2, 1, 2.0, 3.0, spec, seed=4, delta0=0.2)
    held = 0
    for seed in range(50):
        f = sample_conditioned(pat.region, spec, pat.event, 10_000 + seed)
        p1, p2 = shift_concavity_properties(pat, f)
        if p1 and p2:
            held += 1
    report(5, held == 50, f"P1 and P2 held on {held}/50 conditioned samples (delta={delta})")


def test_criterion_06_deficiency_decay():
    rows = run_deficiency(ATOMS12, heavy_edge_pattern(2.0), [8, 12, 16, 28], 500, seed=2026)
    s = summarize_deficiency(rows)
    p = s["p_zero"]
    decreasing = all(p[a] > p[b] for a, b in zip([8, 12, 16], [12, 16, 28]))
    ok = decreasing and p[28] < 0.05 and (s["log_slope"] is None or s["log_slope"] < 0)
    report(6, ok, f"P(min N = 0) = {p}, log slope {s['log_slope']}")


def test_criterion_07_gap_growth():
    rows = run_gap(ATOMS12, 4, 2, 1.0, 2.0, [20, 30, 40, 50], 200, seed=7)
    s = summarize_gap(rows)
    med = s["median_gap"]
    nondecreasing = all(med[a] <= med[b] for a, b in zip([20, 30, 40], [30, 40, 50]))
    positive = med[30] > 0 and med[40] > 0 and med[50] > 0
    assert all(r["approx"] == 0 for r in rows)
    report(7, nondecreasing and positive, f"median gap {med}")


def test_criterion_08_shift_bound():
    rows = run_shift_concavity(ATOMS12, [0.1, 0.5, 0.9], [30], 300, seed=8)
    holds = sum(r["holds"] for r in rows)
    report(8, holds == len(rows), f"t^(-b) <= t - b Lmax held in {holds}/{len(rows)} realizations")


def test_criterion_09_modification_demo():
    insts, summary = run_modification_demo_unbounded(
        UNB, heavy_edge_pattern(8.0), instances=20, seed=11
    )
    ok = (
        summary["instances"] >= 20
        and summary["all_clauses_passed"]
        and summary["total_clause_failures"] == 0
    )
    report(9, ok, f"{summary['instances']} verified instances, "
                  f"{summary['total_clause_failures']} clause failures, "
                  f"acceptance rate {summary['acceptance_rate']:.2f}")


def test_criterion_10_invariant_suites():
    rng = random.Random(10)
    # cut_loops: idempotence, endpoints, passage-time monotonicity
    for _ in range(200):
        vs = [(0, 0)]
        for _ in range(30):
            vs.append(rng.choice(neighbors(vs[-1])))
        walk = LatticePath(vs)
        cut = cut_loops(walk)
        assert cut.is_self_avoiding() and cut_loops(cut) == cut
        assert (cut.start, cut.end) == (walk.start, walk.end)
        box = ProductBox((-35, -35), (35, 35))
        f = sample_field(box, ATOMS12, rng.randrange(2**32))
        assert f.path_time(cut) <= f.path_time(walk) + 1e-9

    # M-sequence and meta-cube invariants on 1000 geodesics
    N, r, r1, r3 = 2, 14, 2, 4
    region = ProductBox((-6, -6), (120, 30))
    graph = RegionGraph(region)
    for seed in range(1000):
        f = graph.field_from(graph.sample_weights(ATOMS12, seed))
        g = first_lex_geodesic((0, 0), (100, 12), f, graph=graph)
        marks: dict = {}

        def is_typical(s):
            if s not in marks:
                marks[s] = rng.random() < 0.7
            return marks[s]

        seq = m_sequence(g, N, r, r1, r3, is_typical)
        annuli = seq.annuli
        assert all(x < y for x, y in zip(annuli, annuli[1:]))
        last_k = -1
        for a, s, k in seq.entries:
            assert marks[s]
            assert box_in_annulus(s, N, r3, r) == a
            exit_idx = next((i for i, z in enumerate(g.vertices) if l1(z) == a * r * N), None)
            assert exit_idx is None or k < exit_idx
            assert k >= last_k
            last_k = k
        for NN in (2, 4):
            assert meta_cube_animal(g, NN).inequality_holds

    # translation covariance of the pattern condition on 500 instances
    pat = heavy_edge_pattern(2.0)
    small = ProductBox((-6, -6), (12, 8))
    sg = RegionGraph(small)
    checked = 0
    for seed in range(100):
        f = sg.field_from(sg.sample_weights(ATOMS12, seed))
        g = first_lex_geodesic((0, 0), (6, 2), f, graph=sg)
        for _ in range(5):
            x = (rng.randint(-3, 3), rng.randint(-3, 3))
            lhs = condition_holds(x, g, pat, f)
            rhs = condition_holds((0, 0), translate(g, x), pat, f.translate(x))
            assert (lhs is None) == (rhs is None)
            checked += 1
    report(10, True, f"cut_loops x200, M-sequence + meta-cube x1000, covariance x{checked}")


def test_criterion_11_typicality_locality():
    # unbounded regime: resample outside B3
    pat = heavy_edge_pattern(2.0)
    cs = derive_constants("unbounded", ATOMS12, pat, delta=0.25, c_mu=1.0, C_mu=1.6)
    box = BoxScale((0, 0), 2, (2, 4, 8), "unbounded")
    world = L1Ball((0, 0), 24)
    wg = RegionGraph(world)
    outside3 = [e for e in region_edges(world) if not box.outer.contains_edge(e)]
    n_b2 = len(region_edges(box.ball(2)))
    flips = 0
    for seed in range(50):
        f = wg.field_from(wg.sample_weights(ATOMS12, seed))
        rep = typicality_unbounded(box, f, cs, r23=9.0, nu_N=1.45 * n_b2, pair_sample=12)
        f2 = splice(f, wg.field_from(wg.sample_weights(ATOMS12, seed + 5_000)), outside3)
        rep2 = typicality_unbounded(box, f2, cs, r23=9.0, nu_N=1.45 * n_b2, pair_sample=12)
        flips += [c.passed for c in rep.clauses] != [c.passed for c in rep2.clauses]
    # bounded regime: resample outside B4
    csb = derive_constants("bounded", ATOMS12, atom_square_pattern(1.0), delta=0.3,
                           alpha=0.05, c_mu=1.0, C_mu=1.6)
    csb = replace(csb, epsilon=0.45)
    boxb = BoxScale((0, 0), 2, (2, 3, 4, 6), "bounded")
    outside4 = [e for e in region_edges(world) if not boxb.outer.contains_edge(e)]
    mu = exact_norm_oracle(1.5)
    for seed in range(50):
        f = wg.field_from(wg.sample_weights(ATOMS12, seed))
        rep = typicality_bounded(boxb, f, csb, mu, pair_sample=8)
        f2 = splice(f, wg.field_from(wg.sample_weights(ATOMS12, seed + 5_000)), outside4)
        rep2 = typicality_bounded(boxb, f2, csb, mu, pair_sample=8)
        flips += [c.passed for c in rep.clauses] != [c.passed for c in rep2.clauses]
    report(11, flips == 0, f"verdict flips across 100 boxes: {flips}")


def test_criterion_12_orientation():
    spec = DistributionSpec(atoms=((1.0, 1 / 3), (2.0, 1 / 3)), uniforms=((1.2, 1.8, 1 / 3),))
    base = atom_square_pattern(1.0)
    op = orient_pattern(base, 0, spec, nu=2.0, nu0=1.5, delta_p=0.25 / 3)
    graph = RegionGraph(op.pattern.region)
    from fppkit.fields import edge_times_for

    held = 0
    for seed in range(50):
        # conditioned sampling via the grouped-interval fast path
        times = edge_times_for(graph.edges, spec, 700 + seed, op.pattern.event)
        f = graph.field_from(times, seed=700 + seed)
        gs = enumerate_geodesics(
            op.pattern.u_end, op.pattern.v_end, f, cap=64, graph=graph
        )
        assert not gs.truncated and gs.paths
        if all(condition_holds((0, 0), g, base, f) is not None for g in gs.paths):
            held += 1
    report(12, held == 50,
           f"inner pole-to-pole optima crossed the base pattern in {held}/50 samples "
           f"(l0={op.l0}, l1={op.l1_const})")
