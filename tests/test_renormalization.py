import math
import random
from dataclasses import replace
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppkit.distributions import DistributionSpec
from fppkit.fields import constant_field, sample_field, splice
from fppkit.geodesics import GeodesicDag, RegionGraph, dijkstra, exact_norm_oracle, first_lex_geodesic
from fppkit.lattice import L1Ball, LatticePath, ProductBox, direction_order, l1, monotone_path, vadd, vscale
from fppkit.oracle import estimate_nu_per_trial, heap_dijkstra, region_edges
from fppkit.patterns import heavy_edge_pattern, atom_square_pattern
from fppkit.renormalization import (
    BoxScale,
    box_in_annulus,
    crosses,
    derive_constants,
    m_sequence,
    meta_cube_animal,
    nu_level,
    successful_box_check,
    typicality_bounded,
    typicality_unbounded,
)
from fppkit.renormalization import _pair_sources, _witness_path
from fppkit.rng import _mix64_int, derive_seed
from fppkit.tolerance import at_least, le, lt

ATOMS12 = DistributionSpec(atoms=((1.0, 0.5), (2.0, 0.5)))


def test_box_scale_validation():
    box = BoxScale((1, 0), 2, (2, 4, 8))
    assert box.center == (2, 0)
    assert box.ball(1).radius == 4
    with pytest.raises(ValueError):
        BoxScale((0, 0), 2, (4, 2, 8))
    with pytest.raises(ValueError):
        BoxScale((0, 0), 2, (2, 4, 8), "bounded")  # needs 4 radii


def test_crossing_predicates():
    box = BoxScale((0, 0), 2, (2, 4, 8))
    through_center = monotone_path((-1, 0), (1, 0))
    assert crosses(through_center, box)
    # touches the B2 shell only (radius r2 N = 8)
    rim = LatticePath([(8, 0), (8, 1), (8, 2)])
    assert not crosses(rim, box)
    rng = random.Random(0)
    from fppkit.lattice import neighbors

    for _ in range(1000):
        vs = [(rng.randint(-9, 9), rng.randint(-9, 9))]
        for _ in range(8):
            vs.append(rng.choice(neighbors(vs[-1])))
        # crossing means visiting B1, the l1 ball of radius r1 N = 4
        assert crosses(LatticePath(vs), box) == any(l1(v) <= 4 for v in vs)


def test_derive_constants_unbounded_inequalities():
    spec = DistributionSpec(atoms=((1.0, 0.5),), exp_tails=((1.0, 1.0, 0.5),))
    pat = heavy_edge_pattern(3.0)
    from fppkit.patterns import enlarge_to_cube

    cube = enlarge_to_cube(pat, m_cap=4.0)
    cs = derive_constants("unbounded", spec, cube, delta=0.5, c_mu=1.0, C_mu=2.0, N_list=(1, 3))
    assert cs.r1 == 2
    for N, nu in cs.nu_of_N.items():
        assert nu == max(nu_level(spec, L1Ball((0, 0), cs.r2 * N).edge_count()), cs.m_pattern + 1.0)
    for name, ok in cs.verify():
        assert ok, name
    assert cs.r_annulus == 2 * (cs.r1 + cs.r3 + 1)


def test_derive_constants_bounded_inequalities():
    # spec example: rho=1, t_max=2, delta=0.3, alpha=0.05, c_mu=1, C_mu=2
    pat = atom_square_pattern(1.0)
    cs = derive_constants("bounded", ATOMS12, pat, delta=0.3, alpha=0.05, c_mu=1.0, C_mu=2.0)
    assert cs.r1 == 2
    for name, ok in cs.verify():
        assert ok, name
    assert cs.r_annulus == 2 * (cs.r1 + cs.r4 + 1)
    assert cs.delta_prime == pytest.approx(min(0.3 / 4, 0.3 / 3))


def _unbounded_constants_for_tests():
    spec = ATOMS12
    pat = heavy_edge_pattern(2.0)
    from dataclasses import replace

    cs = derive_constants("unbounded", spec, pat, delta=0.25, c_mu=1.0, C_mu=1.6)
    return replace(cs, nu_of_N={2: 200.0})


def test_typicality_unbounded_clauses():
    cs = _unbounded_constants_for_tests()
    box = BoxScale((0, 0), 2, (2, 4, 16))
    # constant field a = 1.3 >= rho + delta: clause (ii) passes everywhere
    f = constant_field(box.outer, 1.3)
    rep = typicality_unbounded(box, f, cs, r23=11.0, nu_N=1e9, pair_sample=25)
    clause2 = rep.clauses[1]
    assert clause2.passed
    # plant a zero-cost corridor across B3: clause (ii) fails with a witness
    cheap = {e: 0.01 for e in region_edges(box.outer) if e[0][1] == 0 and e[1][1] == 0}
    f2 = f.replaced(cheap)
    rep2 = typicality_unbounded(box, f2, cs, r23=11.0, nu_N=1e9, pair_sample=None)
    assert not rep2.clauses[1].passed
    assert "pair" in rep2.clauses[1].witness


def test_typicality_unbounded_clause3_sum():
    cs = _unbounded_constants_for_tests()
    box = BoxScale((0, 0), 2, (2, 4, 16))
    f = constant_field(box.outer, 1.3)
    n_edges = len(region_edges(box.ball(2)))
    rep_hi = typicality_unbounded(box, f, cs, r23=11.0, nu_N=1.3 * n_edges + 1, pair_sample=10)
    assert rep_hi.clauses[2].passed
    rep_lo = typicality_unbounded(box, f, cs, r23=11.0, nu_N=1.3 * n_edges - 1, pair_sample=10)
    assert not rep_lo.clauses[2].passed


def test_typicality_locality_unbounded():
    # resampling outside B3 never changes the verdict
    cs = _unbounded_constants_for_tests()
    box = BoxScale((0, 0), 2, (2, 4, 8))
    world = L1Ball((0, 0), 24)
    n_edges = len(region_edges(box.ball(2)))
    nu_N = 1.45 * n_edges
    for seed in range(50):
        f = sample_field(world, ATOMS12, seed)
        rep = typicality_unbounded(box, f, cs, r23=9.0, nu_N=nu_N, pair_sample=12)
        outside = [e for e in region_edges(world) if not box.outer.contains_edge(e)]
        f2 = splice(f, sample_field(world, ATOMS12, seed + 10_000), outside)
        rep2 = typicality_unbounded(box, f2, cs, r23=9.0, nu_N=nu_N, pair_sample=12)
        assert rep.typical == rep2.typical
        assert [c.passed for c in rep.clauses] == [c.passed for c in rep2.clauses]


def _bounded_constants_small():
    from dataclasses import replace

    pat = atom_square_pattern(1.0)
    cs = derive_constants("bounded", ATOMS12, pat, delta=0.3, alpha=0.05, c_mu=1.0, C_mu=1.6)
    return replace(cs, epsilon=0.45)  # relaxed for desk-scale boxes


def test_typicality_bounded_clauses_and_locality():
    cs = _bounded_constants_small()
    box = BoxScale((0, 0), 2, (2, 3, 4, 6), "bounded")
    world = L1Ball((0, 0), 20)
    mu = exact_norm_oracle(1.5)  # near the atoms-1,2 rate
    # delta_a field: clause (iii) with exact mu holds for any epsilon >= 0
    f_const = constant_field(world, 1.5)
    rep = typicality_bounded(box, f_const, cs, exact_norm_oracle(1.5), pair_sample=10)
    assert rep.clauses[2].passed
    with pytest.raises(ValueError, match="mu oracle"):
        typicality_bounded(box, f_const, cs, None)
    # clause (i) fails on a corridor of light edges across B3
    cheap = {
        e: 1.0
        for e in region_edges(box.outer)
        if e[0][1] == 0 and e[1][1] == 0
    }
    f_cheap = f_const.replaced(cheap)
    rep_cheap = typicality_bounded(box, f_cheap, cs, mu, pair_sample=None)
    assert not rep_cheap.clauses[0].passed
    # locality: resample outside B4
    for seed in range(50):
        f = sample_field(world, ATOMS12, seed)
        r1 = typicality_bounded(box, f, cs, mu, pair_sample=8)
        outside = [e for e in region_edges(world) if not box.outer.contains_edge(e)]
        f2 = splice(f, sample_field(world, ATOMS12, seed + 99), outside)
        r2 = typicality_bounded(box, f2, cs, mu, pair_sample=8)
        assert [c.passed for c in r1.clauses] == [c.passed for c in r2.clauses]


def _bounded_reference(box, f, cs, mu, pair_sample):
    """The per-pair loop behind typicality_bounded: the witness of each clause
    ("" when it holds) at the first failing (source, target) pair.  Labels
    come from one single-source search per source, heavy minima from the
    oracle's heapq loop over each source's tight arcs."""
    graph = RegionGraph(box.outer)
    w, b3, N, eps = graph.weights_of(f), box.ball(3), box.N, cs.epsilon
    heavy, threshold = at_least(w, cs.rho + cs.delta), cs.rho + cs.delta
    wit = ["", "", ""]
    for i in _pair_sources(graph, pair_sample, derive_seed(1, "pairs", *box.s, N)).tolist():
        dist, vi = dijkstra(graph, w, i), graph.vertices[i]
        dag = GeodesicDag(graph, w, vi, dist)
        hmin = {}
        if b3.contains(vi):  # the labels of the reachable targets, as ints
            children = {u: [] for u in range(graph.n)}
            for v, into in enumerate(dag.parents):
                for u, e in into:
                    children[u].append((v, int(heavy[e])))
            hmin = heap_dijkstra(children, i)
        for j, vj in enumerate(graph.vertices):
            sep = l1(vi, vj)
            if sep < N:
                continue
            if not wit[1] and lt(dist[j], threshold * sep):
                wit[1] = f"pair {vi}->{vj}: t={dist[j]:.6g} < {threshold * sep:.6g}; " + _witness_path(dag, j)
            if b3.contains(vi) and b3.contains(vj):
                m = mu(tuple(a - b for a, b in zip(vi, vj)))
                if not wit[2] and not (le((1 - eps) * m - N, dist[j]) and le(dist[j], (1 + eps) * m + N)):
                    wit[2] = f"pair {vi}->{vj}: t={dist[j]:.6g} vs mu={m:.6g}"
                if not wit[0] and j in hmin and hmin[j] < cs.alpha * sep:
                    wit[0] = f"pair {vi}->{vj}: min heavy {hmin[j]} < {cs.alpha * sep:.6g}"
    return wit


def test_typicality_bounded_matches_the_per_pair_loop():
    box = BoxScale((0, 0), 2, (2, 3, 4, 6), "bounded")
    graph = RegionGraph(box.outer)
    for eps, alpha, rate in ((0.45, 0.05, 1.5), (0.0, 0.5, 1.0), (0.1, 0.01, 3.0)):
        cs = replace(_bounded_constants_small(), epsilon=eps, alpha=alpha)
        for seed in range(3):
            f = graph.field_from(graph.sample_weights(ATOMS12, seed))
            rep = typicality_bounded(box, f, cs, exact_norm_oracle(rate), pair_sample=12)
            want = _bounded_reference(box, f, cs, exact_norm_oracle(rate), 12)
            assert [c.witness for c in rep.clauses] == want
            assert [c.passed for c in rep.clauses] == [not x for x in want]


def test_typicality_bounded_every_source_matches_the_per_pair_loop():
    # every source checked, with a zero atom: each clause fails, and its
    # witness is the first failing pair over all 313 sources
    box = BoxScale((0, 0), 2, (2, 3, 4, 6), "bounded")
    graph = RegionGraph(box.outer)
    law = DistributionSpec(atoms=((0.0, 0.2), (1.0, 0.4), (2.0, 0.4)))
    cs = replace(_bounded_constants_small(), epsilon=0.1, alpha=0.3)
    f = graph.field_from(graph.sample_weights(law, 5))
    rep = typicality_bounded(box, f, cs, exact_norm_oracle(1.2), pair_sample=None)
    want = _bounded_reference(box, f, cs, exact_norm_oracle(1.2), None)
    assert all(want)
    assert [c.witness for c in rep.clauses] == want
    assert not any(c.passed for c in rep.clauses)


@pytest.mark.parametrize("per_batch", [1, 7])
def test_source_batches_do_not_change_the_reports(monkeypatch, per_batch):
    # the same reports with every source in one batch and cut into batches
    # of per_batch sources (the unbounded clause doubles from one source)
    import fppkit.renormalization as renormalization

    law = DistributionSpec(atoms=((0.0, 0.2), (1.0, 0.4), (2.0, 0.4)))
    bbox, ubox = BoxScale((0, 0), 2, (2, 3, 4, 6), "bounded"), BoxScale((0, 0), 2, (1, 2, 6))
    bgraph, ugraph = RegionGraph(bbox.outer), RegionGraph(ubox.outer)
    cs, ucs = replace(_bounded_constants_small(), epsilon=0.1, alpha=0.3), _unbounded_constants_for_tests()
    texts = []
    for batch_labels in (renormalization.BATCH_LABELS, per_batch * bgraph.n):
        monkeypatch.setattr(renormalization, "BATCH_LABELS", batch_labels)
        reports = []
        for seed in range(4):
            f = bgraph.field_from(bgraph.sample_weights(law, seed))
            for ps in (None, 9):
                reports.append(typicality_bounded(bbox, f, cs, exact_norm_oracle(1.2), pair_sample=ps))
            g = ugraph.field_from(ugraph.sample_weights(ATOMS12, seed))
            for delta in (0.0, 0.25):  # clause (ii) holds, fails
                reports.append(typicality_unbounded(ubox, g, replace(ucs, delta=delta), r23=4.2, nu_N=1e9))
        texts.append([rep.to_text() for rep in reports])
    assert texts[0] == texts[1]
    assert any("FAIL] (i) heavy" in t for t in texts[0]) and any("pass] (ii)" in t for t in texts[0])


def test_source_batches_cover_every_source_once(monkeypatch):
    import fppkit.renormalization as renormalization

    graph = RegionGraph(L1Ball((0, 0), 6))
    w = graph.sample_weights(ATOMS12, 3)
    monkeypatch.setattr(renormalization, "BATCH_LABELS", 5 * graph.n)  # at most 5 sources per batch
    for sources, first, sizes in (
        (_pair_sources(graph, None, 0), None, [5] * 17),
        (_pair_sources(graph, None, 0), 1, [1, 2, 4] + [5] * 15 + [3]),
        (_pair_sources(graph, 13, 4), 1, [1, 2, 4, 5, 1]),
    ):
        batches = list(renormalization._source_batches(graph, w, sources, first))
        assert [len(b) for b, _, _ in batches] == sizes
        assert np.array_equal(np.concatenate([b for b, _, _ in batches]), sources)
        for batch, labels, disp in batches:
            assert np.array_equal(labels, dijkstra(graph, w, batch))
            assert np.array_equal(disp, graph.coords[batch][:, None, :] - graph.coords[None, :, :])


def test_bad_typicality_settings_fail_loudly():
    graph = RegionGraph(L1Ball((0, 0), 3))
    for bad in (0, -2):
        with pytest.raises(ValueError, match="pair_sample"):
            _pair_sources(graph, bad, 1)
    assert _pair_sources(graph, 1, 1).tolist() in [[i] for i in range(graph.n)]
    box = BoxScale((0, 0), 1, (1, 2, 3, 4), "bounded")
    f = constant_field(box.outer, 1.5)
    cs = _bounded_constants_small()
    for unset in (dict(alpha=None), dict(epsilon=None)):
        with pytest.raises(ValueError, match="alpha and constants.epsilon"):
            typicality_bounded(box, f, replace(cs, **unset), exact_norm_oracle(1.5))
    with pytest.raises(ValueError, match="pair_sample"):
        typicality_bounded(box, f, cs, exact_norm_oracle(1.5), pair_sample=0)
    with pytest.raises(ValueError, match="mu oracle maps"):  # a scalar-only oracle
        typicality_bounded(box, f, cs, lambda y: 1.5 * l1(y))


def test_estimate_nu_quantile():
    nu = estimate_nu_per_trial(ATOMS12, 100, seed=4, trials=300)
    assert 100.0 <= nu <= 200.0  # between all-1 and all-2 sums


NU_LAWS = {
    "atoms": ATOMS12,
    "atom+exp": DistributionSpec(atoms=((1.0, 0.05),), exp_tails=((3.0, 0.5, 0.95),)),
    "atoms+uniform": DistributionSpec(atoms=((0.0, 0.2), (1.0, 0.3)), uniforms=((1.0, 2.0, 0.5),)),
}


def _nu_totals_on_python_ints(spec, n_edges, seed, trials):
    """The sums estimate_nu_per_trial draws, with each uniform hashed on
    Python ints: edge i of trial k takes mix(mix(seed_k ^ i) ^ salt)."""
    totals = []
    for k in range(trials):
        base = derive_seed(seed, "nu", k)
        words = (_mix64_int(_mix64_int(base ^ i) ^ 0xA5A5A5A5A5A5A5A5) for i in range(n_edges))
        u = np.array([((h >> 11) + 0.5) * 2.0**-53 for h in words])
        totals.append(spec.ppf(u).sum())
    return np.array(totals)


@pytest.mark.parametrize("n_edges", [1, 7, 2304, 16385, 49157])
@pytest.mark.parametrize("law", NU_LAWS)
def test_estimate_nu_equals_the_per_trial_reference(law, n_edges):
    # the one Monte Carlo estimator of nu(N), on numpy uint64 arrays, against
    # the same draws hashed word by word; n_edges spans one to 3 * 2^14 + 5
    spec = NU_LAWS[law]
    seed = derive_seed(16, law, n_edges)
    totals = _nu_totals_on_python_ints(spec, n_edges, seed, 3)
    for trials, q in product((1, 3), (0.5, 0.99)):
        assert estimate_nu_per_trial(spec, n_edges, seed, trials, q) == float(np.quantile(totals[:trials], q))


@pytest.mark.parametrize("n_edges", [1, 7, 2304])
@pytest.mark.parametrize("law", NU_LAWS)
def test_nu_level_bounds_the_per_trial_estimate(law, n_edges):
    # the Monte Carlo 0.99-quantile of 400 sums lies below the certified level
    spec = NU_LAWS[law]
    assert estimate_nu_per_trial(spec, n_edges, derive_seed(20, law, n_edges)) <= nu_level(spec, n_edges)


@pytest.mark.parametrize("n", [1, 2, 5, 20, 60])
def test_nu_level_bounds_the_exact_binomial_tail(n):
    # atoms {1, 2}: S = n + Binomial(n, 1/2), so P(S >= nu) is a finite sum
    nu = nu_level(ATOMS12, n)
    tail = sum(math.comb(n, k) for k in range(n + 1) if n + k >= nu) / 2**n
    assert tail <= 0.01
    # Hoeffding's level bounds the same MGF less tightly
    assert n * 1.5 < nu <= min(1.5 * n + math.sqrt(n * math.log(100) / 2), math.nextafter(2.0 * n, math.inf))


def test_nu_level_closed_form_tail_at_one_edge():
    exp_law = NU_LAWS["atom+exp"]  # P(T >= t) = 0.95 exp(-(t - 3) / 2) for t > 3
    for q in (0.5, 0.9, 0.99, 0.999):
        nu = nu_level(exp_law, 1, q)
        assert nu > 3.0 and 0.95 * math.exp(-0.5 * (nu - 3.0)) <= 1.0 - q
    uniform = DistributionSpec(uniforms=((1.0, 2.0, 1.0),))  # P(T >= t) = 2 - t on [1, 2]
    for q in (0.5, 0.9, 0.99):
        nu = nu_level(uniform, 1, q)
        assert 1.0 < nu and max(0.0, 2.0 - nu) <= 1.0 - q
    # a uniform top piece lets the level sit below t_max
    mixed = nu_level(NU_LAWS["atoms+uniform"], 1)
    assert 1.0 < mixed < 2.0 and 0.5 * (2.0 - mixed) <= 0.01


@pytest.mark.parametrize("a", [0.0, 1.0, 3.0])
def test_nu_level_single_atom_lies_above_the_sum(a):
    spec = DistributionSpec(atoms=((a, 1.0),))
    for n in (1, 7, 2304):
        nu = nu_level(spec, n)
        assert n * a < nu == math.nextafter(n * a, math.inf)


def test_nu_level_on_the_modify_demo_law():
    # figures of the closed form at the demo's B2 and at the derived r2 = 368
    spec = NU_LAWS["atom+exp"]
    assert nu_level(spec, 2304) == pytest.approx(11375.3, abs=0.05)
    assert nu_level(spec, L1Ball((0, 0), 368 * 2).edge_count()) == pytest.approx(10410108, abs=1)
    assert nu_level(spec, 2304, 0.999) > nu_level(spec, 2304) > nu_level(spec, 2304, 0.9)
    for n, q in ((0, 0.99), (5, 0.0), (5, 1.0)):
        with pytest.raises(ValueError):
            nu_level(spec, n, q)


def test_m_sequence_invariants_random_maps():
    # the algorithm's invariants hold for any typicality oracle
    N, r, r1, r3 = 2, 14, 2, 4
    region = ProductBox((-6, -6), (120, 30))
    rng = random.Random(3)
    checked = 0
    for seed in range(150):
        f = sample_field(region, ATOMS12, seed)
        g = first_lex_geodesic((0, 0), (100, 12), f)
        marks = {}

        def is_typical(s):
            if s not in marks:
                marks[s] = rng.random() < 0.7
            return marks[s]

        seq = m_sequence(g, N, r, r1, r3, is_typical)
        annuli = seq.annuli
        assert all(a > 1 for a in annuli)
        assert all(a < b for a, b in zip(annuli, annuli[1:]))  # strictly increasing
        last_k = -1
        for a, s, k in seq.entries:
            assert marks[s]  # typical per the supplied map
            assert box_in_annulus(s, N, r3, r) == a
            # crossing happens before the first exit through the outer sphere
            exit_idx = next(
                (i for i, z in enumerate(g.vertices) if l1(z) == a * r * N), None
            )
            if exit_idx is not None:
                assert k < exit_idx
            assert l1(g.vertices[k], (s[0] * N, s[1] * N)) <= r1 * N
            assert k >= last_k  # boxes crossed in order
            last_k = k
        checked += 1
    assert checked == 150


def _m_sequence_reference(path, N, r, r1, outer_radius, is_typical):
    """The scalar scan m_sequence replaced: every path vertex tested against
    the (2 r1 + 3)^d centres near round(v / N), one l1 call each."""
    d = len(path.vertices[0])
    exit_at = {}
    for k, v in enumerate(path.vertices):
        norm = l1(v)
        if norm > 0 and norm % (r * N) == 0:
            exit_at.setdefault(norm // (r * N), k)
    first_cross = {}
    for k, v in enumerate(path.vertices):
        base = tuple(round(c / N) for c in v)
        for off in product(range(-r1 - 1, r1 + 2), repeat=d):
            s = tuple(b + o for b, o in zip(base, off))
            if s not in first_cross and l1(v, vscale(N, s)) <= r1 * N:
                first_cross[s] = k
    best = {}
    for s, k in sorted(first_cross.items(), key=lambda t: (t[1], t[0])):
        i = box_in_annulus(s, N, outer_radius, r)
        if i is None or (i in exit_at and k >= exit_at[i]) or i in best or not is_typical(s):
            continue
        best[i] = (k, s)
    entries, a_prev = [], 1
    for i in sorted(best):
        if i > a_prev:
            entries.append((i, best[i][1], best[i][0]))
            a_prev = i
    return tuple(entries)


@st.composite
def walks(draw):
    """A random walk from the origin in d = 1..3 (loops allowed)."""
    d = draw(st.integers(1, 3))
    vs = [(0,) * d]
    for step in draw(st.lists(st.sampled_from(direction_order(d)), max_size=80)):
        vs.append(vadd(vs[-1], step))
    return LatticePath(vs)


@settings(max_examples=150, deadline=None)
@given(walks(), st.integers(1, 4), st.integers(1, 4), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2**32))
def test_m_sequence_equals_the_scalar_scan(path, N, r, r1, extra, salt):
    outer = r1 + extra
    calls = ([], [])

    def typical(log):
        return lambda s: log.append(s) or hash((s, salt)) % 3 != 0

    got = m_sequence(path, N, r, r1, outer, typical(calls[0]))
    assert got.entries == _m_sequence_reference(path, N, r, r1, outer, typical(calls[1]))
    assert calls[0] == calls[1]  # the same boxes asked, in the same order


def test_m_sequence_hand_built():
    # one typical box per annulus on a straight geodesic route
    N, r, r1, r3 = 2, 14, 2, 4
    region = ProductBox((-2, -2), (120, 4))
    f = constant_field(region, 1.0)
    g = first_lex_geodesic((0, 0), (110, 0), f)
    # boxes fully inside annuli 2, 3, 4 (outer radius r3 N = 8, width rN = 28)
    centers = {(19, 0), (33, 0), (47, 0)}  # sN = 38, 66, 94

    seq = m_sequence(g, N, r, r1, r3, lambda s: s in centers)
    assert [a for a, _, _ in seq.entries] == [2, 3, 4]
    assert [s for _, s, _ in seq.entries] == [(19, 0), (33, 0), (47, 0)]
    # no typical boxes -> empty sequence
    assert len(m_sequence(g, N, r, r1, r3, lambda s: False)) == 0


def test_meta_cube_animal():
    # path inside one meta-cube
    p = LatticePath([(0, 0), (1, 0)])
    a = meta_cube_animal(p, 4)
    assert a.size == 1 and a.inequality_holds
    # straight run of length 3N along e1: half-open cells give 4 cubes
    N = 4
    p2 = monotone_path((0, 0), (3 * N, 0))
    a2 = meta_cube_animal(p2, N)
    assert a2.size == 4
    assert a2.inequality_holds  # 3N >= N (4/9 - 1)


def test_meta_cube_inequality_on_geodesics():
    region = ProductBox((-4, -4), (40, 20))
    for seed in range(100):
        f = sample_field(region, ATOMS12, seed)
        g = first_lex_geodesic((0, 0), (30, 8), f)
        for N in (2, 4):
            assert meta_cube_animal(g, N).inequality_holds


def test_successful_box_check():
    # box far away from a short geodesic: not successful
    pat = heavy_edge_pattern(2.0)
    box = BoxScale((10, 10), 2, (2, 4, 8))
    region = ProductBox((-2, -2), (6, 6))
    f = constant_field(region, 1.0)
    ok, approx = successful_box_check(box, (1, 0), f, pat, region=region)
    assert not ok and not approx
    # planted heavy edge on the unique geodesic, box around it: successful
    region2 = ProductBox((-2, -2), (8, 2))
    f2 = constant_field(region2, 1.0).replaced({((3, 0), (4, 0)): 2.0})
    # make the straight route the unique geodesic
    bumps = {}
    for e in region_edges(region2):
        if not (e[0][1] == 0 and e[1][1] == 0):
            bumps[e] = 3.0
    f2 = f2.replaced(bumps)
    box2 = BoxScale((2, 0), 2, (2, 4, 8))
    ok2, _ = successful_box_check(box2, (6, 0), f2, pat, region=region2)
    assert ok2


def test_confinement_on_typical_boxes():
    # when the profile clause holds, geodesics between inner-ball points
    # stay inside the outer ball
    cs = _unbounded_constants_for_tests()
    box = BoxScale((0, 0), 2, (1, 2, 16))
    world = box.outer
    from fppkit.geodesics import RegionGraph, enumerate_geodesics

    graph = RegionGraph(world)
    found = 0
    for seed in range(40):
        f = graph.field_from(graph.sample_weights(ATOMS12, seed))
        rep = typicality_unbounded(box, f, cs, r23=4.2, nu_N=1e9, pair_sample=6)
        if not rep.clauses[0].passed:
            continue
        found += 1
        rng = random.Random(seed)
        inner = list(box.ball(2).vertices())
        for _ in range(5):
            a, b = rng.choice(inner), rng.choice(inner)
            if a == b:
                continue
            gs = enumerate_geodesics(a, b, f, cap=32, graph=graph)
            for g in gs.paths:
                assert all(box.outer.contains(z) for z in g.vertices)
        if found >= 5:
            break
    assert found >= 3


def test_witness_path_crosses_zero_weight_ties():
    # (1,0) and (2,0) share distance 1 through a zero edge, so each is a
    # tight parent of the other; the walk back must still reach the source
    from fppkit.geodesics import GeodesicDag, RegionGraph, dijkstra
    from fppkit.renormalization import _witness_path

    region = ProductBox((0, 0), (2, 1))
    f = constant_field(region, 5.0).replaced({((0, 0), (1, 0)): 1.0, ((1, 0), (2, 0)): 0.0})
    graph = RegionGraph(region)
    w = graph.weights_of(f)
    dag = GeodesicDag(graph, w, (0, 0), dijkstra(graph, w, graph.vindex[(0, 0)]))
    assert _witness_path(dag, graph.vindex[(2, 0)]) == "start=(0, 0) dirs=+1,+1"
