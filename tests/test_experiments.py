from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fppkit import experiments
from fppkit.distributions import DistributionSpec
from fppkit.experiments import (
    calibrate_alpha,
    calibrate_delta,
    run_deficiency,
    run_gap,
    run_large_edges,
    run_shape,
    run_shift_concavity,
    run_typical_rate,
    segment_region,
    summarize_deficiency,
)
from fppkit.geodesics import GeodesicDag, RegionGraph, first_lex_geodesic
from fppkit.oracle import exact_optimal_set, oracle_pattern_count
from fppkit.patterns import atom_square_pattern, heavy_edge_pattern, count_occurrences
from fppkit.renormalization import derive_constants
from fppkit.tolerance import at_least

ATOMS12 = DistributionSpec(atoms=((1.0, 0.5), (2.0, 0.5)))
DELTA2 = DistributionSpec(atoms=((2.0, 1.0),))


def test_deficiency_constant_field_every_edge_hits():
    # delta_a spec with the event "edge >= a": every unit step of every
    # geodesic along e1 qualifies, so min N = n
    pat = heavy_edge_pattern(2.0)
    rows = run_deficiency(DELTA2, pat, [6], 5, seed=0)
    assert all(r["min_count"] == 6 for r in rows)


def test_deficiency_zero_probability_pattern():
    pat = heavy_edge_pattern(5.0)  # above the support of atoms {1, 2}
    rows = run_deficiency(ATOMS12, pat, [6], 10, seed=0)
    assert all(r["min_count"] == 0 for r in rows)
    summary = summarize_deficiency(rows)
    assert summary["p_zero"][6] == 1.0


def test_deficiency_reproducible():
    pat = heavy_edge_pattern(2.0)
    rows1 = run_deficiency(ATOMS12, pat, [8], 10, seed=42)
    rows2 = run_deficiency(ATOMS12, pat, [8], 10, seed=42)
    assert rows1 == rows2


def test_large_edges_consistency_with_pattern_counts():
    # N^av counts heavy e1-steps, heavy count includes every direction:
    # min-over-geodesics heavy >= ... per-path inequality, with equality on
    # monotone e1-geodesics
    rows_a = run_large_edges(ATOMS12, 2.0, [10], 40, seed=3)
    pat = heavy_edge_pattern(2.0)
    region = segment_region((10, 0), 6)
    graph = RegionGraph(region)
    for r in rows_a:
        w = graph.sample_weights(ATOMS12, r["seed"])
        f = graph.field_from(w)
        g = first_lex_geodesic((0, 0), (10, 0), f, graph=graph)
        heavy = sum(1 for e in g.edges() if f.time(e) >= 2.0)
        assert count_occurrences(g, pat, f) <= heavy
        if len(g) == 10:  # monotone along e1: definitional identity
            assert count_occurrences(g, pat, f) == heavy


def test_large_edges_level_below_rho():
    rows = run_large_edges(ATOMS12, 1.0, [8], 10, seed=1)
    for r in rows:
        assert r["min_count"] >= 8  # every edge is heavy, ratio >= 1
    with pytest.raises(ValueError):
        run_large_edges(ATOMS12, 5.0, [8], 2, seed=1)


def test_gap_gates():
    with pytest.raises(ValueError):
        run_gap(ATOMS12, 4, 2, 1.0, 3.0, [10], 2, seed=0)  # s not an atom
    with pytest.raises(ValueError):
        run_gap(ATOMS12, 3, 2, 1.0, 2.0, [10], 2, seed=0)  # (k+2l) r != k s
    rows = run_gap(ATOMS12, 4, 2, 1.0, 2.0, [10], 5, seed=0)
    assert len(rows) == 5


def test_gap_constant_spec_zero():
    # without the gate: a point mass has gap 0
    rows = run_gap(DELTA2, None, None, None, None, [8], 5, seed=0)
    assert all(r["gap"] == 0 for r in rows)


def test_shift_identity_and_bound():
    rows = run_shift_concavity(ATOMS12, [0.0, 0.3], [10], 20, seed=5)
    for r in rows:
        assert r["holds"]
        if r["b"] == 0.0:
            assert r["t_shift"] == pytest.approx(r["t"])
    with pytest.raises(ValueError):
        run_shift_concavity(ATOMS12, [1.0], [10], 2, seed=5)  # b = rho


def test_shape_deterministic_and_subadditive():
    rows, est = run_shape(DELTA2, [(1, 0), (0, 1), (1, 1)], [4, 8], 4, seed=2)
    for r in rows:
        assert r["mu_hat"] == pytest.approx(2.0 * (2 if r["direction"] == "(1, 1)" else 1))
    rows2, est2 = run_shape(ATOMS12, [(1, 0), (0, 1), (1, 1)], [8], 60, seed=2)
    mu = {r["direction"]: r["mu_hat"] for r in rows2}
    assert mu["(1, 1)"] <= mu["(1, 0)"] + mu["(0, 1)"] + 0.05  # subadditivity
    assert est2.c_mu <= est2.C_mu


def test_typical_rate_unbounded_clause_columns():
    from dataclasses import replace

    pat = heavy_edge_pattern(2.0)
    cs = derive_constants("unbounded", ATOMS12, pat, delta=0.25, c_mu=1.0, C_mu=1.6)
    cs = replace(cs, r23=9.0, nu_of_N={2: 10_000.0})
    rows = run_typical_rate(ATOMS12, cs, [2], 12, seed=1, radii=(2, 4, 8), pair_sample=8)
    assert len(rows) == 12
    for r in rows:
        assert r["typical"] == (r["clause1"] and r["clause2"] and r["clause3"])


def test_typical_rate_bounded_exact_mu_clause3():
    from dataclasses import replace
    from fppkit.geodesics import exact_norm_oracle

    pat = heavy_edge_pattern(2.0)
    cs = derive_constants("bounded", DELTA2, pat, delta=0.3, alpha=0.02, c_mu=1.0, C_mu=1.6)
    cs = replace(cs, epsilon=0.05)
    rows = run_typical_rate(
        DELTA2, cs, [2], 6, seed=1, radii=(2, 3, 4, 6),
        mu_oracle=exact_norm_oracle(2.0), pair_sample=6,
    )
    assert all(r["clause3"] == 1 for r in rows)  # exact mu, any epsilon


def test_calibration_values_positive():
    delta = calibrate_delta(ATOMS12, seed=3, trials=60)
    assert 0 < delta < 1.0
    alpha = calibrate_alpha(ATOMS12, delta, seed=3, trials=60)
    assert 0 < alpha <= 1.0


def test_summaries_recomputable_from_rows():
    pat = heavy_edge_pattern(2.0)
    rows = run_deficiency(ATOMS12, pat, [8, 10], 30, seed=9)
    s1 = summarize_deficiency(rows)
    s2 = summarize_deficiency(list(reversed(rows)))  # order independent
    assert s1 == s2


def test_shift_planted_pattern_extra_improvement():
    # a planted shift-concavity block on the unique geodesic buys at least
    # b beyond the generic per-realization bound (the detour swap)
    from fppkit.fields import sample_conditioned
    from fppkit.geodesics import (
        dijkstra as _dij,
        enumerate_geodesics,
        extreme_length_geodesics,
        restricted_geodesic_time,
    )
    from fppkit.lattice import ProductBox, vneg
    from fppkit.oracle import region_edges
    from fppkit.patterns import condition_holds, shift_concavity_pattern

    spec = DistributionSpec(uniforms=((1.95, 2.05, 0.5), (2.95, 3.05, 0.5)))
    pat = shift_concavity_pattern(4, 2, 2.0, 3.0, 0.05)
    x0 = (6, 0)
    region = ProductBox((-2, -2), (32, 18))
    event = pat.event.translate(vneg(x0))
    support = set(event.constraints)
    b = 1.8  # the swap needs (k+2l)(r+d) < k(s-d) + (2l-1) b, and b < rho
    for seed in range(5):
        f = sample_conditioned(region, spec, event, seed)
        f = f.replaced(
            {
                e: (2.0 if e[0][1] == 7 and e[1][1] == 7 else 10.0)
                for e in region_edges(region)
                if e not in support
            }
        )
        x, y = (0, 7), (30, 7)
        t, _ = restricted_geodesic_time(x, y, f)
        gs = enumerate_geodesics(x, y, f)
        assert len(gs.paths) == 1
        assert condition_holds(x0, gs.paths[0], pat, f) is not None
        ext = extreme_length_geodesics(x, y, f)
        graph = RegionGraph(region)
        w = graph.weights_of(f)
        tb = _dij(graph, w - b, graph.vindex[x])[graph.vindex[y]]
        assert tb <= t - b * ext.lmax - b + 1e-9


def test_large_edges_zero_probability_decays():
    # P(some geodesic carries no heavy edge at all) falls with distance
    rows = run_large_edges(ATOMS12, 2.0, [2, 4, 6, 10], 400, seed=4)
    by_n = {}
    for r in rows:
        by_n.setdefault(r["n"], []).append(r["min_count"] == 0)
    p = {n: sum(v) / len(v) for n, v in by_n.items()}
    assert p[2] > p[4] > p[6] > p[10]


# the zero atoms give zero-weight tight cycles, where rows take n_geodesics
# from the enumeration; the oracle needs strips one vertex wide around the
# segment, so these tests patch the segment pad to 1
ROW_LAWS = (
    ATOMS12,
    DistributionSpec(atoms=((0.0, 0.3), (1.0, 0.4), (2.0, 0.3))),
    DistributionSpec(atoms=((0.0, 0.2),), uniforms=((1.0, 2.5, 0.8),)),
)


def _narrow():
    return mock.patch.object(experiments, "segment_pad", lambda n: 1)


def _assert_rows_exact(rows, spec, count):
    """Each row's min_count and n_geodesics are the min of count and the
    number of paths over the oracle's complete optimal set."""
    assert rows
    for r in rows:
        region = segment_region((r["n"], 0), 1)
        graph = RegionGraph(region)
        f = graph.field_from(graph.sample_weights(spec, r["seed"]))
        truth = exact_optimal_set((0, 0), (r["n"], 0), region, f)
        want = (min(count(g, f) for g in truth.paths), 0, len(truth.paths))
        assert (r["min_count"], r["truncated"], r["n_geodesics"]) == want


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(ROW_LAWS), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_deficiency_rows_are_exact_over_every_geodesic(spec, n, seed):
    pat = heavy_edge_pattern(2.0)
    with _narrow():
        rows = run_deficiency(spec, pat, [n], 3, seed=seed)
    _assert_rows_exact(rows, spec, lambda g, f: oracle_pattern_count(g, pat, f))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(ROW_LAWS), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_large_edges_rows_are_exact_over_every_geodesic(spec, n, seed):
    with _narrow():
        rows = run_large_edges(spec, 2.0, [n], 3, seed=seed)
    _assert_rows_exact(rows, spec, lambda g, f: sum(bool(at_least(f.time(e), 2.0)) for e in g.edges()))


def test_multi_edge_pattern_rows_come_from_the_enumeration(monkeypatch):
    def refuse(*args):
        raise AssertionError("a multi-edge pattern reached the one-edge search")

    monkeypatch.setattr(GeodesicDag, "min_cost", refuse)
    monkeypatch.setattr(GeodesicDag, "count", refuse)
    pat = atom_square_pattern(1.0)
    with _narrow():
        rows = run_deficiency(ATOMS12, pat, [2, 4], 6, seed=8)
    _assert_rows_exact(rows, ATOMS12, lambda g, f: oracle_pattern_count(g, pat, f))
