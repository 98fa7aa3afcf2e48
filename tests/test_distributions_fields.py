import math

import numpy as np
import pytest
from scipy import stats

from fppkit.distributions import DistributionSpec, usefulness_check
from fppkit.fields import (
    _edge_arrays,
    EdgeConstraintSet,
    constant_field,
    constraint_probability,
    sample_conditioned,
    sample_field,
    splice,
)
from fppkit.lattice import L1Ball, ProductBox
from fppkit.oracle import region_edges
from fppkit.patterns import obstruction_pattern

HALF_HALF_14 = DistributionSpec(atoms=((1.0, 0.5), (4.0, 0.5)))
HALF_HALF_12 = DistributionSpec(atoms=((1.0, 0.5), (2.0, 0.5)))


MGF_LAWS = [
    (HALF_HALF_12, (-1.0, 0.05, 1.0, 5.0, 40.0)),
    (DistributionSpec(uniforms=((0.5, 3.0, 1.0),)), (-2.0, 0.01, 1.0, 20.0)),
    (DistributionSpec(atoms=((0.0, 0.2), (1.0, 0.3)), uniforms=((1.0, 2.0, 0.5),)), (0.3, 35.0)),
    (DistributionSpec(atoms=((1.0, 0.05),), exp_tails=((3.0, 0.5, 0.95),)), (-0.3, 0.05, 0.2, 0.25)),
    (DistributionSpec(atoms=((0.0, 0.1),), uniforms=((0.5, 1.5, 0.4),), exp_tails=((2.0, 2.0, 0.5),)), (0.5, 1.0)),
]


@pytest.mark.parametrize("law", range(len(MGF_LAWS)))
def test_log_mgf_matches_quadrature_over_the_quantile_function(law):
    # E exp(theta T) = int_0^1 exp(theta ppf(u)) du, midpoint rule on
    # u = 1 - v^4, which tames an exponential tail's singularity at u = 1
    spec, thetas = MGF_LAWS[law]
    k = 1 << 20
    v = (np.arange(k) + 0.5) / k
    x, w = spec.ppf(1.0 - v**4), 4.0 * v**3 / k
    for theta in thetas:
        top = theta * x.max()
        quad = top + math.log(float(np.sum(np.exp(theta * x - top) * w)))
        assert spec.log_mgf(theta) == pytest.approx(quad, abs=1e-3), theta
    assert spec.log_mgf(0.0) == pytest.approx(0.0, abs=1e-12)
    rates = [r for _, r, _ in spec.exp_tails]
    if rates:
        assert spec.log_mgf(min(rates)) == math.inf


def test_spec_support():
    assert HALF_HALF_14.rho == 1.0
    assert HALF_HALF_14.t_max == 4.0
    s = DistributionSpec(atoms=((1.0, 0.5),), exp_tails=((2.0, 1.0, 0.5),))
    assert not s.is_bounded and s.rho == 1.0


def test_spec_text_round_trip():
    s = DistributionSpec(atoms=((1.0, 0.25),), uniforms=((0.0, 3.0, 0.5),), exp_tails=((1.0, 2.0, 0.25),))
    assert DistributionSpec.from_text(s.to_text()) == s


def test_ppf_picks_pieces_as_searchsorted_right():
    # a uniform landing exactly on a cumulative-mass cut belongs to the next piece
    spec = DistributionSpec(atoms=((1.0, 0.25), (2.0, 0.25), (3.0, 0.5)))
    q = np.array([[0.0, 0.25, np.nextafter(0.25, 0.0)], [0.5, 0.75, np.nextafter(1.0, 0.0)]])
    assert spec.ppf(q).tolist() == [[1.0, 2.0, 1.0], [3.0, 3.0, 3.0]]
    mixed = DistributionSpec(atoms=((0.0, 0.2),), uniforms=((1.0, 2.0, 0.8),))
    u = np.linspace(0.0, 1.0, 101)[:-1]
    cum = np.array([0.2, 1.0])
    assert np.array_equal(mixed.ppf(u) == 0.0, np.searchsorted(cum, u, side="right") == 0)


def test_sample_field_constant_atom():
    region = ProductBox((0, 0), (3, 3))
    f = sample_field(region, DistributionSpec(atoms=((2.5, 1.0),)), 7)
    assert np.all(f.w == 2.5)


def test_sample_field_deterministic_and_marginals():
    region = L1Ball((0, 0), 40)  # ~6500 edges
    f1 = sample_field(region, HALF_HALF_14, 123)
    f2 = sample_field(region, HALF_HALF_14, 123)
    assert np.array_equal(f1.w, f2.w)
    vals = f1.w
    n = len(vals)
    assert n > 10_000 * 0.6
    freq4 = (vals == 4.0).mean()
    sigma = math.sqrt(0.25 / n)
    assert abs(freq4 - 0.5) < 3 * sigma


def test_sample_field_order_independent_streams():
    # the same edge gets the same value in a sub- and super-region
    small, big = ProductBox((0, 0), (2, 2)), ProductBox((-2, -2), (5, 5))
    fs = sample_field(small, HALF_HALF_14, 9)
    fb = sample_field(big, HALF_HALF_14, 9)
    for e, t in zip(fs.edges(), fs.w):
        assert fb.time(e) == t


def test_shift_field():
    region = ProductBox((0, 0), (2, 2))
    f = sample_field(region, DistributionSpec(atoms=((2.0, 1.0),)), 1)
    assert np.array_equal(f.shift(0.0).w, f.w)
    assert np.all(f.shift(-1.0).w == 1.0)
    with pytest.raises(ValueError):
        f.shift(-2.1)
    with pytest.raises(ValueError):
        f.shift(-2.0)  # weights must stay strictly positive


def test_translate_field_round_trip_and_marked_edge():
    region = ProductBox((0, 0), (4, 4))
    for seed in range(50):
        f = sample_field(region, HALF_HALF_12, seed)
        x = (seed % 3 - 1, seed % 5 - 2)
        g = f.translate(x).translate(tuple(-c for c in x))
        assert g.region == f.region and g.edges() == f.edges() and np.array_equal(g.w, f.w)
    f = constant_field(region, 1.0).replaced({((0, 0), (1, 0)): 9.0})
    moved = f.translate((1, 1))
    assert moved.time(((-1, -1), (0, -1))) == 9.0


def test_sample_conditioned_atom_pin_and_independence():
    region = ProductBox((0, 0), (3, 3))
    e0 = ((0, 0), (0, 1))
    cons = EdgeConstraintSet({e0: (1.0, 1.0)})
    f = sample_conditioned(region, HALF_HALF_14, cons, 5)
    assert f.time(e0) == 1.0
    free = sample_field(region, HALF_HALF_14, 5)
    for e in f.edges():
        if e != e0:
            assert f.time(e) == free.time(e)  # conditioning is per-edge local


def test_sample_conditioned_obstruction():
    pat = obstruction_pattern()
    f = sample_conditioned(pat.region, HALF_HALF_14, pat.event, 42)
    for e in region_edges(pat.region):
        expect = 4.0 if ((0, 2) in e or (0, 1) in e) else 1.0
        assert f.time(e) == expect


def test_conditional_law_ks():
    # conditional of Unif[0,3] on [1,2] is Unif[1,2]
    spec = DistributionSpec(uniforms=((0.0, 3.0, 1.0),))
    region = ProductBox((0, 0), (100, 50))  # ~10^4 edges
    cons = EdgeConstraintSet({e: (1.0, 2.0) for e in region_edges(region)})
    f = sample_conditioned(region, spec, cons, 11)
    vals = f.w
    assert len(vals) >= 10_000
    ks = stats.kstest(vals, stats.uniform(loc=1.0, scale=1.0).cdf)
    assert ks.statistic < 0.05


def test_conditional_deep_exp_tail():
    spec = DistributionSpec(atoms=((1.0, 0.05),), exp_tails=((3.0, 0.5, 0.95),))
    region = ProductBox((0, 0), (3, 3))
    lo = 20_000.0  # mass below double-precision range, law still exact
    cons = EdgeConstraintSet({e: (lo, math.inf) for e in region_edges(region)})
    f = sample_conditioned(region, spec, cons, 3)
    assert np.all(f.w >= lo)


def test_constraint_probability():
    assert constraint_probability(HALF_HALF_14, EdgeConstraintSet({})) == 1.0
    pat = obstruction_pattern()
    assert constraint_probability(HALF_HALF_14, pat.event) == pytest.approx(0.5**10)
    cons = EdgeConstraintSet({((0, 0), (1, 0)): (2.5, 3.0)})
    assert constraint_probability(HALF_HALF_14, cons) == 0.0


def test_constraint_probability_matches_rejection_rate():
    spec = HALF_HALF_12
    e = ((0, 0), (1, 0))
    cons = EdgeConstraintSet({e: (2.0, 2.0)})
    p = constraint_probability(spec, cons)
    region = ProductBox((0, 0), (1, 0))
    hits = sum(
        sample_field(region, spec, k).time(e) == 2.0 for k in range(10_000)
    )
    sigma = math.sqrt(p * (1 - p) / 10_000)
    assert abs(hits / 10_000 - p) < 3 * sigma


def test_usefulness_check():
    # a point mass is never useful
    assert not usefulness_check(DistributionSpec(atoms=((2.0, 1.0),)), p_oriented_c=0.6447).useful
    assert usefulness_check(HALF_HALF_12, p_oriented_c=0.6447).useful
    assert usefulness_check(DistributionSpec(uniforms=((0.0, 1.0, 1.0),))).useful
    with pytest.raises(ValueError):
        usefulness_check(HALF_HALF_12)  # rho > 0 needs the oriented threshold


def test_field_support_bounds():
    region = L1Ball((0, 0), 10)
    for spec in (HALF_HALF_12, DistributionSpec(uniforms=((0.5, 1.5, 1.0),))):
        f = sample_field(region, spec, 77)
        assert f.min_time >= spec.rho - 1e-12
        assert f.w.max() <= spec.t_max + 1e-12


def test_splice_identities():
    region = ProductBox((0, 0), (3, 3))
    base = sample_field(region, HALF_HALF_12, 1)
    donor = sample_field(region, HALF_HALF_12, 2)
    assert np.array_equal(splice(base, donor, []).w, base.w)
    assert np.array_equal(splice(base, donor, region_edges(region)).w, donor.w)
    sub = region_edges(region)[:5]
    assert np.array_equal(splice(splice(base, donor, sub), base, sub).w, base.w)


def test_field_csv_round_trip(tmp_path):
    region = ProductBox((0, 0), (2, 2))
    f = sample_field(region, HALF_HALF_14, 3)
    path = str(tmp_path / "field.csv")
    f.to_csv(path)
    g = type(f).from_csv(path, region)
    assert np.array_equal(g.w, f.w)


def test_edge_keys_distinct_up_to_d5_and_rejected_above():
    for d in (2, 5):
        edges = region_edges(ProductBox((-1,) * d, (1,) * d))
        lo, hi = _edge_arrays(edges)
        assert len(set(zip(lo.tolist(), hi.tolist()))) == len(edges)
    origin6 = (0,) * 6
    edges6 = [(origin6, tuple(int(i == a) for i in range(6))) for a in range(6)]
    with pytest.raises(ValueError, match="d <= 5"):
        _edge_arrays(edges6)
