import random

import numpy as np
import pytest

from fppkit.distributions import DistributionSpec
from fppkit.fields import sample_conditioned, splice
from fppkit.geodesics import RegionGraph, exact_norm_oracle, first_lex_geodesic, restricted_geodesic_time
from fppkit.lattice import LInfBall, ProductBox, l1
from fppkit.modification import (
    PlanError,
    associated_in,
    build_plan_bounded,
    build_plan_unbounded,
    connector_path_unbounded,
    first_stage_bounded,
    oriented_connector_bounded,
    radial_disjoint_paths,
    verify_modification_bounded,
    verify_modification_unbounded,
)
from fppkit.oracle import region_edges
from fppkit.patterns import heavy_edge_pattern, enlarge_to_cube, atom_square_pattern
from fppkit.renormalization import BoxScale, derive_constants

UNB = DistributionSpec(atoms=((1.0, 0.05),), exp_tails=((3.0, 0.5, 0.95),))
ATOMS12 = DistributionSpec(atoms=((1.0, 0.5), (2.0, 0.5)))


def test_radial_disjoint_paths_examples():
    px, py = radial_disjoint_paths((2, 0), (0, 2), 2)
    assert set(px.vertices) & set(py.vertices) == {(0, 0)}
    assert len(px) == 2 and len(py) == 2
    px, py = radial_disjoint_paths((1, 0), (-1, 0), 1)
    assert px.vertices == ((1, 0), (0, 0)) and py.vertices == ((-1, 0), (0, 0))


def test_radial_disjoint_paths_postconditions_random():
    rng = random.Random(0)
    for _ in range(500):
        d = rng.choice([2, 3])
        m = rng.randint(1, 20)

        def on_sphere():
            while True:
                v = tuple(rng.randint(-m, m) for _ in range(d))
                if l1(v) == m:
                    return v

        x, y = on_sphere(), on_sphere()
        if x == y:
            continue
        px, py = radial_disjoint_paths(x, y, m)
        assert set(px.vertices) & set(py.vertices) == {(0,) * d}
        assert len(px) == m and len(py) == m
        for p, start in ((px, x), (py, y)):
            assert p.start == start and p.end == (0,) * d
            assert sum(1 for v in p.vertices if l1(v) >= m) == 1


def test_connector_clauses_random():
    lam, N, r2 = 1, 4, 5
    m = r2 * N
    rng = random.Random(5)
    for _ in range(60):
        def on_sphere():
            while True:
                v = tuple(rng.randint(-m, m) for _ in range(2))
                if l1(v) == m:
                    return v

        u, v = on_sphere(), on_sphere()
        if u == v:
            continue
        pi, pu, pv = connector_path_unbounded(u, v, (0, 0), N, lam, (-1, 0), (1, 0), r2)
        # clause validations run inside the constructor; spot-check the
        # mid-segment is an l1 geodesic inside the pattern cube
        mid = pi.subpath((-1, 0), (1, 0))
        assert len(mid) == 2
        assert all(LInfBall((0, 0), lam).contains(z) for z in mid.vertices)


def test_connector_requires_scale():
    with pytest.raises(PlanError):
        connector_path_unbounded((8, 0), (-8, 0), (0, 0), 2, 1, (-1, 0), (1, 0), 4)


def _segment_deviation(path, a, b):
    """max over path vertices of the l1 distance to the real segment [a, b]
    and max over segment samples of the distance to the path."""
    pa, pb = np.array(a, float), np.array(b, float)
    pts = np.array(path.vertices, float)
    seg = pb - pa
    t = np.clip(((pts - pa) @ seg) / (float(seg @ seg) or 1.0), 0.0, 1.0)
    d1 = np.abs(pts - (pa + t[:, None] * seg)).sum(axis=1).max()
    samples = pa + np.linspace(0, 1, 4 * len(path) + 2)[:, None] * seg
    d2 = max(np.abs(pts - s).sum(axis=1).min() for s in samples)
    return float(max(d1, d2))


def test_oriented_connector_clauses():
    conn = oriented_connector_bounded((0, 0), (37, 21), 1)
    p = conn.path
    assert len(p) == 37 + 21  # oriented
    assert _segment_deviation(p, (0, 0), (37, 21)) <= 10 * 1 * 2
    for start, length, sa in conn.steps:
        assert length == 10
        seg = p.vertices[start : start + length + 1]
        axis = abs(sa) - 1
        fixed = 1 - axis
        assert all(z[fixed] == seg[0][fixed] for z in seg)
    # straight case
    conn2 = oriented_connector_bounded((0, 0), (25, 0), 1)
    assert conn2.path.directions() == ",".join(["+1"] * 25)
    rng = random.Random(1)
    for _ in range(30):
        a = (rng.randint(-40, 40), rng.randint(-40, 40))
        b = (rng.randint(-40, 40), rng.randint(-40, 40))
        if a == b:
            continue
        c = oriented_connector_bounded(a, b, 1)
        assert len(c.path) == l1(a, b)
        assert _segment_deviation(c.path, a, b) <= 20


def test_associated_in():
    from fppkit.lattice import LatticePath

    g1 = LatticePath([(0, 0), (1, 0), (2, 0), (3, 0)])
    g2 = LatticePath([(0, 0), (1, 0), (1, 1), (2, 1), (2, 0), (3, 0)])
    w = associated_in(g1, g2, ProductBox((1, -1), (2, 2)))
    assert w == ((1, 0), (2, 0))
    assert associated_in(g1, g2, ProductBox((5, 5), (6, 6))) is None


def _demo_setup(seed):
    base = heavy_edge_pattern(8.0)
    m_cap = 9.0 + 1.0
    cube = enlarge_to_cube(base, 9.0)
    constants = derive_constants("unbounded", UNB, cube, delta=1.0, c_mu=1.0, C_mu=2.0)
    N, radii = 4, (2, 6, 10)
    box = BoxScale((8, 0), N, radii, "unbounded")
    x = (64, 0)
    pad = radii[2] * N + 16
    region = ProductBox((-pad, -pad - 32), (64 + pad, pad + 32))
    graph = RegionGraph(region)
    return cube, constants, box, x, region, graph


def test_unbounded_plan_partition_and_bounds():
    cube, constants, box, x, region, graph = _demo_setup(0)
    nu_N = 3000.0
    found = 0
    for seed in range(30):
        f = graph.field_from(graph.sample_weights(UNB, seed), seed=seed)
        gamma = first_lex_geodesic((0, 0), x, f, graph=graph)
        try:
            plan = build_plan_unbounded(f, gamma, box, cube, constants, nu_N=nu_N)
        except PlanError:
            continue
        found += 1
        b2_edges = set(region_edges(box.ball(2)))
        cube_edges = {
            e for e in b2_edges if LInfBall(box.center, 1).contains_edge(e)
        }
        assert plan.e_plus | plan.e_minus | cube_edges == b2_edges
        assert not plan.e_plus & plan.e_minus
        assert not (plan.e_plus | plan.e_minus) & cube_edges
        # corridor legs respect the length bound
        K = len(region_edges(LInfBall((0, 0), 1 + 3)))
        assert len(plan.e_minus) <= 2 * box.radii[1] * box.N + K
        if found >= 5:
            break
    assert found >= 3


def test_unbounded_verify_tampering_gate():
    cube, constants, box, x, region, graph = _demo_setup(0)
    nu_N = 3000.0
    seed = next(
        s
        for s in range(50)
        if _crosses_box(graph, s, box, x)
    )
    f = graph.field_from(graph.sample_weights(UNB, seed), seed=seed)
    gamma = first_lex_geodesic((0, 0), x, f, graph=graph)
    plan = build_plan_unbounded(f, gamma, box, cube, constants, nu_N=nu_N)
    donor = sample_conditioned(region, UNB, plan.target, 123)
    # raise one corridor edge above rho + delta': the gate must refuse
    bad_edge = sorted(plan.e_minus)[0]
    tampered = donor.replaced({bad_edge: constants.rho + constants.delta_prime + 1.0})
    with pytest.raises(PlanError):
        verify_modification_unbounded(plan, f, tampered, x, graph=graph)


def _crosses_box(graph, seed, box, x):
    from fppkit.renormalization import crosses

    f = graph.field_from(graph.sample_weights(UNB, seed))
    gamma = first_lex_geodesic((0, 0), x, f, graph=graph)
    return crosses(gamma, box)


def test_unbounded_modification_end_to_end():
    from fppkit.experiments import run_modification_demo_unbounded

    insts, summary = run_modification_demo_unbounded(
        UNB, heavy_edge_pattern(8.0), instances=4, seed=17
    )
    assert summary["instances"] == 4
    assert summary["all_clauses_passed"]
    assert summary["total_clause_failures"] == 0


# ---------------------------------------------------------------------------
# Bounded machinery: structural tests with desk-scale overrides


ORIENT_SPEC = DistributionSpec(atoms=((1.0, 1 / 3), (2.0, 1 / 3)), uniforms=((1.2, 1.8, 1 / 3),))


def small_oriented(j, l0=2):
    """Synthetic oriented pattern at a desk-scale cube (the derived l0 of a
    real orientation is hundreds; clause logic is what these tests cover)."""
    from fppkit.fields import EdgeConstraintSet
    from fppkit.lattice import monotone_path
    from fppkit.patterns import OrientedPattern, Pattern

    d = 2
    cube = LInfBall((0,) * d, l0)
    top = tuple(l0 if i == j else 0 for i in range(d))
    bottom = tuple(-l0 if i == j else 0 for i in range(d))
    guide = monotone_path(top, bottom)
    guide_edges = set(guide.edges())
    cons = {
        e: ((1.0, 1.0) if e in guide_edges else (1.2, 2.0)) for e in region_edges(cube)
    }
    pat = Pattern(cube, top, bottom, EdgeConstraintSet(cons), f"mini-oriented{j}")
    return OrientedPattern(pat, j, atom_square_pattern(1.0), guide, 1.5, 1, l0, 0.05)


def _bounded_setup():
    from dataclasses import replace

    family = {j: small_oriented(j) for j in range(2)}
    cs = derive_constants(
        "bounded", ORIENT_SPEC, family[0], delta=0.25, alpha=0.02, c_mu=1.0, C_mu=1.6
    )
    cs = replace(cs, nabla=60.0)  # desk-scale override (derived nabla is huge)
    region = ProductBox((-10, -55), (280, 55))
    box = BoxScale((135, 0), 1, (2, 50, 100, 130), "bounded")
    return family, cs, region, box, (270, 0)


def _bounded_instances(max_plans, seed0=0):
    family, cs, region, box, x = _bounded_setup()
    graph = RegionGraph(region)
    mu = exact_norm_oracle(1.5)
    out = []
    for seed in range(seed0, seed0 + 40):
        f = graph.field_from(graph.sample_weights(ORIENT_SPEC, seed), seed=seed)
        gamma = first_lex_geodesic((0, 0), x, f, graph=graph)
        try:
            stage1 = first_stage_bounded(f, gamma, box, cs)
            donor1 = sample_conditioned(region, ORIENT_SPEC, stage1.target1, 1000 + seed)
            plan = build_plan_bounded(f, stage1, donor1, family, cs, mu, region=region)
        except PlanError:
            continue
        out.append((f, gamma, stage1, donor1, plan, graph))
        if len(out) >= max_plans:
            break
    return family, cs, region, box, x, mu, out


def test_bounded_first_stage_and_plan_structure():
    family, cs, region, box, x, mu, instances = _bounded_instances(3)
    assert len(instances) >= 2
    b2, b3 = box.ball(2), box.ball(3)
    for f, gamma, stage1, donor1, plan, graph in instances:
        assert stage1.e_star_plus <= set(gamma.edges())
        for e in stage1.e_star_plus:
            assert b3.contains_edge(e) and not b2.contains_edge(e)
            assert f.time(e) > cs.rho + cs.delta
        assert not plan.e_pp & plan.e_pm and not plan.e_pp & plan.e_pat
        assert not plan.e_pm & plan.e_pat
        assert not plan.e_star_plus & (plan.e_pp | plan.e_pm | plan.e_pat)
        for e in plan.e_pp | plan.e_pm | plan.e_pat:
            assert b2.contains_edge(e)
        a = plan.anchors
        # the highway runs u2 .. u3 .. v3 .. v2 in connector order
        idx = {k: plan.pi.index_of(a[k]) for k in ("u2", "u3", "v3", "v2")}
        assert idx["u2"] <= idx["u3"] < idx["v3"] <= idx["v2"]
        # pattern support inside the mu-ball region, first-stage anchors on gamma
        assert a["s1"] in gamma.vertices and a["s2"] in gamma.vertices
        # plan dump mentions every anchor
        dump = plan.dump()
        for key in ("u1", "v1", "u2", "v2", "u3", "v3", "s1", "s2", "c_P"):
            assert key in dump


def test_bounded_first_stage_exact_clauses():
    # the first-splice clauses hold exactly whenever the donor event holds
    family, cs, region, box, x, mu, instances = _bounded_instances(3)
    assert instances
    from fppkit.geodesics import enumerate_geodesics

    for f, gamma, stage1, donor1, plan, graph in instances:
        star = splice(f, donor1, stage1.e_star_plus)
        t_star, _ = restricted_geodesic_time(gamma.start, x, star, graph=graph)
        assert star.path_time(gamma) == pytest.approx(t_star)  # still a geodesic
        for g in enumerate_geodesics(gamma.start, x, star, cap=64, graph=graph).paths:
            assert stage1.e_star_plus <= set(g.edges())  # all resampled edges taken


def test_bounded_verify_full_clause_run():
    family, cs, region, box, x, mu, instances = _bounded_instances(2)
    assert instances
    passed_any = False
    for f, gamma, stage1, donor1, plan, graph in instances:
        donor2 = sample_conditioned(region, ORIENT_SPEC, plan.target2, 5000 + plan.box.N)
        rep, star, dstar = verify_modification_bounded(
            plan, f, donor1, donor2, x, cs, cap=16, below_thresholds=True, mu_oracle=mu
        )
        assert rep.below_thresholds
        assert "constants below the derived thresholds" in rep.to_text()
        names = [c.name for c in rep.clauses]
        assert any("takes every E*+ edge" in n for n in names)
        assert any("T**-geodesic takes the pattern" in n for n in names)
        for c in rep.clauses:
            if (
                "takes every E*+ edge" in c.name
                or "after the first splice" in c.name
                or "disjoint" in c.name
            ):
                assert c.passed, c
        passed_any = passed_any or rep.all_passed
    assert passed_any  # the small-scale geometry verifies end to end


def test_bounded_plan_and_verify_build_no_graph_on_a_shared_one(monkeypatch):
    family, cs, region, box, x, mu, instances = _bounded_instances(1)
    assert instances
    f, gamma, stage1, _, plan, graph = instances[0]
    donor1 = graph.field_from(graph.sample_weights(ORIENT_SPEC, 1000 + f.seed, stage1.target1))
    donor2 = graph.field_from(graph.sample_weights(ORIENT_SPEC, 1, plan.target2))
    built = []
    init = RegionGraph.__init__

    def counted(self, region):
        built.append(region)
        init(self, region)

    monkeypatch.setattr(RegionGraph, "__init__", counted)
    assert build_plan_bounded(f, stage1, donor1, family, cs, mu).anchors == plan.anchors
    rep, star, dstar = verify_modification_bounded(plan, f, donor1, donor2, x, cs, cap=16, mu_oracle=mu)
    assert built == []
    assert star.graph is graph and dstar.graph is graph and rep.clauses


def test_bounded_verify_tampering_gate():
    family, cs, region, box, x, mu, instances = _bounded_instances(1)
    assert instances
    f, gamma, stage1, donor1, plan, graph = instances[0]
    bad = sorted(plan.e_star_plus)[0]
    tampered = donor1.replaced({bad: cs.rho + cs.delta + 0.5})
    donor2 = sample_conditioned(region, ORIENT_SPEC, plan.target2, 1)
    with pytest.raises(PlanError):
        verify_modification_bounded(plan, f, tampered, donor2, x, cs)


@pytest.mark.parametrize("missing", ["nabla", "alpha"])
def test_bounded_plan_and_verify_refuse_missing_constants(missing):
    from dataclasses import replace

    family, cs, region, box, x, mu, instances = _bounded_instances(1)
    assert instances
    f, gamma, stage1, donor1, plan, graph = instances[0]
    donor2 = sample_conditioned(region, ORIENT_SPEC, plan.target2, 1)
    bad = replace(cs, **{missing: None})
    with pytest.raises(ValueError, match="nabla and constants.alpha"):
        build_plan_bounded(f, stage1, donor1, family, bad, mu, region=region)
    with pytest.raises(ValueError, match="nabla and constants.alpha"):
        verify_modification_bounded(plan, f, donor1, donor2, x, bad, cap=16, mu_oracle=mu)


def test_verified_instance_is_a_successful_box():
    # after a passing splice the box is successful by the direct check
    from fppkit.renormalization import successful_box_check

    cube, constants, box, x, region, graph = _demo_setup(0)
    nu_N = 3000.0
    for seed in range(40):
        f = graph.field_from(graph.sample_weights(UNB, seed), seed=seed)
        gamma = first_lex_geodesic((0, 0), x, f, graph=graph)
        try:
            plan = build_plan_unbounded(f, gamma, box, cube, constants, nu_N=nu_N)
        except PlanError:
            continue
        donor = sample_conditioned(region, UNB, plan.target, 31337)
        rep, star = verify_modification_unbounded(plan, f, donor, x, cap=64, graph=graph)
        if not rep.all_passed:
            continue
        ok, approx = successful_box_check(box, x, star, cube, region=region, cap=64)
        assert ok and not approx
        return
    pytest.skip("no passing instance in the seed budget")


def test_demo_determinism():
    from fppkit.experiments import run_modification_demo_unbounded

    a = run_modification_demo_unbounded(UNB, heavy_edge_pattern(8.0), instances=2, seed=99)
    b = run_modification_demo_unbounded(UNB, heavy_edge_pattern(8.0), instances=2, seed=99)
    assert [i.report_text for i in a[0]] == [i.report_text for i in b[0]]
    assert a[1] == b[1]
