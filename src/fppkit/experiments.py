"""Reproducible Monte Carlo experiments with CSV output.

Every row is a pure function of (config, master seed, n, trial index); the
per-trial seed is derived from those alone, so runs are reproducible and
trials can execute in any order or in parallel.  Summaries are recomputed
from the raw rows.

The point-to-point experiments (deficiency, large edges, gap, shift,
calibration, the time constant) draw their trials from one runner,
`trial_dags`; segment boxes along e1 are padded by `segment_pad`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .distributions import DistributionSpec
from .geodesics import GeodesicDag, RegionGraph, dijkstra, first_lex_geodesic
from .lattice import LatticePath, ProductBox, Vertex, l1, vscale
from .modification import (
    PlanError,
    _entry_exit,
    build_plan_unbounded,
    verify_modification_unbounded,
)
from .patterns import Pattern, count_occurrences, enlarge_to_cube
from .renormalization import (
    BoxScale,
    ConstantsSet,
    _pattern_cap,
    crosses,
    derive_constants,
    nu_level,
    typicality_bounded,
    typicality_unbounded,
)
from .rng import derive_seed
from .tolerance import at_least, le


def segment_pad(n: int) -> int:
    """The l-inf pad of the box around the segment 0 -> n e1."""
    return max(6, n // 3)


def segment_region(y: Vertex, pad: int) -> ProductBox:
    """Box around the segment 0 -> y with the given l-inf padding."""
    return ProductBox(tuple(min(0, c) - pad for c in y), tuple(max(0, c) + pad for c in y))


def _segment_ends(n_list: list[int], d: int) -> list[tuple[int, Vertex, int]]:
    """(n, n e1, segment_pad(n)) per n, the ends of trial_dags."""
    return [(n, (n,) + (0,) * (d - 1), segment_pad(n)) for n in n_list]


def trial_dags(spec: DistributionSpec, ends, trials: int, seed_of):
    """Yield (n, k, seed, dag) for each (n, y, pad) in ends and each trial k
    in range(trials): seed = seed_of(n, k), and dag is the tight DAG from 0
    to y of that seed's weights on the box around 0 and y padded by pad.
    One RegionGraph serves every trial of an end."""
    for n, y, pad in ends:
        graph = RegionGraph(segment_region(y, pad))
        x = (0,) * len(y)
        for k in range(trials):
            s = seed_of(n, k)
            yield n, k, s, GeodesicDag.between(graph, graph.sample_weights(spec, s), x, y)


def _geodesic_panel(dag: GeodesicDag, cap: int) -> tuple[list[LatticePath], bool]:
    """Enumerated geodesics (both extremal-length witnesses, the shorter of
    them the first-lex geodesic, always included) plus the truncation flag."""
    gs, ext = dag.geodesics(cap), dag.extremes()
    return list(dict.fromkeys([*gs.paths, ext.witness_min, ext.witness_max])), gs.truncated


def _min_count_row(dag: GeodesicDag, cap: int, cost: np.ndarray | None, count_of) -> dict:
    """min_count, truncated and n_geodesics of a row: the least count_of(g)
    over the geodesics g of dag, their number, and whether the enumeration
    was cut.

    A count that sums a 0/1 cost per edge (cost not None) is minimised over
    every geodesic by one search on the tight arcs from the source, and count_of
    must give its witness the same count.  n_geodesics is then the exact
    path count with truncated 0, unless zero-weight cycles leave no count:
    then those two fields come from the geodesics enumerated up to cap.
    Any other count is minimised over that enumeration plus both
    extremal-length witnesses (_geodesic_panel)."""
    if cost is None:
        paths, truncated = _geodesic_panel(dag, cap)
        min_count = min(count_of(g) for g in paths)
        return dict(min_count=min_count, truncated=int(truncated), n_geodesics=len(paths))
    min_count, witness = dag.min_cost(cost)
    if count_of(witness) != min_count:
        raise AssertionError("tight-arc minimum differs from its witness's count")
    n_geodesics = dag.count()
    if n_geodesics is not None:
        return dict(min_count=min_count, truncated=0, n_geodesics=n_geodesics)
    gs = dag.geodesics(cap)
    return dict(min_count=min_count, truncated=int(gs.truncated), n_geodesics=len(gs.paths))


def _min_count_rows(
    experiment: str, spec: DistributionSpec, n_list: list[int], trials: int, seed: int,
    d: int, cap: int, cost_of, count_of,
) -> list[dict]:
    """Rows of _min_count_row on the segments 0 -> n e1, with the 0/1 edge
    cost cost_of(f) (or None) and the path count count_of(g, f) of each
    trial's field f; the seed part is the experiment name."""
    rows = []
    ends = _segment_ends(n_list, d)
    for n, k, s, dag in trial_dags(spec, ends, trials, partial(derive_seed, seed, experiment)):
        f = dag.graph.field_from(dag.weights)
        counts = _min_count_row(dag, cap, cost_of(f), lambda g: count_of(g, f))
        rows.append(dict(experiment=experiment, n=n, trial=k, seed=s, **counts))
    return rows


# ---------------------------------------------------------------------------
# Experiment drivers (each returns a list of row dicts)


def run_deficiency(
    spec: DistributionSpec,
    pattern: Pattern,
    n_list: list[int],
    trials: int,
    seed: int,
    d: int = 2,
    cap: int = 128,
) -> list[dict]:
    """min over geodesics 0 -> n e1 of the occurrence count N^P: exact over
    every geodesic for a one-edge pattern, over at most cap enumerated
    geodesics otherwise (see _min_count_row)."""
    return _min_count_rows(
        "deficiency", spec, n_list, trials, seed, d, cap,
        pattern.edge_cost, lambda g, f: count_occurrences(g, pattern, f),
    )


def summarize_deficiency(rows: list[dict]) -> dict:
    by_n: dict[int, list[int]] = {}
    for r in rows:
        by_n.setdefault(r["n"], []).append(r["min_count"])
    p_zero = {n: float(np.mean([c == 0 for c in cs])) for n, cs in sorted(by_n.items())}
    alpha_hat = {n: float(np.percentile(cs, 5)) / n for n, cs in sorted(by_n.items())}
    pos = [(n, p) for n, p in p_zero.items() if p > 0]
    slope = float(np.polyfit([n for n, _ in pos], [math.log(p) for _, p in pos], 1)[0]) if len(pos) >= 2 else None
    return dict(p_zero=p_zero, alpha_hat=alpha_hat, log_slope=slope)


def run_large_edges(
    spec: DistributionSpec,
    M: float,
    n_list: list[int],
    trials: int,
    seed: int,
    d: int = 2,
    cap: int = 128,
) -> list[dict]:
    """min over every geodesic 0 -> n e1 of the number of edges with time
    >= M (see _min_count_row)."""
    if spec.mass_in(M, math.inf) <= 0:
        raise ValueError(f"M={M} is above the support")
    return _min_count_rows(
        "large_edges", spec, n_list, trials, seed, d, cap,
        lambda f: at_least(f.w, M), lambda g, f: int(at_least(f.times_at(g.edges()), M).sum()),
    )


def run_gap(
    spec: DistributionSpec,
    k_param: int | None,
    l_param: int | None,
    r_atom: float | None,
    s_atom: float | None,
    n_list: list[int],
    trials: int,
    seed: int,
    d: int = 2,
) -> list[dict]:
    """Extremal Euclidean lengths of geodesics.

    When (k, l, r, s) are supplied, the gate checks that the atoms exist
    and (k+2l) r = k s (or zero is an atom), so two equal-time routes of
    different lengths are constructible; passing None skips the gate and
    just measures the gap.
    """
    if k_param is not None:
        if spec.mass_at(r_atom) <= 0 or spec.mass_at(s_atom) <= 0:
            raise ValueError("r and s must be atoms of the distribution")
        if (k_param + 2 * l_param) * r_atom != k_param * s_atom and spec.mass_at(0.0) <= 0:
            raise ValueError("(k+2l) r != k s and no atom at zero")
    rows = []
    ends = _segment_ends(n_list, d)
    for n, k, s, dag in trial_dags(spec, ends, trials, partial(derive_seed, seed, "gap")):
        ext = dag.extremes()
        rows.append(
            dict(experiment="gap", n=n, trial=k, seed=s, lmin=ext.lmin,
                 lmax=ext.lmax, gap=ext.gap, approx=int(not ext.exact))
        )
    return rows


def summarize_gap(rows: list[dict]) -> dict:
    by_n: dict[int, list[int]] = {}
    for r in rows:
        if not r["approx"]:
            by_n.setdefault(r["n"], []).append(r["gap"])
    med = {n: float(np.median(g)) for n, g in sorted(by_n.items())}
    ns = sorted(med)
    slope = float(np.polyfit(ns, [med[n] for n in ns], 1)[0]) if len(ns) >= 2 else None
    return dict(median_gap=med, slope=slope)


def run_shift_concavity(
    spec: DistributionSpec,
    b_list: list[float],
    n_list: list[int],
    trials: int,
    seed: int,
    d: int = 2,
) -> list[dict]:
    """Per-realization check t^(-b)(0,x) <= t(0,x) - b * Lmax(0,x).

    Any maximal-length geodesic of T keeps its edge set under the shift,
    so the bound holds path by path; recomputing the shifted optimum by a
    fresh search can only improve it.
    """
    rho = spec.rho
    for b in b_list:
        if not 0 <= b < rho:
            raise ValueError(f"shift b={b} outside [0, rho={rho})")
    rows = []
    ends = _segment_ends(n_list, d)
    for n, k, s, dag in trial_dags(spec, ends, trials, partial(derive_seed, seed, "shift")):
        graph, w = dag.graph, dag.weights
        xi, yi = graph.vindex[dag.source], graph.vindex[dag.target]
        t0, ext = dag.time, dag.extremes()
        for b in b_list:
            tb = float(dijkstra(graph, w - b, xi)[yi])
            bound = t0 - b * ext.lmax
            rows.append(
                dict(experiment="shift", n=n, trial=k, seed=s, b=b, t=t0,
                     t_shift=tb, lmax=ext.lmax, bound=bound,
                     holds=int(le(tb, bound)), approx=int(not ext.exact))
            )
    return rows


@dataclass
class NormEstimate:
    """Monte Carlo estimate of the time constant per sampled direction."""

    per_direction: dict[Vertex, list[tuple[int, float, float]]]  # n, mean, half-CI
    c_mu: float
    C_mu: float
    trials: int

    def rate(self, direction: Vertex) -> float:
        rows = self.per_direction[tuple(direction)]
        n, mean, _ = rows[-1]
        return mean / l1(direction)


def estimate_time_constant(
    directions: list[Vertex] | Vertex,
    spec: DistributionSpec,
    n_list: list[int],
    trials: int,
    seed: int,
) -> NormEstimate:
    """Monte Carlo t(0, n u)/n per direction and n, with normal-CI half-widths.

    Times are restricted to a box around the segment 0 -> n u, padded by
    max(4, int(0.4 |n u|_1)), which upper-bounds the free value; the bias
    vanishes at desk scale for useful specs.
    """
    if isinstance(directions, tuple) and directions and isinstance(directions[0], int):
        directions = [directions]
    per_direction: dict[Vertex, list[tuple[int, float, float]]] = {}
    for direction in map(tuple, directions):
        seed_of = partial(derive_seed, seed, "mu", str(direction))
        rows = []
        for n in n_list:
            y = vscale(n, direction)
            ends = [(n, y, max(4, int(0.4 * l1(y))))]
            arr = np.array([dag.time / n for *_, dag in trial_dags(spec, ends, trials, seed_of)])
            half = 1.96 * arr.std(ddof=1) / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
            rows.append((n, float(arr.mean()), float(half)))
        per_direction[direction] = rows
    rates = [rows[-1][1] / l1(u) for u, rows in per_direction.items()]
    return NormEstimate(per_direction, min(rates), max(rates), trials)


def run_shape(
    spec: DistributionSpec,
    directions: list[Vertex],
    n_list: list[int],
    trials: int,
    seed: int,
) -> tuple[list[dict], NormEstimate]:
    est = estimate_time_constant(directions, spec, n_list, trials, seed)
    rows = []
    for u, series in est.per_direction.items():
        for n, mean, half in series:
            rows.append(
                dict(experiment="shape", direction=str(u), n=n, mu_hat=mean,
                     ci_half=half, rate=mean / l1(u))
            )
    return rows, est


def run_typical_rate(
    spec: DistributionSpec,
    constants: ConstantsSet,
    N_list: list[int],
    boxes: int,
    seed: int,
    radii: tuple[int, ...],
    mu_oracle=None,
    pair_sample: int | None = 40,
) -> list[dict]:
    """Empirical typicality rate per clause across sampled environments."""
    rows = []
    regime = constants.regime
    for N in N_list:
        box = BoxScale((0,) * constants.d, N, radii, regime)
        graph = RegionGraph(box.outer)
        nu_N = None
        if regime == "unbounded":
            n_edges = box.ball(2).edge_count()
            nu_N = nu_level(spec, n_edges)
        for k in range(boxes):
            s = derive_seed(seed, "typical", N, k)
            f = graph.field_from(graph.sample_weights(spec, s))
            if regime == "unbounded":
                rep = typicality_unbounded(box, f, constants, nu_N=nu_N, pair_sample=pair_sample)
            else:
                rep = typicality_bounded(box, f, constants, mu_oracle, pair_sample=pair_sample)
            row = dict(experiment="typical_rate", N=N, trial=k, seed=s,
                       typical=int(rep.typical))
            for i, c in enumerate(rep.clauses, 1):
                row[f"clause{i}"] = int(c.passed)
            rows.append(row)
    return rows


@dataclass
class DemoInstance:
    seed: int
    retries: int
    report_text: str
    all_passed: bool
    clause_failures: int


def run_modification_demo_unbounded(
    spec: DistributionSpec,
    base_pattern: Pattern,
    instances: int,
    seed: int,
    N: int = 4,
    radii: tuple[int, int, int] = (2, 6, 10),
    d: int = 2,
    delta: float | None = None,
    retry_budget: int = 40,
    cap: int = 256,
) -> tuple[list[DemoInstance], dict]:
    """End-to-end unbounded modification on sampled instances.

    The pattern is cube-enlarged, a box is planted on the 0 -> x axis, and
    environments are resampled until the first-lex geodesic crosses B1 and
    the instance-level typicality facts the rerouting argument consumes hold
    (confinement of the crossing, the clause-(ii) bound on the crossing
    segments, and the B2 weight-sum bound).  The donor is then drawn
    exactly from the conditional law of the target event, so the target
    gate always holds, and every clause is verified on the splice.

    Desk-scale radii are overridden; the report records this so failed
    clauses can be told apart from sub-threshold constants.
    """
    if spec.is_bounded:
        raise ValueError("the unbounded demo needs an unbounded-support spec")
    m_cap = _pattern_cap(spec, base_pattern) + 1.0
    cube_pat = enlarge_to_cube(base_pattern, m_cap)
    if delta is None:
        delta = calibrate_delta(spec, seed=derive_seed(seed, "cal"), d=d)
    constants = derive_constants("unbounded", spec, cube_pat, delta, c_mu=1.0, C_mu=2.0)
    r1, r2, r3 = radii
    lam = cube_pat.region.radius
    s_center = (r2 + 2,) + (0,) * (d - 1)
    box = BoxScale(s_center, N, radii, "unbounded")
    x = vscale(2, vscale(N, s_center))
    pad = r3 * N + 4 * N
    region = ProductBox(
        tuple(min(0, c) - pad for c in x), tuple(max(0, c) + pad for c in x)
    )
    graph = RegionGraph(region)
    b2, b3, b1 = box.ball(2), box.outer, box.ball(1)
    b2_edges = graph.edges_within(b2)
    nu_N = max(nu_level(spec, len(b2_edges)), m_cap * cube_pat.region.edge_count() + 2.0)
    rho = spec.rho
    zero = (0,) * d
    out: list[DemoInstance] = []
    attempts = 0
    gate_fail = 0
    k = 0
    while len(out) < instances and attempts < instances * retry_budget:
        k += 1
        attempts += 1
        s = derive_seed(seed, "demo", k)
        f = graph.field_from(graph.sample_weights(spec, s), seed=s)
        gamma = first_lex_geodesic(zero, x, f)
        if not crosses(gamma, box):
            gate_fail += 1
            continue
        # instance-level typicality facts the rerouting clauses consume
        u, v = _entry_exit(gamma, b2)
        seg = gamma.subpath(u, v)
        if not all(b3.contains(z) for z in seg.vertices):
            gate_fail += 1
            continue
        wvert = next(z for z in seg.vertices if b1.contains(z))
        t_uw = f.path_time(gamma.subpath(u, wvert))
        t_wv = f.path_time(gamma.subpath(wvert, v))
        if t_uw < (rho + delta) * l1(u, wvert) or t_wv < (rho + delta) * l1(wvert, v):
            gate_fail += 1
            continue
        if sum(f.w[b2_edges].tolist()) >= nu_N:
            gate_fail += 1
            continue
        try:
            plan = build_plan_unbounded(f, gamma, box, cube_pat, constants, nu_N=nu_N)
        except PlanError:
            gate_fail += 1
            continue
        donor = graph.field_from(graph.sample_weights(spec, derive_seed(seed, "donor", k), plan.target))
        rep, _ = verify_modification_unbounded(plan, f, donor, x, cap=cap)
        rep.below_thresholds = True  # radii overridden below the derived thresholds
        out.append(
            DemoInstance(s, attempts, rep.to_text(), rep.all_passed, len(rep.failures()))
        )
    summary = dict(
        instances=len(out),
        attempts=attempts,
        gate_failures=gate_fail,
        acceptance_rate=len(out) / attempts if attempts else 0.0,
        all_clauses_passed=all(i.all_passed for i in out) if out else False,
        total_clause_failures=sum(i.clause_failures for i in out),
        nu_N=nu_N,
    )
    return out, summary


def calibrate_delta(
    spec: DistributionSpec,
    seed: int,
    d: int = 2,
    n: int = 24,
    trials: int = 200,
    safety: float = 0.8,
) -> float:
    """Empirical delta with P(t(0, n e1) <= (rho + delta) n) = 0 in-sample:
    a safety fraction of the observed minimum of t/n - rho."""
    dags = trial_dags(spec, _segment_ends([n], d), trials, lambda _, k: derive_seed(seed, "caldelta", k))
    vals = [dag.time / n for *_, dag in dags]
    return safety * (min(vals) - spec.rho)


def calibrate_alpha(
    spec: DistributionSpec,
    delta: float,
    seed: int,
    d: int = 2,
    n: int = 24,
    trials: int = 200,
    safety: float = 0.5,
) -> float:
    """Empirical heavy-edge density floor: a safety fraction of the observed
    minimum over trials of (edges >= rho + delta on the first-lex geodesic)/n."""
    level = spec.rho + delta
    fracs = []
    dags = trial_dags(spec, _segment_ends([n], d), trials, lambda _, k: derive_seed(seed, "calalpha", k))
    for *_, dag in dags:
        g = dag.first_lex()
        heavy = int(at_least(dag.weights[dag.graph.edge_ids(g.edges())], level).sum())
        fracs.append(heavy / n)
    return safety * min(fracs)
