"""Scale-N boxes, typicality checks, annuli, M-sequences, and meta-cubes.

A box at center index s and scale N is the nest of l1 balls B_i = B(sN,
r_i N).  "Typical" bundles the regularity clauses that the modification
argument consumes; both regimes are implemented, and the checkers accept
explicit radii overrides because the derived radii exceed desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .distributions import DistributionSpec
from .fields import WeightField
from .geodesics import GeodesicDag, RegionGraph, _resolve, dijkstra, enumerate_geodesics, tight_min_cost
from .lattice import (
    LatticePath,
    L1Ball,
    LInfBall,
    Region,
    Vertex,
    l1,
    vertex_tuples,
    vscale,
)
from .patterns import OrientedPattern, Pattern, hits_inside
from .rng import derive_seed
from .tolerance import INPUT_ATOL, LOG_THETA_XTOL, agree, at_least, le, lt


@dataclass(frozen=True)
class BoxScale:
    """Nested l1 balls around sN; radii are (r1, r2, r3[, r4]) in units of N."""

    s: Vertex
    N: int
    radii: tuple[int, ...]
    regime: str = "unbounded"  # or "bounded"

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be positive")
        want = 3 if self.regime == "unbounded" else 4
        if len(self.radii) != want:
            raise ValueError(f"{self.regime} regime needs {want} radii")
        if any(a >= b for a, b in zip(self.radii, self.radii[1:])):
            raise ValueError("radii must be strictly increasing")

    @property
    def center(self) -> Vertex:
        return vscale(self.N, self.s)

    def ball(self, i: int) -> L1Ball:
        return L1Ball(self.center, self.radii[i - 1] * self.N)

    @property
    def outer(self) -> L1Ball:
        return self.ball(len(self.radii))


def crosses(path: LatticePath, box: BoxScale) -> bool:
    b1 = box.ball(1)
    return any(b1.contains(v) for v in path)


# ---------------------------------------------------------------------------
# Constants


@dataclass(frozen=True)
class ConstantsSet:
    """Calibration inputs plus every derived constant, both regimes.

    Every derived value satisfies its defining inequality; verify()
    re-substitutes them and reports each check.  Radii can still be
    overridden at the call sites (desk-scale boxes), in which case reports
    carry a below-threshold flag.
    """

    regime: str
    d: int
    rho: float
    t_max: float
    delta: float
    c_mu: float
    C_mu: float
    alpha: float | None = None
    # pattern-derived
    lam: int = 1
    m_pattern: float = 0.0  # M^Lambda (unbounded) or nu (bounded cap)
    tau_pattern: float = 0.0
    T_pattern: float = 0.0  # bounded only: K^Lambda (t_max - rho)
    K_edges: int = 0  # edges in B_inf(0, lam + 3) (unbounded connector bound)
    # derived
    delta_prime: float = 0.0
    epsilon: float | None = None
    nabla: float | None = None
    r1: int = 0
    r2: int = 0
    r3: int = 0
    r4: int | None = None
    r23: float | None = None
    r_annulus: int = 0
    K_prime: float | None = None
    K_dprime: float | None = None
    L1_const: int | None = None
    L2_const: int | None = None
    N_min: float | None = None
    nu_of_N: dict[int, float] = field(default_factory=dict)

    def verify(self) -> list[tuple[str, bool]]:
        """Re-check each defining inequality by direct substitution."""
        checks: list[tuple[str, bool]] = [("r1 = d", self.r1 == self.d)]
        if self.regime == "unbounded":
            lhs = self.r2 * self.delta - self.r1 * (self.rho + self.delta) - self.K_edges * self.rho - self.tau_pattern
            checks.append(("r2*delta - r1(rho+delta) - K rho - tau > 0", lhs > 0))
            lhs2 = (
                self.r2 * (self.delta - self.delta_prime)
                - self.r1 * (self.rho + self.delta)
                - self.K_edges * (self.rho + self.delta_prime)
                - self.tau_pattern
            )
            checks.append(("r2(delta-delta') - r1(rho+delta) - K(rho+delta') - tau > 0", lhs2 > 0))
            checks.append(("B2 fits B_mu(0, r23/2)", self.C_mu * self.r2 <= self.r23 / 2 + INPUT_ATOL))
            checks.append(("B_mu(0, 9 r23) fits B3", 9 * self.r23 / self.c_mu <= self.r3 + INPUT_ATOL))
            checks.append(("r = 2(r1+r3+1)", self.r_annulus == 2 * (self.r1 + self.r3 + 1)))
            checks.append(("nu(N) > M^Lambda", all(v > self.m_pattern for v in self.nu_of_N.values())))
        else:
            checks.append(("delta' = min(delta/4, delta/(1+d))", agree(self.delta_prime, min(self.delta / 4, self.delta / (1 + self.d)))))
            checks.append(("epsilon < min(1/11, delta/(24 C_mu))", self.epsilon < min(1 / 11, self.delta / (24 * self.C_mu))))
            bound = max(
                4 * (1 + self.t_max) * self.C_mu / (self.epsilon * self.c_mu),
                6 * self.d * self.L2_const * self.C_mu,
                8 * self.C_mu * self.T_pattern / (3 * self.delta),
                4 * self.C_mu * (2 * self.t_max + self.tau_pattern),
            )
            checks.append(("nabla above its four lower bounds", self.nabla > bound))
            checks.append(
                (
                    "r2 above both bounds",
                    self.r2
                    > max(
                        self.r1 + 2 * (self.nabla + 2) / self.c_mu,
                        self.r1
                        + self.L1_const
                        + 3 * self.nabla / self.c_mu
                        + 2 * self.t_max * (1 + (1 + self.d) * self.lam) / self.m_pattern,
                    ),
                )
            )
            checks.append(
                ("r3 > 7 r2 (4 t_max + alpha delta)/(alpha delta)", self.r3 > 7 * self.r2 * (4 * self.t_max + self.alpha * self.delta) / (self.alpha * self.delta))
            )
            checks.append(("r4 > r3 (rho+delta+t_max)/(rho+delta)", self.r4 > self.r3 * (self.rho + self.delta + self.t_max) / (self.rho + self.delta)))
            checks.append(("r = 2(r1+r4+1)", self.r_annulus == 2 * (self.r1 + self.r4 + 1)))
        return checks

    def box(self, s: Vertex, N: int, radii: tuple[int, ...] | None = None) -> BoxScale:
        if radii is None:
            radii = (
                (self.r1, self.r2, self.r3)
                if self.regime == "unbounded"
                else (self.r1, self.r2, self.r3, self.r4)
            )
        return BoxScale(tuple(s), N, radii, self.regime)


def _pattern_cap(spec: DistributionSpec, pattern: Pattern) -> float:
    """Smallest level M with positive mass on every event interval below M."""
    return max(spec.low_representative(lo, hi) for lo, hi, _ in pattern.event.intervals)


# golden-section ratio and the width of nu_level's log-theta bracket: the
# optimal theta moves by about 16 in log theta from n = 1 to n = 10^15, and
# an optimum outside the bracket would still leave a certified, looser level
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_LOG_THETA_SPAN = 60.0


def nu_level(spec: DistributionSpec, n_edges: int, q: float = 0.99) -> float:
    """Cramer-Chernoff level nu with P(sum of n_edges i.i.d. weights >= nu) <= 1 - q.

    For theta > 0, P(S >= l) <= exp(n Lambda(theta) - theta l), so every
    theta certifies the level (n Lambda(theta) + log(1/(1 - q))) / theta
    (Dembo-Zeitouni, Large Deviations Techniques and Applications, Thm
    2.2.3).  That level is a convex function over a positive linear one,
    so quasi-convex in theta and in log theta; a golden-section search on
    log theta finds its infimum, and the value returned is the level at an
    evaluated theta, never an interpolation.  A bounded law's sum never
    reaches past n t_max, so the level is capped at the next float above.
    """
    if n_edges < 1 or not 0.0 < q < 1.0:
        raise ValueError("nu_level needs n_edges >= 1 and 0 < q < 1")
    c = -math.log1p(-q)

    def level(t: float) -> float:
        theta = math.exp(t)
        return (n_edges * spec.log_mgf(theta) + c) / theta

    rate = min((r for _, r, _ in spec.exp_tails), default=math.inf)
    if math.isfinite(rate):  # Lambda diverges at the smallest tail rate
        hi = math.log(rate)
        lo = hi - _LOG_THETA_SPAN
    elif spec.t_max > 0:  # theta in units of 1 / t_max
        lo = -math.log(spec.t_max) - _LOG_THETA_SPAN / 2
        hi = lo + _LOG_THETA_SPAN
    else:  # the law is the atom at 0
        return math.nextafter(0.0, math.inf)
    x1, x2 = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    f1, f2 = level(x1), level(x2)
    while hi - lo > LOG_THETA_XTOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = level(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = level(x2)
    nu = min(f1, f2)
    if spec.is_bounded:
        nu = min(nu, math.nextafter(n_edges * spec.t_max, math.inf))
    return nu


def derive_constants(
    regime: str,
    spec: DistributionSpec,
    pattern: Pattern | OrientedPattern,
    delta: float,
    alpha: float | None = None,
    c_mu: float = 1.0,
    C_mu: float = 1.0,
    N_list: tuple[int, ...] = (),
) -> ConstantsSet:
    """Admissible constants for the chosen regime.

    Radii are the smallest integers satisfying their inequalities given
    the (conservative) pattern bounds m/tau; strict upper bounds are
    halved, strict real lower bounds exceeded by a 1% margin.  delta and
    alpha are calibration inputs (see the calibrate experiment).  In the
    unbounded regime nu(N) is the Chernoff level nu_level of the derived
    B2's edge count, set only for the scales in N_list (desk-scale callers
    pass their own radii overrides and nu levels).
    """
    if delta <= 0 or (regime == "bounded" and (alpha is None or alpha <= 0)):
        raise ValueError("delta (and alpha in the bounded regime) must be positive")
    d = pattern.pattern.dim if isinstance(pattern, OrientedPattern) else pattern.dim
    rho, t_max = spec.rho, spec.t_max
    r1 = d
    if regime == "unbounded":
        base = pattern if isinstance(pattern, Pattern) else pattern.pattern
        box = base.region.bounds
        lam = max(map(abs, box.lo + box.hi))
        K_edges = LInfBall((0,) * d, lam + 3).edge_count()
        m_pat = _pattern_cap(spec, base)
        tau = m_pat * l1(base.u_end, base.v_end)
        # minimal integer r2 with r2 delta - r1(rho+delta) - K rho - tau > 0
        r2 = math.floor((r1 * (rho + delta) + K_edges * rho + tau) / delta) + 1
        slack = r2 * delta - r1 * (rho + delta) - K_edges * rho - tau
        delta_prime = slack / (2 * (r2 + K_edges))
        r23 = 2 * C_mu * r2
        r3 = math.ceil(9 * r23 / c_mu)
        if r3 <= r2:
            r3 = r2 + 1
        cs = ConstantsSet(
            regime, d, rho, t_max, delta, c_mu, C_mu, alpha,
            lam, m_pat, tau, 0.0, K_edges,
            delta_prime, None, None, r1, r2, r3, None, r23,
            2 * (r1 + r3 + 1),
        )
        nu = {}
        for N in N_list:
            n_edges = L1Ball((0,) * d, r2 * N).edge_count()
            nu[N] = max(nu_level(spec, n_edges), m_pat + 1.0)
        return replace(cs, nu_of_N=nu)
    # bounded regime
    if not spec.is_bounded:
        raise ValueError("bounded regime requires a bounded support")
    if isinstance(pattern, OrientedPattern):
        lam = pattern.l0
        nu_cap = float(pattern.pattern.event.hi.max())
        K_pat = len(RegionGraph(pattern.pattern.region).axis)
    else:
        box = pattern.region.bounds
        lam = max(map(abs, box.lo + box.hi))
        nu_cap = min(t_max, float(pattern.event.hi.max()))
        K_pat = len(RegionGraph(pattern.region).axis)
    tau = 2 * lam * nu_cap
    T_pat = K_pat * (t_max - rho)
    delta_prime = min(delta / 4, delta / (1 + d))
    L1_const = 10 * lam * d
    L2_const = L1_const + (10 + d) * lam
    eps = min(1 / 11, delta / (24 * C_mu)) / 2
    nabla = 1.01 * max(
        4 * (1 + t_max) * C_mu / (eps * c_mu),
        6 * d * L2_const * C_mu,
        8 * C_mu * T_pat / (3 * delta),
        4 * C_mu * (2 * t_max + tau),
    )
    r2 = (
        math.floor(
            max(
                r1 + 2 * (nabla + 2) / c_mu,
                r1 + L1_const + 3 * nabla / c_mu + 2 * t_max * (1 + (1 + d) * lam) / nu_cap,
            )
        )
        + 1
    )
    r3 = math.floor(7 * r2 * (4 * t_max + alpha * delta) / (alpha * delta)) + 1
    r4 = math.floor(r3 * (rho + delta + t_max) / (rho + delta)) + 1
    K_prime = T_pat + 2 * (C_mu * L1_const + t_max * (lam + 1))
    K_dprime = 1 / (eps * c_mu)
    N_min = 12 * C_mu * K_prime / (delta * nabla)
    return ConstantsSet(
        regime, d, rho, t_max, delta, c_mu, C_mu, alpha,
        lam, nu_cap, tau, T_pat, 0,
        delta_prime, eps, nabla, r1, r2, r3, r4, None,
        2 * (r1 + r4 + 1), K_prime, K_dprime, L1_const, L2_const, N_min,
    )


# ---------------------------------------------------------------------------
# Typicality


@dataclass(frozen=True)
class ClauseReport:
    name: str
    passed: bool
    witness: str = ""


@dataclass(frozen=True)
class TypicalityReport:
    box: BoxScale
    clauses: tuple[ClauseReport, ...]
    below_derived_thresholds: bool = False

    @property
    def typical(self) -> bool:
        return all(c.passed for c in self.clauses)

    def to_text(self) -> str:
        rows = [f"box s={self.box.s} N={self.box.N} radii={self.box.radii} regime={self.box.regime}"]
        if self.below_derived_thresholds:
            rows.append("note: radii overridden below the derived thresholds")
        for c in self.clauses:
            rows.append(f"  [{'pass' if c.passed else 'FAIL'}] {c.name}" + (f" witness: {c.witness}" if c.witness else ""))
        return "\n".join(rows)


# A batch of sources holds at most this many (source x vertex) labels,
# 2 MiB of float64; the clause-(i) search holds about 2d times as many arcs.
# All 313 sources of a radius-12 ball in Z^2 fit in one batch.
BATCH_LABELS = 1 << 18


def _pair_sources(graph: RegionGraph, sample: int | None, seed: int) -> np.ndarray:
    """Source indices of the pair clauses, ascending: every vertex, or a
    seeded subsample of `sample` of them."""
    if sample is not None and sample < 1:
        raise ValueError(f"pair_sample must be at least 1 (or None for every source), got {sample}")
    if sample is None or sample >= graph.n:
        return np.arange(graph.n)
    rs = np.random.default_rng(seed)
    return np.sort(rs.choice(graph.n, size=sample, replace=False))


def _source_batches(graph: RegionGraph, w: np.ndarray, sources: np.ndarray, first: int | None = None):
    """Per batch of sources, in order: the batch, its labels (one Dijkstra
    call, batch x n) and the displacements coords[source] - coords[target]
    (batch x n x d).  A batch holds at most BATCH_LABELS // n sources; with
    first set, the first batch holds first sources and each next one twice
    as many, up to that cap."""
    cap = max(1, BATCH_LABELS // graph.n)
    k, size = 0, min(cap, first or cap)
    while k < len(sources):
        batch = sources[k : k + size]
        yield batch, dijkstra(graph, w, batch), graph.coords[batch][:, None, :] - graph.coords
        k, size = k + size, min(cap, 2 * size)


def _first_pair(mask: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of the first True of a 2-D mask in row-major order (the
    first failing (source, target) pair in index order), or None."""
    if not mask.any():
        return None
    return divmod(int(np.argmax(mask)), mask.shape[1])


def _witness_path(dag: GeodesicDag, j: int) -> str:
    """One optimal path realizing dag.dist[j], serialized as a direction
    string: back from j along the first tight parent not yet on the path."""
    verts = [j]
    while dag.dist[verts[-1]] > 0:
        u = next((u for u, _ in dag.parents[verts[-1]] if u not in verts), None)
        if u is None:
            break
        verts.append(u)
    path = LatticePath(vertex_tuples(dag.graph.coords[verts[::-1]]))
    return f"start={path.start} dirs={path.directions()}"


def _fast_pair_witness(graph, w, batch, dist, sep, threshold, min_sep) -> str:
    """Clause (ii) on one batch: the witness at its first pair at l1
    distance >= min_sep faster than threshold per step, or ""."""
    pair = _first_pair((sep >= min_sep) & lt(dist, threshold * sep))
    if pair is None:
        return ""
    r, j = pair
    vi = graph.vertices[batch[r]]
    return (
        f"pair {vi}->{graph.vertices[j]}: t={dist[r, j]:.6g} < {threshold * sep[r, j]:.6g}; "
        + _witness_path(GeodesicDag(graph, w, vi, dist[r]), j)
    )


def typicality_unbounded(
    box: BoxScale,
    f: WeightField,
    constants: ConstantsSet,
    r23: float | None = None,
    nu_N: float | None = None,
    pair_sample: int | None = None,
) -> TypicalityReport:
    """The three unbounded clauses on B3 = box.outer.

    (i)  sup over B2 of t_B3(sN, .) <= r23 N  and  inf over the B3 boundary
         of t_B3(sN, .) >= 4 r23 N    (one Dijkstra from the center);
    (ii) restricted times between any pair at l1 distance >= (r2-r1)N are
         at least (rho+delta) times the distance (the min over paths with
         fixed endpoints IS the restricted geodesic time, so the universal
         path quantifier reduces exactly);
    (iii) the total weight inside B2 stays below nu(N).
    pair_sample, if set, checks clause (ii) from a seeded subsample of
    sources (desk-scale compromise, reported in the clause name).
    """
    if box.regime != "unbounded":
        raise ValueError("box regime mismatch")
    r1, r2, _ = box.radii
    N = box.N
    r23 = r23 if r23 is not None else (constants.r23 if constants.r23 else 2 * constants.C_mu * r2)
    nu_N = nu_N if nu_N is not None else constants.nu_of_N.get(N)
    if nu_N is None:
        raise ValueError(f"no nu(N) available for N={N}")
    graph, w = _resolve(f, box.outer)
    center = graph.vindex[box.center]
    dist = dijkstra(graph, w, center)
    b2 = box.ball(2)
    coords = graph.coords
    sup_b2 = dist[b2.mask(coords)].max()
    inf_rim = dist[np.abs(coords - coords[center]).sum(axis=1) == box.radii[2] * N].min()
    c1 = ClauseReport(
        "(i) center-ball profile",
        sup_b2 <= r23 * N and inf_rim >= 4 * r23 * N,
        f"sup_B2={sup_b2:.6g} (cap {r23 * N:.6g}), inf_dB3={inf_rim:.6g} (floor {4 * r23 * N:.6g})",
    )
    # clause (ii), up to the first batch with a failing source; that source
    # is often among the first few, so batches double from one source and
    # search at most about twice the sources up to it
    threshold = (constants.rho + constants.delta)
    sources = _pair_sources(graph, pair_sample, derive_seed(0, "pairs", *box.s, N))
    witness = ""
    for batch, labels, disp in _source_batches(graph, w, sources, first=1):
        witness = _fast_pair_witness(graph, w, batch, labels, np.abs(disp).sum(axis=2), threshold, (r2 - r1) * N)
        if witness:
            break
    name2 = "(ii) no abnormally fast pair"
    if pair_sample is not None and pair_sample < graph.n:
        name2 += f" [subsampled {len(sources)} sources]"
    c2 = ClauseReport(name2, not witness, witness)
    total = sum(w[graph.edges_within(b2)].tolist())
    c3 = ClauseReport("(iii) B2 weight sum", total < nu_N, f"sum={total:.6g} vs nu(N)={nu_N:.6g}")
    below = constants.r2 > r2 or constants.r3 > box.radii[2]
    return TypicalityReport(box, (c1, c2, c3), below)


def _mu_values(mu_oracle, disp: np.ndarray) -> np.ndarray:
    """The mu oracle on a (k x d) displacement array: k values."""
    mu = np.asarray(mu_oracle(disp), dtype=np.float64)
    if mu.shape != disp.shape[:1]:
        raise ValueError(f"a mu oracle maps a (k, d) displacement array to k values; got {mu.shape} for k={len(disp)}")
    return mu


def typicality_bounded(
    box: BoxScale,
    f: WeightField,
    constants: ConstantsSet,
    mu_oracle,
    pair_sample: int | None = None,
) -> TypicalityReport:
    """The three bounded clauses.

    (i)  restricted-optimal pairs inside B3 at distance >= N use at least
         alpha * distance edges of weight >= rho + delta (the minimum heavy
         count over time-optimal paths is a Dijkstra on the tight DAG);
    (ii) as in the unbounded regime with B4 and separation N;
    (iii) (1 +- eps) mu approximation, relative to the supplied mu oracle,
          with times restricted to B4 (typicality is B4-local).
    mu_oracle maps a (k x d) array of displacements source - target to k
    values of mu.  Sources run in batches; each clause reports the first
    failing (source, target) pair in index order.
    """
    if box.regime != "bounded":
        raise ValueError("box regime mismatch")
    if mu_oracle is None:
        raise ValueError("the bounded clause (iii) needs a mu oracle")
    if constants.alpha is None or constants.epsilon is None:
        raise ValueError("the bounded clauses need constants.alpha and constants.epsilon")
    r1, r2, r3, r4 = box.radii
    N, alpha, eps = box.N, constants.alpha, constants.epsilon
    graph4, w4 = _resolve(f, box.outer)
    vs = graph4.vertices
    threshold = constants.rho + constants.delta
    heavy = at_least(w4, threshold)
    in_b3 = box.ball(3).mask(graph4.coords)
    sources = _pair_sources(graph4, pair_sample, derive_seed(1, "pairs", *box.s, N))
    wit = ["", "", ""]  # clauses (i), (ii), (iii); "" while the clause holds
    for batch, dist, disp in _source_batches(graph4, w4, sources):
        sep = np.abs(disp).sum(axis=2)
        # clause (ii): B4 pairs
        wit[1] = wit[1] or _fast_pair_witness(graph4, w4, batch, dist, sep, threshold, N)
        # clauses (i) and (iii): B3 pairs at distance >= N
        rows = np.flatnonzero(in_b3[batch])
        pairs = in_b3 & (sep[rows] >= N)
        if not wit[2]:  # mu approximation
            pr, pj = np.nonzero(pairs)  # in (source, target) order
            t = dist[rows[pr], pj]
            mu = _mu_values(mu_oracle, disp[rows[pr], pj])
            off = np.flatnonzero(~(le((1 - eps) * mu - N, t) & le(t, (1 + eps) * mu + N)))
            if len(off):
                k = off[0]
                wit[2] = f"pair {vs[batch[rows[pr[k]]]]}->{vs[pj[k]]}: t={t[k]:.6g} vs mu={mu[k]:.6g}"
        if not wit[0] and len(rows):  # heavy-edge density on restricted-optimal paths
            hmin = tight_min_cost(graph4, w4, dist[rows], batch[rows], heavy)
            pair = _first_pair(pairs & (hmin < alpha * sep[rows]))
            if pair is not None:
                r, j = pair
                i = batch[rows[r]]
                wit[0] = f"pair {vs[i]}->{vs[j]}: min heavy {int(hmin[r, j])} < {alpha * sep[rows[r], j]:.6g}"
        if all(wit):
            break
    suffix = ""
    if pair_sample is not None and pair_sample < graph4.n:
        suffix = f" [subsampled {len(sources)} sources]"
    names = ("(i) heavy-edge density", "(ii) no abnormally fast pair", "(iii) mu approximation")
    clauses = tuple(ClauseReport(name + suffix, not witness, witness) for name, witness in zip(names, wit))
    below = constants.r2 > r2 or constants.r3 > r3 or (constants.r4 or 0) > r4
    return TypicalityReport(box, clauses, below)


# ---------------------------------------------------------------------------
# Annuli, M-sequences, successful boxes, meta-cubes


@dataclass(frozen=True)
class MSequence:
    entries: tuple[tuple[int, Vertex, int], ...]  # (annulus index, center s, crossing path index)

    def __len__(self) -> int:
        return len(self.entries)

    @property
    def annuli(self) -> list[int]:
        return [a for a, _, _ in self.entries]


def box_in_annulus(s: Vertex, N: int, outer_radius: int, r: int) -> int | None:
    """Annulus index containing the whole box, or None."""
    norm = l1(vscale(N, s))
    lo, hi = norm - outer_radius * N, norm + outer_radius * N
    if lo < 0:
        return None
    i = lo // (r * N) + 1
    return i if hi < i * r * N else None


def m_sequence(
    path: LatticePath,
    N: int,
    r: int,
    r1: int,
    outer_radius: int,
    is_typical,
) -> MSequence:
    """The greedy annulus-by-annulus box sequence of a geodesic from 0.

    For j = 1, 2, ...: a_j is the first annulus index > a_{j-1} (a_0 = 1,
    so the first annulus never contributes) in which the path crosses the
    B1 ball of a typical box fully contained in that annulus, before first
    exiting the annulus through its outer sphere.  The box appended is the
    first such box in crossing order, residual ties by lexicographic
    center.  is_typical(s) decides typicality of the box centered at sN.
    """
    coords = np.array(path.vertices, dtype=np.int64).reshape(len(path.vertices), -1)
    # first index at which the path reaches the outer sphere of annulus i
    norm = np.abs(coords).sum(axis=1)
    on_sphere = np.flatnonzero((norm > 0) & (norm % (r * N) == 0))
    annuli, first = np.unique(norm[on_sphere] // (r * N), return_index=True)
    exit_at = dict(zip(annuli.tolist(), on_sphere[first].tolist()))
    best_per_annulus: dict[int, tuple[int, Vertex]] = {}
    for s, k in _first_crossings(coords, N, r1):
        i = box_in_annulus(s, N, outer_radius, r)
        if i is None:
            continue
        exit_k = exit_at.get(i)
        if exit_k is not None and k >= exit_k:
            continue  # crossed only after first leaving through the outer sphere
        if i in best_per_annulus:
            continue  # an earlier (crossing order, then lex) typical box won
        if not is_typical(s):
            continue
        best_per_annulus[i] = (k, s)
    entries = []
    a_prev = 1
    for i in sorted(best_per_annulus):
        if i > a_prev:
            k, s = best_per_annulus[i]
            entries.append((i, s, k))
            a_prev = i
    return MSequence(tuple(entries))


def _first_crossings(coords: np.ndarray, N: int, r1: int) -> list[tuple[Vertex, int]]:
    """Each box centre s whose B1 ball (l1 <= r1 N around sN) the path
    (an L x d coordinate array) enters, with the first path index k that
    does, sorted by (k, s).  Vertex v is tested against the (2 r1 + 3)^d
    centres within r1 + 1 of round(v / N) on every axis, all at once."""
    span = r1 + 1
    offsets = np.array(list(product(range(-span, span + 1), repeat=coords.shape[1])), dtype=np.int64)
    centers = np.rint(coords / N).astype(np.int64)[:, None, :] + offsets
    k, j = np.nonzero(np.abs(coords[:, None, :] - N * centers).sum(axis=2) <= r1 * N)  # in path order
    s = centers[k, j]
    _, first = np.unique(s, axis=0, return_index=True)  # stable: each centre's first crossing
    first = first[np.lexsort((*s[first].T[::-1], k[first]))]
    return list(zip(map(tuple, s[first].tolist()), k[first].tolist()))


def successful_box_check(
    box: BoxScale,
    x: Vertex,
    f: WeightField,
    patterns: Pattern | list[Pattern],
    region: Region | None = None,
    cap: int = 2048,
) -> tuple[bool, bool]:
    """Every enumerated 0 -> x geodesic takes some pattern with its support
    inside B2.  Returns (successful, approximate) where approximate flags a
    truncated enumeration."""
    if isinstance(patterns, Pattern):
        patterns = [patterns]
    gs = enumerate_geodesics((0,) * len(x), x, f, region=region, cap=cap)
    b2 = box.ball(2)
    for g in gs.paths:
        if not any(hits_inside(g, p, f, b2) for p in patterns):
            return False, gs.truncated
    return True, gs.truncated


@dataclass(frozen=True)
class MetaCubeAnimal:
    centers: frozenset[Vertex]
    size: int
    inequality_holds: bool


def meta_cube_animal(path: LatticePath, N: int) -> MetaCubeAnimal:
    """Meta-cubes are half-open width-N cells ((s-1/2)N <= w < (s+1/2)N);
    the visited cells satisfy |path|_e >= N (size/3^d - 1)."""
    d = len(path.vertices[0])
    centers = set()
    for v in path.vertices:
        s = tuple(math.floor(c / N + 0.5) for c in v)
        centers.add(vscale(N, s))
    size = len(centers)
    holds = len(path) >= N * (size / 3**d - 1)
    return MetaCubeAnimal(frozenset(centers), size, holds)
