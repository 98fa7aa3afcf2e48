"""Local patterns: support box, two boundary endpoints, and an event on the
box's edge times.  A self-avoiding path takes the pattern at translate x
when the shifted path runs between the endpoints inside the box and the
shifted environment satisfies the event.

Besides the generic predicates (validity, occurrence counting, inner
optima), this module builds the concrete pattern families used in the
experiments, the cube enlargement for unbounded supports, and the oriented
(overlapping) pattern whose poles sit on opposite cube faces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionSpec
from .fields import EdgeConstraintSet, Interval, RegionGraph, WeightField, _checked
from .geodesics import GeodesicDag, GeodesicSet, _resolve, dijkstra, enumerate_geodesics
from .lattice import (
    Edge,
    LatticePath,
    LInfBall,
    ProductBox,
    Region,
    Vertex,
    direction_order,
    l1,
    monotone_path,
    neighbors,
    straight_path,
    unit,
    vadd,
    vsub,
)
from .tolerance import WALL_LEVEL, agree, in_interval


@dataclass(frozen=True)
class Pattern:
    """(support box, entry endpoint, exit endpoint, edge-time event), plus
    the routes, inner block, alpha or base and connectors a builder made."""

    region: Region
    u_end: Vertex
    v_end: Vertex
    event: EdgeConstraintSet
    tag: str = ""
    routes: tuple[LatticePath, LatticePath] | None = None
    inner: ProductBox | None = None
    alpha: int | None = None
    base: Pattern | None = None
    connectors: tuple[LatticePath, LatticePath] | None = None

    def __post_init__(self):
        if self.u_end == self.v_end:
            raise ValueError("endpoints must be distinct")
        region, event = self.region, self.event
        for z in (self.u_end, self.v_end):
            if not region.contains(z) or all(map(region.contains, neighbors(z))):
                raise ValueError("endpoints must lie on the support boundary")
        bad = np.flatnonzero(~region.edge_mask(event.lower, event.axis))
        if len(bad):
            edges = [self.event.edge(i) for i in bad[:3]]
            raise ValueError(f"event constrains edges outside the support: {edges}")

    @property
    def dim(self) -> int:
        return self.region.dim

    def edge_cost(self, f: WeightField) -> np.ndarray | None:
        """Per edge id of f's graph, whether a step over the edge takes the
        pattern, or None when the support is more than one edge.  On a
        one-edge support a self-avoiding path takes the pattern at x exactly
        when it steps over the support's translate by x and the event holds
        there, so N^P of a path is the sum of this cost over its edges.  The
        event is tested by `tolerance.in_interval`, as in `holds_at`."""
        box = self.region.bounds  # tight, so a box of two points holds just the endpoints
        if math.prod(h - l + 1 for l, h in zip(box.lo, box.hi)) != 2:
            return None
        axis = int(np.flatnonzero(np.subtract(self.v_end, self.u_end))[0])
        cost = f.graph.axis == axis
        for lo, hi in zip(self.event.lo.tolist(), self.event.hi.tolist()):  # constraints lie on the support: one edge
            cost &= in_interval(f.w, lo, hi)
        return cost

    def serialize(self) -> str:
        box = self.region.bounds
        cons = sorted((e, lo_, hi_) for e, (lo_, hi_) in self.event.constraints.items())
        return (
            f"dims={tuple(zip(box.lo, box.hi))!r}; u={self.u_end!r}; v={self.v_end!r}; "
            f"constraints={cons!r}"
        )


@dataclass(frozen=True)
class PatternHit:
    """A translate at which a path takes the pattern."""

    translate: Vertex
    entry_index: int  # index on the path of the first endpoint visit
    exit_index: int


@dataclass(frozen=True)
class PatternVerdict:
    valid: bool
    positive_probability: bool
    has_distinct_normals: bool
    unbounded_support: bool
    reason: str = ""


@dataclass(frozen=True)
class OrientedPattern:
    """Cube pattern with poles +-l0 e_j forcing inner optima through the
    embedded original pattern."""

    pattern: Pattern
    direction: int
    base: Pattern
    guide: LatticePath
    nu0: float
    l1_const: int
    l0: int
    delta_pp: float


def external_normals(z: Vertex, region: Region) -> set[Vertex]:
    """All +-e_i with z + e outside the region (z must be on the boundary)."""
    z = tuple(z)
    normals = {step for step in direction_order(len(z)) if not region.contains(vadd(z, step))}
    if not (normals and region.contains(z)):
        raise ValueError(f"{z} is not on the region boundary")
    return normals


def has_distinct_normal_pair(p: Pattern) -> bool:
    nu = external_normals(p.u_end, p.region)
    nv = external_normals(p.v_end, p.region)
    return any(a != b for a in nu for b in nv)


def validate_pattern(p: Pattern, spec: DistributionSpec) -> PatternVerdict:
    """Valid iff the event has positive probability and (the support of the
    spec is unbounded, or the endpoints carry distinct external normals).
    Positivity is decided per distinct interval: the product of masses
    underflows on large events."""
    positive = all(spec.has_mass_in(lo, hi) for lo, hi, _ in p.event.intervals)
    distinct = has_distinct_normal_pair(p)
    unbounded = not spec.is_bounded
    valid = positive and (unbounded or distinct)
    reason = []
    if not positive:
        reason.append("event has zero probability")
    if not (unbounded or distinct):
        reason.append("bounded support and endpoints share their only normal")
    return PatternVerdict(valid, positive, distinct, unbounded, "; ".join(reason))


def condition_holds(x: Vertex, path: LatticePath, p: Pattern, f: WeightField) -> PatternHit | None:
    """The condition (path; pattern) at translate x.

    The path visits u + x and v + x, in either order, and runs between them
    inside the moved support; and the event holds on the shifted
    environment, (theta_x T)(e) = T(e + x), by `EdgeConstraintSet.holds_at`.
    """
    x = tuple(x)
    try:
        iu = path.index_of(vadd(p.u_end, x))
        iv = path.index_of(vadd(p.v_end, x))
    except ValueError:
        return None
    i, j = min(iu, iv), max(iu, iv)
    for v in path.vertices[i : j + 1]:
        if not p.region.contains(vsub(v, x)):
            return None
    if not p.event.holds_at(f, np.array([x], dtype=np.int64))[0]:
        return None
    return PatternHit(x, i, j)


def pattern_hits(path: LatticePath, p: Pattern, f: WeightField) -> list[PatternHit]:
    """All hits, in path order of the entry index.  The candidates are the
    translates that put the u-endpoint on a path vertex; one `holds_at`
    call keeps those at which the event holds, and `condition_holds`
    confirms each distinct one (a path may revisit a vertex)."""
    z = np.array(path.vertices, dtype=np.int64) - p.u_end
    candidates = set(map(tuple, z[p.event.holds_at(f, z)].tolist()))
    hits = [hit for x in candidates if (hit := condition_holds(x, path, p, f)) is not None]
    hits.sort(key=lambda h: (h.entry_index, h.translate))
    return hits


def hits_inside(path: LatticePath, p: Pattern, f: WeightField, region: Region) -> list[PatternHit]:
    """The hits of p on path whose translated support lies inside region."""
    hits = pattern_hits(path, p, f)
    support = p.region.coords()
    shifts = np.array([h.translate for h in hits], dtype=np.int64).reshape(len(hits), 1, p.dim)
    inside = region.mask((support + shifts).reshape(-1, p.dim)).reshape(len(hits), len(support))
    return [h for h, ok in zip(hits, inside.all(axis=1).tolist()) if ok]


def count_occurrences(path: LatticePath, p: Pattern, f: WeightField) -> int:
    """N^P(path): number of translates satisfying the condition."""
    return len(pattern_hits(path, p, f))


def count_disjoint_occurrences(path: LatticePath, p: Pattern, f: WeightField) -> int:
    """Greedy count of vertex-disjoint hits along path order.

    Greedy acceptance (skip any hit whose translated support shares a
    vertex with an accepted one) keeps at least N / prod(2 L_i + 1) hits,
    since an accepted support can only block translates within its own
    footprint in each coordinate.
    """
    hits = pattern_hits(path, p, f)
    support = list(p.region.vertices())
    taken: list[set[Vertex]] = []
    kept = 0
    for h in hits:
        cells = {vadd(v, h.translate) for v in support}
        if any(cells & prev for prev in taken):
            continue
        taken.append(cells)
        kept += 1
    return kept


def inner_optimal_paths(p: Pattern, f: WeightField, cap: int = 10_000) -> GeodesicSet:
    """All optimal u -> v paths inside the support (the event must hold)."""
    if not p.event.satisfied_by(f):
        raise ValueError("field does not satisfy the pattern event")
    return enumerate_geodesics(p.u_end, p.v_end, f, region=p.region, cap=cap)


# ---------------------------------------------------------------------------
# Concrete constructions


def _ids(graph: RegionGraph, edges: list[Edge]) -> np.ndarray:
    """Ids of edges that must lie in the graph's region."""
    return _checked(edges, graph.edge_ids(edges), ValueError, "edge {} outside the pattern region")


def _constrain_all(
    region: Region, default: Interval, special: list[tuple[Edge, Interval]] = ()
) -> EdgeConstraintSet:
    """Every edge of region in the default interval, except the (distinct)
    edges of special, each in its own interval."""
    graph = RegionGraph(region)
    bounds = np.tile(np.array(default, dtype=np.float64), (len(graph.axis), 1))
    if special:
        edges, intervals = zip(*special)
        bounds[_ids(graph, list(edges))] = intervals
    return EdgeConstraintSet.on_graph(graph, bounds[:, 0], bounds[:, 1])


def obstruction_pattern() -> Pattern:
    """The d=2 obstruction example: 2 x 4 box, endpoints (0,2), (0,1) on the
    same face, edges adjacent to an endpoint at 4, every other edge at 1."""
    region = ProductBox((0, 0), (1, 3))
    u, v = (0, 2), (0, 1)
    special = [(e, (4.0, 4.0)) for e in RegionGraph(region).edges if u in e or v in e]
    return Pattern(region, u, v, _constrain_all(region, (1.0, 1.0), special), "obstruction")


def atom_square_pattern(kappa: float, d: int = 2) -> Pattern:
    """Unit square (times the zero box in extra coordinates) with every edge
    pinned to the atom kappa; two optimal corner-to-corner paths."""
    lo = (0,) * d
    hi = (1, 1) + (0,) * (d - 2)
    region = ProductBox(lo, hi)
    u = lo
    v = (1, 1) + (0,) * (d - 2)
    return Pattern(region, u, v, _constrain_all(region, (kappa, kappa)), "atom-square")


def heavy_edge_pattern(M: float, d: int = 2) -> Pattern:
    """Single-edge pattern whose event is a passage time >= M."""
    region = ProductBox((0,) * d, (1,) + (0,) * (d - 1))
    u = (0,) * d
    v = (1,) + (0,) * (d - 1)
    return Pattern(region, u, v, _constrain_all(region, (M, math.inf)), "heavy-edge")


def _two_route_paths(u: Vertex, k: int, l: int, d: int) -> tuple[LatticePath, LatticePath]:
    """pi+ straight (k steps e1) and pi++ around (l up, k right, l down)."""
    plus = straight_path(u, 0, 1, k)
    pp = straight_path(u, 1, 1, l)
    pp = pp.concat(straight_path(pp.end, 0, 1, k))
    pp = pp.concat(straight_path(pp.end, 1, -1, l))
    return plus, pp


def two_route_pattern_zero_atom(k: int, l: int, spec: DistributionSpec, d: int = 2) -> Pattern:
    """Equal-length-competitor pattern when 0 is an atom: zero times on the
    two routes, strictly positive walls elsewhere."""
    if spec.mass_at(0.0) <= 0:
        raise ValueError("spec needs an atom at zero")
    hi = (k + 2, l + 2) + (2,) * (d - 2)
    region = ProductBox((0,) * d, hi)
    u = tuple(1 if i >= 1 else 0 for i in range(d))
    v = vadd(u, unit(d, 0, k + 2))
    plus = straight_path(u, 0, 1, k + 2)
    pp = straight_path(u, 0, 1, 1)
    pp = pp.concat(straight_path(pp.end, 1, 1, l))
    pp = pp.concat(straight_path(pp.end, 0, 1, k))
    pp = pp.concat(straight_path(pp.end, 1, -1, l))
    pp = pp.concat(straight_path(pp.end, 0, 1, 1))
    special = [(e, (0.0, 0.0)) for e in set(plus.edges()) | set(pp.edges())]
    wall_lo = spec.low_representative(WALL_LEVEL, math.inf)
    return Pattern(
        region, u, v, _constrain_all(region, (wall_lo, math.inf), special), "two-route-zero",
        routes=(plus, pp),
    )


def two_route_pattern_unbounded(
    k: int, l: int, r_atoms: list[float], s_atoms: list[float], M: float, d: int = 2
) -> Pattern:
    """Two equal-time routes with prescribed atoms and walls above M."""
    if len(r_atoms) != k + 2 * l or len(s_atoms) != k:
        raise ValueError("need k+2l r-atoms and k s-atoms")
    if not agree(sum(r_atoms), sum(s_atoms)):
        raise ValueError("atom sums differ: sum r' != sum s'")
    if M <= sum(s_atoms):
        raise ValueError("walls must exceed the route time: M > sum s'")
    hi = (k, l) + (0,) * (d - 2)
    region = ProductBox((0,) * d, hi)
    u = (0,) * d
    v = vadd(u, unit(d, 0, k))
    plus, pp = _two_route_paths(u, k, l, d)
    special = [(e, (val, val)) for val, e in zip(s_atoms + r_atoms, plus.edges() + pp.edges())]
    return Pattern(
        region, u, v, _constrain_all(region, (M, math.inf), special), "two-route-unbounded",
        routes=(plus, pp),
    )


def two_route_pattern_bounded(
    k: int, l: int, r_atoms: list[float], s_atoms: list[float], d: int = 2
) -> Pattern:
    """Bounded-support variant: the rectangle is scaled by the integer
    alpha > max(k/(2l), k a_max / (l t_w)) and the atoms repeat cyclically
    along each side; all other support edges sit at a_max."""
    if len(r_atoms) != k + 2 * l or len(s_atoms) != k:
        raise ValueError("need k+2l r-atoms and k s-atoms")
    if not agree(sum(r_atoms), sum(s_atoms)):
        raise ValueError("atom sums differ: sum r' != sum s'")
    a_max = max(r_atoms + s_atoms)
    if sum(1 for v in r_atoms if v < a_max) < 2 * l:
        raise ValueError("the atom-sum identity forces at least 2l r-atoms below a_max")
    # reindex so r'_1..r'_{2l} are all < a_max
    order = [i for i in range(len(r_atoms)) if r_atoms[i] < a_max]
    order += [i for i in range(len(r_atoms)) if r_atoms[i] >= a_max]
    r_sorted = [r_atoms[i] for i in order]
    t_w = a_max - max(r_sorted[: 2 * l])
    alpha = int(max(k / (2 * l), k * a_max / (l * t_w))) + 1
    kp, lp = alpha * k, alpha * l
    hi = (kp, lp) + (0,) * (d - 2)
    region = ProductBox((0,) * d, hi)
    u = (0,) * d
    v = vadd(u, unit(d, 0, kp))
    plus, pp = _two_route_paths(u, kp, lp, d)
    e1 = plus.edges()  # already in path order (monotone)
    up_leg = [(pp.vertices[i], pp.vertices[i + 1]) for i in range(lp)]
    top_leg = [(pp.vertices[lp + i], pp.vertices[lp + i + 1]) for i in range(kp)]
    down_leg = [(pp.vertices[lp + kp + i], pp.vertices[lp + kp + i + 1]) for i in range(lp)]
    special = [(e, (s_atoms[i % k],) * 2) for i, e in enumerate(e1)]
    special += [(e, (r_sorted[2 * l + i % k],) * 2) for i, e in enumerate(top_leg)]
    special += [(e, (r_sorted[i % l],) * 2) for i, e in enumerate(up_leg)]
    special += [(e, (r_sorted[l + i % l],) * 2) for i, e in enumerate(down_leg)]
    return Pattern(
        region, u, v, _constrain_all(region, (a_max, a_max), special), "two-route-bounded",
        routes=(plus, pp), alpha=alpha,
    )


def shift_concavity_pattern(k: int, l: int, r: float, s: float, delta: float, d: int = 2) -> Pattern:
    """Shift-concavity pattern: inner block at r +- delta on the detour, the
    rest of the support at s +- delta; requires k(s+d) < (k+2l)(r-d)."""
    if not k * (s + delta) < (k + 2 * l) * (r - delta):
        raise ValueError("inequality k(s+delta) < (k+2l)(r-delta) fails")
    L = k + l + 1
    hi = (k + 2 * L, l + 2 * L) + (2 * L,) * (d - 2)
    region = ProductBox((0,) * d, hi)
    u = tuple(0 if i == 0 else L for i in range(d))
    v = vadd(u, unit(d, 0, k + 2 * L))
    inner = ProductBox((L,) * d, (k + L, l + L) + (L,) * (d - 2))
    plus = straight_path(u, 0, 1, k + 2 * L)
    pp = straight_path(u, 0, 1, L)
    pp = pp.concat(straight_path(pp.end, 1, 1, l))
    pp = pp.concat(straight_path(pp.end, 0, 1, k))
    pp = pp.concat(straight_path(pp.end, 1, -1, l))
    pp = pp.concat(straight_path(pp.end, 0, 1, L))
    special = [(e, (r - delta, r + delta)) for e in pp.edges() if inner.contains_edge(e)]
    return Pattern(
        region, u, v, _constrain_all(region, (s - delta, s + delta), special), "shift-concavity",
        routes=(plus, pp), inner=inner,
    )


def shift_concavity_properties(p: Pattern, f: WeightField, cap: int = 4096) -> tuple[bool, bool]:
    """(P1, P2) for a shift-concavity sample.

    P1: the straight route is the unique inner-optimal path.
    P2: for every inner-block boundary vertex w1, the dearest l1-optimal
        path from w1 into the block still costs less than the cheapest
        path from w1 out to the support boundary.
    """
    plus, _ = p.routes
    inner = p.inner
    graph, w = _resolve(f, p.region)
    opt = GeodesicDag.between(graph, w, p.u_end, p.v_end).geodesics(cap)
    p1 = (not opt.truncated) and len(opt.paths) == 1 and opt.paths[0] == plus

    outer = graph.boundary_indices()
    inner_graph = RegionGraph(inner)
    p2 = True
    for w1 in (inner_graph.vertices[i] for i in inner_graph.boundary_indices()):
        # max over monotone (= l1-optimal, they stay in the block's hull)
        # paths from w1 to any block vertex
        best: dict[Vertex, float] = {w1: 0.0}
        frontier = [w1]
        worst_inner = 0.0
        while frontier:
            nxt = []
            for w0 in frontier:
                for axis in range(p.dim):
                    for sign in (1, -1):
                        z = vadd(w0, unit(p.dim, axis, sign))
                        if not inner.contains(z) or l1(z, w1) != l1(w0, w1) + 1:
                            continue
                        c = best[w0] + f.time((w0, z))
                        if c > best.get(z, -math.inf):
                            best[z] = c
                            nxt.append(z)
            frontier = nxt
        worst_inner = max(best.values())
        dist = dijkstra(graph, w, graph.vindex[w1])
        exit_cost = min(dist[i] for i in outer)
        if not worst_inner < exit_cost:
            p2 = False
            break
    return p1, p2


def shift_concavity_search_delta(
    k: int,
    l: int,
    r: float,
    s: float,
    spec: DistributionSpec,
    seed: int,
    delta0: float = 0.25,
    probes: int = 5,
    d: int = 2,
) -> tuple[Pattern, float]:
    """Shrink delta (halving) until the defining inequality holds and probe
    G(delta)-samples satisfy P1 and P2."""
    from .fields import sample_conditioned

    delta = delta0
    for _ in range(20):
        try:
            pat = shift_concavity_pattern(k, l, r, s, delta, d)
        except ValueError:
            delta /= 2
            continue
        if spec.mass_in(r - delta, r + delta) <= 0 or spec.mass_in(s - delta, s + delta) <= 0:
            raise ValueError("spec has no mass near r or s")
        ok = True
        for i in range(probes):
            f = sample_conditioned(pat.region, spec, pat.event, seed + i)
            p1, p2 = shift_concavity_properties(pat, f)
            if not (p1 and p2):
                ok = False
                break
        if ok:
            return pat, delta
        delta /= 2
    raise ValueError("no delta small enough found")


# ---------------------------------------------------------------------------
# Pattern transforms


def enlarge_to_cube(p: Pattern, m_cap: float) -> Pattern:
    """Embed a valid pattern into a centered cube pattern (unbounded spec).

    The cube has half-width max(L_i); straight connectors leave each
    endpoint along its smallest-index external normal, connector and
    original edges are capped at m_cap, and every other cube edge carries
    a wall above |cube|_e * m_cap, so any inner-optimal path between the
    cube poles must traverse the original pattern.
    """
    box = p.region.bounds
    lam = max(map(abs, box.lo + box.hi))
    cube = LInfBall((0,) * p.dim, lam)

    def connector(z: Vertex) -> LatticePath:
        for step in direction_order(p.dim):
            if not p.region.contains(vadd(z, step)):
                axis = [i for i, c in enumerate(step) if c][0]
                sign = step[axis]
                steps = lam - sign * z[axis] if sign > 0 else lam + z[axis]
                return straight_path(z, axis, sign, steps)
        raise AssertionError("endpoint has no external normal")

    pu = connector(p.u_end)
    pv = connector(p.v_end)
    if set(pu.vertices) & set(pv.vertices):
        raise AssertionError("connectors intersect")
    graph = RegionGraph(cube)
    wall = len(graph.axis) * m_cap
    lo, hi = np.full(len(graph.axis), wall + 1.0), np.full(len(graph.axis), math.inf)
    kept = _ids(graph, RegionGraph(p.region).edges + pu.edges() + pv.edges())
    lo[kept], hi[kept] = 0.0, m_cap
    event = p.event
    above = np.flatnonzero(event.lo > m_cap)
    if len(above):
        i = above[0]
        raise ValueError(f"m_cap={m_cap} lies below the event floor {event.lo[i]} on {event.edge(i)}")
    ids = graph.ids_at(event.lower, event.axis)
    lo[ids], hi[ids] = event.lo, np.minimum(event.hi, m_cap)
    return Pattern(
        cube, pu.end, pv.end, EdgeConstraintSet.on_graph(graph, lo, hi), p.tag + "+cube",
        base=p, connectors=(pu, pv),
    )


def orient_pattern(
    p: Pattern,
    j: int,
    spec: DistributionSpec,
    nu: float,
    nu0: float,
    delta_p: float,
) -> OrientedPattern:
    """Build the overlapping pattern with poles -l0 e_j, +l0 e_j.

    A guiding path runs pole -> face -> descents -> the original pattern
    -> back out to the other pole; its outside-support edges are cheap
    (<= rho + delta''), support edges follow the original event capped at
    nu0, and every other cube edge lies in [nu0, nu].  The constants l1,
    l0, delta'' are the minimal values compatible with the three defining
    inequalities.
    """
    d = p.dim
    rho = spec.rho
    if not (rho < nu0 <= nu <= spec.t_max):
        raise ValueError("need rho < nu0 <= nu <= t_max")
    if spec.mass_in(nu0, nu) <= 0:
        raise ValueError("no admissible nu0: zero mass on [nu0, nu]")
    if nu0 - rho - 2 * delta_p <= 0:
        raise ValueError("delta' too large: need delta' < (nu0 - rho)/2")
    box = p.region.bounds
    lam = max(map(abs, box.lo + box.hi))
    l1c = math.floor(4 * d * lam * (nu0 - rho - delta_p / 2) / (nu0 - rho - delta_p)) + 1
    l0 = (
        math.floor(
            (
                lam * ((2 * d + 1) * nu0 + (2 * d - 1) * rho + 2 * d * delta_p)
                + l1c * (nu0 + 3 * rho + 4 * delta_p)
            )
            / (nu0 - rho - 2 * delta_p)
        )
        + 1
    )
    ddp = min(delta_p, (nu0 - rho) / (2 * d * l0)) / 2
    if spec.mass_in(0.0, rho + ddp) <= 0:
        raise ValueError("no mass near the support minimum")

    # distinct external normals for the two endpoints (lexicographic pair)
    nu_set = sorted(external_normals(p.u_end, p.region), key=direction_order(d).index)
    nv_set = sorted(external_normals(p.v_end, p.region), key=direction_order(d).index)
    pair = next(
        ((a, b) for a in nu_set for b in nv_set if a != b),
        None,
    )
    if pair is None:
        raise ValueError("endpoints lack distinct external normals")
    alpha_u, alpha_v = pair
    u3, v3 = p.u_end, p.v_end
    u2 = vadd(u3, tuple(l1c * c for c in alpha_u))
    v2 = vadd(v3, tuple(l1c * c for c in alpha_v))
    if u2[j] < v2[j]:
        u3, v3 = v3, u3
        alpha_u, alpha_v = alpha_v, alpha_u
        u2, v2 = v2, u2
    u1 = vadd(u2, unit(d, j, l0 - u2[j]))
    v1 = vadd(v2, unit(d, j, -(l0 + v2[j])))

    top = vadd((0,) * d, unit(d, j, l0))
    bottom = vadd((0,) * d, unit(d, j, -l0))
    guide = monotone_path(top, u1)
    guide = guide.concat(monotone_path(u1, u2))
    guide = guide.concat(monotone_path(u2, u3))
    guide = guide.concat(monotone_path(u3, v3))
    guide = guide.concat(monotone_path(v3, v2))
    guide = guide.concat(monotone_path(v2, v1))
    guide = guide.concat(monotone_path(v1, bottom))
    if not guide.is_self_avoiding():
        raise AssertionError("guiding path is not self-avoiding")

    cube = LInfBall((0,) * d, l0)
    graph = RegionGraph(cube)
    lo, hi = np.full(len(graph.axis), float(nu0)), np.full(len(graph.axis), float(nu))
    guide_ids = _ids(graph, guide.edges())
    lo[guide_ids], hi[guide_ids] = 0.0, rho + ddp
    support = _ids(graph, RegionGraph(p.region).arrays)
    lo[support], hi[support] = 0.0, nu0
    event = p.event
    ids = graph.ids_at(event.lower, event.axis)
    lo[ids], hi[ids] = event.lo, np.minimum(event.hi, nu0)
    pat = Pattern(cube, top, bottom, EdgeConstraintSet.on_graph(graph, lo, hi), p.tag + f"+oriented{j + 1}")
    return OrientedPattern(pat, j, p, guide, nu0, l1c, l0, ddp)
