"""Constructive halves of the environment-modification arguments.

Unbounded regime: a geodesic crossing a typical box is rerouted through a
planted pattern by making a deterministic corridor cheap and walling off
the rest of the B2 ball; every geodesic in the spliced environment then
takes the pattern, and old and new geodesics are associated inside B3.

Bounded regime: a two-stage splice; the first stage shrinks heavy edges
of the geodesic between B3 and B2, the second installs an oriented
highway with the pattern on its central step and walls around it.

Plans are built from an explicit (geodesic, box) pair; the probabilistic
selection scaffolding of the proofs is out of scope.  verify_* functions
re-check every guaranteed property on concrete instances and report
each one separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import EdgeConstraintSet, WeightField, splice
from .geodesics import (
    RegionGraph,
    _resolve,
    dijkstra,
    enumerate_geodesics,
    first_lex_geodesic,
    restricted_geodesic_time,
)
from .lattice import (
    Edge,
    LatticePath,
    LInfBall,
    Region,
    Vertex,
    cut_loops,
    direction_order,
    l1,
    linf,
    monotone_path,
    unit,
    vadd,
    vertex_tuples,
    vneg,
    vscale,
    vsub,
)
from .patterns import OrientedPattern, Pattern, condition_holds, hits_inside
from .renormalization import BoxScale, ConstantsSet
from .tolerance import at_least, close, le, lt


class PlanError(Exception):
    """A required anchor or precondition of a modification plan failed."""


# ---------------------------------------------------------------------------
# Deterministic path constructions


def _descents(v: Vertex) -> list[Vertex]:
    out = []
    for i, c in enumerate(v):
        if c != 0:
            w = list(v)
            w[i] -= 1 if c > 0 else -1
            out.append(tuple(w))
    return out


def radial_disjoint_paths(
    x: Vertex, y: Vertex, m: int, center: Vertex | None = None
) -> tuple[LatticePath, LatticePath]:
    """Two deterministic norm-reducing paths x -> center and y -> center of
    length m that share only the center; each start is its path's unique
    vertex at l1 distance >= m.

    Both paths descend one norm level per step (first nonzero coordinate
    by default); when the default steps of the two walkers collide at a
    level above the center, the walker with a spare nonzero coordinate is
    diverted, which is always possible.
    """
    center = center if center is not None else (0,) * len(x)
    a, b = vsub(x, center), vsub(y, center)
    if l1(a) != m or l1(b) != m or a == b or m < 1:
        raise ValueError("need |x - c| = |y - c| = m and x != y")
    pa, pb = [a], [b]
    for h in range(m, 0, -1):
        na, nb = _descents(a)[0], _descents(b)[0]
        if na == nb and h > 1:
            alts_a, alts_b = _descents(a), _descents(b)
            if len(alts_a) > 1:
                na = next(z for z in alts_a if z != nb)
            else:
                nb = next(z for z in alts_b if z != na)
        a, b = na, nb
        pa.append(a)
        pb.append(b)
    path_x = LatticePath([vadd(v, center) for v in pa])
    path_y = LatticePath([vadd(v, center) for v in pb])
    return path_x, path_y


def _shell_route(
    center: Vertex, R: int, a: Vertex, b: Vertex, avoid: set[Vertex]
) -> LatticePath:
    """Deterministic shortest path from a to b along the l-inf shell of
    radius R around center, avoiding the given vertices (BFS, lexicographic
    parent ties)."""
    if linf(a, center) != R or linf(b, center) != R:
        raise ValueError("endpoints not on the shell")
    if a in avoid or b in avoid:
        raise PlanError("shell route endpoint is excluded")
    if a == b:
        return LatticePath([a])
    parent: dict[Vertex, Vertex] = {a: a}
    frontier = [a]
    while frontier:
        nxt = []
        for v in sorted(frontier):
            for i in range(len(v)):
                for sign in (1, -1):
                    w = list(v)
                    w[i] += sign
                    w = tuple(w)
                    if linf(w, center) != R or w in parent or w in avoid:
                        continue
                    parent[w] = v
                    if w == b:
                        path = [w]
                        while path[-1] != a:
                            path.append(parent[path[-1]])
                        return LatticePath(path[::-1])
                    nxt.append(w)
        frontier = nxt
    raise PlanError("shell route disconnected by the avoid set")


def _inward_steps(v: Vertex, center: Vertex, target_r: int, avoid: set[Vertex]) -> LatticePath:
    """Reduce coordinates at the current l-inf radius (lex order) until the
    shell of the target radius is reached."""
    path = [v]
    cur = v
    while linf(cur, center) > target_r:
        rad = linf(cur, center)
        stepped = False
        for i in range(len(cur)):
            if abs(cur[i] - center[i]) == rad:
                w = list(cur)
                w[i] += -1 if cur[i] > center[i] else 1
                w = tuple(w)
                if w in avoid:
                    continue
                cur = w
                path.append(cur)
                stepped = True
                break
        if not stepped:
            raise PlanError("inward descent blocked by the avoid set")
    return LatticePath(path)


def connector_path_unbounded(
    u: Vertex,
    v: Vertex,
    s: Vertex,
    N: int,
    lam: int,
    u_end: Vertex,
    v_end: Vertex,
    r2: int,
) -> tuple[LatticePath, LatticePath, LatticePath]:
    """The deterministic corridor of the unbounded modification.

    Returns (pi, pi_u, pi_v): the full self-avoiding path from u to v and
    its two outside-the-pattern legs.  pi runs u -> u_end without touching
    B_inf(sN, lam), crosses the pattern cube by an l1-shortest u_end ->
    v_end segment, and leaves v_end -> v; it stays inside B2 and meets the
    B2 boundary only at u and v.  The legs' total length is below
    2 r2 N + (edge count of B_inf(0, lam + 3)).

    The shell routing around the cube follows the two-case construction:
    the generic case routes one leg on the lam+3 shell and the other on
    the lam+2 shell; the degenerate case (both radial entries at l1
    distance exactly 3 from the opposite endpoint) swaps to near-antipodal
    shell targets first.
    """
    if N < lam + 3:
        raise PlanError(f"need N >= lam + 3 (N={N}, lam={lam})")
    center = vscale(N, s)
    m = r2 * N
    if l1(u, center) != m or l1(v, center) != m:
        raise PlanError("u and v must lie on the B2 boundary")
    rad_u, rad_v = radial_disjoint_paths(u, v, m, center)
    cube3 = LInfBall(center, lam + 3)
    iu = next(i for i, z in enumerate(rad_u.vertices) if cube3.contains(z))
    iv = next(i for i, z in enumerate(rad_v.vertices) if cube3.contains(z))
    u0 = rad_u.vertices[iu]
    v0 = rad_v.vertices[iv]
    leg_u_out = LatticePath(rad_u.vertices[: iu + 1])
    leg_v_out = LatticePath(rad_v.vertices[: iv + 1])

    d = len(u)
    far_v = l1(v0, u_end) > 3
    far_u = l1(u0, v_end) > 3

    def normals_at(z: Vertex) -> list[Vertex]:
        cube = LInfBall(center, lam)
        return [step for step in direction_order(d) if not cube.contains(vadd(z, step))]

    # _generic_shell_legs(a0, b0, a_end, b_end) -> (a0 -> a_end, b_end -> b0)
    if far_v or far_u:
        if not far_v:
            # mirror the construction: swap the roles of the two sides
            leg_v, leg_u = _generic_shell_legs(center, lam, v0, u0, v_end, u_end, normals_at)
            pi_u_in, pi_v_in = leg_u.reversed(), leg_v.reversed()
        else:
            pi_u_in, pi_v_in = _generic_shell_legs(center, lam, u0, v0, u_end, v_end, normals_at)
    else:
        pi_u_in, pi_v_in = _degenerate_shell_legs(center, lam, u0, v0, u_end, v_end, normals_at)

    mid = monotone_path(u_end, v_end)
    pi_u = leg_u_out.concat(pi_u_in)
    pi_v = pi_v_in.concat(leg_v_out.reversed())
    pi = pi_u.concat(mid).concat(pi_v)
    _validate_connector(pi, pi_u, pi_v, u, v, center, lam, N, r2, u_end, v_end, d)
    return pi, pi_u, pi_v


def _generic_shell_legs(center, lam, u0, v0, u_end, v_end, normals_at):
    """Case |v0 - u_end|_1 > 3: u-leg on the lam+3 shell, v-leg on lam+2."""
    d = len(center)
    tilde = _inward_steps(v0, center, lam + 2, {u0})
    v0p = tilde.end
    avoid_u = set(tilde.vertices)
    for alpha in normals_at(u_end):
        target = vadd(u_end, vscale(3, alpha))
        if linf(target, center) != lam + 3 or target in avoid_u:
            continue
        try:
            route1 = _shell_route(center, lam + 3, u0, target, avoid_u)
        except PlanError:
            continue
        descent1 = LatticePath(
            [vadd(u_end, vscale(k, alpha)) for k in range(3, -1, -1)]
        )
        pi_u_in = route1.concat(descent1)
        break
    else:
        raise PlanError("no admissible normal for the u-side shell route")
    taken = set(pi_u_in.vertices)
    for beta in normals_at(v_end):
        v_mid = vadd(v_end, beta)
        v_tgt = vadd(v_end, vscale(2, beta))
        if v_mid in taken or v_tgt in taken:
            continue
        try:
            route2 = _shell_route(center, lam + 2, v_tgt, v0p, taken)
        except PlanError:
            continue
        pi_v_in = LatticePath([v_end, v_mid, v_tgt]).concat(route2).concat(tilde.reversed())
        break
    else:
        raise PlanError("no admissible normal for the v-side shell route")
    return pi_u_in, pi_v_in


def _degenerate_shell_legs(center, lam, u0, v0, u_end, v_end, normals_at):
    """Case |u0 - v_end|_1 = |v0 - u_end|_1 = 3: route each leg to a shell
    vertex adjacent to the other side's entry first, then descend."""
    d = len(center)
    nbs_v0 = sorted(
        w for w in ( tuple(a + s if i == j else a for i, a in enumerate(v0))
                     for j in range(d) for s in (1, -1) )
        if linf(w, center) == lam + 3 and w != u0
    )
    if not nbs_v0:
        raise PlanError("no shell neighbor of v0")
    u0pp = nbs_v0[0]
    route1 = _shell_route(center, lam + 3, u0, u0pp, {v0})
    alpha = normals_at(u_end)[0]
    u_tgt = vadd(u_end, vscale(2, alpha))
    drop1 = _inward_steps(u0pp, center, lam + 2, {v0})
    band1 = _shell_route(center, lam + 2, drop1.end, u_tgt, set(route1.vertices) | {v0})
    descent1 = LatticePath([u_tgt, vadd(u_end, alpha), u_end])
    pi_u_in = route1.concat(drop1).concat(band1).concat(descent1)
    taken = set(pi_u_in.vertices)
    nbs_u0 = sorted(
        w for w in ( tuple(a + s if i == j else a for i, a in enumerate(u0))
                     for j in range(d) for s in (1, -1) )
        if linf(w, center) == lam + 3 and w != v0 and w not in taken
    )
    if not nbs_u0:
        raise PlanError("no shell neighbor of u0")
    v0pp = nbs_u0[0]
    route2 = _shell_route(center, lam + 3, v0, v0pp, taken | {u0})
    beta = next(b for b in normals_at(v_end) if vadd(v_end, b) not in taken)
    v_tgt = vadd(v_end, beta)
    drop2 = _inward_steps(v0pp, center, lam + 1, taken)
    band2 = _shell_route(center, lam + 1, drop2.end, v_tgt, taken)
    pi_v_in = (
        LatticePath([v_end, v_tgt])
        .concat(band2.reversed())
        .concat(drop2.reversed())
        .concat(route2.reversed())
    )
    return pi_u_in, pi_v_in


def _validate_connector(pi, pi_u, pi_v, u, v, center, lam, N, r2, u_end, v_end, d):
    cube = LInfBall(center, lam)
    if not pi.is_self_avoiding():
        raise PlanError("connector is not self-avoiding")
    if pi.start != u or pi.end != v:
        raise PlanError("connector endpoints wrong")
    for z in pi_u.vertices[:-1]:
        if cube.contains(z):
            raise PlanError("u-leg touches the pattern cube")
    for z in pi_v.vertices[1:]:
        if cube.contains(z):
            raise PlanError("v-leg touches the pattern cube")
    m = r2 * N
    for z in pi.vertices:
        if l1(z, center) > m:
            raise PlanError("connector leaves B2")
    on_rim = [z for z in pi.vertices if l1(z, center) == m]
    if set(on_rim) != {u, v}:
        raise PlanError("connector touches the B2 boundary off its endpoints")
    K = LInfBall((0,) * d, lam + 3).edge_count()
    if len(pi_u) + len(pi_v) > 2 * r2 * N + K:
        raise PlanError("connector legs exceed the length bound")


# ---------------------------------------------------------------------------
# Association of paths in a box


def associated_in(g1: LatticePath, g2: LatticePath, region: Region) -> tuple[Vertex, Vertex] | None:
    """Witness (s1, s2) that two 0 -> x paths are associated in the region:
    equal prefixes to s1, equal suffixes from s2, both middles inside.
    Uses the maximal common prefix and suffix, which succeeds whenever any
    witness pair does."""
    if g1.start != g2.start or g1.end != g2.end:
        return None
    a, b = g1.vertices, g2.vertices
    i = 0
    while i < min(len(a), len(b)) - 1 and a[i + 1] == b[i + 1]:
        i += 1
    j = 0
    while j < min(len(a), len(b)) - 1 and a[-2 - j] == b[-2 - j]:
        j += 1
    s1, s2 = a[i], a[len(a) - 1 - j]
    if s1 == s2 and g1 == g2:
        # identical paths: any two visited region vertices witness association
        inside = [z for z in a if region.contains(z)]
        if len(inside) >= 2:
            return inside[0], inside[-1]
        return None
    for z in a[i : len(a) - j] + b[i : len(b) - j]:
        if not region.contains(z):
            return None
    return s1, s2


# ---------------------------------------------------------------------------
# Unbounded plan


@dataclass
class PlanUnbounded:
    box: BoxScale
    pattern: Pattern  # centered cube pattern
    gamma: LatticePath
    u: Vertex
    v: Vertex
    pi: LatticePath
    pi_u: LatticePath
    pi_v: LatticePath
    u_end: Vertex
    v_end: Vertex
    e_plus: frozenset[Edge]
    e_minus: frozenset[Edge]
    target: EdgeConstraintSet  # event for the donor environment on B2 edges
    nu_N: float
    delta_prime: float
    b2_edges: list[Edge]  # the spliced edges, in edge order

    def dump(self) -> str:
        return "\n".join(
            [
                f"unbounded plan: box s={self.box.s} N={self.box.N} radii={self.box.radii}",
                f"  u={self.u} v={self.v} u_end={self.u_end} v_end={self.v_end}",
                f"  |pi|={len(self.pi)} |E*+|={len(self.e_plus)} |E*-|={len(self.e_minus)}",
                f"  nu(N)={self.nu_N:.6g} delta'={self.delta_prime:.6g}",
            ]
        )


def build_plan_unbounded(
    f: WeightField,
    gamma: LatticePath,
    box: BoxScale,
    pattern: Pattern,
    constants: ConstantsSet,
    nu_N: float | None = None,
) -> PlanUnbounded:
    """Corridor, E-sets, and donor event for the one-stage modification.

    E*- holds the corridor edges outside the pattern cube (times pushed
    below rho + delta'), E*+ every other B2 edge off the cube (times
    pushed above nu(N)); together with the cube edges they partition B2.
    """
    if not isinstance(pattern.region, LInfBall) or pattern.region.center != (0,) * pattern.dim:
        raise PlanError("the unbounded plan needs a centered cube pattern")
    lam = pattern.region.radius
    b1 = box.ball(1)
    if not any(b1.contains(z) for z in gamma.vertices):
        raise PlanError("the geodesic does not cross the box")
    b2 = box.ball(2)
    u, v = _entry_exit(gamma, b2)
    center = box.center
    u_end, v_end = vadd(pattern.u_end, center), vadd(pattern.v_end, center)
    pi, pi_u, pi_v = connector_path_unbounded(
        u, v, box.s, box.N, lam, u_end, v_end, box.radii[1]
    )
    cube = LInfBall(center, lam)
    pi_edges = set(pi.edges())
    cube_edges = {e for e in pi_edges if cube.contains_edge(e)}
    e_minus = frozenset(pi_edges - cube_edges)
    graph = f.graph
    b2_edges = graph.edges_within(b2)
    e_plus = frozenset(set(b2_edges) - set(graph.edges_within(cube)) - pi_edges)
    nu_val = nu_N if nu_N is not None else constants.nu_of_N.get(box.N)
    if nu_val is None:
        raise PlanError(f"no nu(N) for N={box.N}")
    cheap = constants.rho + constants.delta_prime
    target = (
        EdgeConstraintSet.on_graph(graph, nu_val, math.inf, graph.edge_ids(e_plus))
        .merged_with(EdgeConstraintSet.on_graph(graph, 0.0, cheap, graph.edge_ids(e_minus)))
        .merged_with(pattern.event.translate(vneg(center)))
    )
    return PlanUnbounded(
        box, pattern, gamma, u, v, pi, pi_u, pi_v, u_end, v_end,
        e_plus, e_minus, target, nu_val, constants.delta_prime, b2_edges,
    )


@dataclass
class Clause:
    name: str
    passed: bool
    note: str = ""


@dataclass
class VerificationReport:
    clauses: list[Clause] = field(default_factory=list)
    approximate: bool = False
    below_thresholds: bool = False

    def add(self, name: str, passed: bool, note: str = ""):
        self.clauses.append(Clause(name, bool(passed), note))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    def failures(self) -> list[Clause]:
        return [c for c in self.clauses if not c.passed]

    def to_text(self) -> str:
        rows = []
        if self.below_thresholds:
            rows.append("note: constants below the derived thresholds; clause failures may be legitimate")
        if self.approximate:
            rows.append("note: geodesic enumeration truncated; verdicts approximate")
        for c in self.clauses:
            rows.append(f"[{'pass' if c.passed else 'FAIL'}] {c.name}" + (f" ({c.note})" if c.note else ""))
        return "\n".join(rows)


def _entry_exit(path: LatticePath, region: Region) -> tuple[Vertex, Vertex] | None:
    inside = [z for z in path.vertices if region.contains(z)]
    if not inside:
        return None
    return inside[0], inside[-1]


def verify_modification_unbounded(
    plan: PlanUnbounded,
    f: WeightField,
    donor: WeightField,
    x: Vertex,
    cap: int = 512,
    graph: RegionGraph | None = None,
) -> tuple[VerificationReport, WeightField]:
    """Re-check every rerouting clause on a concrete instance.

    The donor must satisfy the plan's target event (tampering refused);
    the spliced field replaces every B2 edge with the donor's time.
    """
    if not plan.target.satisfied_by(donor):
        raise PlanError("donor field does not satisfy the target event")
    rep = VerificationReport()
    star = splice(f, donor, plan.b2_edges)
    zero = (0,) * len(x)
    t_old, _ = restricted_geodesic_time(zero, x, f, graph=graph)
    t_new, star_dag = restricted_geodesic_time(zero, x, star, graph=graph)
    gamma = plan.gamma
    b2, b3 = plan.box.ball(2), plan.box.outer
    cube = LInfBall(plan.box.center, plan.pattern.region.radius)

    # rerouting witness: gamma* = gamma_{0,u} + pi_u + inner-optimal + pi_v + gamma_{v,x}
    inner = enumerate_geodesics(plan.u_end, plan.v_end, star, region=cube, cap=64)
    gamma_star = (
        gamma.subpath(gamma.start, plan.u)
        .concat(plan.pi_u)
        .concat(inner.paths[0])
        .concat(plan.pi_v)
        .concat(gamma.subpath(plan.v, gamma.end))
    )
    rep.add("gamma* is self-avoiding", gamma_star.is_self_avoiding())
    ts = star.path_time(gamma_star)
    rep.add(
        "rerouting wins: T*(gamma*) < T(gamma)",
        lt(ts, t_old),
        f"T*(gamma*)={ts:.6g}, T(gamma)={t_old:.6g}",
    )
    rep.add(
        "gamma* is a geodesic in T*",
        close(ts, t_new),
        f"T*(gamma*)={ts:.6g}, t*(0,x)={t_new:.6g}",
    )
    w = associated_in(gamma_star, gamma, b3)
    rep.add("gamma* associated with gamma in B3", w is not None)

    stars = star_dag.geodesics(cap)
    rep.approximate = stars.truncated
    all_hit = True
    all_entry = True
    all_follow = True
    all_assoc = True
    for g in stars.paths:
        if not hits_inside(g, plan.pattern, star, b2):
            all_hit = False
        ee = _entry_exit(g, b2)
        if ee != (plan.u, plan.v):
            all_entry = False
        try:
            seg_u = g.subpath(plan.u, plan.u_end)
            seg_v = g.subpath(plan.v_end, plan.v)
            if seg_u != plan.pi_u or seg_v != plan.pi_v:
                all_follow = False
        except ValueError:
            all_follow = False
        # association with a T-geodesic by the explicit recipe
        assoc_ok = False
        try:
            pre = g.subpath(g.start, plan.u)
            mid = gamma.subpath(plan.u, plan.v)
            post = g.subpath(plan.v, g.end)
            glue = cut_loops(pre.concat(mid).concat(post))
            if close(f.path_time(glue), t_old):
                assoc_ok = associated_in(glue, g, b3) is not None
        except (ValueError, KeyError):
            assoc_ok = False
        if not assoc_ok:
            all_assoc = False
    rep.add("every T*-geodesic takes the pattern inside B2", all_hit)
    rep.add("every T*-geodesic enters B2 at u and leaves at v", all_entry)
    rep.add("every T*-geodesic follows the corridor legs", all_follow)
    rep.add("every T*-geodesic associated with a T-geodesic in B3", all_assoc)
    return rep, star


# ---------------------------------------------------------------------------
# Bounded regime


@dataclass
class OrientedConnector:
    path: LatticePath
    steps: list[tuple[int, int, int]]  # (start index on path, length, signed axis)


def oriented_connector_bounded(u1: Vertex, v1: Vertex, lam: int) -> OrientedConnector:
    """Oriented u1 -> v1 path made of steps of length 10*lam (unit steps
    inside B_inf(v1, 10*lam)), hugging the straight segment.

    Each macro step follows, among the coordinates with at least a full
    step of displacement left, the one proportionally most behind its
    share of the segment; every coordinate then stays within one step of
    proportionality, so every path vertex is within L1 = 10*lam*d of the
    segment [u1, v1] and vice versa.
    """
    d = len(u1)
    L = 10 * lam
    total = vsub(v1, u1)
    cur = tuple(u1)
    verts = [cur]
    steps: list[tuple[int, int, int]] = []
    while cur != tuple(v1):
        rem = vsub(v1, cur)
        if linf(cur, v1) <= L:
            axis = next(i for i in range(d) if rem[i] != 0)
            cur = vadd(cur, unit(d, axis, 1 if rem[axis] > 0 else -1))
            verts.append(cur)
            continue
        eligible = [i for i in range(d) if abs(rem[i]) >= L]
        axis = max(eligible, key=lambda i: (abs(rem[i]) / abs(total[i]), -i))
        sign = 1 if rem[axis] > 0 else -1
        steps.append((len(verts) - 1, L, sign * (axis + 1)))
        for _ in range(L):
            cur = vadd(cur, unit(d, axis, sign))
            verts.append(cur)
    return OrientedConnector(LatticePath(verts), steps)


@dataclass
class Stage1Bounded:
    """First modification: heavy gamma edges between B3 and B2."""

    box: BoxScale
    gamma: LatticePath
    e_star_plus: frozenset[Edge]
    target1: EdgeConstraintSet  # event for donor 1 (T')
    anchors: dict[str, Vertex]  # u, v, u0, v0, c0, s1, s2


@dataclass
class PlanBounded:
    box: BoxScale
    oriented: OrientedPattern
    orientation: int  # signed axis of the chosen step
    gamma: LatticePath
    anchors: dict[str, Vertex]
    pi: LatticePath
    e_star_plus: frozenset[Edge]
    e_pp: frozenset[Edge]  # E**_+
    e_pm: frozenset[Edge]  # E**_-
    e_pat: frozenset[Edge]  # E**_P
    target1: EdgeConstraintSet  # event for donor 1 (T')
    target2: EdgeConstraintSet  # event for donor 2 (T'')
    c_pat: Vertex
    ball0: frozenset[Vertex]
    ballx: frozenset[Vertex]

    def dump(self) -> str:
        rows = [
            f"bounded plan: box s={self.box.s} N={self.box.N} radii={self.box.radii}",
            f"  orientation axis={self.orientation} pattern center={self.c_pat}",
            f"  |E*+|={len(self.e_star_plus)} |E**+|={len(self.e_pp)} "
            f"|E**-|={len(self.e_pm)} |E**P|={len(self.e_pat)}",
        ]
        rows += [f"  {k} = {v}" for k, v in sorted(self.anchors.items())]
        return "\n".join(rows)


def first_stage_bounded(
    f: WeightField, gamma: LatticePath, box: BoxScale, constants: ConstantsSet
) -> Stage1Bounded:
    """E*+ = heavy edges (> rho + delta) of gamma between its B3 entry/exit
    and its B2 entry/exit, plus the anchors they define."""
    if box.regime != "bounded":
        raise PlanError("bounded plan needs a bounded-regime box")
    b1, b2, b3 = box.ball(1), box.ball(2), box.ball(3)
    if not any(b1.contains(z) for z in gamma.vertices):
        raise PlanError("anchor c0 undefined: the geodesic does not cross B1")
    ee3 = _entry_exit(gamma, b3)
    ee2 = _entry_exit(gamma, b2)
    if ee3 is None or ee2 is None:
        raise PlanError("anchor u/v undefined: geodesic misses B3 or B2")
    u, v = ee3
    u0, v0 = ee2
    rho, delta, delta_p = constants.rho, constants.delta, constants.delta_prime
    e_star_plus = set()
    for seg in (gamma.subpath(u, u0), gamma.subpath(v0, v)):
        for e in seg.edges():
            if b3.contains_edge(e) and not b2.contains_edge(e) and f.time(e) > rho + delta:
                e_star_plus.add(e)
    if not e_star_plus:
        raise PlanError("anchor s1/s2 undefined: no first-stage heavy edges")
    gamma_edges = gamma.edges()
    first_idx = min(i for i, e in enumerate(gamma_edges) if e in e_star_plus)
    last_idx = max(i for i, e in enumerate(gamma_edges) if e in e_star_plus)
    s1 = gamma.vertices[first_idx]
    s2 = gamma.vertices[last_idx + 1]
    c0 = next(z for z in gamma.vertices if b1.contains(z))
    target1 = EdgeConstraintSet.on_graph(f.graph, 0.0, rho + delta_p, f.graph.edge_ids(e_star_plus))
    anchors = dict(u=u, v=v, u0=u0, v0=v0, c0=c0, s1=s1, s2=s2)
    return Stage1Bounded(box, gamma, frozenset(e_star_plus), target1, anchors)


def _nabla_alpha(constants: ConstantsSet) -> tuple[float, float]:
    """constants.nabla and constants.alpha, which the bounded plan and its
    verifier cannot do without."""
    if constants.nabla is None or constants.alpha is None:
        raise ValueError("the bounded modification needs constants.nabla and constants.alpha")
    return constants.nabla, constants.alpha


def build_plan_bounded(
    f: WeightField,
    stage1: Stage1Bounded,
    donor1: WeightField,
    oriented_family: dict[int, OrientedPattern],
    constants: ConstantsSet,
    mu_oracle,
    region: Region | None = None,
) -> PlanBounded:
    """Second modification on top of T* = (T with E*+ resampled by T').

    Anchors: u1/v1 are gamma's entry and exit of B_mu(c0, N nabla); the
    oriented highway pi joins them; u2 is the first pi vertex from v1 in
    B*(0, T*(gamma_{0,u1})), v2 the first from u1 in B*(x, T*(gamma_{v1,x}));
    the pattern sits on the 10*lam step holding the deterministic vertex
    nearest the segment midpoint.  Every "chosen with a deterministic
    rule" point resolves to the lexicographic minimum.  A missing anchor
    raises PlanError naming it.
    """
    nabla, _ = _nabla_alpha(constants)
    if not stage1.target1.satisfied_by(donor1):
        raise PlanError("donor T' does not satisfy the first-stage event")
    box, gamma = stage1.box, stage1.gamma
    d = len(gamma.vertices[0])
    zero = (0,) * d
    b1, b2 = box.ball(1), box.ball(2)
    rho, delta_p = constants.rho, constants.delta_prime
    c0 = stage1.anchors["c0"]
    N = box.N
    in_mu = np.flatnonzero(mu_oracle(np.array(gamma.vertices) - c0) <= nabla * N)
    if not len(in_mu):
        raise PlanError("anchor u1/v1 undefined: geodesic misses B_mu(c0, N nabla)")
    u1, v1 = gamma.vertices[in_mu[0]], gamma.vertices[in_mu[-1]]
    lam = oriented_family[next(iter(oriented_family))].l0
    conn = oriented_connector_bounded(u1, v1, lam)
    if not conn.steps:
        raise PlanError("anchor c_P undefined: connector has no full step")
    pi = conn.path

    star = splice(f, donor1, stage1.e_star_plus)
    graph, w_star = _resolve(star, region, None)
    dist0 = dijkstra(graph, w_star, graph.vindex[zero])
    distx = dijkstra(graph, w_star, graph.vindex[gamma.end])
    # gamma stays a T*-geodesic, so T*(gamma_{0,u1}) = t*(0, u1)
    t0u1 = dist0[graph.vindex[u1]]
    tv1x = distx[graph.vindex[v1]]
    ball0 = frozenset(vertex_tuples(graph.coords[le(dist0, t0u1)]))
    ballx = frozenset(vertex_tuples(graph.coords[le(distx, tv1x)]))
    u2 = next((z for z in reversed(pi.vertices) if z in ball0), None)
    v2 = next((z for z in pi.vertices if z in ballx), None)
    if u2 is None or v2 is None:
        raise PlanError("anchor u2/v2 undefined: connector misses a B* ball")
    i_u2, i_v2 = pi.index_of(u2), pi.index_of(v2)
    if i_u2 >= i_v2:
        raise PlanError("anchor u2/v2 undefined: B* balls interleave on the connector")

    c1 = tuple((a + b) / 2 for a, b in zip(u1, v1))
    L1c = 10 * lam * d
    mid_candidates = sorted(
        z
        for z in pi.vertices[i_u2 : i_v2 + 1]
        if sum(abs(a - b) for a, b in zip(z, c1)) <= L1c
    )
    if not mid_candidates:
        raise PlanError("anchor c_P undefined: no connector vertex near the midpoint")
    idx = pi.index_of(mid_candidates[0])
    holding = [
        (start, length, sa) for (start, length, sa) in conn.steps if start <= idx <= start + length
    ]
    if not holding:
        raise PlanError("anchor c_P undefined: midpoint vertex not on a full step")
    start, length, signed_axis = holding[0]
    c_pat = pi.vertices[start + length // 2]
    axis = abs(signed_axis) - 1
    oriented = oriented_family.get(axis)
    if oriented is None:
        raise PlanError(f"no oriented pattern for direction {axis + 1}")
    cube = LInfBall(c_pat, oriented.l0)
    e_pat = frozenset(graph.edges_within(cube))
    sign = 1 if signed_axis > 0 else -1
    u3 = vadd(c_pat, unit(d, axis, -sign * oriented.l0))
    v3 = vadd(c_pat, unit(d, axis, sign * oriented.l0))
    try:
        seg_u = pi.subpath(u2, u3)
        seg_v = pi.subpath(v3, v2)
    except ValueError:
        raise PlanError("anchor u3/v3 undefined: pattern step escapes the u2-v2 window") from None
    highway = set(seg_u.edges()) | set(seg_v.edges())
    e_pp = frozenset(e for e in highway if u2 not in e and v2 not in e)
    nu = constants.m_pattern  # the bounded cap nu fixed with the oriented pattern
    e_pm = frozenset(
        e
        for e in graph.edges_within(b2)
        if f.time(e) < nu
        and e not in e_pat
        and e not in highway
        and not (e[0] in ball0 and e[1] in ball0)
        and not (e[0] in ballx and e[1] in ballx)
    )
    # the pattern event translated so the oriented pattern sits at c_pat
    target2 = (
        EdgeConstraintSet.on_graph(graph, 0.0, rho + delta_p, graph.edge_ids(e_pp))
        .merged_with(EdgeConstraintSet.on_graph(graph, nu, constants.t_max, graph.edge_ids(e_pm)))
        .merged_with(oriented.pattern.event.translate(vneg(c_pat)))
    )
    anchors = dict(stage1.anchors)
    anchors.update(u1=u1, v1=v1, u2=u2, v2=v2, u3=u3, v3=v3, c_P=c_pat)
    return PlanBounded(
        box, oriented, signed_axis, gamma, anchors, pi,
        stage1.e_star_plus, e_pp, e_pm, e_pat,
        stage1.target1, target2, c_pat, ball0, ballx,
    )


def verify_modification_bounded(
    plan: PlanBounded,
    f: WeightField,
    donor1: WeightField,
    donor2: WeightField,
    x: Vertex,
    constants: ConstantsSet,
    cap: int = 256,
    below_thresholds: bool = False,
    mu_oracle=None,
) -> tuple[VerificationReport, WeightField, WeightField]:
    """Re-check every two-stage rerouting clause on an instance.

    With desk-scale radii overrides the later clauses may legitimately
    fail; the report carries below_thresholds so callers can distinguish
    'clause false' from 'constants below the derived thresholds'.
    """
    nabla, alpha = _nabla_alpha(constants)
    for tgt, donor, name in ((plan.target1, donor1, "T'"), (plan.target2, donor2, "T''")):
        if not tgt.satisfied_by(donor):
            raise PlanError(f"donor {name} does not satisfy its target event")
    rep = VerificationReport(below_thresholds=below_thresholds)
    zero = (0,) * len(x)
    star = splice(f, donor1, plan.e_star_plus)
    dd = sorted(plan.e_pp | plan.e_pm | plan.e_pat)
    dstar = splice(star, donor2, dd)
    gamma = plan.gamma
    t_old, _ = restricted_geodesic_time(zero, x, f)
    t_star, star_dag = restricted_geodesic_time(zero, x, star)
    t_dd, dstar_dag = restricted_geodesic_time(zero, x, dstar)

    b2, b3, b4 = plan.box.ball(2), plan.box.ball(3), plan.box.outer
    disjoint = (
        not (plan.e_star_plus & plan.e_pp)
        and not (plan.e_star_plus & plan.e_pm)
        and not (plan.e_star_plus & plan.e_pat)
        and not (plan.e_pp & plan.e_pm)
        and not (plan.e_pp & plan.e_pat)
        and not (plan.e_pm & plan.e_pat)
    )
    rep.add("E-sets pairwise disjoint", disjoint)
    rep.add(
        "second-stage sets inside B2",
        all(b2.contains_edge(e) for e in (plan.e_pp | plan.e_pm | plan.e_pat)),
    )
    rep.add(
        "E*+ inside B3 minus B2 on gamma",
        all(
            b3.contains_edge(e) and not b2.contains_edge(e) for e in plan.e_star_plus
        )
        and plan.e_star_plus <= set(gamma.edges()),
    )
    n_before = sum(
        1 for e in gamma.subpath(plan.anchors["u"], plan.anchors["u0"]).edges() if e in plan.e_star_plus
    )
    n_after = sum(
        1 for e in gamma.subpath(plan.anchors["v0"], plan.anchors["v"]).edges() if e in plan.e_star_plus
    )
    floor = alpha * (plan.box.radii[2] - plan.box.radii[1]) * plan.box.N
    rep.add(
        "first-stage heavy-edge counts on both legs",
        n_before >= floor and n_after >= floor,
        f"before={n_before}, after={n_after}, floor={floor:.6g}",
    )
    rep.add(
        "gamma stays a geodesic after the first splice",
        close(star.path_time(gamma), t_star),
    )
    stars = star_dag.geodesics(cap)
    rep.add(
        "every T*-geodesic takes every E*+ edge",
        all(plan.e_star_plus <= set(g.edges()) for g in stars.paths),
        f"{len(stars.paths)} T*-geodesics",
    )
    if mu_oracle is not None:
        mu_uv = mu_oracle(vsub(plan.anchors["u1"], plan.anchors["v1"]))
        floor7 = plan.box.N * nabla
        rep.add(
            "mu separation of the highway anchors: mu(u1 - v1) >= N nabla",
            le(floor7, mu_uv),
            f"mu={mu_uv:.6g}, floor={floor7:.6g}",
        )
    # gamma^pi time saving
    u2, v2 = plan.anchors["u2"], plan.anchors["v2"]
    pre = first_lex_geodesic(zero, u2, star)
    post = first_lex_geodesic(v2, x, star)
    gpi_mid = plan.pi.subpath(u2, v2)
    t_gpi = dstar.path_time(gpi_mid) + dstar.path_time(pre) + dstar.path_time(post)
    floor8 = plan.box.N * nabla * (constants.delta - constants.delta_prime) / (2 * constants.C_mu)
    rep.add(
        "highway saving floor: T*(gamma) - T**(gamma^pi) >= N nabla (delta-delta') / (2 C_mu)",
        le(floor8, star.path_time(gamma) - t_gpi),
        f"saving={star.path_time(gamma) - t_gpi:.6g}, floor={floor8:.6g}",
    )
    dds = dstar_dag.geodesics(cap)
    rep.approximate = stars.truncated or dds.truncated
    s1, s2 = plan.anchors["s1"], plan.anchors["s2"]
    # the pin clause concerns edges whose time was REDUCED by the modification
    changed = {
        e
        for e in (plan.e_star_plus | plan.e_pp | plan.e_pm | plan.e_pat)
        if not at_least(dstar.time(e), f.time(e))
    }
    ok_s1s2 = True
    ok_pi_order = True
    ok_pattern = True
    ok_assoc = True
    seg_u_set = set(plan.pi.subpath(u2, plan.anchors["u3"]).vertices)
    seg_v_set = set(plan.pi.subpath(plan.anchors["v3"], v2).vertices)
    for g in dds.paths:
        edges = g.edges()
        touched = [i for i, e in enumerate(edges) if e in changed]
        if not touched or g.vertices[touched[0]] != s1 or g.vertices[touched[-1] + 1] != s2:
            ok_s1s2 = False
        on_legs = [i for i, z in enumerate(g.vertices) if z in seg_u_set or z in seg_v_set]
        if not on_legs or g.vertices[on_legs[0]] not in seg_u_set or g.vertices[on_legs[-1]] not in seg_v_set:
            ok_pi_order = False
        if condition_holds(plan.c_pat, g, plan.oriented.pattern, dstar) is None:
            ok_pattern = False
        try:
            glue = cut_loops(
                g.subpath(g.start, s1).concat(gamma.subpath(s1, s2)).concat(g.subpath(s2, g.end))
            )
            assoc = (
                close(f.path_time(glue), t_old)
                and associated_in(glue, g, b4) is not None
            )
        except (ValueError, KeyError):
            assoc = False
        if not assoc:
            ok_assoc = False
    rep.add("first/last reduced edge pinned at s1/s2", ok_s1s2)
    rep.add("highway touched before and after the pattern", ok_pi_order)
    rep.add("every T**-geodesic takes the pattern in B2", ok_pattern)
    rep.add("every T**-geodesic associated with a T-geodesic in B4", ok_assoc)
    # gamma must be associated with some T**-geodesic
    ok3 = False
    for g in dds.paths:
        try:
            glue = cut_loops(
                gamma.subpath(gamma.start, s1).concat(g.subpath(s1, s2)).concat(gamma.subpath(s2, gamma.end))
            )
        except ValueError:
            continue
        if close(dstar.path_time(glue), t_dd) and associated_in(glue, gamma, b4):
            ok3 = True
            break
    rep.add("gamma associated with a T**-geodesic in B4", ok3)
    return rep, star, dstar
