"""Exhaustive ground truth on small instances.

Four independent routes, deliberately different from the engine:
  * a lexicographic DFS stream of all self-avoiding paths,
  * branch-and-bound optimal-path search pruned only by rho * l1 distance,
  * Floyd-Warshall min-plus closure for all-pairs optimum values,
  * a heapq Dijkstra over an edge-keyed adjacency (the kernel's labels).
None of them shares code with the Dijkstra/DAG machinery they check.
Seed derivation and the nu(N) estimate have references here too, on numpy
scalars and one trial at a time, with their own splitmix64 finalizer.
`region_vertices` lists a region's vertices by scalar `contains` tests over
its bounding box, apart from the masked grid of `Region.coords`, and
`region_edges` lists its edges the same way, apart from the vectorised
index in `RegionGraph`; every oracle enumeration goes through them.
"""

from __future__ import annotations

import heapq
import math
import time as _time
from dataclasses import dataclass
from itertools import product
from typing import Iterator

import numpy as np

from .fields import WeightField
from .lattice import (
    Edge,
    LatticePath,
    Region,
    Vertex,
    box_containing,
    direction_order,
    l1,
    vadd,
)

ADVISORY_EDGE_LIMIT = 60


class OracleBudgetExceeded(Exception):
    pass


@dataclass
class OracleResult:
    optimum: float
    paths: list[LatticePath]
    nodes_explored: int
    exhaustive: bool = True


def enumerate_sa_paths(
    x: Vertex, y: Vertex, region: Region, length_cap: int
) -> Iterator[LatticePath]:
    """Every self-avoiding x -> y path in the region with <= cap edges,
    exactly once, in lexicographic direction order."""
    x, y = tuple(x), tuple(y)
    dirs = direction_order(region.dim)
    stack = [x]
    seen = {x}
    choice = [0]
    if x == y:
        yield LatticePath([x])
        return
    while stack:
        u = stack[-1]
        advanced = False
        while choice[-1] < len(dirs):
            v = vadd(u, dirs[choice[-1]])
            choice[-1] += 1
            if v in seen or not region.contains(v):
                continue
            if len(stack) + 1 > length_cap + 1:
                continue
            if v == y:
                yield LatticePath(stack + [v])
                continue
            stack.append(v)
            seen.add(v)
            choice.append(0)
            advanced = True
            break
        if not advanced:
            seen.discard(stack.pop())
            choice.pop()


def recursive_sa_count(x: Vertex, y: Vertex, region: Region, length_cap: int) -> int:
    """Independent recursive count of the same path set (cross-check)."""

    def rec(u: Vertex, seen: frozenset[Vertex], left: int) -> int:
        if u == y:
            return 1
        if left == 0:
            return 0
        total = 0
        for axis in range(len(u)):
            for sign in (1, -1):
                v = list(u)
                v[axis] += sign
                v = tuple(v)
                if v not in seen and region.contains(v):
                    total += rec(v, seen | {v}, left - 1)
        return total

    x, y = tuple(x), tuple(y)
    return rec(x, frozenset([x]), length_cap)


def exact_optimal_set(
    x: Vertex,
    y: Vertex,
    region: Region,
    f: WeightField,
    time_budget: float = 60.0,
) -> OracleResult:
    """Exact optimum and the complete list of optimal self-avoiding paths.

    Branch and bound over the raw path tree; the only pruning is the
    admissible bound (partial cost + rho * remaining l1 distance), so the
    search never consults the engine under test.
    """
    x, y = tuple(x), tuple(y)
    rho = max(f.min_time, 0.0)
    dirs = direction_order(region.dim)
    times = dict(zip(f.edges(), f.w.tolist()))  # the oracle's own copy of T
    best = math.inf
    best_paths: list[tuple[Vertex, ...]] = []
    nodes = 0
    deadline = _time.monotonic() + time_budget
    tol = 1e-12

    def rec(u: Vertex, cost: float, seen: set[Vertex], trail: list[Vertex]):
        nonlocal best, best_paths, nodes
        nodes += 1
        if nodes % 4096 == 0 and _time.monotonic() > deadline:
            raise OracleBudgetExceeded(f"oracle exceeded {time_budget}s")
        if u == y:
            if not math.isfinite(best) or cost < best - tol * max(1.0, abs(best)):
                best = cost
                best_paths = [tuple(trail)]
            elif abs(cost - best) <= tol * max(1.0, abs(best)):
                best_paths.append(tuple(trail))
            return
        for step in dirs:
            v = vadd(u, step)
            if v in seen or not region.contains(v):
                continue
            e = (u, v) if u <= v else (v, u)
            c = cost + times[e]
            if c + rho * l1(v, y) > best + tol:
                continue
            seen.add(v)
            trail.append(v)
            rec(v, c, seen, trail)
            trail.pop()
            seen.discard(v)

    rec(x, 0.0, {x}, [x])
    if not best_paths:
        raise ValueError("endpoints disconnected in region")
    return OracleResult(best, [LatticePath(p) for p in best_paths], nodes)


def region_vertices(region: Region) -> list[Vertex]:
    """The region's vertices in lexicographic order: one membership test
    per point of its bounding box."""
    box = region.bounds
    return [v for v in product(*(range(a, b + 1) for a, b in zip(box.lo, box.hi))) if region.contains(v)]


def region_edges(region: Region) -> list[Edge]:
    """Edges with both endpoints in the region, sorted: one membership
    test per candidate upper endpoint."""
    out = []
    for v in region_vertices(region):
        for axis in range(len(v)):
            w = list(v)
            w[axis] += 1
            w = tuple(w)
            if region.contains(w):
                out.append((v, w))
    out.sort()
    return out


def heap_dijkstra(adjacency: dict, source) -> dict:
    """Labels of the nodes reachable from source: label setting with a
    binary heap over adjacency[u] = [(v, cost), ...], costs >= 0."""
    best, heap = {source: 0}, [(0, source)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > best[u]:
            continue
        for v, cost in adjacency[u]:
            nd = du + cost
            if nd < best.get(v, math.inf):
                best[v] = nd
                heapq.heappush(heap, (nd, v))
    return best


def restricted_times(region: Region, f: WeightField, source: Vertex) -> dict[Vertex, float]:
    """Restricted times from source to each reachable vertex of the region,
    by heap_dijkstra over the region's edges keyed by vertex."""
    times = dict(zip(f.edges(), f.w.tolist()))
    adjacency: dict[Vertex, list[tuple[Vertex, float]]] = {v: [] for v in region_vertices(region)}
    for a, b in region_edges(region):
        adjacency[a].append((b, times[(a, b)]))
        adjacency[b].append((a, times[(a, b)]))
    return heap_dijkstra(adjacency, tuple(source))


def floyd_warshall_times(region: Region, f: WeightField) -> tuple[list[Vertex], np.ndarray]:
    """All-pairs optimum by min-plus closure (nonnegative weights, so the
    walk optimum equals the self-avoiding optimum)."""
    vertices = region_vertices(region)
    index = {v: i for i, v in enumerate(vertices)}
    n = len(vertices)
    dist = np.full((n, n), math.inf)
    np.fill_diagonal(dist, 0.0)
    for e in region_edges(region):
        i, j = index[e[0]], index[e[1]]
        dist[i, j] = dist[j, i] = f.time(e)
    for k in range(n):
        dist = np.minimum(dist, dist[:, k : k + 1] + dist[k : k + 1, :])
    return vertices, dist


def oracle_pattern_count(path: LatticePath, pattern, f: WeightField) -> int:
    """N^P by the definition, scanning every translate in a working extent
    (the path's bounding box inflated past the pattern diameter)."""
    verts = region_vertices(pattern.region)
    dim = len(verts[0])
    diam = max(
        max(v[i] for v in verts) - min(v[i] for v in verts) for i in range(dim)
    )
    extent = box_containing(path.vertices, pad=diam + 2)
    count = 0
    pat_edges = list(pattern.event.constraints.items())
    times = dict(zip(f.edges(), f.w.tolist()))
    for x0 in region_vertices(extent):
        # condition 1: the translated path visits both endpoints and the
        # subpath between them stays inside the translated pattern support
        shifted = [tuple(a - b for a, b in zip(v, x0)) for v in path.vertices]
        try:
            iu = shifted.index(pattern.u_end)
            iv = shifted.index(pattern.v_end)
        except ValueError:
            continue
        i, j = min(iu, iv), max(iu, iv)
        if not all(pattern.region.contains(v) for v in shifted[i : j + 1]):
            continue
        ok = True
        for (a, b), (lo, hi) in pat_edges:
            ea = vadd(a, x0)
            eb = vadd(b, x0)
            key = (ea, eb) if ea <= eb else (eb, ea)
            t = times.get(key)
            if t is None or not (lo - 1e-9 <= t <= hi + 1e-9):
                ok = False
                break
        if ok:
            count += 1
    return count


def _splitmix64(x) -> np.ndarray:
    """The splitmix64 finalizer on uint64 values; products wrap mod 2**64."""
    x = np.asarray(x, dtype=np.uint64).copy()
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def derive_seed_scalars(master: int, *parts: int | str) -> int:
    """rng.derive_seed as a chain of numpy uint64 scalars, for Python-int
    masters and int parts."""
    h = np.uint64(master & 0xFFFFFFFFFFFFFFFF)
    for part in parts:
        if isinstance(part, str):
            word = np.uint64(len(part))
            for b in part.encode():
                word = _splitmix64(word ^ np.uint64(b))[()]
        else:
            word = np.uint64(part & 0xFFFFFFFFFFFFFFFF)
        h = _splitmix64(h ^ word)[()]
    return int(h)


def estimate_nu_per_trial(spec, n_edges: int, seed: int, trials: int = 400, q: float = 0.99) -> float:
    """Empirical q-quantile of `trials` sums of n_edges i.i.d. weights, each
    trial drawn and summed on its own: the Monte Carlo check of the level
    renormalization.nu_level certifies."""
    totals = np.empty(trials)
    idx = np.arange(n_edges, dtype=np.uint64)
    for k in range(trials):
        base = np.uint64(derive_seed_scalars(seed, "nu", k))
        h = _splitmix64(_splitmix64(base ^ idx) ^ np.uint64(0xA5A5A5A5A5A5A5A5))
        u = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        totals[k] = spec.ppf(u).sum()
    return float(np.quantile(totals, q))


# Corner-to-corner self-avoiding path counts for the LxL grid graph
# (computed once with recursive_sa_count and frozen; matches OEIS A007764).
SA_GRID_PATH_COUNTS = {2: 2, 3: 12, 4: 184}
