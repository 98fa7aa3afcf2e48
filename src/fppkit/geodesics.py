"""Passage times and the tight-DAG engine behind every geodesic query.

Restricted geodesic times come from Dijkstra over the region's edge graph
(weights are nonnegative, zero atoms included, so label setting is exact).
Every search is one call of scipy.sparse.csgraph's compiled Dijkstra on the
region graph's arc table in CSR form, and so is a batch of sources.  Its
labels are bit-for-bit those of a heapq loop: both take the min over paths
of the left-to-right float sum.
scipy is imported on the first search, not with the package: with numpy
loaded, importing scipy.sparse.csgraph takes 0.25 s or more, about three
times the whole import of the `fpp` CLI.

`GeodesicDag` is built once per (graph, weights, x, y) and every geodesic
query reads from it.  All geodesics x -> y live on the admissible arcs

    dist_x(u) + T(u,v) + dist_y(v) = t(x, y),

and all geodesics from x on the single-source tight arcs, dist_x(u) +
T(u,v) = dist_x(v).  `tolerance.close` decides both, vectorised over the
region graph's arc table, with SUM_RTOL relative to max(1, |a|, |b|).
Every prefix of an optimal self-avoiding path is itself optimal, so one
depth-first walk of admissible arcs with a visited set meets each
self-avoiding geodesic once; it serves enumeration and, when zero-weight
cycles appear, the longest-geodesic search.  Quantities summed over a
path's edges need no enumeration: the least 0/1 cost over every geodesic
is one search on the single-source tight arcs (`tight_min_cost`), and on
acyclic admissible arcs the number of geodesics is a path count in
topological order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import RegionGraph, WeightField
from .lattice import LatticePath, Region, Vertex, vertex_tuples
from .tolerance import close

DEFAULT_PATH_CAP = 10_000
DEFAULT_NODE_BUDGET = 1_000_000


class Disconnected(Exception):
    """No path between the endpoints inside the region."""


def dijkstra(graph: RegionGraph, w: np.ndarray, source: int | np.ndarray) -> np.ndarray:
    """Distance labels from a source index, or one row of labels per source
    of an index array; unreachable stays +inf.  Each row equals the labels
    of its own single-source call bit for bit."""
    if not np.all(w >= 0):
        raise ValueError("negative or NaN weights are not supported")
    return arc_dijkstra(graph, w[graph.arc_table[2]], source)


def arc_dijkstra(
    graph: RegionGraph,
    cost: np.ndarray,
    source: int | np.ndarray,
    arcs: np.ndarray | None = None,
    reverse: bool = False,
    predecessors: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Labels from source over the table arcs (those where the mask arcs is
    True), the k-th kept arc costing cost[k]; reverse turns every arc around.
    scipy keeps explicit zero entries, so zero-cost arcs stay arcs.
    predecessors (one source, at most a 1-D mask) also returns the search
    tree: each vertex's predecessor index, negative at the source and where
    unreachable.

    A 2-D mask arcs (sources x table arcs) keeps one arc set per source of
    the index array source, cost listing the kept arcs row by row.  One
    search then runs over the disjoint union of the copies (row r on the
    vertex ids r n .. r n + n - 1) from all sources at once; no arc joins two
    copies, so each copy's labels come from its own source.  Returns one
    row of labels per source."""
    from scipy.sparse import csc_array, csr_array
    from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

    n, copies = graph.n, 1
    indptr, head = graph.arc_csr
    if arcs is not None:  # same grouping by tail, fewer arcs per group; copy r after copy r - 1
        mask = np.atleast_2d(arcs)
        copies = len(mask)
        offset = np.arange(copies)[:, None]
        kept = np.r_[0, np.cumsum(mask)]
        indptr = kept[np.r_[(offset * len(head) + indptr[:-1]).ravel(), kept.size - 1]].astype(np.int32)
        head = (offset * n + head)[mask].astype(np.int32)
    # read as CSC, the group of tail u lists arcs into u: every arc turned around
    matrix = (csc_array if reverse else csr_array)((cost, head, indptr), shape=(copies * n,) * 2)
    if np.ndim(arcs) < 2:
        return csgraph_dijkstra(matrix, directed=True, indices=source, return_predecessors=predecessors)
    starts = np.arange(copies) * n + source
    return csgraph_dijkstra(matrix, directed=True, indices=starts, min_only=True).reshape(copies, n)


def tight_min_cost(
    graph: RegionGraph,
    w: np.ndarray,
    dist: np.ndarray,
    source: int | np.ndarray,
    cost: np.ndarray,
    predecessors: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Least total cost over the restricted-optimal paths from source to
    every target (+inf where none), for a 0/1 cost per edge id, given the
    source's labels dist: one search over the single-source tight arcs, each
    table arc v -> u read as u -> v.  Every tight walk from the source is
    time-optimal and cutting its loops adds no cost, so the minimum over
    walks is the minimum over self-avoiding paths, zero-weight cycles
    included.  The costs are integers, so the labels are exact.

    A (sources x n) dist with an index array source gives one row per
    source, all in one search over disjoint copies; predecessors (one
    source) also returns the search tree, see arc_dijkstra."""
    tail, head, edge = graph.arc_table
    tight = close(dist[..., head] + w[edge], dist[..., tail])
    kept = np.broadcast_to(cost[edge], tight.shape)[tight].astype(np.float64)
    return arc_dijkstra(graph, kept, source, arcs=tight, reverse=True, predecessors=predecessors)


class _ArcLists(Sequence):
    """Per vertex u, the (v, edge id) of each masked table arc u -> v, in
    table order, held in CSR form: one list of pairs and the offsets of
    each vertex's group.  Item u is a new list sliced from the pairs; a
    tight DAG holds few arcs, and a list per vertex cost more than the
    search on the 108,241-vertex cube."""

    __slots__ = ("indptr", "pairs")

    def __init__(self, graph: RegionGraph, mask: np.ndarray):
        tail, head, edge = graph.arc_table
        self.indptr = np.r_[0, np.cumsum(np.bincount(tail[mask], minlength=graph.n))].tolist()
        self.pairs = list(zip(head[mask].tolist(), edge[mask].tolist()))

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, u: int) -> list[tuple[int, int]]:
        return self.pairs[self.indptr[u] : self.indptr[u + 1]]


@dataclass
class GeodesicDag:
    """The tight digraph of one weight array from `source` and, when a
    target is set, between the two.  Everything beyond `dist` (the labels
    from the source) is built on first use; `arcs` and `parents` index
    like lists of per-vertex arc lists but are held in CSR form."""

    graph: RegionGraph
    weights: np.ndarray
    source: Vertex
    dist: np.ndarray
    target: Vertex | None = None

    @classmethod
    def between(cls, graph: RegionGraph, weights: np.ndarray, x: Vertex, y: Vertex) -> GeodesicDag:
        """The engine for x -> y, after one Dijkstra run from x."""
        x, y = tuple(x), tuple(y)
        if x not in graph.vindex or y not in graph.vindex:
            raise ValueError("endpoints must lie in the region")
        dag = cls(graph, weights, x, dijkstra(graph, weights, graph.vindex[x]), y)
        if not math.isfinite(dag.time):
            raise Disconnected(f"{x} and {y} are disconnected inside the region")
        return dag

    def dist_at(self, v: Vertex) -> float:
        return float(self.dist[self.graph.vindex[v]])

    @property
    def time(self) -> float:
        return self.dist_at(self.target)

    @cached_property
    def dist_y(self) -> np.ndarray:
        return dijkstra(self.graph, self.weights, self.graph.vindex[self.target])

    @cached_property
    def _source_tight(self) -> np.ndarray:
        tail, head, edge = self.graph.arc_table
        # the table arc v -> u, read backwards, is the arc u -> v
        return close(self.dist[head] + self.weights[edge], self.dist[tail])

    @cached_property
    def parents(self) -> Sequence[list[tuple[int, int]]]:
        """Single-source tight arcs into each vertex v: the (u, edge id)
        with dist(u) + T(u,v) = dist(v), in v's direction order."""
        return _ArcLists(self.graph, self._source_tight)

    @cached_property
    def _admissible(self) -> np.ndarray:
        tail, head, edge = self.graph.arc_table
        return close(self.dist[tail] + self.weights[edge] + self.dist_y[head], self.time)

    @cached_property
    def arcs(self) -> Sequence[list[tuple[int, int]]]:
        """Admissible arcs out of each vertex u: the (v, edge id) with
        dist_x(u) + T(u,v) + dist_y(v) = t(x,y), in u's direction order."""
        return _ArcLists(self.graph, self._admissible)

    @cached_property
    def _edge_counts(self) -> np.ndarray:
        """Fewest edges from each vertex to y along admissible arcs (+inf: none)."""
        ones = np.ones(np.count_nonzero(self._admissible))
        return arc_dijkstra(self.graph, ones, self.graph.vindex[self.target], self._admissible, reverse=True)

    @cached_property
    def _topological(self) -> list[int] | None:
        """The vertices on admissible arcs in Kahn's topological order from
        x, or None if the arcs hold a (zero-weight) cycle.  Every admissible
        arc lies on an x -> y walk of admissible arcs, so x is the only
        source of an acyclic admissible digraph."""
        xi = self.graph.vindex[self.source]
        indeg = np.bincount(self.graph.arc_table[1][self._admissible], minlength=self.graph.n).tolist()
        order = [] if indeg[xi] else [xi]
        for u in order:
            for v, _ in self.arcs[u]:
                indeg[v] -= 1
                if not indeg[v]:
                    order.append(v)
        return None if any(indeg) else order

    def count(self) -> int | None:
        """Number of self-avoiding geodesics x -> y, in Python ints: the
        path count over the admissible arcs, summed in topological order.
        None when the arcs hold a zero-weight cycle, where walks and
        self-avoiding paths part."""
        order = self._topological
        if order is None:
            return None
        paths = {order[0]: 1}
        for u in order:
            for v, _ in self.arcs[u]:
                paths[v] = paths.get(v, 0) + paths[u]
        return paths[self.graph.vindex[self.target]]

    def min_cost(self, edge_cost: np.ndarray) -> tuple[int, LatticePath]:
        """Least total of a 0/1 cost per edge id over every geodesic x -> y,
        and a geodesic that attains it (see tight_min_cost).  The witness
        is the search tree's path to y, so it is self-avoiding even when
        zero-weight cycles are present."""
        xi, yi = self.graph.vindex[self.source], self.graph.vindex[self.target]
        labels, pred = tight_min_cost(self.graph, self.weights, self.dist, xi, edge_cost, predecessors=True)
        verts = [yi]
        while verts[-1] != xi:
            verts.append(int(pred[verts[-1]]))
        return int(labels[yi]), self._path(verts[::-1])

    def _acyclic_longest(self) -> list[int] | None:
        """Longest x -> y path over admissible arcs, or None if they hold a
        (zero-weight) cycle; ties go to the first arc in direction order."""
        order = self._topological
        if order is None:
            return None
        xi, yi = order[0], self.graph.vindex[self.target]
        longest = {yi: 0}
        for u in reversed(order):
            if u != yi:
                longest[u] = 1 + max(longest[v] for v, _ in self.arcs[u])
        verts = [xi]
        while verts[-1] != yi:
            verts.append(max(self.arcs[verts[-1]], key=lambda a: longest[a[0]])[0])
        return verts

    def _path(self, verts: list[int]) -> LatticePath:
        return LatticePath(vertex_tuples(self.graph.coords[verts]))

    def _walk(self, visit, node_budget: int) -> bool:
        """Depth-first walk over the self-avoiding admissible paths from x.

        Calls visit(stack) with the vertex stack at each arrival at y and
        stops when it returns True or once more than node_budget vertices
        have been pushed; returns whether the walk ran to completion.
        """
        arcs = self.arcs
        xi, yi = self.graph.vindex[self.source], self.graph.vindex[self.target]
        stack, iters, on_path = [xi], [0], {xi}
        expansions = 0
        while stack:
            u = stack[-1]
            if u == yi:
                if visit(stack):
                    return False
                on_path.discard(stack.pop())
                iters.pop()
                continue
            out = arcs[u]
            while iters[-1] < len(out):
                v, _ = out[iters[-1]]
                iters[-1] += 1
                if v not in on_path:
                    expansions += 1
                    stack.append(v)
                    on_path.add(v)
                    iters.append(0)
                    break
            else:
                on_path.discard(stack.pop())
                iters.pop()
            if expansions > node_budget:
                return False
        return True

    def geodesics(self, cap: int = DEFAULT_PATH_CAP, node_budget: int = DEFAULT_NODE_BUDGET) -> GeodesicSet:
        """The self-avoiding geodesics x -> y in depth-first direction
        order, truncated at cap paths or node_budget pushes."""
        x, y = self.source, self.target
        if x == y:
            return GeodesicSet(x, y, 0.0, [LatticePath([x])], False)
        paths: list[LatticePath] = []

        def keep(stack: list[int]) -> bool:
            paths.append(self._path(stack))
            return len(paths) >= cap

        complete = self._walk(keep, node_budget)
        return GeodesicSet(x, y, self.time, paths, not complete)

    def first_lex(self) -> LatticePath:
        """The first-lex geodesic; see first_lex_geodesic."""
        counts = self._edge_counts
        verts = [self.graph.vindex[self.source]]
        yi = self.graph.vindex[self.target]
        while verts[-1] != yi:
            u = verts[-1]
            v = next((v for v, _ in self.arcs[u] if counts[v] == counts[u] - 1), None)
            if v is None:
                raise AssertionError("tight DAG invariant violated")
            verts.append(v)
        return self._path(verts)

    def extremes(self, node_budget: int = DEFAULT_NODE_BUDGET) -> ExtremalLengths:
        """Minimal and maximal edge count over self-avoiding geodesics; see
        extreme_length_geodesics."""
        wmin = self.first_lex()
        longest = self._acyclic_longest()
        if longest is not None:
            return ExtremalLengths(len(wmin), len(longest) - 1, wmin, self._path(longest), True)
        best: list[int] = []

        def longer(stack: list[int]) -> bool:
            if len(stack) > len(best):
                best[:] = stack
            return False

        exact = self._walk(longer, node_budget)
        wmax = self._path(best) if best else wmin  # budget spent before reaching y
        return ExtremalLengths(len(wmin), len(wmax), wmin, wmax, exact)


@dataclass
class GeodesicSet:
    """All (or cap-limited) self-avoiding geodesics between two vertices."""

    x: Vertex
    y: Vertex
    time: float
    paths: list[LatticePath]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.paths)

    def to_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("path_id,length,time,directions\n")
            for i, p in enumerate(self.paths):
                fh.write(f"{i},{len(p)},{self.time:.12g},{p.directions()}\n")


@dataclass
class ExtremalLengths:
    lmin: int
    lmax: int
    witness_min: LatticePath
    witness_max: LatticePath
    exact: bool = True  # False when zero-weight cycles forced a budgeted search

    @property
    def gap(self) -> int:
        return self.lmax - self.lmin


def _resolve(field: WeightField, region: Region | None, graph: RegionGraph | None = None):
    """The graph to search (the field's own unless another region is asked
    for) and the field's weights on it."""
    if graph is None:
        graph = field.graph if region in (None, field.region) else RegionGraph(region)
    return graph, graph.weights_of(field)


def passage_time(path: LatticePath, f: WeightField) -> float:
    """Sum of the path's edge times; every edge must lie in the field."""
    return f.path_time(path)


def _dag(x: Vertex, y: Vertex, f: WeightField, region: Region | None, graph: RegionGraph | None) -> GeodesicDag:
    graph, w = _resolve(f, region, graph)
    return GeodesicDag.between(graph, w, x, y)


def restricted_geodesic_time(
    x: Vertex,
    y: Vertex,
    f: WeightField,
    region: Region | None = None,
    graph: RegionGraph | None = None,
) -> tuple[float, GeodesicDag]:
    """Exact optimum over paths entirely inside the region, plus its DAG."""
    dag = _dag(x, y, f, region, graph)
    return dag.time, dag


def enumerate_geodesics(
    x: Vertex,
    y: Vertex,
    f: WeightField,
    region: Region | None = None,
    cap: int = DEFAULT_PATH_CAP,
    node_budget: int = DEFAULT_NODE_BUDGET,
    graph: RegionGraph | None = None,
) -> GeodesicSet:
    """Depth-first extraction of all self-avoiding tight paths x -> y."""
    return _dag(x, y, f, region, graph).geodesics(cap, node_budget)


def first_lex_geodesic(
    x: Vertex,
    y: Vertex,
    f: WeightField,
    region: Region | None = None,
    graph: RegionGraph | None = None,
) -> LatticePath:
    """Among minimal-edge-count geodesics, the lexicographically first by
    direction word (order e1 < -e1 < e2 < -e2 < ...), built greedily."""
    return _dag(x, y, f, region, graph).first_lex()


def extreme_length_geodesics(
    x: Vertex,
    y: Vertex,
    f: WeightField,
    region: Region | None = None,
    node_budget: int = DEFAULT_NODE_BUDGET,
    graph: RegionGraph | None = None,
) -> ExtremalLengths:
    """Minimal and maximal Euclidean length over self-avoiding geodesics.

    On a strictly positive field the admissible digraph is acyclic and both
    extremes are exact dynamic programs.  Zero-weight tight cycles switch
    the maximum to a budgeted self-avoiding search: if the budget runs out
    the reported maximum is a certified lower bound, flagged inexact.
    """
    return _dag(x, y, f, region, graph).extremes(node_budget)


def exact_norm_oracle(a: float):
    """mu for the deterministic spec delta_a: mu(y) = a |y|_1 for each
    displacement y along the last axis of an (..., d) integer array (a
    vertex tuple is one displacement).  Each value is one product of a
    double and an exact integer, so it equals the scalar a * l1(y)."""
    return lambda y: a * np.abs(np.asarray(y, dtype=np.int64)).sum(axis=-1)
