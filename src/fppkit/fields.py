"""Environments T on a region's edges, and per-edge interval conditioning.

An environment has one in-memory form: `WeightField(graph, w, seed)`, a
read-only float64 array `w` in `graph.edges` order on a shared
`RegionGraph`.  The engine searches that array as it is, and sampling,
shifting and splicing are array operations.  There is no edge-keyed dict of
times: on the 215,824-edge orientation cube one took 14.9 MB against the
array's 1.6 MB, and converting between the two forms cost about 0.1 s each
way per sample.  Single edges are read through the graph's O(1) (vertex
index, axis) table of edge ids.

A graph is arrays, and builds tuples only when a caller asks for them.
Its edges are `EdgeArrays` (lower endpoints and axes); the `EdgeList` of
their tuples is built on first use.  Every function that takes edges reads
the arrays when given `EdgeArrays` and converts tuples otherwise (0.06 s
per call on the orientation cube).  The arrays hold no reference back to
the graph, so a graph is freed as soon as it is dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .distributions import DistributionSpec
from .lattice import Edge, Region, Vertex, canonical_edge, edge_axis, translate, vertex_tuples
from .rng import edge_uniforms, pack_edge_keys
from .tolerance import in_interval

Interval = tuple[float, float]


class _FrozenDict(Mapping):
    """A read-only mapping that, unlike MappingProxyType, pickles."""

    def __init__(self, items: dict):
        self._items = items

    def __getitem__(self, key):
        return self._items[key]

    def __iter__(self):
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)


def _edge(z: np.ndarray, axis: int) -> Edge:
    """The edge {z, z + e_axis} as a pair of tuples of Python ints."""
    return tuple(z.tolist()), tuple((z + np.eye(len(z), dtype=np.int64)[axis]).tolist())


class EdgeArrays:
    """Edges in canonical order as read-only arrays of lower endpoints (edges
    x d) and axes, with no reference to a graph; item i is edge i as tuples.
    The packed RNG keys and the table behind `ids_at` are built on first use."""

    def __init__(self, lower: np.ndarray, axis: np.ndarray):
        self.lower, self.axis = lower.view(), axis.view()
        self.lower.flags.writeable = self.axis.flags.writeable = False

    def __reduce__(self):  # the cached keys and table are rebuilt on first use
        return EdgeArrays, (self.lower, self.axis)

    def __len__(self) -> int:
        return len(self.axis)

    def __getitem__(self, i: int) -> Edge:
        return _edge(self.lower[i], self.axis[i])

    @cached_property
    def keys(self) -> tuple[np.ndarray, np.ndarray]:
        return pack_edge_keys(self.lower, self.axis)

    @cached_property
    def _table(self) -> tuple[np.ndarray, np.ndarray]:
        """The origin of the lower endpoints' bounding box, and the position
        of edge {origin + z, origin + z + e_axis} at [*z, axis] (-1: none)."""
        d = self.lower.shape[1]
        origin = self.lower.min(axis=0) if len(self) else np.zeros(d, dtype=np.int64)
        rel = self.lower - origin
        table = np.full((*(rel.max(axis=0, initial=0) + 1), d), -1, dtype=np.intp)
        table[(*rel.T, self.axis)] = np.arange(len(self))
        return origin, table

    def ids_at(self, lower: np.ndarray, axis: np.ndarray) -> np.ndarray:
        """Positions of the edges {z, z + e_axis} for the rows z of lower,
        -1 where that edge is not among these."""
        origin, table = self._table
        rel = lower - origin
        inside = np.all((rel >= 0) & (rel < table.shape[:-1]), axis=1)
        return np.where(inside, table[(*np.where(inside[:, None], rel, 0).T, axis)], -1)


class EdgeList(list, EdgeArrays):
    """`EdgeArrays` that are also the list of their edge tuples, sharing the
    arrays (and any keys or id table) of those they are built over.  The
    list cannot be changed in place, so the arrays cannot go stale; slices,
    copies and concatenations are plain lists."""

    def __init__(self, edges: list[Edge], arrays: EdgeArrays):
        super().__init__(edges)
        vars(self).update(vars(arrays))

    def __reduce__(self):
        return EdgeList, (list(self), EdgeArrays(self.lower, self.axis))

    def _read_only(self, *args, **kwargs):
        raise TypeError("an EdgeList is read-only; list(edges) gives an editable copy")

    __setitem__ = __delitem__ = __iadd__ = __imul__ = _read_only
    append = extend = insert = pop = remove = clear = sort = reverse = _read_only


def _lower_and_axis(edges: list[Edge] | EdgeArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lower endpoints (n x d), axes, and which pairs are two lattice
    neighbours, for vertex pairs given in either order."""
    if isinstance(edges, EdgeArrays):
        return edges.lower, edges.axis, np.ones(len(edges), dtype=bool)
    d = len(edges[0][0]) if edges else 1  # a 0 x 1 array broadcasts against any d
    ends = np.fromiter(chain.from_iterable(u + v for u, v in edges), np.int64, 2 * d * len(edges))
    ends = ends.reshape(len(edges), 2, d)
    step = ends[:, 1] - ends[:, 0]
    # the endpoints of an edge differ on one axis only, so their minimum is the lower one
    return ends.min(axis=1), np.argmax(step != 0, axis=1), np.abs(step).sum(axis=1) == 1


class EdgeConstraintSet:
    """Conjunction of per-edge closed interval constraints [lo, hi].

    Stored as read-only arrays in canonical edge order: constraint i asks
    the edge {lower[i], lower[i] + e_axis[i]} for a time in [lo[i], hi[i]].
    An event binds to a region, at any translate x, through
    `RegionGraph.ids_at(lower + x, axis)`.  `constraints` is a read-only,
    picklable edge -> interval view, built on first use; pickling an event
    keeps only its arrays.
    """

    def __init__(self, constraints: Mapping[Edge, Interval]):
        edges = list(constraints)
        lower, axis, ok = _lower_and_axis(edges)
        if not ok.all():
            raise ValueError("{} and {} are not lattice neighbors".format(*edges[np.argmin(ok)]))
        bounds = np.array(list(constraints.values()), dtype=np.float64).reshape(len(edges), 2)
        self._assign(lower, axis, bounds[:, 0], bounds[:, 1])

    @classmethod
    def from_arrays(cls, lower, axis, lo, hi) -> "EdgeConstraintSet":
        """The event [lo[i], hi[i]] on edge {lower[i], lower[i] + e_axis[i]};
        bounds broadcast, and an edge given twice must carry one interval."""
        event = cls.__new__(cls)
        event._assign(lower, axis, lo, hi)
        return event

    def __reduce__(self):  # the cached views are rebuilt on first use
        return EdgeConstraintSet.from_arrays, (self.lower, self.axis, self.lo, self.hi)

    @classmethod
    def on_graph(cls, graph: "RegionGraph", lo, hi, ids=None) -> "EdgeConstraintSet":
        """The event on the edges ids of graph (all of them for None)."""
        ids = np.arange(len(graph.axis)) if ids is None else np.asarray(ids, dtype=np.intp)
        if np.any(ids < 0):
            raise ValueError("an event edge lies outside the graph")
        return cls.from_arrays(graph.lower[ids], graph.axis[ids], lo, hi)

    def _assign(self, lower, axis, lo, hi) -> None:
        lower, axis = np.asarray(lower, dtype=np.int64), np.asarray(axis, dtype=np.intp)
        lo, hi = (np.broadcast_to(np.asarray(b, dtype=np.float64), axis.shape) for b in (lo, hi))
        bad = np.flatnonzero(~((lo >= 0) & (lo <= hi)))
        if len(bad):
            i = bad[0]
            raise ValueError(f"bad interval [{lo[i]}, {hi[i]}] for edge {_edge(lower[i], axis[i])}")
        order = np.lexsort([-axis, *lower.T[::-1]])  # sorted (lower, upper) pairs
        lower, axis, lo, hi = lower[order], axis[order], lo[order], hi[order]
        repeat = (axis[1:] == axis[:-1]) & np.all(lower[1:] == lower[:-1], axis=1)
        clash = np.flatnonzero(repeat & ((lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])))
        if len(clash):
            raise ValueError(f"conflicting constraints on {_edge(lower[clash[0]], axis[clash[0]])}")
        keep = np.r_[True, ~repeat][: len(axis)]
        for name, a in (("lower", lower), ("axis", axis), ("lo", lo), ("hi", hi)):
            a = a[keep]
            a.flags.writeable = False
            setattr(self, name, a)

    def __len__(self) -> int:
        return len(self.axis)

    edge = EdgeArrays.__getitem__  # constraint i's edge, as tuples of Python ints

    @cached_property
    def constraints(self) -> Mapping[Edge, Interval]:
        """Edge -> (lo, hi) in edge order, read-only.  Edges share their
        vertex tuples and constraints one tuple per distinct interval: on the
        215,824-edge orientation cube a tuple per key and value took 79 MB."""
        n, d = self.lower.shape
        ends = np.concatenate([self.lower, self.lower + np.eye(d, dtype=np.int64)[self.axis]])
        order = np.lexsort(ends.T[::-1])
        new = np.r_[True, np.any(ends[order][1:] != ends[order][:-1], axis=1)][: len(ends)]
        vertex = np.empty(len(ends), dtype=np.intp)
        vertex[order] = np.cumsum(new) - 1
        points = [tuple(v) for v in ends[order][new].tolist()]
        interval = np.empty(n, dtype=np.intp)
        for k, (_, _, members) in enumerate(self.intervals):
            interval[members] = k
        ivs = [(lo, hi) for lo, hi, _ in self.intervals]
        pairs = zip(vertex[:n].tolist(), vertex[n:].tolist(), interval.tolist())
        return _FrozenDict({(points[a], points[b]): ivs[k] for a, b, k in pairs})

    @cached_property
    def intervals(self) -> list[tuple[float, float, np.ndarray]]:
        """Each distinct interval (lo, hi), in increasing order, with the
        positions of its constraints."""
        iv = np.stack([self.lo, self.hi], axis=1).view(np.complex128).ravel()  # sorts by lo, then hi
        order = np.argsort(iv, kind="stable")
        groups = np.split(order, np.flatnonzero(iv[order][1:] != iv[order][:-1]) + 1)
        return [(float(self.lo[g[0]]), float(self.hi[g[0]]), g) for g in groups if len(g)]

    def translate(self, x: Vertex) -> "EdgeConstraintSet":
        """theta_x: the constrained edges move by -x (like every object)."""
        return EdgeConstraintSet.from_arrays(self.lower - np.asarray(x), self.axis, self.lo, self.hi)

    def merged_with(self, other: "EdgeConstraintSet") -> "EdgeConstraintSet":
        """Both events; ValueError names an edge they constrain differently."""
        if not (len(self) and len(other)):
            return self if len(self) else other
        parts = zip((self.lower, self.axis, self.lo, self.hi), (other.lower, other.axis, other.lo, other.hi))
        return EdgeConstraintSet.from_arrays(*(np.concatenate(pair) for pair in parts))

    def holds_at(self, f: "WeightField", z) -> np.ndarray:
        """For each row x of the (k x d) translates z, whether the event
        moved by +x holds on f: every edge {lower + x, upper + x} lies in
        f's graph and its time meets [lo, hi] by `tolerance.in_interval`.
        One gather of k x len(self) ids, so pass only the translates needed."""
        z = np.asarray(z, dtype=np.int64)
        (k, d), m = z.shape, len(self)
        moved = (z[:, None, :] + self.lower).reshape(k * m, d)
        ids = f.graph.ids_at(moved, np.tile(self.axis, k)).reshape(k, m)
        return np.all((ids >= 0) & in_interval(f.w[ids], self.lo, self.hi), axis=1)

    def satisfied_by(self, f: "WeightField") -> bool:
        """The event holds on f; KeyError names a constrained edge outside f."""
        ids = f.graph.ids_at(self.lower, self.axis)
        if np.any(ids < 0):
            raise KeyError(self.edge(np.argmin(ids)))
        return bool(self.holds_at(f, np.zeros((1, self.lower.shape[1]), dtype=np.int64))[0])


def _checked(edges: list[Edge] | EdgeArrays, ids: np.ndarray, error: type, message: str) -> np.ndarray:
    """ids, after raising error(message naming the first edge whose id is -1)."""
    bad = np.flatnonzero(ids < 0)
    if len(bad):
        raise error(message.format(canonical_edge(*edges[bad[0]])))
    return ids


def _positions(keys: tuple[np.ndarray, np.ndarray], wanted: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Position in keys of each wanted key (both as pairs of packed words), -1 where absent."""
    n = len(keys[0])
    lo, hi = (np.concatenate(pair) for pair in zip(keys, wanted))
    order = np.lexsort((lo, hi))  # stable: a key sorts before the wanted copies of it
    lo, hi = lo[order], hi[order]
    run_start = np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])]
    first = np.empty_like(order)
    first[order] = order[np.maximum.accumulate(np.where(run_start, np.arange(len(order)), 0))]
    return np.where(first[n:] < n, first[n:], -1)


def _edge_arrays(edges: list[Edge] | EdgeArrays) -> tuple[np.ndarray, np.ndarray]:
    """Packed keys of edges given in either endpoint order; ValueError names
    the first pair that is not two lattice neighbours."""
    if isinstance(edges, EdgeArrays):
        return edges.keys
    lower, axis, ok = _lower_and_axis(edges)
    if not ok.all():
        raise ValueError("{} and {} are not lattice neighbors".format(*edges[np.argmin(ok)]))
    return pack_edge_keys(lower, axis)


def edge_times_for(
    edges: list[Edge] | EdgeArrays,
    spec: DistributionSpec,
    seed: int,
    constraints: EdgeConstraintSet | None = None,
) -> np.ndarray:
    """Per-edge times, one counter-based stream per canonical edge.

    Edges may be given in either endpoint order; a pair that is not two
    lattice neighbours raises ValueError.  Constrained edges are sampled
    from the law conditioned to their interval via the inverse CDF on the
    same per-edge uniform, so adding a constraint never perturbs other
    edges; each distinct interval is checked for mass and sampled with one
    conditional_ppf call.  Given `EdgeArrays` (a graph's edges, or their
    `EdgeList`), it reads their keys and id table and never a tuple.
    """
    keys = _edge_arrays(edges)
    u = edge_uniforms(seed, *keys)
    if constraints is None or not len(constraints):
        return spec.ppf(u)
    wanted = constraints.lower, constraints.axis
    ids = edges.ids_at(*wanted) if isinstance(edges, EdgeArrays) else _positions(keys, pack_edge_keys(*wanted))
    if np.any(ids < 0):
        raise KeyError(f"constrained edge {constraints.edge(np.argmin(ids))} outside the sampled region")
    times = np.empty_like(u)
    free = np.ones(len(u), dtype=bool)
    free[ids] = False
    times[free] = spec.ppf(u[free])  # ppf is elementwise: a subset draws the same bits
    for lo, hi, members in constraints.intervals:
        if not spec.has_mass_in(lo, hi):
            raise ValueError(f"constraint [{lo}, {hi}] on {constraints.edge(members[0])} has zero mass")
        idx = ids[members]
        times[idx] = spec.conditional_ppf(u[idx], lo, hi)
    return times


class VertexView(Sequence):
    """The rows of an (n x d) coordinate array as read-only vertex tuples:
    an item or a slice is built on demand; iteration builds the list once."""

    def __init__(self, coords: np.ndarray):
        self.coords, self._list = coords, None

    def __len__(self) -> int:
        return len(self.coords)

    def __getitem__(self, i):
        if self._list is not None:
            return self._list[i]
        return vertex_tuples(self.coords[i]) if isinstance(i, slice) else tuple(self.coords[i].tolist())

    def __iter__(self):
        if self._list is None:
            self._list = vertex_tuples(self.coords)
        return iter(self._list)

    def __eq__(self, other) -> bool:
        return list(self) == other


class VertexIndex(Mapping):
    """Vertex -> index, read off a table of indices over the box with corner
    lo (-1 off the region) instead of a dict."""

    def __init__(self, lo: Vertex, table: np.ndarray):
        self.lo, self.table = tuple(lo), table

    def __getitem__(self, v: Vertex) -> int:
        if isinstance(v, tuple) and len(v) == len(self.lo):
            rel = tuple(c - a for c, a in zip(v, self.lo))
            # a negative offset would wrap around; the row above the top holds only -1
            if all(0 <= r < n for r, n in zip(rel, self.table.shape)) and self.table[rel] >= 0:
                return int(self.table[rel])
        raise KeyError(v)

    def __iter__(self):
        return iter(vertex_tuples(np.argwhere(self.table >= 0) + self.lo))

    def __len__(self) -> int:
        return int(np.count_nonzero(self.table >= 0))


class RegionGraph:
    """The edge index of a region, held as arrays: the vertices in
    lexicographic order as `coords` (the region's own enumeration), the
    edges in canonical order as `arrays`, and a (vertex index, axis) table
    of edge ids.  Tuples are built only when asked for: `vertices` views
    `coords`, `vindex` reads a bounding-box table of vertex indices, and the
    `EdgeList` `edges` is built on first read, as are the arc tables."""

    def __init__(self, region: Region):
        self.region = region
        self.coords = region.coords()
        self.n, d = len(self.coords), region.dim
        # vertex index at each point of the bounding box (one wider at the top), -1 off the region
        rel = self.coords - np.array(region.bounds.lo)
        box = np.full(rel.max(axis=0) + 2, -1, dtype=np.intp)
        box[tuple(rel.T)] = np.arange(self.n)
        self.vertices, self.vindex = VertexView(self.coords), VertexIndex(region.bounds.lo, box)
        # the +e_a neighbours, axes reversed: edge {v, v + e_a} has rank (v, d - 1 - a) in edge order
        up = np.stack([box[tuple((rel + step).T)] for step in np.eye(d, dtype=np.int64)[::-1]], axis=1)
        has = up >= 0
        eid = np.full(up.shape, -1, dtype=np.intp)
        eid[has] = np.arange(np.count_nonzero(has))
        self._eid = np.ascontiguousarray(eid[:, ::-1])
        lower, rank = np.nonzero(has)
        self._ends = (lower, up[has])
        self.arrays = EdgeArrays(self.coords[lower], d - 1 - rank)
        self.lower, self.axis = self.arrays.lower, self.arrays.axis  # (edges x d) lower endpoints, axes

    @cached_property
    def edges(self) -> EdgeList:
        """The edge tuples in edge order; they share the vertex tuples."""
        vs = list(self.vertices)
        return EdgeList(list(zip(*(map(vs.__getitem__, ends.tolist()) for ends in self._ends))), self.arrays)

    def edge_id(self, e: Edge) -> int:
        """Id of the canonical edge e, -1 when it is not an edge of the region."""
        i = self.vindex.get(e[0])
        return -1 if i is None else int(self._eid[i, edge_axis(e)])

    def edge_ids(self, edges: Iterable[Edge] | EdgeArrays) -> np.ndarray:
        """Ids of edges given in either endpoint order, -1 outside the region."""
        lower, axis, ok = _lower_and_axis(edges if isinstance(edges, (list, EdgeArrays)) else list(edges))
        return np.where(ok, self.ids_at(lower, axis), -1)

    def ids_at(self, lower: np.ndarray, axis: np.ndarray) -> np.ndarray:
        """Ids of the edges {z, z + e_axis} for the rows z of lower, -1 where
        that edge is not in the region."""
        return self.arrays.ids_at(lower, axis)

    def edges_within(self, region: Region) -> EdgeList:
        """The edges of a sub-region, in its own edge order, read off this
        index; ValueError when a vertex of the sub-region lies outside."""
        inside = region.mask(self.coords)
        if np.count_nonzero(inside) != len(region.coords()):
            raise ValueError(f"{region} sticks out of {self.region}")
        lower, upper = self._ends
        ids = np.flatnonzero(inside[lower] & inside[upper])
        ends = (vertex_tuples(self.coords[v[ids]]) for v in (lower, upper))
        return EdgeList(list(zip(*ends)), EdgeArrays(self.lower[ids], self.axis[ids]))

    def boundary_indices(self) -> frozenset[int]:
        """Vertices with a lattice neighbour outside the region."""
        degree = np.bincount(np.concatenate(self._ends), minlength=self.n)
        return frozenset(np.flatnonzero(degree < 2 * self.region.dim).tolist())

    @cached_property
    def arc_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every directed arc as (tail, head, edge id) arrays, grouped by
        tail in direction order e1 < -e1 < e2 < ...: the arc along +e_a has
        rank 2a, the arc along -e_a rank 2a + 1."""
        lower, upper = self._ends
        ids = np.arange(len(lower))
        head = np.full((self.n, self.region.dim, 2), -1, dtype=np.intp)
        edge = head.copy()
        head[lower, self.axis, 0], edge[lower, self.axis, 0] = upper, ids
        head[upper, self.axis, 1], edge[upper, self.axis, 1] = lower, ids
        head, edge = head.reshape(self.n, -1), edge.reshape(self.n, -1)
        tail, rank = np.nonzero(head >= 0)
        return tail, head[tail, rank], edge[tail, rank]

    @cached_property
    def arc_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The arc table in CSR form, as int32 (indptr, head): the arcs out
        of u are the slice indptr[u]:indptr[u + 1] of the table."""
        tail, head, _ = self.arc_table
        indptr = np.r_[0, np.cumsum(np.bincount(tail, minlength=self.n))]
        return indptr.astype(np.int32), head.astype(np.int32)

    def sample_weights(
        self, spec: DistributionSpec, seed: int, constraints: EdgeConstraintSet | None = None
    ) -> np.ndarray:
        """Edge times in edge order: edge_times_for(self.arrays, ...)."""
        return edge_times_for(self.arrays, spec, seed, constraints)

    def field_from(self, w: np.ndarray, seed: int = -1) -> WeightField:
        """The field with times w (in edge order) on this graph: a read-only
        view of w, not a copy."""
        view = np.asarray(w, dtype=np.float64).view()
        if view.shape != (len(self.axis),):
            raise ValueError(f"{view.shape} weights for {len(self.axis)} edges")
        view.flags.writeable = False
        return WeightField(self, view, seed)

    def weights_of(self, f: WeightField) -> np.ndarray:
        """f's times in this graph's edge order: f.w itself when f lives on
        this region, else a gather onto this sub-region."""
        if f.graph is self or f.graph.region == self.region:
            return f.w
        return f.times_at(self.arrays)


@dataclass(frozen=True, eq=False)
class WeightField:
    """Passage times on a region's edges: w[i] is the time of graph.edges[i].
    Build one with `RegionGraph.field_from`, which makes w read-only."""

    graph: RegionGraph
    w: np.ndarray
    seed: int = -1

    @property
    def region(self) -> Region:
        return self.graph.region

    def time(self, e: Edge) -> float:
        e = canonical_edge(*e)
        i = self.graph.edge_id(e)
        if i < 0:
            raise KeyError(e)
        return float(self.w[i])

    def times_at(self, edges: list[Edge] | EdgeArrays) -> np.ndarray:
        """Times of edges given in either endpoint order, or of a graph's
        `EdgeArrays`; KeyError names the first edge outside the field."""
        return self.w[_checked(edges, self.graph.edge_ids(edges), KeyError, "edge {} outside the field")]

    def path_time(self, path) -> float:
        """Sum of the path's edge times, added left to right."""
        total = 0.0
        for t in self.times_at(list(zip(path.vertices, path.vertices[1:]))).tolist():
            total += t
        return total

    def edges(self) -> list[Edge]:
        return list(self.graph.edges)

    @property
    def min_time(self) -> float:
        return float(self.w.min())

    def shift(self, b: float) -> "WeightField":
        """T^(b): add b to every edge; negative b must keep weights positive."""
        if b < 0 and self.min_time + b <= 0:
            raise ValueError(
                f"shift {b} would make weights nonpositive (min time {self.min_time})"
            )
        return self.graph.field_from(self.w + b, self.seed)

    def translate(self, x: Vertex) -> "WeightField":
        """theta_x T: (theta_x T)(e) = T(e + x).  Translation keeps the edge
        order, so the translated graph reuses w."""
        return RegionGraph(translate(self.region, x)).field_from(self.w, self.seed)

    def replaced(self, overrides: Mapping[Edge, float]) -> "WeightField":
        edges = [canonical_edge(*e) for e in overrides]
        ids = _checked(edges, self.graph.edge_ids(edges), KeyError, "edge {} not in field")
        w = self.w.copy()
        w[ids] = [float(t) for t in overrides.values()]
        return self.graph.field_from(w, self.seed)

    def to_csv(self, path: str) -> None:
        """Dump as ex,ey[,...],fx,fy[,...],time rows in canonical edge order;
        the axes are named x, y, z, w up to d = 4 and x1, ..., xd above."""
        d = self.region.dim
        axes = list("xyzw"[:d]) if d <= 4 else [f"x{i}" for i in range(1, d + 1)]
        with open(path, "w") as fh:
            fh.write(",".join(f"{end}{a}" for end in "ef" for a in axes) + ",time\n")
            for (u, v), t in zip(self.graph.edges, self.w.tolist()):
                fh.write(",".join(str(c) for c in u + v) + f",{t!r}\n")

    @staticmethod
    def from_csv(path: str, region: Region) -> "WeightField":
        """Read a to_csv dump; it must hold every edge of the region and no other."""
        graph = RegionGraph(region)
        w = np.zeros(len(graph.axis))
        seen = np.zeros(len(graph.axis), dtype=bool)
        with open(path) as fh:
            d = (len(fh.readline().strip().split(",")) - 1) // 2
            for line in fh:
                parts = line.strip().split(",")
                u, v = tuple(int(c) for c in parts[:d]), tuple(int(c) for c in parts[d : 2 * d])
                e = canonical_edge(u, v)
                i = graph.edge_id(e)
                if i < 0:
                    raise ValueError(f"{path}: edge {e} lies outside the region")
                w[i], seen[i] = float(parts[2 * d]), True
        missing = np.flatnonzero(~seen)
        if len(missing):
            raise ValueError(f"{path}: region edge {graph.arrays[missing[0]]} is missing")
        return graph.field_from(w)


def sample_field(region: Region, spec: DistributionSpec, seed: int) -> WeightField:
    """i.i.d. environment on the region's edges, reproducible from the seed."""
    graph = RegionGraph(region)
    if not len(graph.axis):
        raise ValueError("region has no edges")
    return graph.field_from(graph.sample_weights(spec, seed), seed)


def sample_conditioned(
    region: Region,
    spec: DistributionSpec,
    constraints: EdgeConstraintSet,
    seed: int,
) -> WeightField:
    """Environment with constrained edges drawn from the conditional law."""
    graph = RegionGraph(region)
    return graph.field_from(graph.sample_weights(spec, seed, constraints), seed)


def constraint_probability(spec: DistributionSpec, constraints: EdgeConstraintSet) -> float:
    """P(every constrained edge falls in its interval) = product of masses.
    The product underflows to 0.0 on large events: test whether an event
    is possible with `spec.has_mass_in` on each of its `intervals`."""
    masses = ([spec.mass_in(lo, hi)] * len(g) for lo, hi, g in constraints.intervals)
    return math.prod(chain.from_iterable(masses), start=1.0)


def splice(base: WeightField, donor: WeightField, edges: Iterable[Edge]) -> WeightField:
    """Pointwise selection: donor's times on the given edges, base elsewhere."""
    edges = edges if isinstance(edges, EdgeArrays) else [canonical_edge(*e) for e in edges]
    ids = _checked(edges, base.graph.edge_ids(edges), ValueError, "edge {} outside the base field")
    w = base.w.copy()
    w[ids] = donor.w[ids] if donor.graph.region == base.region else donor.times_at(edges)
    return base.graph.field_from(w, base.seed)


def constant_field(region: Region, value: float) -> WeightField:
    graph = RegionGraph(region)
    return graph.field_from(np.full(len(graph.axis), float(value)))
