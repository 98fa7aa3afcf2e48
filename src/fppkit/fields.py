"""Environments T on a region's edges, and per-edge interval conditioning.

An environment has one in-memory form: `WeightField(graph, w, seed)`, a
read-only float64 array `w` in `graph.edges` order on a shared
`RegionGraph`.  The engine searches that array as it is, and sampling,
shifting and splicing are array operations.  There is no edge-keyed dict of
times: on the 215,824-edge orientation cube one took 14.9 MB against the
array's 1.6 MB, and converting between the two forms cost about 0.1 s each
way per sample.  Single edges are read through the graph's O(1) (vertex
index, axis) table of edge ids.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .distributions import DistributionSpec
from .lattice import Edge, Region, Vertex, canonical_edge, edge_axis, translate, translate_edge
from .rng import edge_uniforms, pack_edge_keys

Interval = tuple[float, float]


@dataclass(frozen=True)
class EdgeConstraintSet:
    """Conjunction of per-edge closed interval constraints [lo, hi]."""

    constraints: Mapping[Edge, Interval]

    def __post_init__(self):
        frozen = {}
        for e, (lo, hi) in dict(self.constraints).items():
            e = canonical_edge(*e)
            if lo < 0 or lo > hi:
                raise ValueError(f"bad interval [{lo}, {hi}] for edge {e}")
            frozen[e] = (float(lo), float(hi))
        object.__setattr__(self, "constraints", MappingProxyType(frozen))

    def __len__(self) -> int:
        return len(self.constraints)

    def __reduce__(self):  # MappingProxyType does not pickle
        return (EdgeConstraintSet, (dict(self.constraints),))

    def edges(self) -> list[Edge]:
        return sorted(self.constraints)

    def translate(self, x: Vertex) -> "EdgeConstraintSet":
        """theta_x: the constrained edges move by -x (like every object)."""
        return EdgeConstraintSet(
            {translate_edge(e, x): iv for e, iv in self.constraints.items()}
        )

    def merged_with(self, other: "EdgeConstraintSet") -> "EdgeConstraintSet":
        merged = dict(self.constraints)
        for e, iv in other.constraints.items():
            if e in merged and merged[e] != iv:
                raise ValueError(f"conflicting constraints on {e}")
            merged[e] = iv
        return EdgeConstraintSet(merged)

    def satisfied_by(self, f: "WeightField", tol: float = 1e-9) -> bool:
        return all(
            lo - tol <= f.time(e) <= hi + tol for e, (lo, hi) in self.constraints.items()
        )


def _sample(spec: DistributionSpec, seed: int, keys, constraints, locate) -> np.ndarray:
    """Per-edge times from packed edge keys; locate maps the constrained
    edges to positions in the key arrays (-1 outside)."""
    u = edge_uniforms(seed, *keys)
    times = spec.ppf(u)
    if constraints is not None and len(constraints):
        edges = list(constraints.constraints)
        ids = _checked(edges, locate(edges), KeyError, "constrained edge {} outside the sampled region")
        by_interval: dict[Interval, list[int]] = {}
        for i, iv in zip(ids.tolist(), constraints.constraints.values()):
            by_interval.setdefault(iv, []).append(i)
        for (lo, hi), idx in by_interval.items():
            idx_arr = np.array(idx)
            times[idx_arr] = spec.conditional_ppf(u[idx_arr], lo, hi)
    return times


def _checked(edges: list[Edge], ids: np.ndarray, error: type, message: str) -> np.ndarray:
    """ids, after raising error(message naming the first edge whose id is -1)."""
    bad = np.flatnonzero(ids < 0)
    if len(bad):
        raise error(message.format(canonical_edge(*edges[bad[0]])))
    return ids


def _edge_arrays(edges: list[Edge]) -> tuple[np.ndarray, np.ndarray]:
    """Packed keys of edges given in either endpoint order; ValueError names
    the first pair that is not two lattice neighbours."""
    ends = np.fromiter(chain.from_iterable(u + v for u, v in edges), np.int64)
    ends = ends.reshape(len(edges), 2, -1)
    step = ends[:, 1] - ends[:, 0]
    bad = np.flatnonzero(np.abs(step).sum(axis=1) != 1)
    if len(bad):
        raise ValueError("{} and {} are not lattice neighbors".format(*edges[bad[0]]))
    # the endpoints differ on one axis only, so their minimum is the lower one
    return pack_edge_keys(ends.min(axis=1), np.argmax(step != 0, axis=1))


def edge_times_for(
    edges: list[Edge],
    spec: DistributionSpec,
    seed: int,
    constraints: EdgeConstraintSet | None = None,
) -> np.ndarray:
    """Per-edge times, one counter-based stream per canonical edge.

    Edges may be given in either endpoint order; a pair that is not two
    lattice neighbours raises ValueError.  Constrained edges are sampled
    from the law conditioned to their interval via the inverse CDF on the
    same per-edge uniform, so adding a constraint never perturbs other
    edges.  For the edges of a region, `RegionGraph.sample_weights` gives
    the same array from cached keys.
    """

    def locate(es: list[Edge]) -> np.ndarray:
        index = {(u, v) if u <= v else (v, u): i for i, (u, v) in enumerate(edges)}
        return np.array([index.get(e, -1) for e in es], dtype=np.intp)

    return _sample(spec, seed, _edge_arrays(edges), constraints, locate)


class RegionGraph:
    """The edge index of a region: sorted vertices and their indices, the
    edges in canonical order with each edge's axis, and a (vertex index,
    axis) table of edge ids.  The arc table and the adjacency lists are
    built on first search; the packed RNG keys on first sample."""

    def __init__(self, region: Region):
        self.region = region
        self.vertices: list[Vertex] = sorted(region.vertices())
        self.vindex: dict[Vertex, int] = {v: i for i, v in enumerate(self.vertices)}
        d = region.dim
        self.coords = np.array(self.vertices, dtype=np.int64).reshape(self.n, d)
        # vertex index at each point of the bounding box (one wider at the top), -1 off the region
        rel = self.coords - self.coords.min(axis=0)
        box = np.full(rel.max(axis=0) + 2, -1, dtype=np.intp)
        box[tuple(rel.T)] = np.arange(self.n)
        # the +e_a neighbours, axes reversed: edge {v, v + e_a} has rank (v, d - 1 - a) in edge order
        up = np.stack([box[tuple((rel + step).T)] for step in np.eye(d, dtype=np.int64)[::-1]], axis=1)
        has = up >= 0
        eid = np.full(up.shape, -1, dtype=np.intp)
        eid[has] = np.arange(np.count_nonzero(has))
        self._eid = np.ascontiguousarray(eid[:, ::-1])
        lower, rank = np.nonzero(has)
        self.axis = d - 1 - rank
        self._ends = (lower, up[has])
        self.edges: list[Edge] = [
            (self.vertices[i], self.vertices[j]) for i, j in zip(lower.tolist(), up[has].tolist())
        ]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def edge_id(self, e: Edge) -> int:
        """Id of the canonical edge e, -1 when it is not an edge of the region."""
        i = self.vindex.get(e[0])
        return -1 if i is None else int(self._eid[i, edge_axis(e)])

    def edge_ids(self, edges: Iterable[Edge]) -> np.ndarray:
        """Ids of edges given in either endpoint order, -1 outside the region."""
        get = self.vindex.get
        ends = np.array([(get(u, -1), get(v, -1)) for u, v in edges], dtype=np.intp)
        lo, hi = np.sort(ends.reshape(-1, 2), axis=1).T  # vertex order is lexicographic
        step = self.coords[hi] - self.coords[lo]
        ids = self._eid[lo, np.argmax(step, axis=1)]
        return np.where((lo >= 0) & (np.abs(step).sum(axis=1) == 1), ids, -1)

    def edges_within(self, region: Region) -> list[Edge]:
        """The edges of a sub-region, in its own edge order, read off this
        index; every vertex of the sub-region must lie in this region."""
        inside = np.zeros(self.n, dtype=bool)
        inside[[self.vindex[v] for v in region.vertices()]] = True
        lower, upper = self._ends
        return [self.edges[i] for i in np.flatnonzero(inside[lower] & inside[upper]).tolist()]

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
    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per vertex, its (neighbour, edge id) pairs in arc-table order."""
        tail, head, edge = self.arc_table
        arcs = list(zip(head.tolist(), edge.tolist()))
        ends = np.cumsum(np.bincount(tail, minlength=self.n)).tolist()
        return [arcs[a:b] for a, b in zip([0] + ends[:-1], ends)]

    @cached_property
    def _packed_keys(self) -> tuple[np.ndarray, np.ndarray]:
        return pack_edge_keys(self.coords[self._ends[0]], self.axis)

    def sample_weights(
        self, spec: DistributionSpec, seed: int, constraints: EdgeConstraintSet | None = None
    ) -> np.ndarray:
        """Edge times in edge order, equal to edge_times_for(self.edges, ...);
        each constraint interval must carry mass."""
        if constraints is not None:
            first: dict[Interval, Edge] = {}  # each interval is checked once
            for e, iv in constraints.constraints.items():
                first.setdefault(iv, e)
            for (lo, hi), e in first.items():
                if not spec.has_mass_in(lo, hi):
                    raise ValueError(f"constraint [{lo}, {hi}] on {e} has zero mass")
        return _sample(spec, seed, self._packed_keys, constraints, self.edge_ids)

    def field_from(self, w: np.ndarray, seed: int = -1) -> WeightField:
        """The field with times w (in edge order) on this graph: a read-only
        view of w, not a copy."""
        view = np.asarray(w, dtype=np.float64).view()
        if view.shape != (len(self.edges),):
            raise ValueError(f"{view.shape} weights for {len(self.edges)} edges")
        view.flags.writeable = False
        return WeightField(self, view, seed)

    def weights_of(self, f: WeightField) -> np.ndarray:
        """f's times in this graph's edge order: f.w itself when f lives on
        this region, else a gather onto this sub-region."""
        if f.graph is self or f.graph.region == self.region:
            return f.w
        return f.times_at(self.edges)


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

    def times_at(self, edges: list[Edge]) -> np.ndarray:
        """Times of edges given in either endpoint order; KeyError names the
        first edge outside the field."""
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

    @property
    def max_time(self) -> float:
        return float(self.w.max())

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
        w = np.zeros(len(graph.edges))
        seen = np.zeros(len(graph.edges), dtype=bool)
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
            raise ValueError(f"{path}: region edge {graph.edges[missing[0]]} is missing")
        return graph.field_from(w)


def sample_field(region: Region, spec: DistributionSpec, seed: int) -> WeightField:
    """i.i.d. environment on the region's edges, reproducible from the seed."""
    graph = RegionGraph(region)
    if not graph.edges:
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
    """P(every constrained edge falls in its interval) = product of masses."""
    p = 1.0
    for lo, hi in constraints.constraints.values():
        p *= spec.mass_in(lo, hi)
    return p


def splice(base: WeightField, donor: WeightField, edges: Iterable[Edge]) -> WeightField:
    """Pointwise selection: donor's times on the given edges, base elsewhere."""
    edges = [canonical_edge(*e) for e in edges]
    ids = _checked(edges, base.graph.edge_ids(edges), ValueError, "edge {} outside the base field")
    w = base.w.copy()
    w[ids] = donor.w[ids] if donor.graph.region == base.region else donor.times_at(edges)
    return base.graph.field_from(w, base.seed)


def constant_field(region: Region, value: float) -> WeightField:
    graph = RegionGraph(region)
    return graph.field_from(np.full(len(graph.edges), float(value)))
