"""Z^d geometry: vertices, edges, paths, regions, translations.

Vertices are plain integer tuples and an edge is the canonically ordered
pair of its endpoints (lexicographically smaller endpoint first), so both
can be used as dict keys and compare deterministically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .rng import COORD_BOUND

Vertex = tuple[int, ...]
Edge = tuple[Vertex, Vertex]


def check_extent(v: Vertex) -> Vertex:
    if any(abs(c) >= COORD_BOUND for c in v):
        raise OverflowError(f"vertex {v} outside the supported working extent")
    return v


def vadd(u: Vertex, v: Vertex) -> Vertex:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vertex, v: Vertex) -> Vertex:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: Vertex) -> Vertex:
    return tuple(-a for a in u)


def vscale(k: int, u: Vertex) -> Vertex:
    return tuple(k * a for a in u)


def l1(u: Vertex, v: Vertex | None = None) -> int:
    if v is None:
        return sum(abs(a) for a in u)
    return sum(abs(a - b) for a, b in zip(u, v))


def linf(u: Vertex, v: Vertex | None = None) -> int:
    if v is None:
        return max(abs(a) for a in u)
    return max(abs(a - b) for a, b in zip(u, v))


def unit(d: int, axis: int, sign: int = 1) -> Vertex:
    return tuple(sign if i == axis else 0 for i in range(d))


def direction_order(d: int) -> list[Vertex]:
    """The fixed direction order e1 < -e1 < e2 < -e2 < ... used for ties."""
    out: list[Vertex] = []
    for axis in range(d):
        out.append(unit(d, axis, +1))
        out.append(unit(d, axis, -1))
    return out


def neighbors(v: Vertex) -> list[Vertex]:
    out = []
    for axis in range(len(v)):
        for sign in (+1, -1):
            w = list(v)
            w[axis] += sign
            out.append(tuple(w))
    return out


def canonical_edge(u: Vertex, v: Vertex) -> Edge:
    if l1(u, v) != 1:
        raise ValueError(f"{u} and {v} are not lattice neighbors")
    return (u, v) if u <= v else (v, u)


def edge_axis(e: Edge) -> int:
    u, v = e
    for i, (a, b) in enumerate(zip(u, v)):
        if a != b:
            return i
    raise ValueError("degenerate edge")


def translate_edge(e: Edge, x: Vertex) -> Edge:
    return canonical_edge(vsub(e[0], x), vsub(e[1], x))


class LatticePath:
    """A finite sequence of adjacent vertices; |path| counts edges."""

    __slots__ = ("vertices", "_first")

    def __init__(self, vertices: Iterable[Vertex]):
        vs = tuple(tuple(v) for v in vertices)
        if not vs:
            raise ValueError("a path needs at least one vertex")
        for a, b in zip(vs, vs[1:]):
            if l1(a, b) != 1:
                raise ValueError(f"non-adjacent consecutive vertices {a}, {b}")
        self.vertices = vs

    def __len__(self) -> int:
        return len(self.vertices) - 1

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self.vertices)

    def __eq__(self, other) -> bool:
        return isinstance(other, LatticePath) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        return f"LatticePath({list(self.vertices)!r})"

    @property
    def start(self) -> Vertex:
        return self.vertices[0]

    @property
    def end(self) -> Vertex:
        return self.vertices[-1]

    def edges(self) -> list[Edge]:
        return [canonical_edge(a, b) for a, b in zip(self.vertices, self.vertices[1:])]

    def is_self_avoiding(self) -> bool:
        return len(set(self.vertices)) == len(self.vertices)

    def index_of(self, v: Vertex) -> int:
        """Position of the first visit to v, from a map built on first use."""
        if not hasattr(self, "_first"):  # later visits go in first, so the first visit wins
            self._first = dict(zip(reversed(self.vertices), range(len(self.vertices) - 1, -1, -1)))
        if (i := self._first.get(tuple(v))) is None:
            raise ValueError(f"{tuple(v)} is not on the path")
        return i

    def subpath(self, a: Vertex, b: Vertex) -> "LatticePath":
        """Contiguous segment from a to b; a must be visited before b."""
        a, b = tuple(a), tuple(b)
        i = self.index_of(a)
        try:
            j = self.vertices.index(b, i)
        except ValueError:
            if b in self.vertices:
                raise ValueError(f"{b} is visited before {a}") from None
            raise ValueError(f"{b} is not on the path") from None
        return LatticePath(self.vertices[i : j + 1])

    def translate(self, x: Vertex) -> "LatticePath":
        return LatticePath(vsub(v, x) for v in self.vertices)

    def reversed(self) -> "LatticePath":
        return LatticePath(self.vertices[::-1])

    def concat(self, other: "LatticePath") -> "LatticePath":
        if self.end != other.start:
            raise ValueError("paths do not share an endpoint")
        return LatticePath(self.vertices + other.vertices[1:])

    def directions(self) -> str:
        """Serialize as signed axis indices, e.g. '+1,+1,-2'."""
        parts = []
        for a, b in zip(self.vertices, self.vertices[1:]):
            axis = edge_axis(canonical_edge(a, b))
            sign = "+" if b[axis] > a[axis] else "-"
            parts.append(f"{sign}{axis + 1}")
        return ",".join(parts)


def straight_path(start: Vertex, axis: int, sign: int, steps: int) -> LatticePath:
    d = len(start)
    return LatticePath(vadd(start, unit(d, axis, sign * k)) for k in range(steps + 1))


def monotone_path(a: Vertex, b: Vertex) -> LatticePath:
    """The l1-shortest a->b path that sweeps coordinates in index order."""
    vs = [tuple(a)]
    cur = list(a)
    for i in range(len(a)):
        step = 1 if b[i] > a[i] else -1
        while cur[i] != b[i]:
            cur[i] += step
            vs.append(tuple(cur))
    return LatticePath(vs)


def cut_loops(path: LatticePath) -> LatticePath:
    """Self-avoiding path with the same endpoints, splicing out each loop
    at the first occurrence of the revisited vertex, scanning left to right."""
    out: list[Vertex] = []
    seen: dict[Vertex, int] = {}
    for v in path.vertices:
        if v in seen:
            i = seen[v]
            for w in out[i + 1 :]:
                del seen[w]
            del out[i + 1 :]
        else:
            seen[v] = len(out)
            out.append(v)
    return LatticePath(out)


# ---------------------------------------------------------------------------
# Regions


@dataclass(frozen=True)
class Region:
    """Finite vertex set on Z^d, given by a tight bounding box and a mask.

    Each kind provides `contains` (one vertex), `mask` (the same test on
    every row of an (n x d) array) and `bounds`, the smallest box holding
    the region.  `coords` and `vertices` are derived from them here, so
    every region is enumerated the same way.  Edges are pairs with both
    endpoints inside; `fields.RegionGraph` lists a region's edges and finds
    its boundary.
    """

    def contains(self, v: Vertex) -> bool:  # pragma: no cover - abstract
        raise NotImplementedError

    def mask(self, coords: np.ndarray) -> np.ndarray:  # pragma: no cover - abstract
        """contains, for each row of an (n x d) integer array."""
        raise NotImplementedError

    @property
    def bounds(self) -> "ProductBox":  # pragma: no cover - abstract
        raise NotImplementedError

    def coords(self) -> np.ndarray:
        """The vertices as an (n x d) int64 array in lexicographic order:
        the masked grid of `bounds`."""
        box = self.bounds
        axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(box.lo, box.hi)]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, box.dim)
        return grid[self.mask(grid)]

    def vertices(self) -> Iterator[Vertex]:
        return iter(vertex_tuples(self.coords()))

    def contains_edge(self, e: Edge) -> bool:
        return self.contains(e[0]) and self.contains(e[1])


def vertex_tuples(coords: np.ndarray) -> list[Vertex]:
    """The rows of an (n x d) integer array as tuples of Python ints, built
    column by column (a list per row costs the cycle collector dearly)."""
    return list(zip(*coords.T.tolist()))


@dataclass(frozen=True)
class ProductBox(Region):
    lo: Vertex
    hi: Vertex

    def __post_init__(self):
        if len(self.lo) != len(self.hi) or any(a > b for a, b in zip(self.lo, self.hi)):
            raise ValueError("empty or mismatched box")
        check_extent(self.lo), check_extent(self.hi)

    @property
    def dim(self) -> int:
        return len(self.lo)

    def contains(self, v: Vertex) -> bool:
        return len(v) == self.dim and all(a <= c <= b for a, c, b in zip(self.lo, v, self.hi))

    def mask(self, coords: np.ndarray) -> np.ndarray:
        return np.all((np.array(self.lo) <= coords) & (coords <= np.array(self.hi)), axis=1)

    @property
    def bounds(self) -> "ProductBox":
        return self


@dataclass(frozen=True)
class L1Ball(Region):
    center: Vertex
    radius: int

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("negative radius")
        check_extent(self.center)

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, v: Vertex) -> bool:
        return len(v) == self.dim and l1(v, self.center) <= self.radius

    def mask(self, coords: np.ndarray) -> np.ndarray:
        return np.abs(coords - np.array(self.center)).sum(axis=1) <= self.radius

    @property
    def bounds(self) -> ProductBox:
        r = (self.radius,) * self.dim
        return ProductBox(vsub(self.center, r), vadd(self.center, r))

    def edge_count(self) -> int:
        """2d sum_{r<R} B_{d-1}(r) edges: an axis line at l1 distance s < R holds
        2(R - s), and B_k(r) = sum_j 2^j C(k, j) C(r, j) points of Z^k lie within r."""
        d = self.dim
        return 2 * d * sum(2**j * math.comb(d - 1, j) * math.comb(r, j) for r in range(self.radius) for j in range(d))


@dataclass(frozen=True)
class LInfBall(Region):
    center: Vertex
    radius: int

    def __post_init__(self):
        if self.radius < 0:
            raise ValueError("negative radius")
        check_extent(self.center)

    @property
    def dim(self) -> int:
        return len(self.center)

    def contains(self, v: Vertex) -> bool:
        return len(v) == self.dim and linf(v, self.center) <= self.radius

    def mask(self, coords: np.ndarray) -> np.ndarray:
        return np.abs(coords - np.array(self.center)).max(axis=1, initial=0) <= self.radius

    @property
    def bounds(self) -> ProductBox:
        r = (self.radius,) * self.dim
        return ProductBox(vsub(self.center, r), vadd(self.center, r))

    def edge_count(self) -> int:
        """d 2r (2r+1)^(d-1) edges: 2r along each of the (2r+1)^(d-1) lines per axis."""
        side = 2 * self.radius
        return self.dim * side * (side + 1) ** (self.dim - 1)


@dataclass(frozen=True)
class Annulus(Region):
    """l1 shell around the origin: ||y||_1 in [(i-1)rN, i*rN)."""

    index: int
    r: int
    N: int
    dim_: int

    def __post_init__(self):
        if self.index < 1 or self.r < 1 or self.N < 1:
            raise ValueError("annulus parameters must be positive")

    @property
    def dim(self) -> int:
        return self.dim_

    @property
    def inner_norm(self) -> int:
        return (self.index - 1) * self.r * self.N

    @property
    def outer_norm(self) -> int:
        return self.index * self.r * self.N

    def contains(self, v: Vertex) -> bool:
        return len(v) == self.dim and self.inner_norm <= l1(v) < self.outer_norm

    def mask(self, coords: np.ndarray) -> np.ndarray:
        norm = np.abs(coords).sum(axis=1)
        return (self.inner_norm <= norm) & (norm < self.outer_norm)

    @property
    def bounds(self) -> ProductBox:
        """The box of the outer l1 sphere's inside, reached at +-(outer - 1) e_i."""
        rad = self.outer_norm - 1
        return ProductBox((-rad,) * self.dim, (rad,) * self.dim)


def translate(obj, x: Vertex):
    """theta_x: subtract x componentwise (paths, edges, vertices, regions)."""
    if isinstance(obj, LatticePath):
        return obj.translate(x)
    if isinstance(obj, ProductBox):
        return ProductBox(vsub(obj.lo, x), vsub(obj.hi, x))
    if isinstance(obj, L1Ball):
        return L1Ball(vsub(obj.center, x), obj.radius)
    if isinstance(obj, LInfBall):
        return LInfBall(vsub(obj.center, x), obj.radius)
    if isinstance(obj, tuple) and obj and isinstance(obj[0], tuple):
        return translate_edge(obj, x)  # an edge
    if isinstance(obj, tuple):
        return vsub(obj, x)  # a vertex
    raise TypeError(f"cannot translate {type(obj).__name__}")


def box_containing(vertices: Iterable[Vertex], pad: int = 0) -> ProductBox:
    vs = list(vertices)
    d = len(vs[0])
    lo = tuple(min(v[i] for v in vs) - pad for i in range(d))
    hi = tuple(max(v[i] for v in vs) + pad for i in range(d))
    return ProductBox(lo, hi)
