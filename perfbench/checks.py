"""Ground truth for the workload checks, built apart from fppkit's geodesic code.

Graphs are built here from vertex sets, and distances come from
scipy.sparse.csgraph.  The only fppkit code a check uses is
`fields.edge_times_for`, which defines the sampled input itself.
"""

from __future__ import annotations

import ast

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

REL_TOL = 1e-9


class Lattice:
    """Nearest-neighbour graph on a finite vertex set of Z^d."""

    def __init__(self, vertices):
        self.vertices = sorted(tuple(v) for v in vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        edges, axes = [], []
        for v in self.vertices:
            for axis in range(len(v)):
                w = v[:axis] + (v[axis] + 1,) + v[axis + 1 :]
                if w in self.index:
                    edges.append((v, w))
                    axes.append(axis)
        order = sorted(range(len(edges)), key=edges.__getitem__)
        self.edges = [edges[k] for k in order]
        self.axis = np.array([axes[k] for k in order], dtype=np.int64)
        self.eindex = {e: k for k, e in enumerate(self.edges)}
        self.src = np.array([self.index[a] for a, _ in self.edges], dtype=np.int64)
        self.dst = np.array([self.index[b] for _, b in self.edges], dtype=np.int64)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def distances(self, w: np.ndarray, sources) -> np.ndarray:
        """Shortest-path times from each source (rows) to every vertex."""
        if not np.all(w > 0):
            raise ValueError("sparse graphs drop zero weights; all weights must be positive")
        g = csr_matrix((w, (self.src, self.dst)), shape=(self.n, self.n))
        return dijkstra(g, directed=False, indices=sources)

    def edge_of(self, a, b) -> int:
        return self.eindex[(a, b) if a <= b else (b, a)]

    def path_time(self, w: np.ndarray, vertices) -> float:
        return float(sum(w[self.edge_of(a, b)] for a, b in zip(vertices, vertices[1:])))


def box_vertices(lo, hi):
    grids = np.meshgrid(*[np.arange(a, b + 1) for a, b in zip(lo, hi)], indexing="ij")
    return [tuple(int(c) for c in p) for p in np.stack(grids, -1).reshape(-1, len(lo))]


def l1_ball_vertices(radius: int, d: int = 2):
    return [v for v in box_vertices((-radius,) * d, (radius,) * d) if sum(map(abs, v)) <= radius]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def count_geodesics(lat: Lattice, w: np.ndarray, dist_x: np.ndarray, dist_y: np.ndarray, xi: int, yi: int) -> int:
    """Number of x -> y geodesics, a path count over the tight arcs
    (positive weights make the tight digraph acyclic)."""
    t = dist_x[yi]
    arcs = []
    for a, b in ((lat.src, lat.dst), (lat.dst, lat.src)):
        total = dist_x[a] + w + dist_y[b]
        tight = np.abs(total - t) <= REL_TOL * np.maximum(1.0, np.abs(t))
        arcs.extend(zip(dist_x[a[tight]].tolist(), a[tight].tolist(), b[tight].tolist()))
    arcs.sort()
    count = {xi: 1}
    for _, a, b in arcs:
        if a in count:
            count[b] = count.get(b, 0) + count[a]
    return count.get(yi, 0)


def takes_pattern(vertices, pattern, w: np.ndarray, lat: Lattice) -> bool:
    """The path visits both pattern endpoints, stays in the pattern's
    support between them, and the event holds (translate 0)."""
    try:
        iu, iv = vertices.index(pattern.u_end), vertices.index(pattern.v_end)
    except ValueError:
        return False
    lo_i, hi_i = min(iu, iv), max(iu, iv)
    if not all(pattern.region.contains(v) for v in vertices[lo_i : hi_i + 1]):
        return False
    return all(
        lo - 1e-9 <= w[lat.eindex[e]] <= hi + 1e-9 for e, (lo, hi) in pattern.event.constraints.items()
    )


def read_csv_rows(text: str) -> list[dict]:
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        vals = []
        for tok in ln.split(","):
            try:
                vals.append(ast.literal_eval(tok))
            except (ValueError, SyntaxError):
                vals.append(tok)
        rows.append(dict(zip(header, vals)))
    return rows
