"""The four workloads: fixture set-up, one operation, and its check.

`setup` builds what every operation reuses and is timed; `run` is one timed
operation that writes its CSV through fppkit and returns the bytes;
`prepare_check` and `check` rebuild the ground truth with perfbench.checks
and are not timed.  Sizes and constants are pinned here (see README.md); the
per-operation seeds come from the benchmark's --seed.
"""

from __future__ import annotations

import contextlib
import io
import re
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from fppkit import cli, config, experiments, fields, geodesics, patterns, renormalization, rng
from fppkit.distributions import DistributionSpec

from perfbench.checks import (
    Lattice,
    box_vertices,
    close,
    count_geodesics,
    l1_ball_vertices,
    read_csv_rows,
    takes_pattern,
)


@dataclass
class Output:
    files: bytes  # everything the operation wrote, compared traced vs untraced
    state: object = None  # in-memory results the check reads
    verified: int = 0  # modify-demo: verified instances and attempts
    attempts: int = 0


def _quiet_cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class DeficiencyStrip:
    """Criterion-06 setup: heavy-edge pattern M=2, atoms {1, 2}, n=28 strip."""

    name = "deficiency-strip"
    N, TRIALS, CAP, M = 28, 10, 128, 2.0
    SPEC = DistributionSpec(atoms=((1.0, 0.5), (2.0, 0.5)))
    CONFIG = (
        "atoms = [(1.0, 0.5), (2.0, 0.5)]\n"
        "pattern = av_edge\n"
        'pattern_params = {"M": 2.0}\n'
        f"n_list = [{N}]\n"
        f"trials = {TRIALS}\n"
        f"cap = {CAP}\n"
    )

    def __init__(self, work: Path):
        self.cfg = work / "deficiency.cfg"
        self.out = work / "deficiency.csv"

    def setup(self) -> None:
        self.cfg.write_text(self.CONFIG)

    def run(self, seed: int) -> Output:
        rc = _quiet_cli(["deficiency", "--config", str(self.cfg), "--out", str(self.out),
                         "--seed", str(seed), "--jobs", "1"])
        if rc != 0:
            raise RuntimeError(f"fpp deficiency exited with {rc}")
        return Output(self.out.read_bytes())

    def prepare_check(self) -> None:
        pad = max(6, self.N // 3)  # the strip of experiments.segment_region
        self.lat = Lattice(box_vertices((-pad, -pad), (self.N + pad, pad)))
        self.xi, self.yi = self.lat.index[(0, 0)], self.lat.index[(self.N, 0)]
        self.K = len(self.lat.edges) + 1  # exceeds any heavy-edge count

    def check(self, seed: int, out: Output) -> list[str]:
        rows = read_csv_rows(out.files.decode())
        if [(r["n"], r["trial"]) for r in rows] != [(self.N, k) for k in range(self.TRIALS)]:
            return [f"rows are not trials 0..{self.TRIALS - 1} at n={self.N}"]
        lat, errors = self.lat, []
        for r in rows:
            k = r["trial"]
            if r["seed"] != rng.derive_seed(seed, "deficiency", self.N, k):
                errors.append(f"trial {k}: seed {r['seed']} is not the derived trial seed")
                continue
            w = fields.edge_times_for(lat.edges, self.SPEC, r["seed"])
            heavy = (lat.axis == 0) & (w >= self.M - 1e-9)
            d = lat.distances(w, [self.xi, self.yi])
            # integer times: K*T + heavy ranks paths by time, then by heavy count
            d_heavy = lat.distances(self.K * w + heavy, self.xi)
            exact_min = int(round(d_heavy[self.yi] - self.K * d[0, self.yi]))
            n_geo = count_geodesics(lat, w, d[0], d[1], self.xi, self.yi)
            got = (r["min_count"], r["n_geodesics"])
            if r["truncated"] == 0 and got != (exact_min, n_geo):
                errors.append(f"trial {k}: (min_count, geodesics) {got}, exact {(exact_min, n_geo)}")
            if r["truncated"] == 1 and (got[0] < exact_min or n_geo < self.CAP or got[1] < self.CAP):
                errors.append(f"trial {k}: truncated {got} against exact {(exact_min, n_geo)}")
        return errors


class OrientationCube:
    """Criterion-12 oriented pattern: conditioned sample, inner optima, crossing."""

    name = "orientation-cube"
    CAP = 64
    SPEC = DistributionSpec(atoms=((1.0, 1 / 3), (2.0, 1 / 3)), uniforms=((1.2, 1.8, 1 / 3),))

    def __init__(self, work: Path):
        self.out = work / "orientation.csv"

    def setup(self) -> None:
        self.base = patterns.atom_square_pattern(1.0)
        self.op = patterns.orient_pattern(self.base, 0, self.SPEC, nu=2.0, nu0=1.5, delta_p=0.25 / 3)
        self.graph = geodesics.RegionGraph(self.op.pattern.region)

    def run(self, seed: int) -> Output:
        pat, graph = self.op.pattern, self.graph
        times = fields.edge_times_for(graph.edges, self.SPEC, seed, pat.event)
        f = graph.field_from(times, seed=seed)
        gs = geodesics.enumerate_geodesics(pat.u_end, pat.v_end, f, cap=self.CAP, graph=graph)
        rows = [
            dict(experiment="orientation", seed=seed, path=i, edges=len(g), time=f.path_time(g),
                 truncated=int(gs.truncated),
                 crossed=int(patterns.condition_holds((0, 0), g, self.base, f) is not None),
                 route=g.directions().replace(",", ""))
            for i, g in enumerate(gs.paths)
        ]
        config.write_csv(str(self.out), rows, "orientation")
        return Output(self.out.read_bytes(), (times, gs))

    def prepare_check(self) -> None:
        cube = self.op.pattern.region
        if cube.center != (0, 0):
            raise ValueError("the oriented pattern's cube is not centred at the origin")
        r = cube.radius
        self.lat = lat = Lattice(box_vertices((-r, -r), (r, r)))
        if len(self.graph.edges) != len(lat.edges):
            raise ValueError("RegionGraph and the check lattice differ in edge count")
        self.perm = np.array([lat.eindex[e] for e in self.graph.edges])
        bounds = np.full((len(lat.edges), 2), [0.0, np.inf])
        for e, iv in self.op.pattern.event.constraints.items():
            bounds[lat.eindex[e]] = iv
        self.lo, self.hi = bounds[:, 0] - 1e-9, bounds[:, 1] + 1e-9
        self.ui = lat.index[self.op.pattern.u_end]
        self.vi = lat.index[self.op.pattern.v_end]

    def check(self, seed: int, out: Output) -> list[str]:
        times, gs = out.state
        lat, errors = self.lat, []
        w = np.empty(len(lat.edges))
        w[self.perm] = times
        if not np.all((self.lo <= w) & (w <= self.hi)):
            errors.append(f"event fails on {int(np.sum((w < self.lo) | (w > self.hi)))} constrained edges")
        d = lat.distances(w, [self.ui, self.vi])
        t = d[0, self.vi]
        n_geo = count_geodesics(lat, w, d[0], d[1], self.ui, self.vi)
        want = (min(n_geo, self.CAP), n_geo >= self.CAP)  # reaching the cap sets the flag
        if (len(gs.paths), gs.truncated) != want:
            errors.append(f"(paths, truncated) {(len(gs.paths), gs.truncated)}, exact {want}")
        rows = read_csv_rows(out.files.decode())
        if len(rows) != len(gs.paths):
            errors.append("CSV rows do not match the enumerated paths")
        for i, g in enumerate(gs.paths):
            vs = g.vertices
            ok_shape = (vs[0], vs[-1]) == (self.op.pattern.u_end, self.op.pattern.v_end) and len(set(vs)) == len(vs)
            if not ok_shape or not all(v in lat.index for v in vs):
                errors.append(f"path {i} is not a self-avoiding pole-to-pole path in the cube")
                continue
            if not close(lat.path_time(w, vs), t):
                errors.append(f"path {i}: time {lat.path_time(w, vs)!r} != distance {float(t)!r}")
            crossed = takes_pattern(vs, self.base, w, lat)
            if not crossed or (i < len(rows) and rows[i]["crossed"] != 1):
                errors.append(f"path {i} does not cross the base pattern")
        return errors


class ModifyDemo:
    """Unbounded-regime modification demo: exp-tail law, heavy-edge M=8."""

    name = "modify-demo"
    # calibrate_delta(UNB, derive_seed(11, "cal")) at the criterion-09 seed,
    # pinned so that calibration stays out of the operation
    DELTA = 2.0660447436604943
    INSTANCES, CAP = 1, 256
    SPEC = DistributionSpec(atoms=((1.0, 0.05),), exp_tails=((3.0, 0.5, 0.95),))
    CONFIG = (
        "atoms = [(1.0, 0.05)]\n"
        "exptail = [(3.0, 0.5, 0.95)]\n"
        "pattern = av_edge\n"
        'pattern_params = {"M": 8.0}\n'
        f"instances = {INSTANCES}\n"
        f"cap = {CAP}\n"
        f"delta = {DELTA!r}\n"
        "N = 4\n"
        "radii = (2, 6, 10)\n"
    )
    # the demo's world for N=4, radii (2, 6, 10): target x = 2N(r2 + 2) e1,
    # padding r3 N + 4N around the segment 0 -> x
    X, PAD = (64, 0), 56
    T_GAMMA = re.compile(r"T\(gamma\)=([-+.0-9eE]+)")

    def __init__(self, work: Path):
        self.cfg = work / "modify.cfg"
        self.out = work / "modify.csv"

    def setup(self) -> None:
        self.cfg.write_text(self.CONFIG)

    def run(self, seed: int) -> Output:
        rc = _quiet_cli(["modify-demo", "--config", str(self.cfg), "--out", str(self.out),
                         "--seed", str(seed), "--jobs", "1"])
        csv = self.out.read_bytes()
        rows = read_csv_rows(csv.decode())
        report = Path(str(self.out) + ".reports.txt").read_bytes()
        return Output(csv + report, (rc, rows, report.decode()), len(rows), rows[-1]["retries"] if rows else 0)

    def prepare_check(self) -> None:
        x, pad = self.X, self.PAD
        self.lat = Lattice(box_vertices((-pad, -pad), (x[0] + pad, pad)))
        self.zi, self.xi = self.lat.index[(0, 0)], self.lat.index[x]

    def check(self, seed: int, out: Output) -> list[str]:
        rc, rows, report = out.state
        errors = [] if rc == 0 else [f"fpp modify-demo exited with {rc}"]
        if len(rows) != self.INSTANCES:
            return errors + [f"{len(rows)} verified instances, want {self.INSTANCES}"]
        blocks = report.split("=== instance ")[1:]
        for r, block in zip(rows, blocks):
            clauses = [ln for ln in block.splitlines() if ln.startswith(("[pass]", "[FAIL]"))]
            if r["passed"] != 1 or r["clause_failures"] != 0 or not clauses or any(
                c.startswith("[FAIL]") for c in clauses
            ):
                errors.append(f"instance {r['instance']}: a clause failed")
            m = self.T_GAMMA.search(block)
            w = fields.edge_times_for(self.lat.edges, self.SPEC, r["seed"])
            t = self.lat.distances(w, self.zi)[self.xi]
            if m is None or abs(float(m.group(1)) - t) > 1e-5 * t:
                errors.append(f"instance {r['instance']}: report T(gamma) {m and m.group(1)}, scipy {float(t)!r}")
        if len(blocks) != len(rows):
            errors.append("report blocks do not match the CSV rows")
        return errors


class TypicalityBounded:
    """Criterion-11 bounded box: N=2, radii (2, 3, 4, 6), every source checked."""

    name = "typicality-bounded"
    SPEC = DistributionSpec(atoms=((1.0, 0.5), (2.0, 0.5)))
    N, RADII, BOXES = 2, (2, 3, 4, 6), 2
    RHO, DELTA, ALPHA, EPS, MU_RATE = 1.0, 0.3, 0.05, 0.45, 1.5

    def __init__(self, work: Path):
        self.out = work / "typicality.csv"

    def setup(self) -> None:
        constants = renormalization.derive_constants(
            "bounded", self.SPEC, patterns.atom_square_pattern(1.0), delta=self.DELTA,
            alpha=self.ALPHA, c_mu=1.0, C_mu=1.6,
        )
        self.constants = replace(constants, epsilon=self.EPS)
        self.mu = geodesics.exact_norm_oracle(self.MU_RATE)

    def run(self, seed: int) -> Output:
        rows = experiments.run_typical_rate(
            self.SPEC, self.constants, [self.N], self.BOXES, seed, self.RADII, self.mu, pair_sample=None
        )
        config.write_csv(str(self.out), rows, "typical_rate")
        return Output(self.out.read_bytes())

    def prepare_check(self) -> None:
        N, (_, _, r3, r4) = self.N, self.RADII
        self.lat = lat = Lattice(l1_ball_vertices(r4 * N))
        coords = np.array(lat.vertices)
        self.sep = np.abs(coords[:, None, :] - coords[None, :, :]).sum(-1)
        in_b3 = np.abs(coords).sum(-1) <= r3 * N
        self.far = self.sep >= N
        self.far_b3 = self.far & in_b3[:, None] & in_b3[None, :]
        self.K = len(lat.edges) + 1

    def check(self, seed: int, out: Output) -> list[str]:
        rows = read_csv_rows(out.files.decode())
        if [(r["N"], r["trial"]) for r in rows] != [(self.N, k) for k in range(self.BOXES)]:
            return [f"rows are not boxes 0..{self.BOXES - 1} at N={self.N}"]
        lat, sep, N, errors = self.lat, self.sep, self.N, []
        for r in rows:
            k = r["trial"]
            if r["seed"] != rng.derive_seed(seed, "typical", N, k):
                errors.append(f"box {k}: seed {r['seed']} is not the derived box seed")
                continue
            w = fields.edge_times_for(lat.edges, self.SPEC, r["seed"])
            heavy = w >= self.RHO + self.DELTA - 1e-12
            t = lat.distances(w, None)
            # integer times: K*T + heavy ranks paths by time, then by heavy count
            hmin = np.rint(lat.distances(self.K * w + heavy, None) - self.K * t)
            mu = self.MU_RATE * sep
            c1 = not np.any(self.far_b3 & (hmin < self.ALPHA * sep))
            c2 = not np.any(self.far & (t < (self.RHO + self.DELTA) * sep - 1e-9))
            c3_ok = ((1 - self.EPS) * mu - N <= t + 1e-9) & (t <= (1 + self.EPS) * mu + N + 1e-9)
            c3 = not np.any(self.far_b3 & ~c3_ok)
            want = (int(c1), int(c2), int(c3), int(c1 and c2 and c3))
            got = (r["clause1"], r["clause2"], r["clause3"], r["typical"])
            if got != want:
                errors.append(f"box {k}: clauses/typical {got}, exact {want}")
        return errors


WORKLOADS = {w.name: w for w in (DeficiencyStrip, OrientationCube, ModifyDemo, TypicalityBounded)}
