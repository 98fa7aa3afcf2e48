"""Speed-adjusted benchmark of fppkit's batch experiments.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --calibrate-probe

Runs one workload (see workloads.py and README.md) single-threaded in this
process: fppkit imports (timed five times) and fixture set-up (timed three
times), then operations until S seconds of operation time have passed, each
checked against an independent scipy computation.  Every time is scaled by
the machine-speed probe (probe.py).  With --trace 0 the last line is a JSON object with the
end-to-end metrics; with --trace 1 each operation runs twice, untraced and
traced in alternating order, the two outputs must be byte-identical, and
the JSON holds the per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.probe import PROBE_REF, Probe  # noqa: E402

WORKLOAD_NAMES = ("deficiency-strip", "orientation-cube", "modify-demo", "typicality-bounded")
SETUP_REPEATS = 3  # fixture builds
IMPORT_REPEATS = 5  # fppkit imports: one here, the rest in fresh interpreters
MIN_OPS = 3

# per-layer metrics, per traced operation unless the README says otherwise
SPAN_METRICS = (
    ("geodesics.RegionGraph.init", ("calls",)),
    ("geodesics.dijkstra", ("calls", "self_s")),
    ("geodesics.enumerate_geodesics", ("calls", "self_s")),
    ("geodesics.first_lex_geodesic", ("self_s",)),
    ("geodesics.extreme_length_geodesics", ("self_s",)),
    ("fields.edge_times_for", ("self_s",)),
    ("geodesics.RegionGraph.field_from", ("self_s",)),
    ("geodesics.RegionGraph.weights_of", ("self_s",)),
    ("fields.splice", ("self_s",)),
    ("fields.sample_conditioned", ("self_s",)),
    ("patterns.pattern_hits", ("calls", "self_s")),
    ("renormalization.typicality_bounded", ("self_s",)),
    ("modification.build_plan_unbounded", ("self_s",)),
    ("modification.verify_modification_unbounded", ("self_s",)),
    ("config.write_csv", ("self_s",)),
)
COUNT_METRICS = (
    "geodesics.enumerate_geodesics.paths",
    "geodesics.enumerate_geodesics.truncated",
    "patterns.pattern_hits.hits",
    "patterns.condition_holds.calls",
)


def op_seed(workload: str, seed: int, k: int) -> int:
    """Seed of operation k, independent of fppkit's own seed derivation."""
    digest = hashlib.blake2b(f"{workload}:{seed}:{k}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") >> 1


# numpy is loaded first (as here, by the probe): its import is the same for
# every version of fppkit and is mostly file access, which the probe does
# not follow, so it would only add noise to setup_s
IMPORT_SNIPPET = (
    "import sys, time, numpy; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import fppkit.cli; print(time.perf_counter() - t)"
)


def import_fppkit(probe: Probe) -> list[tuple[float, float, float]]:
    """Import fppkit from this checkout's src/, here and in fresh
    interpreters; returns (start, end, seconds) of each import."""
    src = ROOT / "src"
    if not (src / "fppkit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no fppkit sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import fppkit.cli  # noqa: F401  (loads every fppkit module)

    t1 = time.perf_counter()
    origin = Path(sys.modules["fppkit"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"perfbench: fppkit imported from {origin}, not from {src}")
    intervals = [(t0, t1, t1 - t0)]
    for _ in range(IMPORT_REPEATS - 1):
        probe.measure()
        a = time.perf_counter()
        child = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(src)],
                               capture_output=True, text=True, check=True, timeout=120)
        intervals.append((a, time.perf_counter(), float(child.stdout.strip().splitlines()[-1])))
    probe.measure()
    return intervals


class Run:
    """One benchmark run: timing intervals, failures and the probe."""

    def __init__(self, workload, seconds: float, seed: int, probe: Probe):
        self.wl, self.seconds, self.seed, self.probe = workload, seconds, seed, probe
        self.setups: list[tuple[float, float]] = []
        self.ops: list[tuple[float, float]] = []  # untraced operations
        self.traced_ops: list[tuple[float, float]] = []
        self.attempted = self.failed = 0
        self.wrong = 0  # operations whose output failed a check
        self.verified = self.attempts = 0

    def timed(self, fn, *args):
        self.probe.maybe_measure()
        start = time.perf_counter()
        out = fn(*args)
        return out, (start, time.perf_counter())

    def setup(self, tracer) -> None:
        for _ in range(SETUP_REPEATS if tracer is None else 1):
            if tracer is None:
                _, interval = self.timed(self.wl.setup)
            else:
                with tracer.installed(), tracer.span("setup"):
                    _, interval = self.timed(self.wl.setup)
            self.setups.append(interval)
            self.probe.measure()

    def operation(self, k: int, tracer) -> float:
        """Run (and check) operation k; returns the operation time spent."""
        seed = op_seed(self.wl.name, self.seed, k)
        self.attempted += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                out, interval = self.timed(self.wl.run, seed)
                self.ops.append(interval)
                spent = interval[1] - interval[0]
            else:
                out, spent = self.traced_pair(k, seed, tracer)
            errors = self.wl.check(seed, out)
        except Exception:  # an operation that raises counts as failed; keep going
            traceback.print_exc()
            self.failed += 1
            return time.perf_counter() - start
        if errors:
            self.failed += 1
            self.wrong += 1
            print(f"operation {k} (seed {seed}) failed its check:", *errors[:5], sep="\n  ", file=sys.stderr)
        self.verified += out.verified
        self.attempts += out.attempts
        return spent

    def traced_pair(self, k: int, seed: int, tracer):
        outs = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            if traced:
                with tracer.installed(), tracer.span("op"):
                    outs[traced], interval = self.timed(self.wl.run, seed)
                self.traced_ops.append(interval)
            else:
                outs[traced], interval = self.timed(self.wl.run, seed)
                self.ops.append(interval)
        if outs[True].files != outs[False].files:
            raise RuntimeError(f"operation {k}: traced output differs from untraced output")
        spent = sum(b - a for a, b in self.ops[-1:] + self.traced_ops[-1:])
        return outs[False], spent

    def measure(self, tracer) -> None:
        spent, k = 0.0, 0
        while k < MIN_OPS or spent < self.seconds:
            spent += self.operation(k, tracer)
            k += 1
        self.probe.measure()


def end_to_end(run: Run, imports) -> dict:
    adj, med = run.probe.adjust, statistics.median
    ops = [adj(a, b) for a, b in run.ops]
    raw = [b - a for a, b in run.ops]
    import_s = med([adj(*i) for i in imports])
    setup_s = import_s + med([adj(a, b) for a, b in run.setups])
    raw_setup = med([i[2] for i in imports]) + med([b - a for a, b in run.setups])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"setup_s     adjusted {setup_s:.4f}  raw {raw_setup:.4f}  "
          f"(median of {len(imports)} fppkit imports {import_s:.4f} + median of {len(run.setups)} fixture builds)")
    print(f"op_s        adjusted {statistics.median(ops):.4f}  raw {statistics.median(raw):.4f}  over {len(ops)} ops")
    print(f"ops_per_s   adjusted {len(ops) / sum(ops):.4f}  raw {len(raw) / sum(raw):.4f}")
    print(f"peak_rss_mb {peak:.1f}")
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "op_s": {"value": statistics.median(ops), "unit": "s"},
        "ops_per_s": {"value": len(ops) / sum(ops), "unit": "1/s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


def per_layer(run: Run, tracer) -> dict:
    n = len(run.traced_ops)
    totals = tracer.layer_totals({"op"})
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    # a graph build is timed wherever it happens, set-up included
    calls, self_s = tracer.layer_totals({"setup", "op"}).get("geodesics.RegionGraph.init", (0, 0.0))
    put("geodesics.RegionGraph.init_s", self_s / calls if calls else 0.0, "s")
    for name, kinds in SPAN_METRICS:
        calls, self_s = totals.get(name, (0, 0.0))
        if "calls" in kinds:
            put(f"{name}.calls", calls / n, "count")
        if "self_s" in kinds:
            put(f"{name}.self_s", self_s / n, "s")
    for name in COUNT_METRICS:
        put(name, tracer.counts[name] / n, "count")
    checks = tracer.counts["patterns.condition_holds.calls"]
    put("patterns.hits_per_condition_check", tracer.counts["patterns.pattern_hits.hits"] / checks if checks else 0.0, "ratio")
    put("modification.verified_per_attempt", run.verified / run.attempts if run.attempts else 0.0, "ratio")
    adj = run.probe.adjust
    diffs = [adj(*t) - adj(*u) for t, u in zip(run.traced_ops, run.ops)]
    put("trace.overhead_s", statistics.median(diffs), "s")
    print(f"traced ops {n}; untraced op_s {statistics.median([adj(*u) for u in run.ops]):.4f}, "
          f"traced op_s {statistics.median([adj(*t) for t in run.traced_ops]):.4f} (adjusted)")
    return out


def calibrate_probe(samples: int = 120) -> int:
    probe, times = Probe(), []
    for _ in range(samples):
        times.append(probe.measure())
        time.sleep(0.25)
    q1, med, q3 = statistics.quantiles(times, n=4)
    print(f"probe median {med:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s over {samples} samples")
    print(f"PROBE_REF in perfbench/probe.py is {PROBE_REF}")
    return 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--calibrate-probe", action="store_true",
                    help="print the probe kernel's median time on this machine and exit")
    args = ap.parse_args(argv)
    if args.calibrate_probe:
        return calibrate_probe()
    if args.workload is None:
        ap.error("--workload is required")

    probe = Probe()
    probe.measure()
    imports = import_fppkit(probe)
    from perfbench import tracing, workloads

    work = ROOT / "perfbench" / ".work"
    work.mkdir(exist_ok=True)
    run = Run(workloads.WORKLOADS[args.workload](work), args.seconds, args.seed, probe)
    tracer = tracing.Tracer() if args.trace else None
    run.setup(tracer)
    run.wl.prepare_check()
    run.measure(tracer)
    if not run.ops or (tracer is not None and not run.traced_ops):
        raise SystemExit(f"perfbench: no operation of {args.workload} completed")

    med, iqr, count = run.probe.summary()
    print(f"workload {args.workload} seed {args.seed}: {run.attempted} ops, {run.failed} failed")
    print(f"probe       median {med:.4f} s  IQR {iqr:.4f} s  over {count} probes (PROBE_REF {PROBE_REF} s)")
    if tracer is None:
        metrics = end_to_end(run, imports)
        restored = True
    else:
        metrics = per_layer(run, tracer)
        restored = not tracer.leftover_wrappers()
    result = {
        "correct": run.wrong == 0 and restored,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
