"""fpp: batch experiment runner.

    fpp <calibrate|deficiency|gap|shift|large-edges|shape|typical-rate|modify-demo>
        --config FILE --out FILE [--seed U64] [--trials K] [--jobs J]

The config file format is documented in fppkit.config.  Results land in a
versioned CSV; a short summary prints to stdout.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments as X
from . import patterns as P
from .config import load_config, spec_from_config, write_csv
from .distributions import DistributionSpec
from .geodesics import exact_norm_oracle
from .renormalization import derive_constants
from .rng import derive_seed


# primary names are descriptive; the short aliases are part of the stable
# config surface
PATTERN_BUILDERS = {
    "obstruction": "obstruction",
    "figure1": "obstruction",
    "atom_square": "atom_square",
    "nakajima": "atom_square",
    "nakajima_atom": "atom_square",
    "heavy_edge": "heavy_edge",
    "av_edge": "heavy_edge",
    "two_route_zero_atom": "two_route_zero_atom",
    "th62_zero_atom": "two_route_zero_atom",
    "two_route_unbounded": "two_route_unbounded",
    "th62_unbounded": "two_route_unbounded",
    "two_route_bounded": "two_route_bounded",
    "th62_bounded": "two_route_bounded",
    "shift_concavity": "shift_concavity",
    "th54": "shift_concavity",
}


def build_pattern(name: str, params: dict, spec: DistributionSpec, d: int):
    kind = PATTERN_BUILDERS.get(name)
    if kind == "obstruction":
        return P.obstruction_pattern()
    if kind == "atom_square":
        return P.atom_square_pattern(params.get("kappa", 1.0), d)
    if kind == "heavy_edge":
        return P.heavy_edge_pattern(params["M"], d)
    if kind == "two_route_zero_atom":
        return P.two_route_pattern_zero_atom(params["k"], params["l"], spec, d)
    if kind == "two_route_unbounded":
        return P.two_route_pattern_unbounded(
            params["k"], params["l"], params["r_atoms"], params["s_atoms"], params["M"], d
        )
    if kind == "two_route_bounded":
        return P.two_route_pattern_bounded(
            params["k"], params["l"], params["r_atoms"], params["s_atoms"], d
        )
    if kind == "shift_concavity":
        return P.shift_concavity_pattern(
            params["k"], params["l"], params["r"], params["s"], params["delta"], d
        )
    raise SystemExit(f"unknown pattern builder {name!r}")


def _parallel_over_n(fn, n_list, jobs, *args_before_n, **kwargs):
    """Run a per-n experiment over n_list with a deterministic merge.

    Each n is an independent chunk (per-trial seeds only depend on the
    master seed, n, and the trial index), so rows come back identical to a
    sequential run once sorted by (n, trial)."""
    if jobs <= 1 or len(n_list) <= 1:
        rows = fn(*args_before_n, n_list, **kwargs)
    else:
        from concurrent.futures import ProcessPoolExecutor

        rows = []
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(fn, *args_before_n, [n], **kwargs) for n in n_list
            ]
            for fut in futures:
                rows.extend(fut.result())
    rows.sort(key=lambda r: (r["n"], r["trial"]))
    return rows


def positive_int(text: str) -> int:
    """An argparse type: an int of at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="fpp", description=__doc__)
    ap.add_argument(
        "experiment",
        choices=[
            "calibrate", "deficiency", "gap", "shift", "large-edges",
            "shape", "typical-rate", "modify-demo",
        ],
    )
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--trials", type=positive_int, default=None)
    ap.add_argument("--jobs", type=positive_int, default=1,
                    help="parallel workers over the n grid of deficiency, gap, "
                         "large-edges and shift (deterministic merge)")
    args = ap.parse_args(argv)
    if args.jobs > 1 and args.experiment not in ("deficiency", "gap", "large-edges", "shift"):
        ap.error(f"{args.experiment} runs in one process; --jobs {args.jobs} is honoured "
                 "only by deficiency, gap, large-edges and shift")

    cfg = load_config(args.config)
    spec = spec_from_config(cfg)
    d = int(cfg.get("dimension", 2))
    seed = args.seed if args.seed is not None else int(cfg.get("seed", 0))
    trials = args.trials if args.trials is not None else int(cfg.get("trials", 100))
    if trials < 1:
        ap.error(f"config key 'trials' must be at least 1, got {trials}")
    n_list = [int(n) for n in cfg.get("n_list", [10, 20])]
    cap = int(cfg.get("cap", 128))

    if args.experiment == "calibrate":
        delta = X.calibrate_delta(spec, derive_seed(seed, "cal"), d, trials=trials)
        alpha = X.calibrate_alpha(spec, delta, derive_seed(seed, "cal"), d, trials=trials)
        rows = [dict(experiment="calibrate", delta=delta, alpha=alpha, trials=trials, seed=seed)]
        write_csv(args.out, rows, "calibrate")
        print(f"delta = {delta:.6g}\nalpha = {alpha:.6g}")
        return 0

    if args.experiment == "deficiency":
        pattern = build_pattern(cfg["pattern"], cfg.get("pattern_params", {}), spec, d)
        rows = _parallel_over_n(
            X.run_deficiency, n_list, args.jobs, spec, pattern,
            trials=trials, seed=seed, d=d, cap=cap,
        )
        write_csv(args.out, rows, "deficiency")
        print(X.summarize_deficiency(rows))
        return 0

    if args.experiment == "large-edges":
        rows = _parallel_over_n(
            X.run_large_edges, n_list, args.jobs, spec, float(cfg["M"]),
            trials=trials, seed=seed, d=d, cap=cap,
        )
        write_csv(args.out, rows, "large_edges")
        print(X.summarize_deficiency(rows))
        return 0

    if args.experiment == "gap":
        gate = [cfg.get(k) for k in ("k", "l", "r", "s")]
        rows = _parallel_over_n(
            X.run_gap, n_list, args.jobs, spec,
            None if gate[0] is None else int(gate[0]),
            None if gate[1] is None else int(gate[1]),
            None if gate[2] is None else float(gate[2]),
            None if gate[3] is None else float(gate[3]),
            trials=trials, seed=seed, d=d,
        )
        write_csv(args.out, rows, "gap")
        print(X.summarize_gap(rows))
        return 0

    if args.experiment == "shift":
        b_list = [float(b) for b in cfg.get("b_list", [0.1])]
        rows = _parallel_over_n(
            X.run_shift_concavity, n_list, args.jobs, spec, b_list,
            trials=trials, seed=seed, d=d,
        )
        write_csv(args.out, rows, "shift")
        holds = sum(r["holds"] for r in rows)
        print(f"per-realization bound held in {holds}/{len(rows)} rows")
        return 0

    if args.experiment == "shape":
        directions = [tuple(u) for u in cfg.get("directions", [(1,) + (0,) * (d - 1)])]
        rows, est = X.run_shape(spec, directions, n_list, trials, seed)
        write_csv(args.out, rows, "shape")
        print(f"c_mu = {est.c_mu:.6g}, C_mu = {est.C_mu:.6g}")
        return 0

    if args.experiment == "typical-rate":
        delta = float(cfg["delta"])
        alpha = cfg.get("alpha")
        regime = cfg.get("regime", "unbounded")
        if regime == "bounded" and "mu_rate" not in cfg:
            raise SystemExit("config key 'mu_rate' is required by typical-rate in the bounded regime")
        pattern = build_pattern(cfg["pattern"], cfg.get("pattern_params", {}), spec, d)
        # nu(N) is set inside run_typical_rate at the override radii
        constants = derive_constants(
            regime, spec, pattern, delta, alpha, float(cfg.get("c_mu", 1.0)),
            float(cfg.get("C_mu", 2.0)),
        )
        radii = tuple(int(r) for r in cfg["radii"])
        mu_oracle = exact_norm_oracle(float(cfg["mu_rate"])) if "mu_rate" in cfg else None
        rows = X.run_typical_rate(
            spec, constants, [int(N) for N in cfg.get("N_list", [2])],
            int(cfg.get("boxes", 50)), seed, radii, mu_oracle,
        )
        write_csv(args.out, rows, "typical_rate")
        for N in sorted({r["N"] for r in rows}):
            sub = [r for r in rows if r["N"] == N]
            print(f"N={N}: typical rate {sum(r['typical'] for r in sub)/len(sub):.3f}")
        return 0

    if args.experiment == "modify-demo":
        pattern = build_pattern(cfg["pattern"], cfg.get("pattern_params", {}), spec, d)
        radii = tuple(int(r) for r in cfg.get("radii", (2, 6, 10)))
        delta = cfg.get("delta")
        try:
            delta = None if delta is None else float(delta)
        except (TypeError, ValueError):
            raise SystemExit(f"config key 'delta' must be a number, got {delta!r}") from None
        insts, summary = X.run_modification_demo_unbounded(
            spec, pattern, int(cfg.get("instances", 20)), seed,
            N=int(cfg.get("N", 4)), radii=radii, d=d,
            delta=delta, cap=cap,
        )
        print(summary)
        if not insts:  # no rows, so no CSV and no reports
            print("fpp modify-demo: no instance passed the gates (attempts="
                  f"{summary['attempts']}, gate_failures={summary['gate_failures']})", file=sys.stderr)
            return 1
        rows = [
            dict(experiment="modify_demo", instance=i, seed=inst.seed,
                 retries=inst.retries, passed=int(inst.all_passed),
                 clause_failures=inst.clause_failures)
            for i, inst in enumerate(insts)
        ]
        write_csv(args.out, rows, "modify_demo")
        report_path = args.out + ".reports.txt"
        with open(report_path, "w") as fh:
            for i, inst in enumerate(insts):
                fh.write(f"=== instance {i} (seed {inst.seed}) ===\n{inst.report_text}\n\n")
        print(f"full clause reports: {report_path}")
        return 0 if summary["all_clauses_passed"] else 1

    raise SystemExit("unreachable")


if __name__ == "__main__":
    sys.exit(main())
