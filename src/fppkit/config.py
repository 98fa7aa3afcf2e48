"""Key-value config files and versioned CSV output.

Config format: one `key = value` per line, `#` comments.  Values are
Python literals where bracketed, else bare numbers/strings.  Documented
keys:

    dimension      lattice dimension d (default 2)
    atoms          [(value, prob), ...]           distribution pieces
    uniform        [(a, b, prob), ...]
    exptail        [(a, rate, prob), ...]
    pattern        builder name: obstruction | atom_square | heavy_edge |
                   two_route_zero_atom | two_route_unbounded |
                   two_route_bounded | shift_concavity (plus short aliases,
                   see fppkit.cli.PATTERN_BUILDERS)
    pattern_params {dict literal} forwarded to the builder
    n_list         [n, ...]      every per-n experiment (deficiency,
                                 large-edges, gap, shift, shape) runs
                                 each n (default [10, 20])
    trials         int
    seed           64-bit master seed
    cap            geodesic enumeration cap (only where rows or clauses
                   still enumerate; see README, CLI)
    delta, alpha   calibration values
    b_list         [b, ...]      (shift experiment)
    M              heavy-edge level (large-edges experiment)
    N_list         [N, ...]      (typical-rate experiment)
    radii          (r1, r2, r3[, r4]) overrides
    boxes          box count     (typical-rate)
    instances      verified-instance count (modify-demo)
    directions     [(1,0), ...]  (shape experiment)
    k, l, r, s     gap / shift-concavity parameters
    out            output CSV path
"""

from __future__ import annotations

import ast
from typing import Any

from .distributions import DistributionSpec


def parse_config(text: str) -> dict[str, Any]:
    out: dict[str, Any] = {}
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ValueError(f"bad config line: {line!r}")
        key = key.strip()
        value = value.strip()
        try:
            out[key] = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            out[key] = value
    return out


def load_config(path: str) -> dict[str, Any]:
    with open(path) as fh:
        return parse_config(fh.read())


def spec_from_config(cfg: dict[str, Any]) -> DistributionSpec:
    return DistributionSpec(
        tuple(tuple(a) for a in cfg.get("atoms", ())),
        tuple(tuple(u) for u in cfg.get("uniform", ())),
        tuple(tuple(t) for t in cfg.get("exptail", ())),
    )


def _fmt(v: Any) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


# A schema's version rises when its rows change for a pinned (config,
# seed).  v2: nu(N) is the Cramer-Chernoff level, no longer a sampled
# quantile, which moves modify-demo gates and typical-rate clause (iii).
SCHEMA_VERSIONS = {"modify_demo": 2, "typical_rate": 2}


def write_csv(path: str, rows: list[dict], schema: str) -> None:
    """Header line plus a schema-version comment; floats at 12 digits."""
    if not rows:
        raise ValueError("no rows to write")
    cols = list(rows[0].keys())
    with open(path, "w") as fh:
        fh.write(f"# fppkit schema={schema} v{SCHEMA_VERSIONS.get(schema, 1)}\n")
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in cols) + "\n")


def read_csv(path: str) -> list[dict]:
    rows = []
    with open(path) as fh:
        header = None
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#") or not line:
                continue
            if header is None:
                header = line.split(",")
                continue
            vals = []
            for tok in line.split(","):
                try:
                    vals.append(ast.literal_eval(tok))
                except (ValueError, SyntaxError):
                    vals.append(tok)
            rows.append(dict(zip(header, vals)))
    return rows
