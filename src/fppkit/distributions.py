"""Edge-weight distributions: atoms, uniform pieces, and exponential tails.

A spec is a finite mixture.  Atoms and uniform intervals cover every
bounded law used in the experiments; an exponential tail piece
(P(T > t | piece) = exp(-rate (t - a))) provides genuinely unbounded
support, which the unbounded-regime machinery requires (walls must carry
positive mass above any finite level).

Sampling is by inverse CDF on a per-edge uniform, so conditioning a single
edge to an interval is exact: restrict the mixture to the interval,
renormalize, and invert.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass, field

import numpy as np

from .tolerance import agree, atom_in


@dataclass(frozen=True)
class _Piece:
    kind: str  # "atom" | "uniform" | "exptail"
    a: float
    b: float  # atom: == a; exptail: rate
    prob: float

    def mass_in(self, lo: float, hi: float) -> float:
        if self.kind == "atom":
            return self.prob if atom_in(self.a, lo, hi) else 0.0
        if self.kind == "uniform":
            overlap = min(hi, self.b) - max(lo, self.a)
            return self.prob * max(0.0, overlap) / (self.b - self.a)
        rate = self.b
        lo_eff = max(lo, self.a)
        if hi < lo_eff:
            return 0.0
        upper = 0.0 if math.isinf(hi) else math.exp(-rate * (hi - self.a))
        return self.prob * (math.exp(-rate * (lo_eff - self.a)) - upper)

    def log_mass_in(self, lo: float, hi: float) -> float:
        """log of mass_in, exact deep in an exponential tail (no underflow)."""
        if self.kind != "exptail":
            m = self.mass_in(lo, hi)
            return math.log(m) if m > 0 else -math.inf
        rate = self.b
        lo_eff = max(lo, self.a)
        if hi < lo_eff:
            return -math.inf
        base = math.log(self.prob) - rate * (lo_eff - self.a)
        if math.isinf(hi):
            return base
        return base + math.log1p(-math.exp(-rate * (hi - lo_eff))) if hi > lo_eff else -math.inf

    def sup(self) -> float:
        return self.a if self.kind == "atom" else (self.b if self.kind == "uniform" else math.inf)

    def log_mgf(self, theta: float) -> float:
        """log E[exp(theta T) | piece]; inf where an exponential tail diverges."""
        if self.kind == "atom":
            return theta * self.a
        if self.kind == "uniform":
            x = theta * (self.b - self.a)
            if x == 0:
                return theta * self.a
            if x > 30:  # the same log, in a form that cannot overflow
                return theta * self.b - math.log(x) + math.log1p(-math.exp(-x))
            return theta * self.a + math.log(math.expm1(x) / x)
        rate = self.b
        return theta * self.a - math.log1p(-theta / rate) if theta < rate else math.inf

    def ppf_within(self, q: np.ndarray, lo: float, hi: float) -> np.ndarray:
        """Quantile of the piece conditioned to [lo, hi]; q in [0,1)."""
        if self.kind == "atom":
            return np.full_like(q, self.a)
        if self.kind == "uniform":
            a, b = max(lo, self.a), min(hi, self.b)
            return a + q * (b - a)
        # memoryless: conditioned to [lo', hi] the law is lo' + a truncated
        # exponential, so deep-tail conditioning never underflows
        rate = self.b
        a = max(lo, self.a)
        if math.isinf(hi):
            return a - np.log1p(-q) / rate
        span = 1.0 - math.exp(-rate * (hi - a))
        return a - np.log1p(-q * span) / rate


@dataclass(frozen=True)
class UsefulnessReport:
    rho: float
    mass_at_rho: float
    p_c: float
    p_oriented_c: float | None
    useful: bool
    detail: str = ""


@dataclass(frozen=True)
class DistributionSpec:
    """Mixture law for i.i.d. edge passage times."""

    atoms: tuple[tuple[float, float], ...] = ()
    uniforms: tuple[tuple[float, float, float], ...] = ()
    exp_tails: tuple[tuple[float, float, float], ...] = ()
    _pieces: tuple[_Piece, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        pieces = []
        for v, p in self.atoms:
            if v < 0 or p <= 0:
                raise ValueError("atom values must be >= 0 with positive mass")
            pieces.append(_Piece("atom", float(v), float(v), float(p)))
        for a, b, p in self.uniforms:
            if a < 0 or b <= a or p <= 0:
                raise ValueError("uniform pieces need 0 <= a < b and positive mass")
            pieces.append(_Piece("uniform", float(a), float(b), float(p)))
        for a, rate, p in self.exp_tails:
            if a < 0 or rate <= 0 or p <= 0:
                raise ValueError("exp tails need a >= 0, rate > 0, positive mass")
            pieces.append(_Piece("exptail", float(a), float(rate), float(p)))
        if not pieces:
            raise ValueError("empty distribution")
        total = sum(p.prob for p in pieces)
        if not agree(total, 1.0):
            raise ValueError(f"piece probabilities sum to {total}, not 1")
        values = [v for v, _ in self.atoms]
        if len(set(values)) != len(values):
            raise ValueError("atom values must be distinct")
        pieces.sort(key=lambda p: (p.a, p.kind))
        object.__setattr__(self, "_pieces", tuple(pieces))

    # -- support ------------------------------------------------------------

    @property
    def rho(self) -> float:
        """Minimum of the support."""
        return min(p.a for p in self._pieces)

    @property
    def t_max(self) -> float:
        """Maximum of the support (math.inf when unbounded)."""
        return max(p.sup() for p in self._pieces)

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.t_max)

    @property
    def mean(self) -> float:
        m = 0.0
        for p in self._pieces:
            if p.kind == "atom":
                m += p.prob * p.a
            elif p.kind == "uniform":
                m += p.prob * (p.a + p.b) / 2
            else:
                m += p.prob * (p.a + 1.0 / p.b)
        return m

    def log_mgf(self, theta: float) -> float:
        """Log moment generating function log E[exp(theta T)], in closed form
        per piece and combined in log space; inf at or beyond the smallest
        exponential-tail rate."""
        terms = [math.log(p.prob) + p.log_mgf(theta) for p in self._pieces]
        top = max(terms)
        if math.isinf(top):
            return top
        return top + math.log(sum(math.exp(t - top) for t in terms))

    # -- measure ------------------------------------------------------------

    def mass_in(self, lo: float, hi: float = math.inf) -> float:
        return sum(p.mass_in(lo, hi) for p in self._pieces)

    def has_mass_in(self, lo: float, hi: float = math.inf) -> bool:
        """True mathematical positivity, robust deep in exponential tails."""
        return any(p.log_mass_in(lo, hi) > -math.inf for p in self._pieces)

    def mass_at(self, v: float) -> float:
        return sum(p.prob for p in self._pieces if p.kind == "atom" and atom_in(p.a, v, v))

    def low_representative(self, lo: float, hi: float = math.inf) -> float:
        """A cheap value of positive conditional mass inside [lo, hi]."""
        best = None
        for p in self._pieces:
            if p.log_mass_in(lo, hi) == -math.inf:
                continue
            if p.kind == "atom":
                v = p.a
            elif p.kind == "uniform":
                a, b = max(lo, p.a), min(hi, p.b)
                v = a + 0.25 * (b - a)
            else:
                a = max(lo, p.a)
                v = a + 0.25 * (min(hi, a + 1.0 / p.b) - a)
            best = v if best is None else min(best, v)
        if best is None:
            raise ValueError(f"no mass in [{lo}, {hi}]")
        return best

    # -- sampling -----------------------------------------------------------

    def ppf(self, q: np.ndarray) -> np.ndarray:
        return self.conditional_ppf(q, 0.0, math.inf)

    def conditional_ppf(self, q: np.ndarray, lo: float, hi: float) -> np.ndarray:
        """Quantile function of the law conditioned to [lo, hi] (vectorized).

        Piece weights are normalized in log space, so conditioning deep in
        an exponential tail (mass below double-precision range) stays exact.
        """
        q = np.asarray(q, dtype=np.float64)
        logm = np.array([p.log_mass_in(lo, hi) for p in self._pieces])
        if np.all(np.isneginf(logm)):
            raise ValueError(f"conditioning interval [{lo}, {hi}] has zero mass")
        top = logm.max()
        masses = np.exp(logm - top)
        cum = np.cumsum(masses) / masses.sum()
        # searchsorted(cum, q, side="right") as one compare per cut, several
        # times faster for a law's few pieces; NaN is above every cut in both
        idx = np.full(q.shape, len(cum), dtype=np.intp)
        for c in cum:
            idx -= q < c
        idx = np.minimum(idx, len(self._pieces) - 1)
        out = np.empty_like(q)
        starts = np.concatenate([[0.0], cum[:-1]])
        for k, piece in enumerate(self._pieces):
            sel = idx == k
            if not np.any(sel):
                continue
            width = cum[k] - starts[k]
            local = (q[sel] - starts[k]) / width if width > 0 else np.zeros(sel.sum())
            out[sel] = piece.ppf_within(np.clip(local, 0.0, np.nextafter(1.0, 0.0)), lo, hi)
        return out

    # -- text format ----------------------------------------------------

    def to_text(self) -> str:
        parts = []
        if self.atoms:
            parts.append(f"atoms = {list(self.atoms)!r}")
        if self.uniforms:
            parts.append(f"uniform = {[(a, b, p) for a, b, p in self.uniforms]!r}")
        if self.exp_tails:
            parts.append(f"exptail = {[(a, r, p) for a, r, p in self.exp_tails]!r}")
        return "; ".join(parts)

    @staticmethod
    def from_text(text: str) -> "DistributionSpec":
        """Parse 'atoms = [(v,p),...]; uniform = [(a,b,p),...]; exptail = [...]'."""
        atoms: list = []
        uniforms: list = []
        tails: list = []
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, _, value = chunk.partition("=")
            items = ast.literal_eval(value.strip())
            key = key.strip().lower()
            if key == "atoms":
                atoms = [(float(v), float(p)) for v, p in items]
            elif key == "uniform":
                uniforms = [(float(a), float(b), float(p)) for a, b, p in items]
            elif key == "exptail":
                tails = [(float(a), float(r), float(p)) for a, r, p in items]
            else:
                raise ValueError(f"unknown distribution key {key!r}")
        return DistributionSpec(tuple(atoms), tuple(uniforms), tuple(tails))


def usefulness_check(
    spec: DistributionSpec,
    p_c: float | None = None,
    p_oriented_c: float | None = None,
    d: int = 2,
) -> UsefulnessReport:
    """Useful means F(rho) < p_c when rho = 0, F(rho) < oriented p_c when rho > 0.

    Only the d = 2 bond threshold p_c = 1/2 is built in; every other
    threshold is a configuration input.
    """
    if p_c is None:
        if d == 2:
            p_c = 0.5
        else:
            raise ValueError("p_c is only built in for d = 2; supply it")
    if not 0 < p_c < 1 or (p_oriented_c is not None and not 0 < p_oriented_c < 1):
        raise ValueError("thresholds must lie in (0, 1)")
    rho = spec.rho
    mass = spec.mass_in(rho, rho)
    if rho == 0:
        useful = mass < p_c
        detail = f"rho=0: F(0)={mass:.6g} vs p_c={p_c:.6g}"
    else:
        if p_oriented_c is None:
            raise ValueError("rho > 0: the oriented threshold p_oriented_c is required")
        useful = mass < p_oriented_c
        detail = f"rho>0: F(rho)={mass:.6g} vs oriented p_c={p_oriented_c:.6g}"
    return UsefulnessReport(rho, mass, p_c, p_oriented_c, useful, detail)
