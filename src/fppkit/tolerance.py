"""The tolerance policy: the one module of fppkit that holds a tolerance
(`oracle.py`, the independent reference, keeps its own), and the named
comparisons that apply them, with no exception.  The scales differ because
the quantities compared differ.  A pattern event meets its intervals by
`in_interval` inside `EdgeConstraintSet.holds_at`, one gather for every
translate asked about.
"""

from __future__ import annotations

import numpy as np

# sums of edge times: summation order rounds in proportion to size, so relative to max(1, |a|, |b|)
SUM_RTOL = 1e-9
# one drawn time against an interval end or a level: an inverted conditional CDF lands within rounding
TIME_ATOL = 1e-9
# an atom against an interval end: rounding of computed ends only; must stay below WALL_LEVEL, or the
# zero atom lies in [WALL_LEVEL, inf) and the zero-atom walls lose their only positive floor
ATOM_ATOL = 1e-12
# the lowest level of a zero-atom wall: low_representative(WALL_LEVEL) skips the zero atom
WALL_LEVEL = 1e-9
# identities on inputs and derived constants: probabilities sum to 1, atom sums agree
INPUT_ATOL = 1e-12
# width in log theta at which nu_level's golden-section search stops: the level is flat at its infimum,
# so it ends within about this squared, relatively, and every evaluated theta certifies its own level
LOG_THETA_XTOL = 1e-9


def close(a, b):
    """a and b are finite and agree to SUM_RTOL relative to max(1, |a|, |b|);
    elementwise.  This is the tight-arc test."""
    with np.errstate(invalid="ignore"):  # inf - inf on unreachable vertices
        gap = np.abs(np.subtract(a, b))
    return np.isfinite(gap) & (gap <= SUM_RTOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b))))


def le(a, b):
    """a <= b up to SUM_RTOL, elementwise: a <= b or close(a, b)."""
    return np.less_equal(a, b) | close(a, b)


def lt(a, b):
    """a < b beyond SUM_RTOL, elementwise: not le(b, a)."""
    return np.less(a, b) & ~close(a, b)


def in_interval(t, lo, hi):
    """A drawn time t meets [lo, hi] up to TIME_ATOL, elementwise."""
    return (lo - TIME_ATOL <= t) & (t <= hi + TIME_ATOL)


def at_least(t, level):
    """A drawn time t reaches level up to TIME_ATOL, elementwise."""
    return t >= level - TIME_ATOL


def atom_in(a: float, lo: float, hi: float) -> bool:
    """The atom at a lies in [lo, hi] up to ATOM_ATOL."""
    return lo - ATOM_ATOL <= a <= hi + ATOM_ATOL


def agree(a: float, b: float) -> bool:
    """An identity on inputs or constants holds up to INPUT_ATOL."""
    return abs(a - b) <= INPUT_ATOL
