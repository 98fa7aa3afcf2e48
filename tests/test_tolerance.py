"""The tolerance policy: src/fppkit reads every tolerance from
fppkit.tolerance; oracle.py, the independent reference, keeps its own."""

import ast
import math
from pathlib import Path

import numpy as np

import fppkit
from fppkit.tolerance import SUM_RTOL, close, le, lt

EXEMPT = {"tolerance.py", "oracle.py"}


def _small_floats(source: str, name: str) -> list[str]:
    """file:line of every float constant in (0, 1e-6)."""
    return [
        f"{name}:{node.lineno}: {node.value!r}"
        for node in ast.walk(ast.parse(source, name))
        if isinstance(node, ast.Constant) and type(node.value) is float and 0 < node.value < 1e-6
    ]


def test_no_tolerance_literal_outside_the_policy_module():
    assert _small_floats("ok = t <= b + 1e-9 * max(1.0, -2e-12)", "probe") == ["probe:1: 1e-09", "probe:1: 2e-12"]
    found = []
    for path in sorted(Path(fppkit.__file__).parent.glob("*.py")):
        if path.name not in EXEMPT:
            found += _small_floats(path.read_text(), path.name)
    assert not found, "tolerance literals outside fppkit.tolerance:\n" + "\n".join(found)


def test_sum_comparisons_split_every_pair_three_ways():
    big = 1e6
    a = np.array([0.0, 1.0, 1.0 + 0.5 * SUM_RTOL, big, big * (1 + 0.5 * SUM_RTOL), 2.0, 1.0, math.inf])
    b = np.array([0.0, 1.0 + 2 * SUM_RTOL, 1.0, big + 1.0, big, 1.0, math.inf, math.inf])
    assert close(a, b).tolist() == [True, False, True, False, True, False, False, False]
    assert lt(a, b).tolist() == [False, True, False, True, False, False, True, False]
    # le(a, b) is exactly "not lt(b, a)", also for infinities
    assert le(a, b).tolist() == (~lt(b, a)).tolist()
    assert le(b, a).tolist() == (~lt(a, b)).tolist()


def test_drawn_times_meet_intervals_only_through_the_named_comparisons():
    """TIME_ATOL is applied by in_interval and at_least alone: no module
    of src/fppkit inlines the comparison."""
    readers = [
        path.name
        for path in sorted(Path(fppkit.__file__).parent.glob("*.py"))
        if path.name != "tolerance.py" and "TIME_ATOL" in path.read_text()
    ]
    assert readers == []
