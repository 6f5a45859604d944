"""Binomial interval against a from-scratch tail-probability oracle."""

import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import fermiqec
from fermiqec.stats import clopper_pearson


def _binom_tail_ge(n: int, k: int, q: float) -> float:
    """P[X >= k] for X ~ Binomial(n, q)."""
    return math.fsum(
        math.comb(n, j) * q**j * (1.0 - q) ** (n - j) for j in range(k, n + 1)
    )


def _binom_tail_le(n: int, k: int, q: float) -> float:
    return math.fsum(
        math.comb(n, j) * q**j * (1.0 - q) ** (n - j) for j in range(0, k + 1)
    )


def _oracle(k: int, n: int, confidence: float) -> tuple[float, float]:
    """Invert the defining tail equations directly by bisection."""
    alpha = 1.0 - confidence
    if k == 0:
        lo = 0.0
    else:
        a, b = 0.0, 1.0
        while b - a > 1e-12:
            mid = 0.5 * (a + b)
            if _binom_tail_ge(n, k, mid) < alpha / 2:
                a = mid
            else:
                b = mid
        lo = 0.5 * (a + b)
    if k == n:
        hi = 1.0
    else:
        a, b = 0.0, 1.0
        while b - a > 1e-12:
            mid = 0.5 * (a + b)
            if _binom_tail_le(n, k, mid) > alpha / 2:
                a = mid
            else:
                b = mid
        hi = 0.5 * (a + b)
    return lo, hi


@pytest.mark.parametrize(
    "k,n", [(0, 10), (10, 10), (1, 10), (9, 10), (3, 17), (40, 200), (117, 200)]
)
@pytest.mark.parametrize("confidence", [0.9, 0.99])
def test_bounds_match_the_tail_equations(k, n, confidence):
    lo, hi = clopper_pearson(k, n, confidence)
    want_lo, want_hi = _oracle(k, n, confidence)
    assert lo == pytest.approx(want_lo, abs=5e-9)
    assert hi == pytest.approx(want_hi, abs=5e-9)


def test_edge_conventions():
    lo, hi = clopper_pearson(0, 50)
    assert lo == 0.0 and 0.0 < hi < 0.2
    lo, hi = clopper_pearson(50, 50)
    assert hi == 1.0 and 0.8 < lo < 1.0


def test_interval_contains_the_point_estimate():
    for k, n in [(1, 7), (250, 1000), (999, 1000)]:
        lo, hi = clopper_pearson(k, n)
        assert lo <= k / n <= hi


def test_higher_confidence_widens():
    lo90, hi90 = clopper_pearson(30, 100, 0.90)
    lo99, hi99 = clopper_pearson(30, 100, 0.99)
    assert lo99 < lo90 < hi90 < hi99


def test_argument_validation():
    with pytest.raises(ValueError):
        clopper_pearson(1, 0)
    with pytest.raises(ValueError):
        clopper_pearson(-1, 10)
    with pytest.raises(ValueError):
        clopper_pearson(11, 10)
    with pytest.raises(ValueError):
        clopper_pearson(5, 10, confidence=1.0)


def test_scipy_waits_for_the_first_interval():
    script = textwrap.dedent(
        """
        import sys

        import numpy as np

        import fermiqec
        from fermiqec.backend import random_h_circuit, run_dual
        from fermiqec.reference import random_h_state

        lay = fermiqec.RegisterLayout(3, 3, 3, num_ancilla_qubits=2)
        ops = random_h_circuit(lay, np.random.default_rng(1), length=20)
        code = fermiqec.RepetitionCode(lay)
        run_dual(random_h_state(lay, np.random.default_rng(2)), ops, 3, code)
        assert "scipy" not in sys.modules, "scipy loaded before any interval"
        fermiqec.clopper_pearson(3, 10)
        assert "scipy" in sys.modules
        """
    )
    src = str(Path(fermiqec.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
