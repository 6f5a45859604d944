"""Exact binomial confidence intervals, from the standard library alone.

A Clopper–Pearson bound is a quantile of a beta distribution with integer
parameters, and for integers a, b >= 1 the regularized incomplete beta is a
binomial tail, I_x(a, b) = P[Bin(a + b - 1, x) >= a]; the bisection that
inverts it evaluates that finite sum.
"""

from __future__ import annotations

import math

__all__ = ["clopper_pearson"]

_BISECT_TOL = 1e-10


def _binomial_tail(a: int, m: int, x: float, log_at: float, log_below: float) -> float:
    """P[Bin(m, x) >= a] for 1 <= a <= m and 0 < x < 1, given
    ``log_at`` = log C(m, a) and ``log_below`` = log C(m, a - 1).

    The tail on the far side of the mode from x is summed, from its edge
    term outwards, each term from the last by the ratio of neighbouring
    binomial terms; the other tail is one minus it.  The terms fall from
    the edge on, so the sum stops at the first term below 1e-17 of it: that
    term and every later one are under half an ulp of the sum.
    """
    odds = x / (1.0 - x)
    if a >= (m + 1) * x:
        term = math.exp(log_at + a * math.log(x) + (m - a) * math.log1p(-x))
        total = term
        for j in range(a, m):
            term *= (m - j) / (j + 1) * odds
            total += term
            if term <= 1e-17 * total:
                break
        return total
    term = math.exp(log_below + (a - 1) * math.log(x) + (m - a + 1) * math.log1p(-x))
    total = term
    for j in range(a - 1, 0, -1):
        term *= j / ((m - j + 1) * odds)
        total += term
        if term <= 1e-17 * total:
            break
    return 1.0 - total


def _invert_beta_cdf(a: int, b: int, target: float) -> float:
    """x with I_x(a, b) = target, by bisection (monotone in x)."""
    m = a + b - 1
    log_at = math.lgamma(m + 1) - math.lgamma(a + 1) - math.lgamma(b)
    log_below = math.lgamma(m + 1) - math.lgamma(a) - math.lgamma(b + 1)
    lo, hi = 0.0, 1.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if _binomial_tail(a, m, mid, log_at, log_below) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def clopper_pearson(
    successes: int, trials: int, confidence: float = 0.99
) -> tuple[float, float]:
    """Exact (conservative) two-sided interval for a binomial proportion.

    The bounds are the beta-distribution quantiles
    lo = Q(alpha/2; k, n-k+1), hi = Q(1-alpha/2; k+1, n-k), with the usual
    conventions lo = 0 at k = 0 and hi = 1 at k = n.
    """
    if trials <= 0:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= trials:
        raise ValueError("successes outside [0, trials]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    alpha = 1.0 - confidence
    if successes == 0:
        lo = 0.0
    else:
        lo = _invert_beta_cdf(successes, trials - successes + 1, alpha / 2)
    if successes == trials:
        hi = 1.0
    else:
        hi = _invert_beta_cdf(successes + 1, trials - successes, 1.0 - alpha / 2)
    return lo, hi
