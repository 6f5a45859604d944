"""Exact binomial confidence intervals.

scipy is imported on the first interval computed, so that importing the
package (for ``verify`` or ``run_dual``, say) does not load it.
"""

from __future__ import annotations

__all__ = ["clopper_pearson"]

_BISECT_TOL = 1e-10


def _invert_beta_cdf(a: float, b: float, target: float) -> float:
    """x with I_x(a, b) = target, by bisection (monotone in x)."""
    from scipy.special import betainc

    lo, hi = 0.0, 1.0
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        if betainc(a, b, mid) < target:
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
