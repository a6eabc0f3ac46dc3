"""Tensor-form reference for ``density.purity_residual``.

This is the paper's sum over coupled tensor products, the form
``purity_residual`` evaluated before it moved to matrices. It is kept
verbatim so the tests can hold the matrix route to it; it costs
O((2s+1)^6) coupling coefficients, so use it at small s only.
"""

import math

from spinsqueeze.angular import clebsch_gordan, racah_w
from spinsqueeze.density import TensorParams


def coupled_product(t: TensorParams, k1: int, k2: int, k: int, q: int) -> complex:
    """(t^{k1} x t^{k2})^k_q = sum C(k1 k2 k; q1 q2 q) t^{k1}_{q1} t^{k2}_{q2}."""
    total = 0j
    for q1 in range(-k1, k1 + 1):
        q2 = q - q1
        if abs(q2) > k2:
            continue
        a = t.get(k1, q1)
        if a == 0:
            continue
        b = t.get(k2, q2)
        if b == 0:
            continue
        total += clebsch_gordan(k1, k2, k, q1, q2, q) * a * b
    return total


def purity_residual_tensor_form(t: TensorParams) -> float:
    """Largest violation over (k, q) of

        sum_{k1,k2} [k1][k2] W(s k1 s k2; s k) (t^{k1} x t^{k2})^k_q
            = sqrt(2s+1) t^k_q,

    with [k] = sqrt(2k+1); zero (to rounding) exactly for pure states.
    """
    s = t.spin
    kmax = s.twice
    worst = 0.0
    for k in range(0, kmax + 1):
        for q in range(-k, k + 1):
            lhs = 0j
            for k1 in range(0, kmax + 1):
                for k2 in range(abs(k - k1), min(kmax, k + k1) + 1):
                    w = racah_w(s, k1, s, k2, s, k)
                    if w == 0.0:
                        continue
                    prod = coupled_product(t, k1, k2, k, q)
                    if prod == 0:
                        continue
                    lhs += math.sqrt((2 * k1 + 1) * (2 * k2 + 1)) * w * prod
            rhs = math.sqrt(s.twice + 1) * t.get(k, q)
            worst = max(worst, abs(lhs - rhs))
    return worst
