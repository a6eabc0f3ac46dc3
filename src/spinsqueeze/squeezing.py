"""Squeezing analysis for arbitrary pure or mixed spin states.

A state with mean spin direction n is squeezed when some transverse
component satisfies the strict inequality

    Var(S . n_perp) < |<S . n>| / 2.

In the frame with z along the polarization and t^2_2 real, the
transverse variance is fully described by two numbers,

    Var_x0 = s(s+1)/3 + (c2/2) (2 t^2_2 - sqrt(2/3) t^2_0),
    Var_y0 = s(s+1)/3 - (c2/2) (2 t^2_2 + sqrt(2/3) t^2_0),

with c2 = spin_scale_rank2(s), and Var(phi) = Var_x0 cos^2(phi)
+ Var_y0 sin^2(phi), so the minimum lies on one of the two frame axes.

:func:`analyze` reaches the same two numbers from the spin moments:
Var_x0 and Var_y0 are the principal values of the 3x3 spin covariance
restricted to the plane normal to <S>, and |<S . n>| / 2 is |<S>| / 2.
:func:`lf_variances` keeps the paper's tensor form above; the tests hold
the two equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .angular import EulerAngles
from .density import (SpinDensity, _certainly_psd, _moments, check_positivity,
                      spin_scale_rank1, spin_scale_rank2)
from .errors import AngularMomentumError, LakinFrameUndefined, UnphysicalStateError
# special_lakin_frame is unused here; it stays as an attribute of this
# module because perfbench/spans.py patches it here.
from .frames import _lakin_frame, special_lakin_frame  # noqa: F401
from .halfint import HalfInt, check_magnitude

__all__ = ["SqueezingReport", "analyze", "lf_criterion", "lf_variances",
           "oriented_margin", "SQUEEZING_MARGIN_TOL"]

# Strict inequality: the coherent-state equality case is not squeezed.
SQUEEZING_MARGIN_TOL = 1e-12


def lf_variances(s, t10: float, t20: float, t22: float) -> tuple[float, float, float]:
    """Closed-form (Var_x0, Var_y0, |<S_z0>|/2) from special-frame tensors."""
    sh = check_magnitude(HalfInt.of(s), "s")
    sv = sh.value
    base = sv * (sv + 1) / 3.0
    c2 = spin_scale_rank2(sh)
    vx = base + 0.5 * c2 * (2.0 * t22 - math.sqrt(2.0 / 3.0) * t20)
    vy = base - 0.5 * c2 * (2.0 * t22 + math.sqrt(2.0 / 3.0) * t20)
    sz_half = 0.5 * spin_scale_rank1(sh) * abs(t10)
    return vx, vy, sz_half


@dataclass(frozen=True)
class SqueezingReport:
    """Verdict record produced by :func:`analyze`.

    ``q_margin = sz_half - min_variance``; the state is squeezed exactly
    when the margin exceeds the strict-inequality tolerance. ``xi`` is
    the metrological figure of merit sqrt(2s Var_perp) / |<S.n>|,
    reported for information only.
    """

    mean_spin: np.ndarray        # unit vector, or zeros when undefined
    sz_half: float               # |<S . mean_spin>| / 2
    variance_x0: float
    variance_y0: float
    phi_min: float
    min_variance: float
    q_margin: float
    xi: float
    squeezed: bool
    frame: EulerAngles
    reason: Optional[str] = None

    def variance_at(self, phi: float) -> float:
        """Transverse variance at azimuth phi from the x0 axis."""
        c, s = math.cos(phi), math.sin(phi)
        return self.variance_x0 * c * c + self.variance_y0 * s * s

    def as_dict(self, phi_points: int = 73) -> dict:
        phis = np.linspace(0.0, 2.0 * math.pi, phi_points)
        return {
            "mean_spin": [float(x) for x in self.mean_spin],
            "sz_half": self.sz_half,
            "variance_x0": self.variance_x0,
            "variance_y0": self.variance_y0,
            "phi_min": self.phi_min,
            "min_variance": self.min_variance,
            "q_margin": self.q_margin,
            "xi": self.xi if math.isfinite(self.xi) else None,
            "squeezed": self.squeezed,
            "reason": self.reason,
            "frame": {"alpha": self.frame.alpha, "beta": self.frame.beta,
                      "gamma": self.frame.gamma},
            "variance_curve": [
                {"phi": float(p), "variance": self.variance_at(float(p))}
                for p in phis
            ],
        }


def analyze(rho: SpinDensity) -> SqueezingReport:
    """Full squeezing analysis of a physical density matrix.

    Raises :class:`UnphysicalStateError` when the state is not positive
    semi-definite, exactly where ``check_positivity(rho).psd`` is False.
    States without vector polarization are reported unsqueezed with
    reason "no vector polarization" (their transverse variances are still
    evaluated, in the input frame). ``phi_min`` is pi/2 where gamma turned
    the frame onto distinct principal axes, else 0: a transverse
    covariance that is isotropic to rounding, as at spin 1/2 and for every
    oriented state, reports phi_min = 0.
    """
    # the Cholesky certificate passes almost every physical state; where
    # it does not, the eigenvalues decide and are reported
    if not _certainly_psd(rho):
        pos = check_positivity(rho)
        if not pos.psd:
            raise UnphysicalStateError(
                f"state is not positive semi-definite "
                f"(eigenvalues {np.array2string(pos.eigenvalues, precision=6)})",
                eigenvalues=pos.eigenvalues)
    sv = rho.spin.value
    mean, second = _moments(rho)
    try:
        rotation, norm, vx, vy, phi_min = _lakin_frame(rho.spin, mean, second)
    except LakinFrameUndefined:
        vx = second[0] - mean[0] * mean[0]
        vy = second[3] - mean[1] * mean[1]
        phi_min = 0.0 if vx <= vy else 0.5 * math.pi
        mv = min(vx, vy)
        return SqueezingReport(
            mean_spin=np.zeros(3), sz_half=0.0,
            variance_x0=vx, variance_y0=vy, phi_min=phi_min,
            min_variance=mv, q_margin=-mv, xi=math.inf, squeezed=False,
            frame=EulerAngles.identity(), reason="no vector polarization")
    # the frame's x and y axes are the principal axes of the transverse
    # covariance, so vx and vy are both extremes of Var(phi); <S_z0> = norm
    sz_half = 0.5 * norm
    min_variance = min(vx, vy)
    q_margin = sz_half - min_variance
    xi = math.sqrt(max(0.0, 2.0 * sv * min_variance)) / norm
    x, y, z = mean
    return SqueezingReport(
        mean_spin=np.array((x / norm, y / norm, z / norm)), sz_half=sz_half,
        variance_x0=vx, variance_y0=vy, phi_min=phi_min,
        min_variance=min_variance, q_margin=q_margin, xi=xi,
        squeezed=bool(q_margin > SQUEEZING_MARGIN_TOL),
        frame=rotation, reason=None)


def lf_criterion(s, t10: float, t20: float, t22: float, phi: float) -> float:
    """Signed squeezing margin in the polarization frame, dimensionless form.

    Evaluates RHS - LHS of

        1 + sqrt(3(2s+3)(2s-1) / (40 s(s+1))) (2 t^2_2 cos 2phi
            - sqrt(2/3) t^2_0)  <  (1/2) sqrt(3/(s(s+1))) |t^1_0|;

    positive means squeezed along the transverse direction at azimuth
    phi. Inputs must already be special-frame values (t^1_{+-1} = 0,
    t^2_2 real). Identical to (sz_half - variance_at(phi)) times
    3/(s(s+1)).
    """
    sh = check_magnitude(HalfInt.of(s), "s")
    if sh.twice < 2:
        raise AngularMomentumError("squeezing is absent for spin below 1")
    sv = sh.value
    coeff = math.sqrt(3.0 * (2 * sv + 3) * (2 * sv - 1) / (sv * (sv + 1) * 40.0))
    lhs = 1.0 + coeff * (2.0 * t22 * math.cos(2.0 * phi)
                         - math.sqrt(2.0 / 3.0) * t20)
    rhs = 0.5 * math.sqrt(3.0 / (sv * (sv + 1))) * abs(t10)
    return rhs - lhs


def oriented_margin(s, populations) -> float:
    """Squeezing margin |sum m p_m| - (s(s+1) - sum m^2 p_m) for a state
    diagonal in the |s m> basis, populations ordered m = s, ..., -s.

    Provably never positive: states with a single orientation axis are
    never squeezed.
    """
    sh = check_magnitude(HalfInt.of(s), "s")
    p = np.asarray(populations, dtype=float)
    n = sh.twice + 1
    if p.shape != (n,):
        raise ValueError(f"expected {n} populations for spin {sh}, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise ValueError("populations must be finite")
    if np.any(p < -1e-12):
        raise ValueError("populations must be non-negative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"populations must sum to 1, got {p.sum()}")
    ms = np.array([tm / 2.0 for tm in range(sh.twice, -sh.twice - 1, -2)])
    sv = sh.value
    return abs(float(ms @ p)) - (sv * (sv + 1) - float((ms * ms) @ p))
