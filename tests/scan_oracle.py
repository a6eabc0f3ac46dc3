"""Scalar references for the scan kernel, one point per loop iteration,
and for the threshold search.

This is the per-point loop the vectorised kernel in
``spinsqueeze._kernel`` replaced, kept verbatim so the tests can require
the kernel to reproduce it bit for bit. A numpy or libm change that moves
any column by one ulp then fails a test instead of silently changing
scan CSVs.

Column layout (matches scan.COLUMNS):
  0 weight, 1 t1_0, 2 t2_0, 3 t2_2, 4 variance_perp, 5 sz_half,
  6 q_value, 7 squeezed, 8 c_xx, 9 c_yy, 10 c_zz, 11 c_xz, 12 c_zy, 13 c_xy

Rows with p1 + p2 = 0 have no distinguished frame: weight, t1_0 and
sz_half are still defined (0 for the latter two), squeezed is 0, and
the frame-dependent columns are NaN.

:func:`first_squeezed` is the reference for the threshold search: one
``evaluate_points`` call per magnitude P, every column computed and the
q_value column read.
"""

from math import cos, inf, nan, sin, sqrt

import numpy as np

from spinsqueeze.scan import IDX_Q_VALUE, evaluate_points

_SQRT6 = sqrt(6.0)
_SQRT3 = sqrt(3.0)
_SQRT23 = sqrt(2.0 / 3.0)
_DEGENERATE_TOL2 = 1e-20
_MARGIN_TOL = 1e-12


def evaluate_into(p1m, p2m, theta, phi, out):
    """Fill out[i, :] for every point; all arguments length-N (out N x 14)."""
    n = len(p1m)
    for i in range(n):
        a = p1m[i]
        b = p2m[i]
        ct = cos(theta[i])
        st = sin(theta[i])
        cp = cos(phi[i])
        sp = sin(phi[i])
        a2 = a * a
        b2 = b * b
        pd = a * b * ct
        den = 3.0 + pd
        weight = den / 12.0
        ps2 = a2 + b2 + 2.0 * pd
        cross = a * b * st          # |p1 x p2|, theta in [0, pi]
        cross2 = cross * cross
        if ps2 <= _DEGENERATE_TOL2:
            out[i, 0] = weight
            out[i, 1] = 0.0
            out[i, 2] = nan
            out[i, 3] = nan
            out[i, 4] = nan
            out[i, 5] = 0.0
            out[i, 6] = nan
            out[i, 7] = 0.0
            for j in range(8, 14):
                out[i, j] = nan
            continue
        ps = sqrt(ps2)
        cp2 = cp * cp
        c2p = cp2 - sp * sp
        # tensor parameters in the distinguished frame
        px1 = cross / ps
        pz1 = (a2 + pd) / ps
        pz2 = (b2 + pd) / ps
        t10 = _SQRT6 * ps / den
        t20 = 2.0 * _SQRT3 / den * (_SQRT23 * pz1 * pz2 + px1 * px1 / _SQRT6)
        t22 = -_SQRT3 * px1 * px1 / den
        var = 2.0 * (ps2 - cross2 * cp2) / (den * ps2)
        szh = ps / den
        q = 0.5 * ps + cross2 / ps2 * cp2 - 1.0
        # correlations, closed forms as published
        sin2t = st * st
        cxx = (ps2 - pd * (a2 + b2) - 2.0 * a2 * b2 * (1.0 + sin2t * c2p)) / (4.0 * den * ps2)
        cyy = (ps2 - 2.0 * a2 * b2 * (1.0 - sin2t * c2p) - pd * (a2 + b2)) / (4.0 * den * ps2)
        cxz = cross * (b2 - a2) * cp / (2.0 * den * ps2)
        pn = 4.0 * a2 * b2 + 2.0 * pd * (a2 + b2) - sin2t
        czz = 1.0 / 12.0 - ps2 / (den * den) + pn / (3.0 * den * ps2)
        czy = (a2 - b2) * cross * sp / (2.0 * den * ps2)
        out[i, 0] = weight
        out[i, 1] = t10
        out[i, 2] = t20
        out[i, 3] = t22
        out[i, 4] = var
        out[i, 5] = szh
        out[i, 6] = q
        out[i, 7] = 1.0 if q > _MARGIN_TOL else 0.0
        out[i, 8] = cxx
        out[i, 9] = cyy
        out[i, 10] = czz
        out[i, 11] = cxz
        out[i, 12] = czy
        out[i, 13] = 0.0


def first_squeezed(p_values, theta, pure_partner):
    """Smallest P in p_values with a squeezed point on the theta grid at
    phi = 0 (against |p2| = 1 when pure_partner, else |p2| = P), or inf."""
    nt = theta.size
    ones = np.ones(nt)
    for p in p_values:
        p1 = np.full(nt, p)
        p2 = ones if pure_partner else p1
        out = evaluate_points(p1, p2, theta, np.zeros(nt))
        q = out[:, IDX_Q_VALUE]
        if np.any(q > _MARGIN_TOL):
            return float(p)
    return inf

