"""Scan kernel: closed-form channel-pair evaluation on flat point arrays.

numpy-vectorised on blocks of about :data:`BLOCK` points:
:func:`evaluate_into` fills all 14 columns, and the threshold search
reads the q_value column alone from :func:`_margin`. Both take q and the
terms it shares with the other columns from one helper. Every
column is the same expression, in the same operation order, as the
per-point loop kept as the reference in ``tests/scan_oracle.py``, and
the tests require the two to agree bit for bit: elementwise float64
ufuncs round each operation exactly as scalar arithmetic does.

Column layout (matches scan.COLUMNS):
  0 weight, 1 t1_0, 2 t2_0, 3 t2_2, 4 variance_perp, 5 sz_half,
  6 q_value, 7 squeezed, 8 c_xx, 9 c_yy, 10 c_zz, 11 c_xz, 12 c_zy, 13 c_xy

Rows with p1 + p2 = 0 have no distinguished frame: weight, t1_0 and
sz_half are still defined (0 for the latter two), squeezed is 0, and
the frame-dependent columns are NaN.
"""

from math import sqrt

import numpy as np

_SQRT6 = sqrt(6.0)
_SQRT3 = sqrt(3.0)
_SQRT23 = sqrt(2.0 / 3.0)
# Shared with the scalar routes in channel.py, which import them: a point
# with |p1 + p2|^2 <= DEGENERATE_TOL2 has no frame, and it is squeezed
# when q_value > MARGIN_TOL.
DEGENERATE_TOL2 = 1e-20
MARGIN_TOL = 1e-12

# Points per block: the ~30 float64 temporaries of a block take about
# 2 MB, so the kernel's temporaries do not grow with the grid.
BLOCK = 8192


def _shared_terms(a, b, theta, phi):
    """The squeezing margin q and the terms every other column is built
    from: ``(q, |p1 + p2|^2, sin theta, cos phi, a^2, b^2, p1.p2,
    |p1 x p2|, |p1 x p2|^2, |p1 + p2|, cos^2 phi)``. Rows with p1 + p2 = 0
    divide by zero, so callers run it under ``np.errstate`` and
    overwrite those rows."""
    ct = np.cos(theta)
    st = np.sin(theta)
    cp = np.cos(phi)
    a2 = a * a
    b2 = b * b
    pd = a * b * ct
    ps2 = a2 + b2 + 2.0 * pd
    cross = a * b * st          # |p1 x p2|, theta in [0, pi]
    cross2 = cross * cross
    ps = np.sqrt(ps2)
    cp2 = cp * cp
    q = 0.5 * ps + cross2 / ps2 * cp2 - 1.0
    return q, ps2, st, cp, a2, b2, pd, cross, cross2, ps, cp2


def _margin(a, b, theta, phi):
    """The q_value column alone for a batch of points, the same bits as
    :func:`evaluate_into` writes: NaN where |p1 + p2|^2 <= DEGENERATE_TOL2."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q, ps2, *_ = _shared_terms(a, b, theta, phi)
    q[ps2 <= DEGENERATE_TOL2] = np.nan
    return q


def evaluate_into(a, b, theta, phi, out):
    """Fill out[i, :] for one block of points: a = |p1|, b = |p2|, theta
    and phi are length-N float64 arrays (out N x 14), theta in [0, pi].
    Callers pass at most :data:`BLOCK` points at a time."""
    # degenerate rows divide by zero; their columns are overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        q, ps2, st, cp, a2, b2, pd, cross, cross2, ps, cp2 = \
            _shared_terms(a, b, theta, phi)
        sp = np.sin(phi)
        den = 3.0 + pd
        weight = den / 12.0
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
        # correlations, closed forms as published
        sin2t = st * st
        cxx = (ps2 - pd * (a2 + b2) - 2.0 * a2 * b2 * (1.0 + sin2t * c2p)) / (4.0 * den * ps2)
        cyy = (ps2 - 2.0 * a2 * b2 * (1.0 - sin2t * c2p) - pd * (a2 + b2)) / (4.0 * den * ps2)
        cxz = cross * (b2 - a2) * cp / (2.0 * den * ps2)
        pn = 4.0 * a2 * b2 + 2.0 * pd * (a2 + b2) - sin2t
        czz = 1.0 / 12.0 - ps2 / (den * den) + pn / (3.0 * den * ps2)
        czy = (a2 - b2) * cross * sp / (2.0 * den * ps2)
        out[:, 0] = weight
        out[:, 1] = t10
        out[:, 2] = t20
        out[:, 3] = t22
        out[:, 4] = var
        out[:, 5] = szh
        out[:, 6] = q
        out[:, 7] = q > MARGIN_TOL
        out[:, 8] = cxx
        out[:, 9] = cyy
        out[:, 10] = czz
        out[:, 11] = cxz
        out[:, 12] = czy
        out[:, 13] = 0.0
        degenerate = ps2 <= DEGENERATE_TOL2
        if degenerate.any():
            out[degenerate, 1:] = np.nan
            out[np.ix_(degenerate, (1, 5, 7))] = 0.0
