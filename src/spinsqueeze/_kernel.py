"""The coupled pair's closed forms, and the scan kernel that evaluates them
on flat point arrays.

Two layers:

* :func:`_invariants` turns scan coordinates (|p1|, |p2|, theta) into
  the pair invariants a^2, b^2, p1.p2, |p1 + p2|^2, |p1 x p2| and
  sin theta;
* :func:`_closed_forms` turns those invariants, with cos phi and
  sin phi, into every column but the squeezed flag.

The scalar API in ``channel.py`` computes the same invariants from the
polarization vectors and calls :func:`_closed_forms` on floats, so each
formula exists once. :func:`evaluate_into` fills all 14 columns for
scans in blocks of at most :data:`BLOCK` points, and :func:`_margin` the
q_value column alone over a theta row; both take q from
:func:`_margin_terms`. The threshold search evaluates q at a few theta
points on Python floats, through :func:`_invariants` and
:func:`_margin_terms` with math's ``sin``, ``cos`` and ``sqrt``, and
reads a whole row from :func:`_margin` only where those points cannot
decide it. Every column is the same expression, in the same operation
order, as the per-point loop kept as the reference in
``tests/scan_oracle.py``, and the tests require the two to agree bit for
bit: elementwise float64 ufuncs round each operation exactly as scalar
arithmetic does.

Column layout (matches scan.COLUMNS):
  0 weight, 1 t1_0, 2 t2_0, 3 t2_2, 4 variance_perp, 5 sz_half,
  6 q_value, 7 squeezed, 8 c_xx, 9 c_yy, 10 c_zz, 11 c_xz, 12 c_zy, 13 c_xy

Rows with p1 + p2 = 0 have no distinguished frame: weight, t1_0 and
sz_half are still defined (0 for the latter two), squeezed is 0, and
the frame-dependent columns are NaN.

:data:`BLOCK` is 2,048 points, sized so that one block's live arrays fit
in a 2 MiB L2 cache: the (2048, 14) result takes 229 kB and each of the
about 30 float64 arrays that :func:`evaluate_into` holds at once 16 kB,
about 0.7 MB in all (2.9 MB at 8,192 points). On a 2-vCPU Xeon with a
2 MiB L2, blocks of 1,024, 2,048, 4,096 and 8,192 points gave the CLI
scan of 41,811 CSV rows a tracemalloc peak of 0.67, 1.05, 1.82 and
3.36 MiB, and ``evaluate_points`` on 153k points took 33.4, 29.7, 26.8
and 26.6 ms (medians of 40, one CPU). The 3 ms that 2,048 costs against
8,192 is under 0.5 % of a scan, and no block size moved the end-to-end
scan time beyond its run-to-run spread. The bytes of a scan do not
depend on the block.
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

# Points per block, sized to fit one block's live arrays in L2 (see the
# module docstring): about 0.7 MB at 2,048 points, and no kernel array
# grows with the grid.
BLOCK = 2048


def _invariants(a, b, theta, sin=np.sin, cos=np.cos):
    """Pair invariants from scan coordinates a = |p1|, b = |p2| and the
    opening angle theta in [0, pi]: ``(a^2, b^2, p1.p2, |p1 + p2|^2,
    |p1 x p2|, sin theta)``. The threshold search passes math's ``sin``
    and ``cos`` to evaluate one point on floats."""
    st = sin(theta)
    a2 = a * a
    b2 = b * b
    pd = a * b * cos(theta)
    return a2, b2, pd, a2 + b2 + 2.0 * pd, a * b * st, st


def _margin_terms(ps2, cross, cp, sqrt=np.sqrt):
    """The squeezing margin q with the terms it shares with the other
    columns: ``(q, |p1 + p2|, |p1 x p2|^2, cos^2 phi)``; ``sqrt`` is
    numpy's, or math's for floats."""
    cross2 = cross * cross
    ps = sqrt(ps2)
    cp2 = cp * cp
    return 0.5 * ps + cross2 / ps2 * cp2 - 1.0, ps, cross2, cp2


def _closed_forms(a2, b2, pd, ps2, cross, st, cp, sp):
    """Every closed form of the coupled pair, from the invariants of
    :func:`_invariants` and cos phi, sin phi (arrays or floats):
    ``(weight, t1_0, t2_0, t2_2, variance_perp, sz_half, q_value, c_xx,
    c_yy, c_zz, c_xz, c_zy)``, tensor parameters in the distinguished
    frame and correlations as published. |p1 + p2|^2 = 0 divides by
    zero, so array callers run it under ``np.errstate`` and overwrite
    those rows."""
    q, ps, cross2, cp2 = _margin_terms(ps2, cross, cp)
    den = 3.0 + pd
    c2p = cp2 - sp * sp
    px1 = cross / ps
    pz1 = (a2 + pd) / ps
    pz2 = (b2 + pd) / ps
    t20 = 2.0 * _SQRT3 / den * (_SQRT23 * pz1 * pz2 + px1 * px1 / _SQRT6)
    var = 2.0 * (ps2 - cross2 * cp2) / (den * ps2)
    sin2t = st * st
    cxx = (ps2 - pd * (a2 + b2) - 2.0 * a2 * b2 * (1.0 + sin2t * c2p)) / (4.0 * den * ps2)
    cyy = (ps2 - 2.0 * a2 * b2 * (1.0 - sin2t * c2p) - pd * (a2 + b2)) / (4.0 * den * ps2)
    cxz = cross * (b2 - a2) * cp / (2.0 * den * ps2)
    pn = 4.0 * a2 * b2 + 2.0 * pd * (a2 + b2) - sin2t
    czz = 1.0 / 12.0 - ps2 / (den * den) + pn / (3.0 * den * ps2)
    czy = (a2 - b2) * cross * sp / (2.0 * den * ps2)
    return (den / 12.0, _SQRT6 * ps / den, t20, -_SQRT3 * px1 * px1 / den,
            var, ps / den, q, cxx, cyy, czz, cxz, czy)


def _margin(a, b, theta, phi):
    """The q_value column alone for a batch of points, the same bits as
    :func:`evaluate_into` writes: NaN where |p1 + p2|^2 <= DEGENERATE_TOL2.
    ``theta`` is an (m,) array; a, b and phi are arrays of its length or
    floats, which give the same bits since a float times an array rounds
    each element as two arrays do."""
    _, _, _, ps2, cross, _ = _invariants(a, b, theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        q, *_ = _margin_terms(ps2, cross, np.cos(phi))
    q[ps2 <= DEGENERATE_TOL2] = np.nan
    return q


# out columns of _closed_forms' values; 7 is the squeezed flag, 13 is c_xy = 0
_COLUMNS = (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12)


def evaluate_into(a, b, theta, phi, out):
    """Fill out[i, :] for one block of points: a = |p1|, b = |p2|, theta
    and phi are length-N float64 arrays (out N x 14), theta in [0, pi].
    Callers pass at most :data:`BLOCK` points at a time."""
    a2, b2, pd, ps2, cross, st = _invariants(a, b, theta)
    # degenerate rows divide by zero; their columns are overwritten below
    with np.errstate(divide="ignore", invalid="ignore"):
        values = _closed_forms(a2, b2, pd, ps2, cross, st, np.cos(phi), np.sin(phi))
    for j, v in zip(_COLUMNS, values):
        out[:, j] = v
    out[:, 7] = values[6] > MARGIN_TOL
    out[:, 13] = 0.0
    degenerate = ps2 <= DEGENERATE_TOL2
    if degenerate.any():
        out[degenerate, 1:] = np.nan
        out[np.ix_(degenerate, (1, 5, 7))] = 0.0
