"""SVD-only reference for ``density.classify_orientation``.

This is ``classify_orientation`` as it was before the Gram-determinant
certificate: every state that is not the identity goes through the thin
SVD. It is kept verbatim, apart from reading the spin matrices from their
one cached array, so the tests can hold the certified route to it, bit
for bit.
"""

import numpy as np

from spinsqueeze.angular import _spin_cached
from spinsqueeze.density import OrientationReport, SpinDensity, _canonical_sign


def classify_orientation_svd(rho: SpinDensity) -> OrientationReport:
    n = rho.dim
    mat = rho.normalized_matrix()
    # the first entry is a necessary test that rejects most states at once
    if abs(mat[0, 0] - 1.0 / n) < 1e-12 and np.abs(mat - np.eye(n) / n).max() < 1e-12:
        return OrientationReport(True, np.array([0.0, 0.0, 1.0]), np.full(n, 1.0 / n))
    stack = _spin_cached(rho.spin.twice)
    comm = (mat @ stack - stack @ mat).reshape(3, -1)
    # column a: the real and imaginary parts of [rho, S_a], interleaved;
    # the order of the rows changes neither the singular values nor V
    _, svals, vt = np.linalg.svd(comm.view(float).T, full_matrices=False)
    if svals[-1] > 1e-10 * max(1.0, svals[0]):
        return OrientationReport(False, None, None)
    axis = _canonical_sign(vt[-1] / np.linalg.norm(vt[-1]))
    # eigh orders the eigenvalues m of S.n ascending; reversed, the columns
    # are the |s m> states along the axis, m = s..-s
    u = np.linalg.eigh((axis @ stack.reshape(3, -1)).reshape(n, n))[1][:, ::-1]
    rotated = u.conj().T @ mat @ u
    off = np.abs(rotated)
    off.flat[::n + 1] = 0.0
    if off.max() > 1e-8:
        return OrientationReport(False, None, None)
    return OrientationReport(True, axis, rotated.diagonal().real)
