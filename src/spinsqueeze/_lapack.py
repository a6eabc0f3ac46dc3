"""numpy.linalg's Hermitian LAPACK routines without its Python wrappers.

``numpy.linalg.eigvalsh``, ``eigh`` and ``cholesky`` check their input,
pick a gufunc of the private ``numpy.linalg._umath_linalg`` and call it
under an errstate that turns a LAPACK failure into ``LinAlgError``. For
the small matrices the analyzer reads, that wrapper costs more than the
routine: for a 3x3 complex matrix ``eigvalsh`` takes 5.0 us against
2.1 us for its gufunc (timeit, one CPU, numpy 2.4.6).

Each function here makes the call numpy.linalg makes, for its default
lower triangle (``UPLO='L'``, ``upper=False``): the same gufunc on the same
array, with the signature read from the dtype, under the same errstate.
So its results have numpy.linalg's bits, and a failure raises
``LinAlgError`` with numpy.linalg's message. It skips numpy.linalg's
checks: the input must be a square float64 or complex128 array. This
module is the package's one route to these three routines;
``tests/test_lapack.py`` holds it to numpy.linalg's bytes and fails
first if numpy changes the private gufuncs.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

__all__ = ["eigvalsh", "eigh", "cholesky"]


def _raise_nonconvergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _raise_nonposdef(err, flag):
    raise LinAlgError("Matrix is not positive definite")


# Each function runs under the errstate numpy.linalg sets, applied as a
# decorator: that builds no errstate per call, and under numpy 2 keeps its
# state per call, so concurrent callers do not share it.

@np.errstate(call=_raise_nonconvergence, invalid="call",
             over="ignore", divide="ignore", under="ignore")
def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitian ``a``, ascending, as float64."""
    return _umath_linalg.eigvalsh_lo(a, signature="D->d" if a.dtype.kind == "c" else "d->d")


@np.errstate(call=_raise_nonconvergence, invalid="call",
             over="ignore", divide="ignore", under="ignore")
def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues ascending, eigenvectors as columns) of the Hermitian ``a``."""
    return _umath_linalg.eigh_lo(a, signature="D->dD" if a.dtype.kind == "c" else "d->dd")


@np.errstate(call=_raise_nonposdef, invalid="call",
             over="ignore", divide="ignore", under="ignore")
def cholesky(a: np.ndarray) -> np.ndarray:
    """The lower-triangular L with L L^H = ``a``; raises ``LinAlgError``
    where ``a`` is not positive definite."""
    return _umath_linalg.cholesky_lo(a, signature="D->D" if a.dtype.kind == "c" else "d->d")
