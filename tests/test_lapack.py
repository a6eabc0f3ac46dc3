"""spinsqueeze._lapack against numpy.linalg, byte for byte.

_lapack calls numpy's private ``numpy.linalg._umath_linalg`` gufuncs the
way numpy.linalg does. These tests fail first if a numpy release renames
those gufuncs or changes what they compute, take or raise: every result
must have the bytes of ``np.linalg.eigvalsh``, ``eigh`` and ``cholesky``,
and every failure must raise the same ``LinAlgError`` with no warning.
"""

import warnings

import numpy as np
import pytest
from numpy.linalg import LinAlgError, _umath_linalg

from spinsqueeze import _lapack

# 2s of the spins the analyzer reads, from 1/2 to the CLI's largest tests
SPINS = [1, 2, 3, 6, 20, 40]
KINDS = ["complex", "real"]


def _bytes(a):
    return a.dtype.str, a.shape, a.tobytes()


def _hermitian(ts, kind, seed=0):
    """A seeded (2s+1)^2 complex Hermitian or real symmetric matrix with
    both signs among its eigenvalues."""
    rng = np.random.default_rng([ts, seed, KINDS.index(kind)])
    n = ts + 1
    m = rng.normal(size=(n, n))
    if kind == "complex":
        m = m + 1j * rng.normal(size=(n, n))
    return m + m.conj().T


def _positive_definite(ts, kind):
    m = _hermitian(ts, kind)
    return m @ m.conj().T + np.eye(ts + 1)


def _inputs(ts, kind, make):
    """The matrix as a C-ordered array, a read-only slice of a stack (as
    the package's cached spin matrices are) and a Fortran-ordered copy."""
    m = make(ts, kind)
    stack = np.array([m, m])
    stack.flags.writeable = False
    return [m, stack[1], np.asfortranarray(m)]


def test_private_gufuncs_have_numpy_linalgs_signatures():
    for name, core, types in [("eigvalsh_lo", "(m,m)->(m)", ("d->d", "D->d")),
                              ("eigh_lo", "(m,m)->(m),(m,m)", ("d->dd", "D->dD")),
                              ("cholesky_lo", "(m,m)->(m,m)", ("d->d", "D->D"))]:
        gufunc = getattr(_umath_linalg, name)
        assert gufunc.signature == core, name
        assert set(types) <= set(gufunc.types), name


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ts", SPINS)
def test_eigvalsh_and_eigh_return_numpy_linalgs_bytes(ts, kind):
    for a in _inputs(ts, kind, _hermitian):
        assert _bytes(_lapack.eigvalsh(a)) == _bytes(np.linalg.eigvalsh(a))
        w, v = _lapack.eigh(a)
        ref = np.linalg.eigh(a)
        assert _bytes(w) == _bytes(ref[0])
        assert _bytes(v) == _bytes(ref[1])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ts", SPINS)
def test_cholesky_returns_numpy_linalgs_bytes(ts, kind):
    for a in _inputs(ts, kind, _positive_definite):
        assert _bytes(_lapack.cholesky(a)) == _bytes(np.linalg.cholesky(a))


def _raises_like_numpy_linalg(ours, theirs, a):
    """Both calls raise LinAlgError with one message, and warn nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinAlgError) as mine:
            ours(a)
        with pytest.raises(LinAlgError) as ref:
            theirs(a)
    assert str(mine.value) == str(ref.value)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ts", SPINS)
def test_cholesky_of_a_matrix_that_is_not_positive_definite_raises(ts, kind):
    a = _positive_definite(ts, kind)
    a[-1, -1] = -1.0
    _raises_like_numpy_linalg(_lapack.cholesky, np.linalg.cholesky, a)


def _outcome(call, a):
    """The bytes of each returned array, or the LinAlgError's message."""
    try:
        out = call(a)
    except LinAlgError as err:
        return str(err)
    return [_bytes(x) for x in (out if isinstance(out, tuple) else [out])]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("ts", SPINS)
def test_eigensolvers_of_a_nan_matrix_fail_like_numpy_linalg(ts, kind):
    """Whether LAPACK reports no convergence for a matrix of NaNs or
    returns NaNs depends on the routine and the size (OpenBLAS raises for
    eigvalsh at 3x3 and returns NaNs at 2x2); either way _lapack does what
    numpy.linalg does, and warns nothing."""
    a = np.full((ts + 1, ts + 1), np.nan, dtype=complex if kind == "complex" else float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _outcome(_lapack.eigvalsh, a) == _outcome(np.linalg.eigvalsh, a)
        assert _outcome(_lapack.eigh, a) == _outcome(lambda m: tuple(np.linalg.eigh(m)), a)
