"""Spherical tensor operator matrices and spin matrices."""

import math

import numpy as np
import pytest

import coeff_oracle
from spinsqueeze import (HalfInt, SpinDensity, TensorParams, analyze, build_tau,
                         check_positivity, classify_orientation, clebsch_gordan,
                         racah_w, spin_matrices, to_tensors)
from spinsqueeze.errors import AngularMomentumError
from spinsqueeze.tensor_ops import MAX_STATE_SPIN, _stack_order, _tau_stack

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_rank_zero_is_identity():
    for s in ("1/2", 1, "3/2", 3):
        n = HalfInt.of(s).twice + 1
        assert np.array_equal(build_tau(s, 0, 0), np.eye(n))


def test_spin_half_tensors_are_spherical_paulis():
    assert np.abs(build_tau("1/2", 1, 0) - SZ).max() < 1e-15
    assert np.abs(build_tau("1/2", 1, 1) + (SX + 1j * SY) / math.sqrt(2)).max() < 1e-15
    assert np.abs(build_tau("1/2", 1, -1) - (SX - 1j * SY) / math.sqrt(2)).max() < 1e-15


def test_spin_one_rank_one_diagonal():
    expect = math.sqrt(1.5) * np.diag([1.0, 0.0, -1.0])
    assert np.abs(build_tau(1, 1, 0) - expect).max() < 1e-15


def test_domain_errors():
    with pytest.raises(AngularMomentumError):
        build_tau("1/2", 2, 0)          # k > 2s
    with pytest.raises(AngularMomentumError):
        build_tau(1, 1, 2)              # |q| > k
    with pytest.raises(AngularMomentumError):
        build_tau(1, "1/2", 0)          # non-integer rank


def test_returned_matrices_are_frozen():
    tau = build_tau(1, 2, 1)
    with pytest.raises(ValueError):
        tau[0, 0] = 5.0


def test_orthogonality_normalization():
    # Tr(T^k_q^dag T^k'_q') = (2s+1) delta_kk' delta_qq' for s <= 3
    for ts in (1, 2, 3, 4, 5, 6):
        n = ts + 1
        ops = {(k, q): build_tau(HalfInt(ts), k, q)
               for k in range(ts + 1) for q in range(-k, k + 1)}
        for (k, q), a in ops.items():
            for (kp, qp), b in ops.items():
                tr = np.trace(a.conj().T @ b)
                expect = n if (k, q) == (kp, qp) else 0.0
                assert abs(tr - expect) < 1e-12, (ts, k, q, kp, qp)


def test_conjugation_relation_exact():
    # T^k_q^dag = (-1)^q T^k_{-q}, exact because entries come from exact values
    for ts in (1, 2, 3, 4):
        for k in range(ts + 1):
            for q in range(-k, k + 1):
                left = build_tau(HalfInt(ts), k, q).conj().T
                right = (-1) ** q * build_tau(HalfInt(ts), k, -q)
                assert np.array_equal(left, right)


def commutator_identity_residual(ts: int) -> float:
    """Largest residual of the product-expansion commutator identity:

    [T^k1_q1, T^k2_q2] = sum_k (1 - (-1)^(k1+k2-k)) (-1)^(k1+k2-k)
        sqrt(2s+1) [k1][k2] C(k1 k2 k; q1 q2 q) W(s k1 s k2; s k) T^k_q.

    The surviving (odd k1+k2-k) terms carry an overall minus sign relative
    to the same expression without the (-1)^(k1+k2-k) factor; the sign is
    fixed by the Condon-Shortley and Racah conventions used here and was
    cross-checked against direct matrix arithmetic.
    """
    s = HalfInt(ts)
    root_n = math.sqrt(ts + 1)
    worst = 0.0
    for k1 in range(ts + 1):
        for k2 in range(ts + 1):
            for q1 in range(-k1, k1 + 1):
                for q2 in range(-k2, k2 + 1):
                    lhs = (build_tau(s, k1, q1) @ build_tau(s, k2, q2)
                           - build_tau(s, k2, q2) @ build_tau(s, k1, q1))
                    q = q1 + q2
                    rhs = np.zeros_like(lhs)
                    for k in range(abs(k1 - k2), min(k1 + k2, ts) + 1):
                        if abs(q) > k:
                            continue
                        parity = (-1) ** (k1 + k2 - k)
                        factor = (1 - parity) * parity
                        if factor == 0:
                            continue
                        coeff = (root_n * math.sqrt((2 * k1 + 1) * (2 * k2 + 1))
                                 * factor
                                 * clebsch_gordan(k1, k2, k, q1, q2, q)
                                 * racah_w(s, k1, s, k2, s, k))
                        rhs = rhs + coeff * build_tau(s, k, q)
                    worst = max(worst, np.abs(lhs - rhs).max())
    return worst


@pytest.mark.parametrize("ts", [1, 2, 3])
def test_commutator_identity(ts):
    assert commutator_identity_residual(ts) < 1e-10


def test_spin_half_spin_matrices():
    sx, sy, sz = spin_matrices("1/2")
    assert np.abs(sx - SX / 2).max() < 1e-15
    assert np.abs(sy - SY / 2).max() < 1e-15
    assert np.abs(sz - SZ / 2).max() < 1e-15


def test_spin_one_sz():
    _, _, sz = spin_matrices(1)
    assert np.array_equal(np.real(np.diag(sz)), [1.0, 0.0, -1.0])


@pytest.mark.parametrize("ts", range(1, 9))
def test_spin_commutation_relations(ts):
    sx, sy, sz = spin_matrices(HalfInt(ts))
    for a, b, c in ((sx, sy, sz), (sy, sz, sx), (sz, sx, sy)):
        assert np.abs(a @ b - b @ a - 1j * c).max() < 1e-14


@pytest.mark.parametrize("ts", range(1, 7))
def test_spin_vs_rank_one_tensor_proportionality(ts):
    # spherical spin components equal sqrt(s(s+1)/3) T^1_q
    sx, sy, sz = spin_matrices(HalfInt(ts))
    s = ts / 2
    scale = math.sqrt(s * (s + 1) / 3)
    sph = {1: -(sx + 1j * sy) / math.sqrt(2), 0: sz, -1: (sx - 1j * sy) / math.sqrt(2)}
    for q in (-1, 0, 1):
        assert np.abs(sph[q] - scale * build_tau(HalfInt(ts), 1, q)).max() < 1e-12


def test_uncertainty_relation_property(rng):
    # Var(S_a) Var(S_b) >= |<S_c>|^2 / 4 cyclically, random mixed states
    from conftest import random_density
    for ts in (1, 2, 3, 4):
        spins = spin_matrices(HalfInt(ts))
        for _ in range(200):
            rho = random_density(rng, ts)
            means = [np.trace(rho.matrix @ sm).real for sm in spins]
            variances = [np.trace(rho.matrix @ sm @ sm).real - m * m
                         for sm, m in zip(spins, means)]
            for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                assert variances[a] * variances[b] >= 0.25 * means[c] ** 2 - 1e-10


def _bits(stack):
    return stack.view(np.int64)


def _oracle_rows(ts):
    """The rational oracle's stack of T^k_q matrices in the layout of
    _tau_stack: row k*k + k + q is (T^k_q)^T flattened."""
    n = ts + 1
    return np.ascontiguousarray(coeff_oracle.tau_stack(ts).transpose(0, 2, 1)).reshape(n * n, -1)


@pytest.mark.parametrize("ts", range(21))
def test_tau_stack_bits_equal_rational_oracle(ts):
    """Every spin up to s = 10: the same float bits as the stack built from
    the Fraction sums."""
    assert np.array_equal(_bits(_tau_stack(ts)), _bits(_oracle_rows(ts)))


def test_tau_stack_bits_equal_rational_oracle_at_state_limit():
    """s = 20, the largest spin a state file may have (about 4 s)."""
    built = _tau_stack.__wrapped__(40)      # not kept in the stack cache
    assert np.array_equal(_bits(built), _bits(_oracle_rows(40)))


@pytest.mark.parametrize("ts", range(2 * MAX_STATE_SPIN + 1))
def test_tau_stack_partner_rows_are_signed_transposes(ts):
    """(T^k_{-q})^T = (-1)^q T^k_q at every spin a state may have, by value
    (the sign of a zero may differ): from_tensors sums t^k_q (T^k_q)^T
    for the (-1)^q t^k_{-q} T^k_q of the expansion."""
    stack = _tau_stack.__wrapped__(ts)      # not kept in the stack cache
    _, partner, sign, _ = _stack_order(ts)
    n = ts + 1
    transposed = stack.reshape(n * n, n, n).transpose(0, 2, 1).reshape(n * n, -1)
    assert np.array_equal(stack[partner], sign[:, None] * transposed)


def test_operator_arrays_are_read_only():
    for s in ("1/2", 1, "3/2", 3):
        for matrix in (*spin_matrices(s), build_tau(s, 1, 1), build_tau(s, 0, 0)):
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0


def test_tensor_stack_refused_above_the_state_spin_limit():
    """At s = 21 the T^k_q stack would hold 43^4 complex numbers, 55 MB;
    at s = 100, 26 GB. What builds the stack refuses any spin above the
    limit. The analysis, positivity and orientation checks read only the
    state's matrix and spin moments, and take any spin."""
    twice_s = 2 * MAX_STATE_SPIN + 2
    rho = SpinDensity(HalfInt(twice_s), np.diag(np.linspace(1.0, 2.0, twice_s + 1)))
    for build in (lambda: to_tensors(rho), lambda: TensorParams(HalfInt(twice_s), {}),
                  lambda: build_tau(HalfInt(twice_s), 0, 0)):
        with pytest.raises(ValueError, match=f"exceeds the limit of {MAX_STATE_SPIN}"):
            build()
    assert not analyze(rho).squeezed
    assert check_positivity(rho).psd
    assert classify_orientation(rho).oriented
