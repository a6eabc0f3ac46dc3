"""Coupling coefficients and rotation matrix elements.

Expected values come from independent routes: hand-evaluated closed
forms, Clebsch-Gordan contraction oracles for the 6-j and 9-j symbols,
Wigner's sum (``coeff_oracle.little_d_sum``) and Legendre polynomials
from Bonnet's recurrence for the rotation matrices, and Racah's sums in
``Fraction`` arithmetic (``coeff_oracle``) for the exact coefficients.
"""

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import coeff_oracle
from spinsqueeze import (EulerAngles, HalfInt, clebsch_gordan,
                         clebsch_gordan_exact, little_d, racah_w, wigner_6j,
                         wigner_6j_exact, wigner_9j, wigner_d, wigner_d_matrix)
from spinsqueeze import angular, density, tensor_ops
from spinsqueeze.angular import SPIN_CACHE_SIZE, _cg_exact, _six_j_exact
from spinsqueeze.cli import MAX_D_RANK
from spinsqueeze.errors import AngularMomentumError
from spinsqueeze.frames import euler_from_rotation, rotation_matrix
from spinsqueeze.tensor_ops import spin_matrices


def cg_safe(j1, j2, j, m1, m2, m):
    """Zero instead of raising for parity-invalid (j, m) pairs."""
    for jj, mm in ((j1, m1), (j2, m2), (j, m)):
        tj, tm = HalfInt.of(jj).twice, HalfInt.of(mm).twice
        if (tj - tm) % 2 != 0 or abs(tm) > tj:
            return 0.0
    return clebsch_gordan(j1, j2, j, m1, m2, m)


def halfrange(j):
    tj = HalfInt.of(j).twice
    return [HalfInt(t) for t in range(-tj, tj + 1, 2)]


# ---------------------------------------------------------------------------
# Clebsch-Gordan
# ---------------------------------------------------------------------------

def test_cg_trivial_couplings():
    assert clebsch_gordan(1, 0, 1, 0, 0, 0) == 1.0
    assert clebsch_gordan("1/2", "1/2", 1, "1/2", "1/2", 1) == 1.0


def test_cg_closed_form_value():
    # C(1 1 2; 0 0 0) = sqrt(2/3), from the explicit factorial sum
    assert clebsch_gordan(1, 1, 2, 0, 0, 0) == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
    sign, square = clebsch_gordan_exact(1, 1, 2, 0, 0, 0)
    assert sign == 1 and square == Fraction(2, 3)


def test_cg_selection_rules():
    assert clebsch_gordan(1, 1, 2, 0, 1, 0) == 0.0      # m1 + m2 != m
    assert clebsch_gordan(1, 1, 3, 0, 0, 0) == 0.0      # triangle violated
    assert clebsch_gordan("1/2", "1/2", 2, "1/2", "1/2", 1) == 0.0


def test_cg_parity_domain_error():
    with pytest.raises(AngularMomentumError):
        clebsch_gordan("1/2", 0, "1/2", 1, 0, 1)
    with pytest.raises(AngularMomentumError):
        clebsch_gordan(1, 1, 1, "1/2", "1/2", 1)


def _sqrt_decompose(f: Fraction) -> tuple[Fraction, int]:
    """sqrt(f) = coeff * sqrt(d) with rational coeff and squarefree d."""
    n = f.numerator * f.denominator
    square, free = 1, 1
    d = 2
    while d * d <= n:
        count = 0
        while n % d == 0:
            n //= d
            count += 1
        square *= d ** (count // 2)
        if count % 2:
            free *= d
        d += 1
    free *= n
    return Fraction(square, f.denominator), free


def test_cg_orthogonality_exact():
    # sum_{m1,m2} C(j1 j2 j; m1 m2 m) C(j1 j2 j'; m1 m2 m') = delta delta,
    # verified in exact surd arithmetic (tolerance zero) for j1, j2 <= 2.
    for tj1 in range(0, 5):
        for tj2 in range(0, 5):
            j1, j2 = HalfInt(tj1), HalfInt(tj2)
            couplings = [HalfInt(tj) for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)]
            for j in couplings:
                for jp in couplings:
                    for m in halfrange(j):
                        for mp in halfrange(jp):
                            if m != mp:
                                continue  # every term carries a zero factor
                            surds: dict[int, Fraction] = {}
                            for m1 in halfrange(j1):
                                m2 = m - m1
                                if abs(m2.twice) > tj2:
                                    continue
                                s1, q1 = clebsch_gordan_exact(j1, j2, j, m1, m2, m)
                                s2, q2 = clebsch_gordan_exact(j1, j2, jp, m1, m2, mp)
                                if s1 == 0 or s2 == 0:
                                    continue
                                coeff, free = _sqrt_decompose(q1 * q2)
                                surds[free] = surds.get(free, Fraction(0)) + s1 * s2 * coeff
                            expected = Fraction(1) if (j == jp and m == mp) else Fraction(0)
                            assert surds.get(1, Fraction(0)) == expected, (j1, j2, j, jp, m)
                            for free, coeff in surds.items():
                                if free != 1:
                                    assert coeff == 0, (j1, j2, j, jp, m, free)


def test_cg_swap_symmetry(rng):
    # C(j1 j2 j; m1 m2 m) = (-1)^(j1+j2-j) C(j2 j1 j; m2 m1 m)
    for _ in range(200):
        tj1, tj2 = rng.integers(0, 5, size=2)
        tj_opts = range(abs(tj1 - tj2), tj1 + tj2 + 1, 2)
        tj = rng.choice(list(tj_opts))
        tm1 = rng.choice(list(range(-tj1, tj1 + 1, 2))) if tj1 else 0
        tm2 = rng.choice(list(range(-tj2, tj2 + 1, 2))) if tj2 else 0
        tm = tm1 + tm2
        if abs(tm) > tj:
            continue
        a = clebsch_gordan(*(HalfInt(int(t)) for t in (tj1, tj2, tj, tm1, tm2, tm)))
        b = clebsch_gordan(*(HalfInt(int(t)) for t in (tj2, tj1, tj, tm2, tm1, tm)))
        phase = (-1) ** ((tj1 + tj2 - tj) // 2)
        assert a == pytest.approx(phase * b, abs=1e-14)


# ---------------------------------------------------------------------------
# Racah W / 6-j
# ---------------------------------------------------------------------------

def _recoupling_sum(a, b, c, d, e, f, gamma):
    """<(ab)e, d; c | a, (bd)f; c> = [e][f] W(abcd; ef) via CG contraction."""
    total = 0.0
    for alpha in halfrange(a):
        for beta in halfrange(b):
            eps = alpha + beta
            if abs(eps.twice) > HalfInt.of(e).twice:
                continue
            delta = HalfInt.of(gamma) - eps
            if abs(delta.twice) > HalfInt.of(d).twice:
                continue
            phi = beta + delta
            total += (cg_safe(a, b, e, alpha, beta, eps)
                      * cg_safe(e, d, c, eps, delta, gamma)
                      * cg_safe(b, d, f, beta, delta, phi)
                      * cg_safe(a, f, c, alpha, phi, gamma))
    return total


@pytest.mark.parametrize("args", [
    (1, 1, 1, 1, 1, 1),
    (1, 1, 1, 1, 2, 2),
    ("3/2", 1, "3/2", 1, "3/2", 2),
    (2, 1, 1, 2, 1, 2),
    ("1/2", 1, "1/2", 1, "3/2", "1/2"),
])
def test_racah_w_against_recoupling_oracle(args):
    a, b, c, d, e, f = args
    gamma = "1/2" if HalfInt.of(c).twice % 2 else 0
    norm = math.sqrt((HalfInt.of(e).twice + 1) * (HalfInt.of(f).twice + 1))
    assert norm * racah_w(a, b, c, d, e, f) == pytest.approx(
        _recoupling_sum(a, b, c, d, e, f, gamma), abs=1e-13)


def test_racah_w_triangle_selection():
    # two of the triads here have half-integer perimeter
    assert racah_w("1/2", 1, "1/2", 1, "1/2", "1/2") == 0.0
    assert wigner_6j(1, 1, 3, 1, 1, 1) == 0.0
    assert racah_w(1, 1, 1, 1, 5, 1) == 0.0
    # a + b + c + d half-integral
    assert racah_w("1/2", 1, 1, 1, "1/2", "1/2") == 0.0


@pytest.mark.parametrize("args, name", [
    (("-1/2", 0, 0, 0, 1, 1), "j1 = -1/2"),
    (("1/2", 0, 0, 0, -7, 1), "j3 = -7"),
    ((-1, 0, 0, 0, 1, 1), "j1 = -1"),
])
def test_racah_w_rejects_negative_magnitudes(args, name):
    """Also where a + b + c + d is half-integral and no triad holds."""
    with pytest.raises(AngularMomentumError, match=f"{name} must be non-negative"):
        racah_w(*args)


def test_6j_known_value():
    # {1 1 1; 1 1 1} = 1/6, a standard closed-form special case
    assert wigner_6j(1, 1, 1, 1, 1, 1) == pytest.approx(1 / 6, abs=1e-15)


# ---------------------------------------------------------------------------
# integer sums against the Fraction sums they replaced
# ---------------------------------------------------------------------------

_TWICE = st.integers(0, 40)


@st.composite
def _coupled(draw, *pairs):
    """A twice-value that closes a triangle with every (ta, tb) pair when one
    exists, else (and sometimes anyway) any value up to 40."""
    options = [t for t in range(41)
               if all(coeff_oracle._triangle_ok(ta, tb, t) for ta, tb in pairs)]
    if options and draw(st.integers(0, 3)):
        return draw(st.sampled_from(options))
    return draw(_TWICE)


@st.composite
def _projection(draw, tj):
    """m with |m| <= j and the parity of j."""
    return 2 * draw(st.integers(0, tj)) - tj


@st.composite
def cg_arguments(draw):
    tj1, tj2 = draw(_TWICE), draw(_TWICE)
    tj = draw(_coupled((tj1, tj2)))
    tm1, tm2 = draw(_projection(tj1)), draw(_projection(tj2))
    tm = draw(_projection(tj))
    if abs(tm1 + tm2) <= tj and (tj - tm1 - tm2) % 2 == 0 and draw(st.integers(0, 3)):
        tm = tm1 + tm2
    return tj1, tj2, tj, tm1, tm2, tm


@st.composite
def six_j_arguments(draw):
    tj1, tj2, tj4, tj5 = (draw(_TWICE) for _ in range(4))
    if (tj1 + tj2 + tj4 + tj5) % 2 and draw(st.integers(0, 3)):
        tj5 += 1 if tj5 < 40 else -1     # else no j3 closes both triads
    tj3 = draw(_coupled((tj1, tj2), (tj4, tj5)))
    tj6 = draw(_coupled((tj4, tj2), (tj1, tj5)))
    return tj1, tj2, tj3, tj4, tj5, tj6


def _public(twice):
    return [HalfInt(t) for t in twice]


@settings(max_examples=400)
@given(cg_arguments())
def test_cg_exact_equals_rational_oracle(args):
    """Sign and exact square, selection-rule zeros included, up to j = 20."""
    expected = coeff_oracle.cg_exact(*args)
    assert _cg_exact(*args) == expected
    assert clebsch_gordan_exact(*_public(args)) == expected


@settings(max_examples=400)
@given(six_j_arguments())
def test_six_j_exact_equals_rational_oracle(args):
    expected = coeff_oracle.six_j_exact(*args)
    assert _six_j_exact(*args) == expected
    assert wigner_6j_exact(*_public(args)) == expected


def test_six_j_exhaustive_small_against_rational_oracle():
    for args in itertools.product(range(5), repeat=6):
        assert _six_j_exact(*args) == coeff_oracle.six_j_exact(*args)


def test_exact_coefficients_at_the_cli_bound():
    """The largest arguments coeff accepts, on both routes."""
    for args in [(200, 200, 200, 0, 0, 0), (200, 199, 1, 200, -199, 1),
                 (199, 200, 399, -1, 2, 1), (200, 200, 400, 0, 0, 0)]:
        assert _cg_exact(*args) == coeff_oracle.cg_exact(*args)
    for args in [(200,) * 6, (200, 200, 200, 200, 200, 400),
                 (199, 200, 1, 200, 199, 201)]:
        assert _six_j_exact(*args) == coeff_oracle.six_j_exact(*args)


def test_exact_coefficients_keep_no_memory():
    """The coefficients are not memoized, so distinct public calls leave
    nothing behind: 8192 of them add no traced memory that grows with
    their number or their j. A memo of these results takes about 0.36 kB
    an entry, so even one bounded at 1024 entries would exceed the bound."""
    clebsch_gordan(1, 1, 1, 0, 1, 0)
    wigner_6j(1, 0, 0, 0, 0, 0)
    tracemalloc.start()
    try:
        for j in range(1, 4097):
            clebsch_gordan(j, 1, j, 0, 1, 0)        # m1 + m2 != m
            wigner_6j(j, 0, 0, 0, 0, 0)             # {j 0 0} fails for j > 0
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert kept < 50_000


def test_per_spin_caches_stay_bounded():
    """Each per-spin array cache keeps at most SPIN_CACHE_SIZE spins, however
    many distinct spins are asked for. The spin matrices are filled past
    the bound through spin_matrices, about 40 MB on the way; the other
    three, filled the same way, would hold up to 100 MB and are checked
    by their bound."""
    caches = (angular._spin_cached, angular._sy_eigvecs,
              tensor_ops._moment_stack, density._psd_shift)
    for cache in caches:
        assert cache.cache_parameters()["maxsize"] == SPIN_CACHE_SIZE
    try:
        for ts in range(1, SPIN_CACHE_SIZE + 9):
            spin_matrices(HalfInt(ts))
        assert angular._spin_cached.cache_info().currsize == SPIN_CACHE_SIZE
    finally:
        # give back the large entries; each is rebuilt when next needed
        angular._spin_cached.cache_clear()


# ---------------------------------------------------------------------------
# 9-j
# ---------------------------------------------------------------------------

def _ninej_projection_sum(js):
    """Contraction of six CG coefficients over all projections, divided by
    [j13][j23][j31][j32]; evaluated at the stretched total projection."""
    j11, j12, j13, j21, j22, j23, j31, j32, j33 = [HalfInt.of(j) for j in js]
    m33 = j33
    total = 0.0
    for m11 in halfrange(j11):
        for m12 in halfrange(j12):
            m13 = m11 + m12
            if abs(m13.twice) > j13.twice:
                continue
            for m21 in halfrange(j21):
                m31 = m11 + m21
                if abs(m31.twice) > j31.twice:
                    continue
                m22 = HalfInt(m33.twice - m13.twice - m21.twice)
                if abs(m22.twice) > j22.twice:
                    continue
                m23 = m21 + m22
                m32 = m12 + m22
                if abs(m23.twice) > j23.twice or abs(m32.twice) > j32.twice:
                    continue
                total += (cg_safe(j11, j12, j13, m11, m12, m13)
                          * cg_safe(j21, j22, j23, m21, m22, m23)
                          * cg_safe(j13, j23, j33, m13, m23, m33)
                          * cg_safe(j11, j21, j31, m11, m21, m31)
                          * cg_safe(j12, j22, j32, m12, m22, m32)
                          * cg_safe(j31, j32, j33, m31, m32, m33))
    norm = math.sqrt((j13.twice + 1) * (j23.twice + 1)
                     * (j31.twice + 1) * (j32.twice + 1))
    return total / norm


def test_9j_all_zero():
    assert wigner_9j(*([0] * 9)) == 1.0


def test_9j_channel_coupling_case():
    js = ("1/2", "1/2", 1, "1/2", "1/2", 1, 1, 1, 0)
    assert wigner_9j(*js) == pytest.approx(_ninej_projection_sum(js), abs=1e-14)


def _valid_triads(js):
    rows = [js[0:3], js[3:6], js[6:9]]
    cols = [js[0::3], js[1::3], js[2::3]]
    for (a, b, c) in rows + cols:
        if not (abs(a - b) <= c <= a + b) or (a + b + c) % 2:
            return False
    return True


def test_9j_exhaustive_small_against_projection_oracle():
    # every triangle-valid combination with all arguments <= 1
    checked = 0
    for combo in np.ndindex(*(3,) * 9):
        if not _valid_triads(combo):
            continue
        js = [HalfInt(int(t)) for t in combo]
        assert wigner_9j(*js) == pytest.approx(
            _ninej_projection_sum(js), abs=1e-12), combo
        checked += 1
    assert checked > 50


def test_9j_random_arguments_up_to_two_against_oracle(rng):
    checked = 0
    while checked < 60:
        combo = tuple(int(t) for t in rng.integers(0, 5, size=9))
        if not _valid_triads(combo):
            continue
        js = [HalfInt(t) for t in combo]
        assert wigner_9j(*js) == pytest.approx(
            _ninej_projection_sum(js), abs=1e-12), combo
        checked += 1


def test_9j_with_equal_outer_rows_and_odd_sum_is_exactly_zero():
    """Swapping two rows multiplies a 9-j by (-1)^S, S the sum of its nine
    arguments, so equal first and third rows with S odd give 0: exactly
    +0.0, since the surds of the 6-j products are summed exactly."""
    checked = 0
    for combo in np.ndindex(*(5,) * 6):    # twice the arguments, up to j = 2
        row, middle = combo[:3], combo[3:]
        js = row + middle + row
        if not _valid_triads(js) or sum(js) % 4 != 2:
            continue
        value = wigner_9j(*(HalfInt(int(t)) for t in js))
        assert value == 0.0 and math.copysign(1.0, value) == 1.0, js
        checked += 1
    assert checked > 50
    assert wigner_9j(2, 2, 2, 1, 1, 1, 2, 2, 2) == 0.0


def test_9j_one_zero_reduces_to_6j():
    # {a b c; d e c; g g 0} = (-1)^(b+c+d+g) / sqrt((2c+1)(2g+1)) {a b c; e d g}
    cases = [(1, 1, 2, 1, 1, 1), ("1/2", "1/2", 1, "1/2", "1/2", 1),
             ("3/2", "1/2", 1, "1/2", "3/2", 2), (1, 2, 1, 2, 1, 2)]
    for (a, b, c, d, e, g) in cases:
        lhs = wigner_9j(a, b, c, d, e, c, g, g, 0)
        tsum = sum(HalfInt.of(x).twice for x in (b, c, d, g))
        phase = (-1.0) ** (tsum // 2)
        nc = HalfInt.of(c).twice + 1
        ng = HalfInt.of(g).twice + 1
        rhs = phase / math.sqrt(nc * ng) * wigner_6j(a, b, c, e, d, g)
        assert lhs == pytest.approx(rhs, abs=1e-14)


# ---------------------------------------------------------------------------
# Rotation matrix elements
# ---------------------------------------------------------------------------

def test_identity_rotation_is_kronecker():
    ident = EulerAngles.identity()
    for k in ("1/2", 1, "3/2", 2):
        d = wigner_d_matrix(k, ident)
        assert np.abs(d - np.eye(d.shape[0])).max() < 1e-15


def test_little_d_closed_forms():
    for beta in (0.0, 0.35, 1.2, math.pi / 2, 2.8, math.pi):
        assert little_d("1/2", "1/2", "1/2", beta) == pytest.approx(
            math.cos(beta / 2), abs=1e-15)
        assert little_d(1, 0, 0, beta) == pytest.approx(math.cos(beta), abs=1e-15)


@pytest.mark.parametrize("tk", range(2 * MAX_D_RANK + 1))
def test_little_d_is_an_exact_signed_permutation_at_0_and_pi(tk):
    """d^k(0) is the identity and d^k_{q'q}(pi) = (-1)^(k-q) delta_{q',-q},
    entry for entry with no rounding residue and no -0, for every rank
    coeff d accepts; Wigner's sum agrees to 1e-13 where it holds."""
    n = tk + 1
    assert angular._little_d(tk, 0.0).tobytes() == np.eye(n).tobytes()
    flip = np.zeros((n, n))
    for col in range(n):            # q = k - col, row q' = -q
        flip[n - 1 - col, col] = (-1.0) ** col
    assert angular._little_d(tk, math.pi).tobytes() == flip.tobytes()
    if tk <= 20:
        for beta, want in ((0.0, np.eye(n)), (math.pi, flip)):
            assert np.abs(coeff_oracle.little_d_sum(tk, beta) - want).max() < 1e-13


def _little_d_spectral(tk: int, beta: float) -> np.ndarray:
    """V exp(-i beta m) V^dagger from the cached eigenvectors of S_y: the
    route _little_d takes at every beta other than 0 and pi."""
    vecs = angular._sy_eigvecs(tk)
    phase = np.exp(-0.5j * beta * np.arange(-tk, tk + 1, 2))
    return ((vecs * phase) @ vecs.conj().T).real


@pytest.mark.parametrize("tk", [1, 2, 3, 7, 20, 80])
def test_little_d_keeps_the_spectral_bits_away_from_0_and_pi(tk):
    for beta in (5e-324, 1e-300, 1e-3, 1.0, math.pi / 2,
                 math.pi - 1e-3, math.nextafter(math.pi, 0.0)):
        assert (angular._little_d(tk, beta).tobytes()
                == _little_d_spectral(tk, beta).tobytes()), beta


def test_wigner_d_bounds_checked():
    with pytest.raises(AngularMomentumError):
        wigner_d(1, 2, 0, EulerAngles.identity())
    with pytest.raises(AngularMomentumError):
        wigner_d(1, "1/2", 0, EulerAngles.identity())


def _expm_unitary(generator: np.ndarray, angle: float) -> np.ndarray:
    """exp(-i angle G) from eigh of G. For G = S_y this is the library's own
    route, so it checks the assembly of D, not the spectral form."""
    vals, vecs = np.linalg.eigh(generator)
    return (vecs * np.exp(-1j * angle * vals)) @ vecs.conj().T


@settings(max_examples=120)
@given(st.integers(1, 20), st.floats(0.0, 2 * math.pi), st.floats(0.0, math.pi),
       st.floats(0.0, 2 * math.pi))
def test_d_matrix_against_matrix_exponential_oracle(tk, a, b, g):
    """2k = 1..20, half-integer ranks included; little_d reads the same
    eigendecomposition as the matrix."""
    sx, sy, sz = spin_matrices(HalfInt(tk))
    left = wigner_d_matrix(HalfInt(tk), EulerAngles(a, b, g))
    right = _expm_unitary(sz, a) @ _expm_unitary(sy, b) @ _expm_unitary(sz, g)
    assert np.abs(left - right).max() < 1e-12
    k = HalfInt(tk)
    assert little_d(k, k, HalfInt(-tk), b) == pytest.approx(
        _expm_unitary(sy, b)[0, -1].real, abs=1e-12)


_BETAS = (0.0, 1e-3, 0.35, 1.0, 1.2, math.pi / 2, 2.8, math.pi - 1e-3, math.pi)


def _legendre(n: int, x: float) -> float:
    """P_n(x) from Bonnet's recurrence (l+1) P_{l+1} = (2l+1) x P_l - l P_{l-1}."""
    prev, cur = 1.0, x
    if n == 0:
        return prev
    for ell in range(1, n):
        prev, cur = cur, ((2 * ell + 1) * x * cur - ell * prev) / (ell + 1)
    return cur


def test_d00_is_legendre_up_to_the_cli_rank():
    """d^k_00(beta) = P_k(cos beta) for every integer rank coeff d accepts."""
    for k in range(MAX_D_RANK + 1):
        for beta in _BETAS:
            want = _legendre(k, math.cos(beta))
            assert abs(little_d(k, 0, 0, beta) - want) < 1e-13, (k, beta)
            d = wigner_d_matrix(k, EulerAngles(0.0, beta, 0.0))
            assert abs(d[k, k] - want) < 1e-13, (k, beta)


def test_d_stretched_element_and_unitarity_up_to_2k_80(rng):
    """d^k_kk(beta) = cos^(2k)(beta/2), and D is unitary to 1e-13, for every
    2k <= 80, half-integer ranks included."""
    for tk in range(81):
        k = HalfInt(tk)
        for beta in _BETAS:
            assert abs(little_d(k, k, k, beta) - math.cos(beta / 2) ** tk) < 1e-13, \
                (tk, beta)
        for _ in range(3):
            angles = EulerAngles(*rng.uniform(0.0, 2.0 * math.pi, size=3))
            d = wigner_d_matrix(k, angles)
            assert np.abs(d @ d.conj().T - np.eye(tk + 1)).max() <= 1e-13, tk


@settings(max_examples=60)
@given(st.integers(0, 20), st.floats(0.0, 2 * math.pi), st.floats(0.0, math.pi),
       st.floats(0.0, 2 * math.pi))
def test_d_matrix_against_wigner_sum(tk, a, b, g):
    """Up to 2k = 20, where Wigner's sum still holds 14 digits."""
    angles = EulerAngles(a, b, g)     # alpha = 2 pi wraps to 0, a sign at half-integer k
    proj = np.arange(tk, -tk - 1, -2) / 2.0
    want = (np.exp(-1j * proj * angles.alpha)[:, None]
            * coeff_oracle.little_d_sum(tk, angles.beta)
            * np.exp(-1j * proj * angles.gamma)[None, :])
    assert np.abs(wigner_d_matrix(HalfInt(tk), angles) - want).max() < 1e-13


@pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
def test_little_d_requires_finite_angle(beta):
    with pytest.raises(ValueError, match="must be finite"):
        little_d(1, 0, 0, beta)


def test_d_matrix_unitarity(rng):
    for tk in (1, 2, 3, 4, 5, 6, 7, 8):
        for _ in range(4):
            angles = EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                                 rng.uniform(0, 2 * np.pi))
            d = wigner_d_matrix(HalfInt(tk), angles)
            assert np.abs(d @ d.conj().T - np.eye(tk + 1)).max() < 1e-12


def test_d_matrix_composition(rng):
    # D(R1) D(R2) = D(R1 o R2) for integer ranks (the SO(3) composition;
    # half-integer ranks live on the double cover where a sign can appear)
    for k in (1, 2, 3, 4):
        for _ in range(5):
            r1 = EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                             rng.uniform(0, 2 * np.pi))
            r2 = EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                             rng.uniform(0, 2 * np.pi))
            combined = euler_from_rotation(rotation_matrix(r1) @ rotation_matrix(r2))
            left = wigner_d_matrix(k, r1) @ wigner_d_matrix(k, r2)
            right = wigner_d_matrix(k, combined)
            assert np.abs(left - right).max() < 1e-12


def test_euler_normalization_preserves_rotation(rng):
    for _ in range(50):
        raw = rng.uniform(-10, 10, size=3)
        angles = EulerAngles(*raw)
        assert 0 <= angles.alpha < 2 * np.pi
        assert 0 <= angles.beta <= np.pi
        assert 0 <= angles.gamma < 2 * np.pi
        ca, sa = np.cos(raw[0]), np.sin(raw[0])
        cb, sb = np.cos(raw[1]), np.sin(raw[1])
        cc, sc = np.cos(raw[2]), np.sin(raw[2])
        rz1 = np.array([[ca, -sa, 0], [sa, ca, 0], [0, 0, 1]])
        ry = np.array([[cb, 0, sb], [0, 1, 0], [-sb, 0, cb]])
        rz2 = np.array([[cc, -sc, 0], [sc, cc, 0], [0, 0, 1]])
        assert np.abs(rotation_matrix(angles) - rz1 @ ry @ rz2).max() < 1e-12


def test_euler_angles_require_finite():
    with pytest.raises(ValueError):
        EulerAngles(math.nan, 0.0, 0.0)
