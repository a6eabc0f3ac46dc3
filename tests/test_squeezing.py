"""The mixed-state squeezing criterion and its closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, random_density, random_oriented, rotate_state
from spinsqueeze import (EulerAngles, HalfInt, SpinDensity, TensorParams,
                         _lapack, analyze, angular, check_positivity, density,
                         frames, squeezing, from_tensors, lf_criterion,
                         lf_variances, oriented_margin, special_lakin_frame,
                         spin_matrices, spin_scale_rank1, variance)
from spinsqueeze.errors import AngularMomentumError, UnphysicalStateError
from spinsqueeze.frames import rotation_matrix

TABLE1_S1 = TensorParams(1, {(1, 0): 0.9, (2, 0): 0.5, (2, 2): 0.45, (2, -2): 0.45})


def stretched(twice_s: int) -> SpinDensity:
    n = twice_s + 1
    mat = np.zeros((n, n), dtype=complex)
    mat[0, 0] = 1.0
    return SpinDensity(HalfInt(twice_s), mat)


def test_coherent_state_sits_on_the_boundary():
    for ts in (1, 2, 3, 4):
        rep = analyze(stretched(ts))
        s = ts / 2
        assert rep.min_variance == pytest.approx(s / 2, abs=1e-12)
        assert rep.sz_half == pytest.approx(s / 2, abs=1e-12)
        assert abs(rep.q_margin) < 1e-12
        assert not rep.squeezed
        assert rep.xi == pytest.approx(1.0, abs=1e-12)


def test_table_row_squeezed_along_y():
    rep = analyze(from_tensors(TABLE1_S1))
    assert rep.squeezed
    assert rep.phi_min == pytest.approx(math.pi / 2)
    assert rep.min_variance == pytest.approx(0.289008, abs=1e-6)
    assert rep.variance_x0 == pytest.approx(0.808623, abs=1e-6)
    assert rep.sz_half == pytest.approx(0.367423, abs=1e-6)
    assert rep.q_margin == pytest.approx(0.367423 - 0.289008, abs=1e-6)


def test_unpolarized_state_reports_reason():
    rep = analyze(SpinDensity(1, np.eye(3) / 3))
    assert not rep.squeezed
    assert rep.reason == "no vector polarization"
    assert rep.sz_half == 0.0


def test_non_psd_input_rejected():
    with pytest.raises(UnphysicalStateError) as exc:
        analyze(from_tensors(TensorParams(1, {(1, 0): 2.0})))
    assert exc.value.eigenvalues is not None


def test_report_variance_curve_endpoints():
    rep = analyze(from_tensors(TABLE1_S1))
    assert rep.variance_at(0.0) == pytest.approx(rep.variance_x0, abs=1e-15)
    assert rep.variance_at(math.pi / 2) == pytest.approx(rep.variance_y0, abs=1e-14)
    d = rep.as_dict(phi_points=5)
    assert len(d["variance_curve"]) == 5
    assert d["squeezed"] is True


def test_closed_forms_match_matrix_route(rng):
    # variances along the report's own frame axes, from matrix arithmetic
    for ts in (2, 3, 4):
        for _ in range(15):
            rho = random_density(rng, ts)
            rep = analyze(rho)
            if rep.reason is not None:
                continue
            r = rotation_matrix(rep.frame)
            assert variance(rho, r[:, 0]) == pytest.approx(rep.variance_x0, abs=1e-10)
            assert variance(rho, r[:, 1]) == pytest.approx(rep.variance_y0, abs=1e-10)
            # the frame's z-axis is the mean spin direction
            assert np.abs(np.cross(rep.mean_spin, r[:, 2])).max() < 1e-10


# ---------------------------------------------------------------------------
# lf_criterion
# ---------------------------------------------------------------------------

def test_lf_criterion_table_row_both_azimuths():
    # spin 3/2 row (t2_0, t2_2, t1_0) = (0.7, 0.5, 1.06)
    m_y = lf_criterion("3/2", 1.06, 0.7, 0.5, math.pi / 2)
    m_x = lf_criterion("3/2", 1.06, 0.7, 0.5, 0.0)
    assert m_y > 0
    assert m_x < 0
    vx, vy, szh = lf_variances("3/2", 1.06, 0.7, 0.5)
    scale = spin_scale_rank1("3/2") ** 2   # 3/(s(s+1))
    assert m_y == pytest.approx((szh - vy) / scale, abs=1e-12)
    assert m_x == pytest.approx((szh - vx) / scale, abs=1e-12)


def test_lf_criterion_pure_vector_polarization_never_squeezes():
    # t^2 = 0: margin = f1 |t1_0|/2 - 1 <= 0 at the extremal spin-1 value
    extremal = math.sqrt(1.5)
    assert lf_criterion(1, extremal, 0.0, 0.0, 0.0) == pytest.approx(-0.25, abs=1e-12)
    assert lf_criterion(1, 0.9, 0.0, 0.0, 1.0) < 0


def test_lf_criterion_rejects_low_spin():
    with pytest.raises(AngularMomentumError):
        lf_criterion("1/2", 1.0, 0.0, 0.0, 0.0)


def test_lf_criterion_consistent_with_analyze(rng):
    scale_free = lambda s: spin_scale_rank1(s) ** 2
    for ts in (2, 3):
        for _ in range(20):
            rho = random_density(rng, ts)
            rep = analyze(rho)
            if rep.reason is not None:
                continue
            from spinsqueeze import special_lakin_frame
            params = special_lakin_frame(rho).params
            margin = lf_criterion(HalfInt(ts), params.get(1, 0).real,
                                  params.get(2, 0).real, params.get(2, 2).real,
                                  rep.phi_min)
            assert margin * scale_free(HalfInt(ts)) == pytest.approx(
                rep.q_margin, abs=1e-10)


# ---------------------------------------------------------------------------
# oriented states
# ---------------------------------------------------------------------------

def test_oriented_margin_boundary_cases():
    assert oriented_margin("1/2", [1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert oriented_margin(1, [1.0, 0.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert oriented_margin(1, [1 / 3] * 3) < 0


def test_oriented_margin_validation():
    with pytest.raises(ValueError):
        oriented_margin(1, [0.5, 0.5])            # wrong length
    with pytest.raises(ValueError):
        oriented_margin(1, [0.7, 0.4, -0.1])      # negative
    with pytest.raises(ValueError):
        oriented_margin(1, [0.7, 0.1, 0.1])       # not normalized


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_oriented_margin_rejects_non_finite_populations(bad):
    # NaN fails both the sign and the sum comparison without raising
    with pytest.raises(ValueError, match="finite"):
        oriented_margin(1, [bad, 0.5, 0.5])


def test_oriented_margin_never_positive(rng):
    for ts in (1, 2, 3, 4, 5):
        n = ts + 1
        for _ in range(2000):
            p = rng.dirichlet(np.ones(n))
            assert oriented_margin(HalfInt(ts), p) <= 1e-12


def test_oriented_states_never_squeezed(rng):
    for ts in (1, 2, 3, 4):
        for _ in range(100):
            rho, _, _ = random_oriented(rng, ts)
            assert not analyze(rho).squeezed


def test_spin_half_never_squeezed(rng):
    for _ in range(200):
        assert not analyze(random_density(rng, 1)).squeezed


def test_verdict_frame_independent(rng):
    base = from_tensors(TABLE1_S1)
    rep0 = analyze(base)
    for _ in range(20):
        rep = analyze(rotate_state(rng, base))
        assert rep.squeezed == rep0.squeezed
        assert rep.q_margin == pytest.approx(rep0.q_margin, abs=1e-10)
        assert rep.min_variance == pytest.approx(rep0.min_variance, abs=1e-10)
    mixed = random_density(rng, 4)
    rep0 = analyze(mixed)
    for _ in range(10):
        rep = analyze(rotate_state(rng, mixed))
        assert rep.squeezed == rep0.squeezed
        assert rep.q_margin == pytest.approx(rep0.q_margin, abs=1e-10)


def spin_matrix_oracle(rho: SpinDensity) -> tuple[np.ndarray, np.ndarray]:
    """<S>, and the ascending eigenvalues of the covariance of S along two
    axes normal to <S>: every entry a trace of rho times spin matrices."""
    spins = spin_matrices(rho.spin)
    m = rho.matrix / np.trace(rho.matrix).real

    def mean(op):
        return float(np.trace(m @ op).real)

    vec = np.array([mean(sa) for sa in spins])
    n = vec / np.linalg.norm(vec)
    e1 = np.cross(n, np.eye(3)[int(np.argmin(np.abs(n)))])
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(n, e1)
    a = sum(c * sa for c, sa in zip(e1, spins))
    b = sum(c * sa for c, sa in zip(e2, spins))
    ma, mb = mean(a), mean(b)
    cab = mean((a @ b + b @ a) / 2) - ma * mb
    cov = np.array([[mean(a @ a) - ma * ma, cab], [cab, mean(b @ b) - mb * mb]])
    return vec, np.linalg.eigvalsh(cov)


def q_margin_oracle(rho: SpinDensity) -> float:
    """|<S>|/2 minus the least transverse variance, from spin matrices."""
    vec, principal = spin_matrix_oracle(rho)
    return float(np.linalg.norm(vec)) / 2 - float(principal[0])


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 6, 12, 20]),
       st.sampled_from(["pure", "mixed", "oriented"]),
       st.integers(0, 2**32 - 1))
def test_q_margin_matches_spin_matrix_oracle(ts, kind, seed):
    """s in {1, 3/2, 3, 6, 10}: q_margin against the covariance oracle, and
    the reported frame is the special Lakin frame's rotation."""
    rng = np.random.default_rng(seed)
    if kind == "oriented":
        rho = random_oriented(rng, ts)[0]
    else:
        rho = random_density(rng, ts, pure=kind == "pure")
    rep = analyze(rho)
    assert rep.q_margin == pytest.approx(q_margin_oracle(rho), abs=1e-9)
    assert rep.frame == special_lakin_frame(rho).rotation


def _state(rng, ts: int, kind: str) -> SpinDensity:
    if kind == "oriented":
        return random_oriented(rng, ts)[0]
    return random_density(rng, ts, pure=kind == "pure")


@settings(max_examples=60)
@given(st.sampled_from([1, 2, 3, 6, 20]),
       st.sampled_from(["pure", "mixed", "oriented"]),
       st.integers(0, 2**32 - 1))
def test_moment_route_matches_paper_closed_forms(ts, kind, seed):
    """The variances from the spin covariance equal the paper's closed
    forms (lf_variances) of the special Lakin frame's t^1_0, t^2_0 and
    t^2_2."""
    rho = _state(np.random.default_rng(seed), ts, kind)
    rep = analyze(rho)
    t = special_lakin_frame(rho).params
    vx, vy, sz_half = lf_variances(HalfInt(ts), t.get(1, 0).real,
                                   t.get(2, 0).real, t.get(2, 2).real)
    s = ts / 2
    tol = 1e-12 * max(1.0, s * (s + 1))
    assert rep.variance_x0 == pytest.approx(vx, abs=tol)
    assert rep.variance_y0 == pytest.approx(vy, abs=tol)
    assert rep.sz_half == pytest.approx(sz_half, abs=tol)
    if abs(vx - vy) > 1e-10:    # rounding decides ties on either route
        assert rep.phi_min == (0.0 if vx <= vy else 0.5 * math.pi)


@settings(max_examples=120)
@given(st.integers(1, 20),
       st.sampled_from(["pure", "mixed", "oriented"]),
       st.integers(0, 2**32 - 1))
def test_report_numbers_match_spin_matrix_oracle(ts, kind, seed):
    """s <= 10: every number of the report against spin-matrix traces. The
    two variances are the principal values of the transverse covariance;
    the frame's z axis is <S>, and its x axis is an eigenvector of the
    covariance in the plane normal to <S>, with the variance_x0 eigenvalue."""
    rho = _state(np.random.default_rng(seed), ts, kind)
    rep = analyze(rho)
    vec, principal = spin_matrix_oracle(rho)
    norm = float(np.linalg.norm(vec))
    s = ts / 2
    tol = 1e-12 * s * (s + 1)
    assert rep.reason is None
    assert sorted([rep.variance_x0, rep.variance_y0]) == pytest.approx(principal, abs=tol)
    assert rep.min_variance == pytest.approx(principal[0], abs=tol)
    assert rep.q_margin == pytest.approx(norm / 2 - principal[0], abs=tol)
    assert rep.sz_half == pytest.approx(norm / 2, abs=tol)
    assert rep.xi == pytest.approx(math.sqrt(2 * s * principal[0]) / norm, abs=tol)
    assert rep.mean_spin == pytest.approx(vec / norm, abs=tol)
    r = rotation_matrix(rep.frame)
    assert r[:, 2] == pytest.approx(vec / norm, abs=tol)
    # S along the frame's x and y axes, from the spin matrices
    spins = spin_matrices(rho.spin)
    sx0, sy0 = (sum(c * sa for c, sa in zip(r[:, i], spins)) for i in (0, 1))
    m = rho.matrix / np.trace(rho.matrix).real

    def cov(a, b):
        return float(np.trace(m @ (a @ b + b @ a)).real) / 2 \
            - float(np.trace(m @ a).real) * float(np.trace(m @ b).real)

    assert cov(sx0, sx0) == pytest.approx(rep.variance_x0, abs=tol)
    assert cov(sy0, sy0) == pytest.approx(rep.variance_y0, abs=tol)
    assert cov(sx0, sy0) == pytest.approx(0.0, abs=tol)


def _unreachable(*args, **kwargs):
    pytest.fail("analyze() reached the tensor-parameter route")


@pytest.mark.parametrize("ts", [1, 2, 3, 6, 20])
@pytest.mark.parametrize("polarized", [True, False])
def test_analyze_needs_no_tensor_route(monkeypatch, rng, ts, polarized):
    n = ts + 1
    rho = (random_density(rng, ts) if polarized
           else SpinDensity(HalfInt(ts), np.eye(n) / n))
    for module, name in [(frames, "to_tensors"), (density, "to_tensors"),
                         (density, "_tau_stack"), (frames, "wigner_d_matrix"),
                         (angular, "wigner_d_matrix"), (squeezing, "lf_variances")]:
        monkeypatch.setattr(module, name, _unreachable)
    rep = analyze(rho)
    assert rep.reason == (None if polarized else "no vector polarization")


@settings(max_examples=120)
@given(st.one_of(st.tuples(st.just(1), st.sampled_from(["mixed", "pure"])),
                 st.tuples(st.integers(1, 40), st.just("oriented"))),
       st.integers(0, 2**32 - 1))
def test_isotropic_transverse_covariance_gives_phi_min_zero(case, seed):
    """Spin-1/2 and oriented states have a transverse covariance that is
    isotropic up to rounding, so gamma stays 0 and phi_min is 0, however
    the rounding orders variance_x0 and variance_y0."""
    ts, kind = case
    rep = analyze(_state(np.random.default_rng(seed), ts, kind))
    assert rep.reason is None
    assert rep.frame.gamma == 0.0
    assert rep.phi_min == 0.0


# the smallest eigenvalue of the trace-1 matrix, around -PSD_TOL = -1e-10
PSD_BAND = [-1e-9, -1.0001e-10, -1e-10, -0.9999e-10, -0.99e-10, -1e-12, 0.0]


@settings(max_examples=250)
@given(st.integers(1, 40), st.sampled_from(PSD_BAND), st.floats(0.3, 3.0),
       st.integers(0, 2**32 - 1))
def test_analyze_rejects_exactly_where_check_positivity_does(ts, lam, trace, seed):
    """Random unitary times a spectrum with the given smallest eigenvalue:
    analyze() raises exactly where check_positivity finds the state not
    PSD, with check_positivity's eigenvalues."""
    rng = np.random.default_rng(seed)
    n = ts + 1
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    spectrum = np.concatenate([[lam], (1.0 - lam) * rng.dirichlet(np.ones(n - 1))])
    m = (u * spectrum) @ u.conj().T
    _assert_analyze_rejects_where_check_positivity_does(
        SpinDensity(HalfInt(ts), (m + m.conj().T) / 2.0 * trace))


@pytest.mark.parametrize("size", [1e150, 1e160, 1e200])
def test_analyze_rejects_overflowing_states_where_check_positivity_does(size):
    """t^1_1 = (1 + i) size: the normalized matrix is finite, but from
    about 1e154 on the squares of its entries overflow in the Cholesky
    factorization, which then returns NaN pivots instead of raising."""
    _assert_analyze_rejects_where_check_positivity_does(
        from_tensors(TensorParams(1, {(1, 1): (1 + 1j) * size})))


def _assert_analyze_rejects_where_check_positivity_does(rho):
    pos = check_positivity(rho)
    if pos.psd:
        analyze(rho)
    else:
        with pytest.raises(UnphysicalStateError) as err:
            analyze(rho)
        assert np.array_equal(err.value.eigenvalues, pos.eigenvalues)


@pytest.mark.parametrize("ts", [2, 20])
def test_physical_state_is_certified_without_eigenvalues(monkeypatch, rng, ts):
    """analyze() of a physical mixed state calls no eigvalsh; an
    unphysical one calls it once, for the error's eigenvalues. The
    package's one route to eigvalsh is _lapack's."""
    calls = count_calls(monkeypatch, _lapack, "eigvalsh")
    analyze(random_density(rng, ts))
    assert calls == []
    n = ts + 1
    with pytest.raises(UnphysicalStateError):
        analyze(SpinDensity(HalfInt(ts), np.diag([-0.1] + [1.1 / (n - 1)] * (n - 1))))
    assert calls == ["eigvalsh"]


@st.composite
def _oriented_states(draw):
    """A state diagonal in the |s m> basis along some axis: populations
    m = s..-s (integer weights, so no subnormal junk) and an axis."""
    ts = draw(st.integers(1, 20))
    weights = draw(st.lists(st.integers(0, 1000), min_size=ts + 1,
                            max_size=ts + 1).filter(any))
    theta = draw(st.floats(0.0, math.pi))
    phi = draw(st.floats(0.0, 2.0 * math.pi))
    u = angular.wigner_d_matrix(HalfInt(ts), EulerAngles(phi, theta, 0.0))
    p = np.array(weights, dtype=float) / sum(weights)
    return SpinDensity(HalfInt(ts), u @ np.diag(p) @ u.conj().T)


@settings(max_examples=150)
@given(_oriented_states())
def test_no_go_theorems_property(rho):
    """Oriented states are never squeezed. Every spin-1/2 state is
    oriented along its Bloch vector, so spin 1/2 is never squeezed; it has
    no rank 2, so its frame has gamma = 0."""
    rep = analyze(rho)
    assert not rep.squeezed
    if rho.spin.twice == 1:
        assert rep.frame.gamma == 0.0
