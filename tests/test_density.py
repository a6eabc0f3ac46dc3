"""Density matrix <-> tensor parameter conversions and state diagnostics."""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (count_calls, random_density, random_hermitian_state,
                      random_oriented, readme_example)
from orientation_oracle import classify_orientation_svd
from purity_oracle import purity_residual_tensor_form
import spinsqueeze
from spinsqueeze import angular, density, tensor_ops
from spinsqueeze import (EulerAngles, HalfInt, SpinDensity, TensorParams,
                         check_positivity, classify_orientation, from_tensors,
                         polarization, purity_residual, rotate_tensors,
                         spin_scale_rank1, spin_scale_rank2, state_from_dict,
                         state_to_dict, tensor_params_from_dict, to_tensors,
                         variance)
from spinsqueeze.density import (HERMITICITY_TOL, _canonical_sign,
                                 _unit_trace_matrix)
from spinsqueeze.errors import (AngularMomentumError, HermiticityError,
                                SchemaError, UnphysicalStateError)
from spinsqueeze.frames import paaf, special_lakin_frame
from spinsqueeze.tensor_ops import build_tau, spin_matrices

TABLE1_S1_ROW = {(1, 0): 0.9, (2, 0): 0.5, (2, 2): 0.45, (2, -2): 0.45}


def pure_projector(twice_s: int, index: int = 0) -> SpinDensity:
    n = twice_s + 1
    mat = np.zeros((n, n), dtype=complex)
    mat[index, index] = 1.0
    return SpinDensity(HalfInt(twice_s), mat)


# ---------------------------------------------------------------------------
# from_tensors / to_tensors
# ---------------------------------------------------------------------------

def test_unpolarized_is_maximally_mixed():
    for ts in (1, 2, 3):
        rho = from_tensors(TensorParams(HalfInt(ts), {}))
        assert np.abs(rho.matrix - np.eye(ts + 1) / (ts + 1)).max() < 1e-15


def test_spin_half_full_polarization():
    rho = from_tensors(TensorParams("1/2", {(1, 0): 1.0}))
    assert np.abs(rho.matrix - np.diag([1.0, 0.0])).max() < 1e-15


def test_table_row_variances_via_matrix_route():
    rho = from_tensors(TensorParams(1, TABLE1_S1_ROW))
    assert variance(rho, (1, 0, 0)) == pytest.approx(0.808623, abs=1e-6)
    assert variance(rho, (0, 1, 0)) == pytest.approx(0.289008, abs=1e-6)


def test_hermiticity_violation_reports_entry():
    # both partners are given, so there is nothing to fill and the
    # contradiction stands
    with pytest.raises(HermiticityError) as exc:
        TensorParams(1, {(1, 1): 0.5 + 0.1j, (1, -1): 0.5 + 0.1j})
    assert str(exc.value).endswith("at (k, q) = (1, -1), (1, 1)")


@pytest.mark.parametrize("ts", [1, 2, 3, 20, 40])
def test_states_within_the_hermiticity_tolerance_have_tensors(ts):
    """A matrix whose anti-Hermitian defect is within HERMITICITY_TOL is a
    state, and SpinDensity keeps its Hermitian part, exactly Hermitian, so
    to_tensors and the frames and bounds built on it accept it too. An
    exactly Hermitian matrix keeps its bits."""
    rng = np.random.default_rng([ts, 26])
    n = ts + 1
    for _ in range(10):
        m = random_density(rng, ts).matrix
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        skew = g - g.conj().T
        # the largest entry of m - m^H is 0.98 HERMITICITY_TOL
        noisy = m + skew * (0.49 * HERMITICITY_TOL / np.abs(skew).max())
        state = SpinDensity(HalfInt(ts), noisy)
        assert np.array_equal(state.matrix, state.matrix.conj().T)
        assert np.abs(state.matrix - m).max() <= HERMITICITY_TOL
        to_tensors(state)
        special_lakin_frame(state)
        if ts >= 2:
            paaf(state)
        if ts == 2:
            assert len(check_positivity(state).spin1_bounds) > 0
        assert SpinDensity(HalfInt(ts), m).matrix.tobytes() == m.tobytes()


def test_pairing_tolerance_scales_with_the_largest_tensor():
    """At 2s = 40, an exactly Hermitian matrix whose trace-1 entries reach
    about 1e3 has tensors: their pairing defect is rounding, about 4e-16
    of the largest t^k_q but above 1e-12 in absolute terms. A real
    contradiction of 1e-9 at |t| of about 1 is still rejected."""
    rng = np.random.default_rng(40)
    n = 41
    for _ in range(10):
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        h = (g + g.conj().T) / 2
        h -= np.eye(n) * (np.trace(h).real / n)
        state = SpinDensity(HalfInt(40), h * 1e3 + np.eye(n) / n)
        assert np.abs(state.normalized_matrix()).max() > 1e3
        back = from_tensors(to_tensors(state)).matrix
        assert np.abs(back - state.matrix).max() < 1e-9
    with pytest.raises(HermiticityError):
        TensorParams(1, {(1, 1): 0.5, (1, -1): -0.5 + 1e-9})


def test_hermitian_part_of_a_huge_matrix_does_not_overflow():
    big = np.finfo(float).max * 0.95
    m = np.array([[big, big], [big * (1.0 - 1e-13), 1.0]], dtype=complex)
    state = SpinDensity("1/2", m)
    assert np.isfinite(state.matrix).all()
    assert np.array_equal(state.matrix, state.matrix.conj().T)


def test_readme_library_example_fills_the_omitted_partner(capsys):
    """The README's library example runs with warnings as errors; its
    mapping omits t^2_-2, which is filled in from t^2_2."""
    example = readme_example("## Library example", "python")
    exec(compile(example, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("True ")
    partial = TensorParams(1, {(1, 0): 0.9, (2, 0): 0.5, (2, 2): 0.45})
    assert np.array_equal(partial.vector, TensorParams(1, TABLE1_S1_ROW).vector)


def test_vector_and_mapping_construction_agree(rng):
    t = to_tensors(random_density(rng, 3))
    from_map = TensorParams("3/2", dict(t.items()), trace=t.trace)
    from_vec = TensorParams("3/2", t.vector, trace=t.trace)
    assert np.array_equal(from_map.vector, t.vector)
    assert np.array_equal(from_vec.vector, t.vector)
    assert from_vec.vector[0] == 1.0
    assert not from_vec.vector.flags.writeable
    with pytest.raises(ValueError, match="shape"):
        TensorParams("3/2", t.vector[:-1])


def test_items_list_every_entry_in_stack_order():
    t = TensorParams(1, {(2, 1): 0.2 + 0.1j})
    keys = [(1, -1), (1, 0), (1, 1),
            (2, -2), (2, -1), (2, 0), (2, 1), (2, 2)]
    assert [kq for kq, _ in t.items()] == keys
    assert dict(t.items()) == {**dict.fromkeys(keys, 0j),
                               (2, 1): 0.2 + 0.1j, (2, -1): -0.2 + 0.1j}
    assert [t.get(k, q) for k, q in keys] == [v for _, v in t.items()]


@pytest.mark.parametrize("k, q", [(3, 0), (5, 1), (1, 2), (2, -3), (-1, 0)])
def test_get_outside_the_allowed_range_is_zero(k, q):
    assert TensorParams(1, TABLE1_S1_ROW).get(k, q) == 0


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.1, -math.inf)])
def test_non_finite_tensor_parameter_rejected(value):
    with pytest.raises(ValueError, match=r"non-finite .* \(2, 1\)$"):
        TensorParams(1, {(1, 0): 0.5, (2, 1): value})
    vec = np.zeros(9, dtype=complex)
    vec[7] = value
    with pytest.raises(ValueError, match=r"\(2, 1\)$"):
        TensorParams(1, vec)


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.1, -math.inf)])
def test_non_finite_and_unpaired_vector_reports_the_non_finite_entry(value):
    """Finiteness is tested before the pairing: a vector whose t^1_1 and
    t^1_-1 contradict each other and whose t^2_1 is not finite is
    reported for its non-finite entry, with no warning on the way."""
    vec = np.zeros(9, dtype=complex)
    vec[1], vec[3], vec[7] = 0.5, 0.5, value
    with pytest.raises(ValueError, match=r"^non-finite .* \(2, 1\)$"):
        TensorParams(1, vec)


@pytest.mark.parametrize("key", [(1.9, 0.2), (True, False), (1, False),
                                 ("1", "0"), (1, "0"), (2, 0.5), (math.nan, 0)])
def test_tensor_indices_must_be_integral(key):
    """A mapping key (k, q) is two integral numbers: a bool, a string or a
    non-integral float is rejected, never rounded, as in the schema."""
    with pytest.raises(AngularMomentumError, match="must be integers"):
        TensorParams(1, {key: 0.1})


def test_integral_float_and_numpy_indices_are_ranks():
    want = TensorParams(1, {(1, 0): 0.1}).vector
    assert np.array_equal(TensorParams(1, {(1.0, 0.0): 0.1}).vector, want)
    assert np.array_equal(TensorParams(1, {(np.int64(1), np.int8(0)): 0.1}).vector, want)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_density_matrix_rejected(value):
    with pytest.raises(ValueError, match="non-finite"):
        SpinDensity(1, np.full((3, 3), value))


def test_trace_too_small_to_normalize_by_is_rejected():
    # numpy divides by way of 1/trace, which overflows below about 5.6e-309;
    # the suite runs with warnings as errors, so a RuntimeWarning fails here
    with pytest.raises(ValueError, match="divided by its trace"):
        SpinDensity(1, np.eye(3) * 1e-310)


def test_normalized_matrix_is_computed_once_and_read_only(rng):
    state = random_density(rng, 4, trace=0.37)
    unit = state.normalized_matrix()
    assert unit is state.normalized_matrix()
    assert not unit.flags.writeable
    assert unit.tobytes() == (state.matrix / state.trace).tobytes()


@pytest.mark.parametrize("scale", [spin_scale_rank1, spin_scale_rank2])
def test_spin_scales_reject_a_negative_spin(scale):
    with pytest.raises(AngularMomentumError, match="s = -2 must be non-negative"):
        scale(-2)


def test_rank_out_of_range():
    with pytest.raises(AngularMomentumError):
        TensorParams("1/2", {(2, 0): 0.1})


def _tensor_sum_oracle(t: TensorParams) -> np.ndarray:
    """(Tr rho / (2s+1)) sum_kq (-1)^q t^k_{-q} T^k_q, one term at a time."""
    n = t.spin.twice + 1
    mat = np.zeros((n, n), dtype=complex)
    for k in range(t.max_rank + 1):
        for q in range(-k, k + 1):
            mat += (-1) ** q * t.get(k, -q) * build_tau(t.spin, k, q)
    return mat * t.trace / n


@given(st.integers(1, 6), st.sampled_from(["pure", "mixed", "hermitian"]),
       st.floats(0.05, 20.0), st.integers(0, 2**32 - 1))
def test_round_trip_equals_tensor_sum_oracle(ts, kind, trace, seed):
    rng = np.random.default_rng(seed)
    if kind == "hermitian":
        rho = random_hermitian_state(rng, ts)
    else:
        rho = random_density(rng, ts, pure=kind == "pure", trace=trace)
    t = to_tensors(rho)
    got = from_tensors(t).matrix
    scale = max(1.0, float(np.abs(rho.matrix).max()))
    assert np.abs(got - _tensor_sum_oracle(t)).max() < 1e-12 * scale
    assert np.abs(got - rho.matrix).max() < 1e-12 * scale


# One T^k_q stack at a time: the cache of tensor_ops would keep all 40,
# about 370 MB
_ONE_STACK = lru_cache(maxsize=1)(tensor_ops._tau_stack.__wrapped__)


@pytest.mark.parametrize("ts", range(1, 41))
def test_to_tensors_is_paired_by_construction(monkeypatch, ts):
    """At every 2s <= 40, on mixed, pure and oriented states of any trace:
    t^0_0 = 1 and the other t^k_q with q >= 0 are Tr(rho T^k_q) / Tr(rho)
    from the stack product, bit for bit; conj(t^k_q) = (-1)^q t^k_{-q}
    exactly (a zero's sign aside); and the public constructor takes the
    vector back with the same bits."""
    monkeypatch.setattr(density, "_tau_stack", _ONE_STACK)
    _, partner, sign, negative = tensor_ops._stack_order(ts)
    # t^0_0 is set to 1, not projected
    computed = np.setdiff1d(np.arange(1, (ts + 1) ** 2), negative)

    @settings(max_examples=6)
    @given(st.sampled_from(["mixed", "pure", "oriented"]),
           st.integers(0, 2**32 - 1), st.sampled_from([1.0, 1e-3, 7.5]))
    def check(kind, seed, trace):
        rng = np.random.default_rng(seed)
        if kind == "oriented":
            rho = random_oriented(rng, ts)[0]
            rho = SpinDensity(HalfInt(ts), rho.matrix * trace)
        else:
            rho = random_density(rng, ts, pure=kind == "pure", trace=trace)
        t = to_tensors(rho)
        vec = t.vector
        projected = _ONE_STACK(ts) @ rho.matrix.ravel() / rho.trace
        assert vec[0] == 1.0
        assert vec[computed].tobytes() == projected[computed].tobytes()
        assert np.array_equal(vec.conj(), sign * vec[partner])
        again = TensorParams(HalfInt(ts), vec, trace=t.trace)
        assert again.vector.tobytes() == vec.tobytes()

    check()


def test_to_tensors_names_the_entries_a_projection_overflows():
    """Entries of about 1.6e308 are a valid matrix, but t^1_{+-1} =
    -+sqrt(2) rho_{+-}: the projection overflows there, and the error
    names those (k, q)."""
    big = np.finfo(float).max * 0.9
    rho = SpinDensity("1/2", np.array([[0.5, big], [big, 0.5]], dtype=complex))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            ValueError, match=r"^non-finite tensor parameter at \(k, q\) = \(1, -1\), \(1, 1\)$"):
        to_tensors(rho)


def test_to_tensors_of_maximally_mixed_vanishes():
    for ts in (1, 2, 3):
        t = to_tensors(SpinDensity(HalfInt(ts), np.eye(ts + 1) / (ts + 1)))
        assert all(abs(v) < 1e-15 for _, v in t.items())


def test_to_tensors_of_stretched_state():
    t = to_tensors(pure_projector(2))      # |1 1><1 1|
    assert t.get(1, 0).real == pytest.approx(math.sqrt(1.5), abs=1e-15)
    assert t.get(2, 0).real == pytest.approx(1 / math.sqrt(2), abs=1e-15)


def test_round_trip_random_hermitian(rng):
    for ts in (1, 2, 3, 4, 5, 6):
        for _ in range(20):
            rho = random_hermitian_state(rng, ts)
            back = from_tensors(to_tensors(rho))
            assert np.abs(back.matrix - rho.matrix).max() < 1e-12 * rho.trace


def test_round_trip_preserves_unnormalized_trace(rng):
    rho = random_density(rng, 2, trace=3.7)
    t = to_tensors(rho)
    assert t.trace == pytest.approx(3.7, abs=1e-12)
    assert np.abs(from_tensors(t).matrix - rho.matrix).max() < 1e-12


# ---------------------------------------------------------------------------
# polarization / variance
# ---------------------------------------------------------------------------

def test_polarization_values():
    assert np.abs(polarization(from_tensors(TensorParams(1, {})))).max() < 1e-15
    p = polarization(pure_projector(2))
    assert np.abs(p - [0, 0, 1]).max() < 1e-15
    rho = from_tensors(TensorParams("1/2", {(1, 0): 0.8}))
    assert np.abs(polarization(rho) - [0, 0, 0.4]).max() < 1e-15


def test_coherent_state_transverse_variance():
    for ts in (1, 2, 3, 4):
        rho = pure_projector(ts)           # |s s>
        s = ts / 2
        for d in ((1, 0, 0), (0, 1, 0), (0.6, 0.8, 0)):
            assert variance(rho, d) == pytest.approx(s / 2, abs=1e-12)


def test_maximally_mixed_spin_half_isotropic(rng):
    rho = SpinDensity("1/2", np.eye(2) / 2)
    for _ in range(10):
        d = rng.normal(size=3)
        assert variance(rho, d) == pytest.approx(0.25, abs=1e-15)


@pytest.mark.parametrize("direction", [(math.nan, 0.0, 1.0), (0.0, math.inf, 0.0),
                                       (1.0, 0.0), (0.0, 0.0, 0.0)])
def test_variance_rejects_bad_direction(direction):
    rho = SpinDensity(1, np.eye(3) / 3)
    with pytest.raises(ValueError, match="direction"):
        variance(rho, direction)


def _variances_from_tensors(t: TensorParams):
    """Cartesian variances from the closed forms (general frame)."""
    c1sq = spin_scale_rank1(t.spin) ** 2
    c2 = spin_scale_rank2(t.spin)
    t20 = t.get(2, 0)
    t2p2 = t.get(2, 2) + t.get(2, -2)
    t10 = t.get(1, 0)
    t11, t1m1 = t.get(1, 1), t.get(1, -1)
    sx2 = c1sq - c2 / math.sqrt(6) * t20 + 0.5 * c2 * t2p2
    sy2 = c1sq - c2 / math.sqrt(6) * t20 - 0.5 * c2 * t2p2
    sz2 = c1sq + c2 * math.sqrt(2 / 3) * t20
    px = (t1m1 - t11) / math.sqrt(2) * spin_scale_rank1(t.spin)
    py = 1j * (t11 + t1m1) / math.sqrt(2) * spin_scale_rank1(t.spin)
    pz = t10 * spin_scale_rank1(t.spin)
    return ((sx2 - px ** 2).real, (sy2 - py ** 2).real, (sz2 - pz ** 2).real)


def test_variance_closed_forms_match_matrix_route(rng):
    for ts in (1, 2, 3, 4, 5, 6):
        for _ in range(20):
            rho = random_density(rng, ts)
            t = to_tensors(rho)
            vx, vy, vz = _variances_from_tensors(t)
            assert variance(rho, (1, 0, 0)) == pytest.approx(vx, abs=1e-12)
            assert variance(rho, (0, 1, 0)) == pytest.approx(vy, abs=1e-12)
            assert variance(rho, (0, 0, 1)) == pytest.approx(vz, abs=1e-12)


# ---------------------------------------------------------------------------
# positivity
# ---------------------------------------------------------------------------

def test_maximally_mixed_spin1_saturates_determinant():
    rep = check_positivity(SpinDensity(1, np.eye(3) / 3))
    assert rep.psd
    det = [b for b in rep.spin1_bounds if b.name == "determinant"][0]
    assert det.value == pytest.approx(1 / 27, abs=1e-15)
    assert det.satisfied


def test_overpolarized_spin1_is_not_psd():
    rho = from_tensors(TensorParams(1, {(1, 0): 2.0}))
    rep = check_positivity(rho)
    assert not rep.psd
    assert rep.min_eigenvalue < -0.1
    assert not all(b.satisfied for b in rep.spin1_bounds)


def test_table1_spin1_rows_are_physical():
    rows = [(0.7, 0.65, 0.8), (0.5, 0.45, 0.9), (0.4, 0.65, 0.5), (0.3, 0.49, 0.7)]
    for t20, t22, t10 in rows:
        rho = from_tensors(TensorParams(
            1, {(1, 0): t10, (2, 0): t20, (2, 2): t22}))
        rep = check_positivity(rho)
        assert rep.psd, (t20, t22, t10)
        assert all(b.satisfied for b in rep.spin1_bounds)


def test_table1_spin32_rows_are_not_psd():
    # the tabulated spin-3/2 parameter sets violate positivity (recorded
    # finding; the variance formulas do not require a physical state)
    rows = [(0.9, 0.3, 1.25), (0.7, 0.5, 1.06), (0.61, 0.49, 0.99), (0.41, 0.63, 0.81)]
    for t20, t22, t10 in rows:
        rho = from_tensors(TensorParams(
            "3/2", {(1, 0): t10, (2, 0): t20, (2, 2): t22}))
        assert not check_positivity(rho).psd, (t20, t22, t10)


def test_spin1_bounds_absent_for_other_spins():
    assert check_positivity(pure_projector(1)).spin1_bounds is None
    assert check_positivity(pure_projector(3)).spin1_bounds is None


# ---------------------------------------------------------------------------
# purity constraint
# ---------------------------------------------------------------------------

def test_purity_residual_pure_stretched():
    assert purity_residual(to_tensors(pure_projector(2))) < 1e-10


def test_purity_residual_maximally_mixed():
    assert purity_residual(TensorParams(1, {})) > 0.1


def test_purity_residual_rotated_pure(rng):
    t = to_tensors(pure_projector(2))
    for _ in range(10):
        angles = EulerAngles(rng.uniform(0, 2 * np.pi), rng.uniform(0, np.pi),
                             rng.uniform(0, 2 * np.pi))
        assert purity_residual(rotate_tensors(t, angles)) < 1e-10


def test_purity_residual_random(rng):
    for ts in (1, 2, 3):
        for _ in range(10):
            pure = random_density(rng, ts, pure=True)
            assert purity_residual(to_tensors(pure)) < 1e-10
            mixed = random_density(rng, ts)
            lam = np.linalg.eigvalsh(mixed.normalized_matrix())
            if lam[0] > 0.05:
                assert purity_residual(to_tensors(mixed)) > 1e-3


@settings(max_examples=60)
@given(st.integers(1, 4), st.sampled_from(["pure", "mixed", "hermitian"]),
       st.floats(0.05, 20.0), st.integers(0, 2**32 - 1))
def test_purity_residual_equals_tensor_form_oracle(ts, kind, trace, seed):
    """The matrix route against the paper's tensor-form sum, s <= 2, on
    pure, mixed and non-PSD states of any positive trace."""
    rng = np.random.default_rng(seed)
    if kind == "hermitian":
        rho = random_hermitian_state(rng, ts)
    else:
        rho = random_density(rng, ts, pure=kind == "pure", trace=trace)
    t = to_tensors(rho)
    assert purity_residual(t) == pytest.approx(
        purity_residual_tensor_form(t), abs=1e-12)


def _spin1_state_with_t11(magnitude: float) -> TensorParams:
    return tensor_params_from_dict({"spin": "1", "tensors": [
        {"k": 1, "q": 1, "re": magnitude, "im": magnitude}]})


@pytest.mark.parametrize("magnitude", [1e160, 1e200])
def test_states_whose_products_overflow_are_unphysical(magnitude):
    """t^1_1 = (1 + i) magnitude at spin 1: rho^2 and the Gram product of
    the orientation test would overflow. No normalized entry of a
    physical state exceeds 1, so both raise UnphysicalStateError, and no
    RuntimeWarning is emitted (warnings are errors here)."""
    t = _spin1_state_with_t11(magnitude)
    with pytest.raises(UnphysicalStateError, match="not positive semi-definite"):
        purity_residual(t)
    with pytest.raises(UnphysicalStateError, match="not positive semi-definite"):
        classify_orientation(from_tensors(t))


@pytest.mark.parametrize("magnitude", [10.0, 1e20])
def test_unphysical_states_below_the_entry_limit_keep_their_reports(magnitude):
    """The entry limit rejects only states whose products could overflow:
    a state that is unphysical at a smaller scale still gets both reports."""
    t = _spin1_state_with_t11(magnitude)
    rho = from_tensors(t)
    assert not check_positivity(rho).psd
    assert math.isfinite(purity_residual(t))
    classify_orientation(rho)    # raises nothing


# ---------------------------------------------------------------------------
# orientation classification
# ---------------------------------------------------------------------------

def test_every_spin_half_state_is_oriented(rng):
    for _ in range(100):
        rep = classify_orientation(random_density(rng, 1))
        assert rep.oriented


@st.composite
def _oriented_case(draw):
    """(2s, a unit axis n, Dirichlet populations p), 2s = 1..40."""
    ts = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = rng.normal(size=3)
    return ts, n / np.linalg.norm(n), rng.dirichlet(np.ones(ts + 1))


@settings(deadline=None, max_examples=150)
@given(_oriented_case())
@example((2, np.array([0.0, 0.0, 1.0]), np.array([0.6, 0.3, 0.1])))
def test_oriented_states_give_their_axis_and_populations(case):
    """U diag(p) U^dagger, with U the |s m> states along n (m = s..-s), is
    oriented along n up to sign, with populations p, reversed when the
    sign flips."""
    ts, n, p = case
    spins = spin_matrices(HalfInt(ts))
    u = np.linalg.eigh(sum(c * sa for c, sa in zip(n, spins)))[1][:, ::-1]
    rep = classify_orientation(SpinDensity(HalfInt(ts), u @ np.diag(p) @ u.conj().T))
    assert rep.oriented
    axis = _canonical_sign(n)
    assert np.abs(rep.axis - axis).max() < 1e-12
    expected = p if np.array_equal(axis, n) else p[::-1]
    assert np.abs(rep.populations - expected).max() < 1e-12


@settings(deadline=None, max_examples=150)
@given(st.integers(2, 40), st.integers(0, 2**32 - 1))
def test_generic_rank2_states_are_not_oriented(ts, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(ts + 1, 2)) + 1j * rng.normal(size=(ts + 1, 2))
    rep = classify_orientation(SpinDensity(HalfInt(ts), g @ g.conj().T))
    assert not rep.oriented
    assert rep.axis is None and rep.populations is None


@st.composite
def _orientation_cases(draw):
    """Generic, pure, oriented and near-oriented states at 2s = 1..40; a
    near-oriented state is an oriented one plus eps times a Hermitian
    matrix with largest entry 1."""
    ts = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["generic", "pure", "oriented", "near-oriented"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("generic", "pure"):
        return random_density(rng, ts, pure=kind == "pure")
    rho = random_oriented(rng, ts)[0]
    if kind == "oriented":
        return rho
    eps = draw(st.sampled_from([1e-14, 1e-12, 1e-10, 1e-8, 1e-6]))
    n = ts + 1
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h = g + g.conj().T
    return SpinDensity(HalfInt(ts), rho.matrix + eps * h / np.abs(h).max())


def _report_bytes(rep):
    return (rep.oriented,
            None if rep.axis is None else rep.axis.tobytes(),
            None if rep.populations is None else rep.populations.tobytes())


@settings(deadline=None, max_examples=250)
@given(_orientation_cases())
def test_orientation_matches_svd_oracle_bitwise(rho):
    """The Gram certificates decide only where the SVD would decide the
    same: the flag and every non-oriented report are those of the
    SVD-only route, byte for byte. An oriented report's axis may come
    from the Gram matrix instead of the SVD; it and the populations along
    it agree with the SVD's to 1e-14."""
    got, want = classify_orientation(rho), classify_orientation_svd(rho)
    assert got.oriented == want.oriented
    if not got.oriented:
        assert _report_bytes(got) == _report_bytes(want)
        return
    assert np.abs(got.axis - want.axis).max() <= 1e-14
    assert np.abs(got.populations - want.populations).max() <= 1e-14


def _two_product_rows(mat, stack):
    """The real and imaginary parts of [rho, S_a] = rho S_a - S_a rho as
    two batched products, interleaved in row a."""
    return (mat @ stack - stack @ mat).reshape(3, -1).view(float)


def _two_product_report(rho):
    """classify_orientation with its commutators from _two_product_rows."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(density, "_commutator_rows", _two_product_rows)
        return classify_orientation(rho)


@settings(deadline=None, max_examples=250)
@given(_orientation_cases())
def test_orientation_equals_the_two_product_commutator_bitwise(rho):
    """classify_orientation takes its commutators from one product; its
    verdict, axis and populations are those it reaches from the two
    products, byte for byte. An axis has the sign _canonical_sign gives."""
    got = classify_orientation(rho)
    assert _report_bytes(got) == _report_bytes(_two_product_report(rho))
    if got.axis is not None:
        assert _canonical_sign(got.axis).tobytes() == got.axis.tobytes()


@pytest.mark.parametrize("ts", [1, 2, 3, 6, 20, 40])
def test_orientation_of_states_with_exact_zeros_equals_the_two_product_commutator(ts):
    """States whose commutators have exactly zero entries, where the two
    forms may differ in the sign of a zero: diagonal states, with distinct
    and with repeated populations, |s s>, a real mixed state and a real
    state oriented along x. The reports are the same bytes."""
    n = ts + 1
    rng = np.random.default_rng([ts, 33])
    g = rng.normal(size=(n, n))
    turn = angular._little_d(ts, math.pi / 2)     # real: turns z onto x
    pops = np.diag(rng.dirichlet(np.ones(n)))
    states = [np.diag(np.linspace(1.0, 2.0, n)), np.diag([1.0] * (n - 1) + [3.0]),
              np.diag([1.0] + [0.0] * ts), g @ g.T, turn @ pops @ turn.T]
    for mat in states:
        rho = SpinDensity(HalfInt(ts), 0.5 * mat + 0.5 * mat.T)
        assert (_report_bytes(classify_orientation(rho))
                == _report_bytes(_two_product_report(rho)))


@pytest.mark.parametrize("ts", [2, 3, 20, 40])
def test_generic_state_is_rejected_without_svd(monkeypatch, rng, ts):
    """A generic rank-2 state is rejected by the Gram determinant, and an
    exactly oriented one is certified by the Gram matrix's axis, both
    without the SVD; a near-oriented one still takes it."""
    svd_calls = count_calls(monkeypatch, np.linalg, "svd")
    n = ts + 1
    g = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    assert not classify_orientation(SpinDensity(HalfInt(ts), g @ g.conj().T)).oriented
    oriented = random_oriented(rng, ts)[0]
    assert classify_orientation(oriented).oriented
    assert svd_calls == []
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h += h.conj().T
    near = SpinDensity(HalfInt(ts), oriented.matrix + 1e-8 * h / np.abs(h).max())
    classify_orientation(near)
    assert svd_calls == ["svd"]


# Runs `spinsqueeze validate` in this interpreter and prints its own peak
# RSS in KiB to stderr: VmHWM, because on Linux ru_maxrss carries over
# across fork and exec the peak of the process that started it (pytest's).
_VALIDATE_PEAK_RSS = """
import resource, sys
from spinsqueeze.cli import main
code = main(["validate", sys.argv[1]])
try:
    with open("/proc/self/status", encoding="ascii") as fh:
        peak = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
except OSError:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(peak, file=sys.stderr)
sys.exit(code)
"""


def test_orientation_memory_does_not_grow_as_n4(rng, tmp_path):
    """At s = 20 the commutator matrix is 3362 x 3; a full SVD of it builds
    a 3362 x 3362 U, 86 MiB. `spinsqueeze validate` of an s = 20 oriented
    state file stays under 150 MB of RSS, read as the peak of a fresh
    interpreter's own pages."""
    rho = random_density(rng, 40)
    classify_orientation(rho)                 # warm the spin-matrix cache
    tracemalloc.start()
    try:
        classify_orientation(rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    state = SpinDensity(20, np.diag(rng.dirichlet(np.ones(41))))
    path = tmp_path / "oriented-s20.json"
    path.write_text(json.dumps(state_to_dict(to_tensors(state))))
    src = os.path.dirname(os.path.dirname(spinsqueeze.__file__))
    child = subprocess.run(
        [sys.executable, "-W", "error", "-c", _VALIDATE_PEAK_RSS, str(path)],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src})
    assert json.loads(child.stdout)["oriented"] is True
    peak_mb = int(child.stderr) / 1024
    assert peak_mb < 150, f"validate at s = 20 peaked at {peak_mb:.0f} MB of RSS"


def test_identity_state_reported_oriented_along_z():
    rep = classify_orientation(SpinDensity(1, np.eye(3) / 3))
    assert rep.oriented
    assert np.array_equal(rep.axis, [0.0, 0.0, 1.0])


def test_table1_squeezed_state_is_non_oriented():
    rho = from_tensors(TensorParams(1, TABLE1_S1_ROW))
    assert not classify_orientation(rho).oriented


def test_random_oriented_states_recognized(rng):
    for ts in (2, 3, 4):
        for _ in range(25):
            rho, axis, populations = random_oriented(rng, ts)
            rep = classify_orientation(rho)
            assert rep.oriented
            assert abs(abs(float(np.dot(rep.axis, axis))) - 1.0) < 1e-8
            # populations may come out reversed when the axis flips sign
            got = np.sort(rep.populations)
            assert np.abs(got - np.sort(populations)).max() < 1e-8


# ---------------------------------------------------------------------------
# JSON state schema
# ---------------------------------------------------------------------------

GOOD_STATE = {"spin": "1", "trace": 1.0,
              "tensors": [{"k": 2, "q": 0, "re": 0.5},
                          {"k": 2, "q": 2, "re": 0.45},
                          {"k": 1, "q": 0, "re": 0.9}]}


def test_schema_round_trip():
    params = tensor_params_from_dict(GOOD_STATE)
    assert params.get(2, -2) == pytest.approx(0.45)      # partner filled
    again = tensor_params_from_dict(state_to_dict(params))
    for (k, q), v in params.items():
        assert again.get(k, q) == pytest.approx(v, abs=1e-15)


@pytest.mark.parametrize("ts", range(1, 41))
def test_state_file_round_trip_is_exactly_hermitian(ts):
    """state_to_dict writes the entries with q >= 0, each with the bits
    to_tensors gave it; the loader fills every t^k_-q from its partner, so
    the loaded vector is paired exactly and its matrix is exactly
    Hermitian, and SpinDensity has no anti-Hermitian part to drop."""
    rng = np.random.default_rng([ts, 27])
    for rho in (random_density(rng, ts), random_density(rng, ts, pure=True),
                random_oriented(rng, ts)[0]):
        t = to_tensors(rho)
        data = json.loads(json.dumps(state_to_dict(t)))
        assert [(e["k"], e["q"]) for e in data["tensors"]] == \
            [kq for kq, _ in t.items() if kq[1] >= 0]
        loaded = tensor_params_from_dict(data)
        for (k, q), v in loaded.items():
            if q >= 0:
                assert v == t.get(k, q)
        m = _unit_trace_matrix(loaded)
        assert np.array_equal(m, m.conj().T)
        assert np.array_equal(state_from_dict(data).matrix, m * t.trace)


def test_schema_partner_consistency_enforced():
    bad = {"spin": "1", "tensors": [{"k": 1, "q": 1, "re": 0.1, "im": 0.2},
                                    {"k": 1, "q": -1, "re": 0.1, "im": 0.2}]}
    with pytest.raises(SchemaError):
        tensor_params_from_dict(bad)


@pytest.mark.parametrize("mutation, message", [
    ({"spin": "2/3"}, "invalid spin"),
    ({"trace": "x"}, "trace"),
    ({"tensors": [{"k": 5, "q": 0, "re": 0.1}]}, "rank"),
    ({"tensors": [{"q": 0, "re": 0.1}]}, "integer 'k'"),
    ({"tensors": [{"k": 1, "q": 0, "re": 0.1}, {"k": 1, "q": 0, "re": 0.2}]}, "duplicate"),
    ({"tensors": [{"k": math.inf, "q": 0, "re": 0.1}]}, "integer 'k'"),
    ({"tensors": [{"k": 2, "q": 1, "im": math.nan}]}, r"\(2, 1\)"),
    ({"tensors": [{"k": 2, "q": 1, "re": -math.inf}]}, r"\(2, 1\)"),
    ({"tensors": [{"k": 2, "q": 1, "re": 10**400}]}, r"k=2, q=1"),
    ({"trace": math.nan}, "trace"),
    ({"trace": 10**400}, "trace"),
    # a bool is not a number, and k, q are never strings or rounded
    ({"spin": True}, "invalid spin"),
    ({"spin": False}, "invalid spin"),
    ({"tensors": [{"k": True, "q": 0, "re": 0.1}]}, "integer 'k'"),
    ({"tensors": [{"k": 2, "q": False, "re": 0.1}]}, "integer 'k'"),
    ({"tensors": [{"k": "1", "q": 0, "re": 0.1}]}, "integer 'k'"),
    ({"tensors": [{"k": 2, "q": "-1", "re": 0.1}]}, "integer 'k'"),
    ({"tensors": [{"k": 1.9, "q": 0, "re": 0.1}]}, "integer 'k'"),
    ({"tensors": [{"k": 2, "q": 0.5, "re": 0.1}]}, "integer 'k'"),
    ({"tensors": [{"k": math.nan, "q": 0, "re": 0.1}]}, "integer 'k'"),
])
def test_schema_violations(mutation, message):
    data = dict(GOOD_STATE)
    data.update(mutation)
    with pytest.raises(SchemaError, match=message):
        tensor_params_from_dict(data)


def test_schema_reads_integral_floats_as_quantum_numbers():
    """A JSON writer may print an integer as 2.0; its value is kept."""
    floats = {"spin": 1.0, "tensors": [dict(entry, k=float(entry["k"]), q=float(entry["q"]))
                                       for entry in GOOD_STATE["tensors"]]}
    assert np.array_equal(tensor_params_from_dict(floats).vector,
                          tensor_params_from_dict(GOOD_STATE).vector)


def test_missing_spin_key():
    with pytest.raises(SchemaError, match="spin"):
        tensor_params_from_dict({"tensors": []})


def test_state_from_dict_matches_manual_build(tmp_path):
    rho = state_from_dict(GOOD_STATE)
    manual = from_tensors(TensorParams(1, TABLE1_S1_ROW))
    assert np.abs(rho.matrix - manual.matrix).max() < 1e-15
    path = tmp_path / "state.json"
    path.write_text(json.dumps(GOOD_STATE))
    from spinsqueeze import load_state_file
    params, rho2 = load_state_file(path)
    assert np.abs(rho2.matrix - manual.matrix).max() < 1e-15
    with pytest.raises(SchemaError):
        load_state_file(tmp_path / "missing.json")
