"""Density matrix <-> tensor parameter conversions and state diagnostics."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_density, random_hermitian_state, random_oriented
from purity_oracle import purity_residual_tensor_form
from spinsqueeze import (EulerAngles, HalfInt, SpinDensity, TensorParams,
                         check_positivity, classify_orientation, from_tensors,
                         polarization, purity_residual, rotate_tensors,
                         spin_scale_rank1, spin_scale_rank2, state_from_dict,
                         state_to_dict, tensor_params_from_dict, to_tensors,
                         variance)
from spinsqueeze.errors import (AngularMomentumError, HermiticityError,
                                SchemaError)
from spinsqueeze.tensor_ops import build_tau

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
    # both partners are given, so fill_partners has nothing to fill and
    # the contradiction stands
    for fill_partners in (False, True):
        with pytest.raises(HermiticityError) as exc:
            TensorParams(1, {(1, 1): 0.5 + 0.1j, (1, -1): 0.5 + 0.1j},
                         fill_partners=fill_partners)
        assert str(exc.value).endswith("at (k, q) = (1, -1), (1, 1)")


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
    t = TensorParams(1, {(2, 1): 0.2 + 0.1j}, fill_partners=True)
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
        TensorParams(1, {(1, 0): 0.5, (2, 1): value}, fill_partners=True)
    vec = np.zeros(9, dtype=complex)
    vec[7] = value
    with pytest.raises(ValueError, match=r"\(2, 1\)$"):
        TensorParams(1, vec)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_density_matrix_rejected(value):
    with pytest.raises(ValueError, match="non-finite"):
        SpinDensity(1, np.full((3, 3), value))


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
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
            1, {(1, 0): t10, (2, 0): t20, (2, 2): t22}, fill_partners=True))
        rep = check_positivity(rho)
        assert rep.psd, (t20, t22, t10)
        assert all(b.satisfied for b in rep.spin1_bounds)


def test_table1_spin32_rows_are_not_psd():
    # the tabulated spin-3/2 parameter sets violate positivity (recorded
    # finding; the variance formulas do not require a physical state)
    rows = [(0.9, 0.3, 1.25), (0.7, 0.5, 1.06), (0.61, 0.49, 0.99), (0.41, 0.63, 0.81)]
    for t20, t22, t10 in rows:
        rho = from_tensors(TensorParams(
            "3/2", {(1, 0): t10, (2, 0): t20, (2, 2): t22}, fill_partners=True))
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


# ---------------------------------------------------------------------------
# orientation classification
# ---------------------------------------------------------------------------

def test_every_spin_half_state_is_oriented(rng):
    for _ in range(100):
        rep = classify_orientation(random_density(rng, 1))
        assert rep.oriented


def test_diagonal_state_oriented_along_z():
    rho = SpinDensity(1, np.diag([0.6, 0.3, 0.1]).astype(complex))
    rep = classify_orientation(rho)
    assert rep.oriented
    assert np.abs(np.abs(rep.axis) - [0, 0, 1]).max() < 1e-10
    assert np.abs(rep.populations - [0.6, 0.3, 0.1]).max() < 1e-10


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
])
def test_schema_violations(mutation, message):
    data = dict(GOOD_STATE)
    data.update(mutation)
    with pytest.raises(SchemaError, match=message):
        tensor_params_from_dict(data)


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
