"""The records the library fills itself, without the dataclass __init__
(``angular._record``), against the records the public constructors build
from the same values.

Every branch that returns one is reached: analyze() with and without
vector polarization and through the Cholesky fallback, check_positivity,
and classify_orientation's identity shortcut, Gram rejection, certified
axis and SVD fallback. Each record must hold exactly its dataclass's
fields, so a field left out of the private path fails here.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import count_calls, random_density, random_oriented
from spinsqueeze import (EulerAngles, HalfInt, PositivityReport, SpinDensity,
                         SqueezingReport, TensorParams, analyze,
                         check_positivity, classify_orientation, from_tensors,
                         squeezing)
from spinsqueeze.density import _certainly_psd

SPINS = [1, 2, 3, 6, 20, 40]


def _field_bytes(value):
    """A value as bytes that tell apart every bit, the sign of zero included."""
    if isinstance(value, np.ndarray):
        return value.dtype.str.encode() + value.tobytes()
    if isinstance(value, float):
        return value.hex().encode()
    return repr(value).encode()


def _assert_public_twin(rec):
    """rec has exactly its dataclass's fields and is the record the public
    constructor builds from them: same repr, ==, field bits and as_dict;
    dataclasses.replace works on it, and it stays frozen."""
    cls = type(rec)
    names = [f.name for f in dataclasses.fields(cls)]
    assert sorted(vars(rec)) == sorted(names)
    twin = cls(**{name: getattr(rec, name) for name in names})
    assert repr(rec) == repr(twin)
    assert rec == twin
    for name in names:
        assert _field_bytes(getattr(rec, name)) == _field_bytes(getattr(twin, name)), name
    if isinstance(rec, SqueezingReport):
        assert json.dumps(rec.as_dict()) == json.dumps(twin.as_dict())
        _assert_public_twin(rec.frame)
    copy = dataclasses.replace(rec)
    assert type(copy) is cls and repr(copy) == repr(rec)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(rec, names[0], None)
    if isinstance(rec, PositivityReport):
        # the cached property stores into the same instance dict
        assert repr(rec.spin1_bounds) == repr(twin.spin1_bounds)
        assert rec.spin1_bounds is rec.spin1_bounds


def _seeded_state(rng, ts, kind):
    if kind == "oriented":
        return random_oriented(rng, ts)[0]
    return random_density(rng, ts, pure=kind == "pure")


def _assert_all_records(rho):
    _assert_public_twin(analyze(rho))
    _assert_public_twin(check_positivity(rho))
    _assert_public_twin(classify_orientation(rho))


@pytest.mark.parametrize("ts", SPINS)
@pytest.mark.parametrize("kind", ["mixed", "pure", "oriented"])
def test_records_of_seeded_states(ts, kind):
    rng = np.random.default_rng([ts, 34])
    for _ in range(3):
        _assert_all_records(_seeded_state(rng, ts, kind))


@pytest.mark.parametrize("ts", SPINS)
@pytest.mark.parametrize("kind", ["mixed", "pure", "oriented"])
def test_reports_compare_their_arrays_by_value(ts, kind):
    """Two reports of one state, computed apart, are equal; reports of two
    states are not, but for two orientation reports that both say "not
    oriented", which hold no arrays. A report never equals another kind."""
    rng = np.random.default_rng([ts, 37])
    rho, other = _seeded_state(rng, ts, kind), _seeded_state(rng, ts, kind)
    for report in (analyze, check_positivity, classify_orientation):
        first, again, different = report(rho), report(rho), report(other)
        assert first == again and not first != again
        both_unoriented = report is classify_orientation and not (
            first.oriented or different.oriented)
        assert (first == different) == both_unoriented
    assert analyze(rho) != check_positivity(rho)


@pytest.mark.parametrize("ts", SPINS)
@pytest.mark.parametrize("kind", ["mixed", "pure", "oriented"])
def test_equal_reports_hash_equal(ts, kind):
    """Two reports of one state, computed apart, hash equal and collapse
    in a set, oriented orientation reports, which hold arrays, included."""
    rng = np.random.default_rng([ts, 38])
    rho = _seeded_state(rng, ts, kind)
    if kind == "oriented":
        assert classify_orientation(rho).oriented
    for report in (analyze, check_positivity, classify_orientation):
        first, again = report(rho), report(rho)
        assert hash(first) == hash(again)
        assert len({first, again}) == 1


@pytest.mark.parametrize("ts", SPINS)
def test_records_of_the_identity_state(ts):
    """No vector polarization in analyze(), and the identity shortcut of
    classify_orientation."""
    n = ts + 1
    rho = SpinDensity(HalfInt(ts), np.eye(n) / n)
    rep = analyze(rho)
    assert rep.reason == "no vector polarization"
    ori = classify_orientation(rho)
    assert ori.oriented and np.array_equal(ori.axis, [0.0, 0.0, 1.0])
    _assert_all_records(rho)


@pytest.mark.parametrize("ts", SPINS)
def test_records_through_the_cholesky_fallback(monkeypatch, ts):
    """A smallest eigenvalue of -0.9999e-10 fails the shifted Cholesky
    certificate but passes check_positivity, so analyze() asks for the
    eigenvalues and goes on."""
    rng = np.random.default_rng([ts, 35])
    n = ts + 1
    u = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
    lam = -0.9999e-10
    spectrum = np.concatenate([[lam], (1.0 - lam) * rng.dirichlet(np.ones(n - 1))])
    m = (u * spectrum) @ u.conj().T
    rho = SpinDensity(HalfInt(ts), (m + m.conj().T) / 2.0)
    assert not _certainly_psd(rho)
    calls = count_calls(monkeypatch, squeezing, "check_positivity")
    rep = analyze(rho)
    assert calls == ["check_positivity"]
    _assert_public_twin(rep)
    _assert_public_twin(check_positivity(rho))


# a perturbation of an oriented state, relative to its largest entry,
# that the Gram axis cannot certify but the SVD's test passes
_NEAR_ORIENTED = {2: 1e-12, 3: 1e-12, 6: 1e-12, 20: 3e-13, 40: 1e-13}


@pytest.mark.parametrize("ts", sorted(_NEAR_ORIENTED))
def test_orientation_records_by_branch(monkeypatch, ts):
    """Gram rejection and a certified axis take no SVD; a nearly oriented
    state takes it and is oriented along its axis, a less nearly
    oriented one is rejected by it. (At spin 1/2 every state is
    oriented and certified, as the seeded states above are.)"""
    rng = np.random.default_rng([ts, 36])
    svd_calls = count_calls(monkeypatch, np.linalg, "svd")
    n = ts + 1
    g = rng.normal(size=(n, 2)) + 1j * rng.normal(size=(n, 2))
    generic = classify_orientation(SpinDensity(HalfInt(ts), g @ g.conj().T))
    oriented = random_oriented(rng, ts)[0]
    certified = classify_orientation(oriented)
    assert not generic.oriented and certified.oriented
    assert svd_calls == []
    h = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    h += h.conj().T
    h /= np.abs(h).max()
    fallback = classify_orientation(
        SpinDensity(HalfInt(ts), oriented.matrix + _NEAR_ORIENTED[ts] * h))
    assert svd_calls == ["svd"] and fallback.oriented
    rejected = classify_orientation(SpinDensity(HalfInt(ts), oriented.matrix + 1e-8 * h))
    assert svd_calls == ["svd"] * 2 and not rejected.oriented
    for rep in (generic, certified, fallback, rejected):
        _assert_public_twin(rep)


_SPECIAL_ANGLES = [0.0, -0.0, math.pi, -math.pi, 2 * math.pi, -2 * math.pi,
                   0.5 * math.pi, 1.5 * math.pi, 1e16, -1e16, 1e300, -1e300,
                   5e-324, -5e-324]
_angles = st.one_of(st.sampled_from(_SPECIAL_ANGLES),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=400)
@given(_angles, _angles, _angles)
def test_private_euler_angles_normalize_like_the_constructor(a, b, g):
    fast, public = EulerAngles._of_floats(a, b, g), EulerAngles(a, b, g)
    assert sorted(vars(fast)) == ["alpha", "beta", "gamma"]
    bits = [x.hex() for x in (fast.alpha, fast.beta, fast.gamma)]
    assert bits == [x.hex() for x in (public.alpha, public.beta, public.gamma)]
    assert fast == public and repr(fast) == repr(public)
    assert dataclasses.replace(fast) == dataclasses.replace(public)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fast.alpha = 0.0


@given(st.integers(0, 2), st.sampled_from([math.nan, math.inf, -math.inf]),
       _angles, _angles)
def test_private_euler_angles_reject_non_finite_like_the_constructor(at, bad, x, y):
    angles = [x, y]
    angles.insert(at, bad)
    with pytest.raises(ValueError) as fast:
        EulerAngles._of_floats(*angles)
    with pytest.raises(ValueError) as public:
        EulerAngles(*angles)
    assert str(fast.value) == str(public.value) == "Euler angles must be finite"


def _angle_bits(rec):
    return [x.hex() for x in (rec.alpha, rec.beta, rec.gamma)]


def _assert_in_range_and_rebuilt_bit_for_bit(rec):
    assert 0.0 <= rec.alpha < 2 * math.pi and 0.0 <= rec.gamma < 2 * math.pi
    assert 0.0 <= rec.beta <= math.pi
    assert _angle_bits(dataclasses.replace(rec)) == _angle_bits(rec)


@settings(max_examples=400)
@given(_angles, _angles, _angles)
def test_euler_angles_lie_in_their_ranges_and_rebuild_to_themselves(a, b, g):
    _assert_in_range_and_rebuilt_bit_for_bit(EulerAngles(a, b, g))


@pytest.mark.parametrize("build", [EulerAngles, EulerAngles._of_floats])
def test_alpha_and_gamma_that_round_to_two_pi_are_zero(build):
    """-1e-300 mod 2 pi rounds to 2 pi itself, outside [0, 2 pi)."""
    for angles in [(-1e-300, 0.0, 0.0), (0.0, 1.0, -1e-300), (-5e-324, 2.0, -5e-324)]:
        rec = build(*angles)
        assert rec.alpha == 0.0 and rec.gamma == 0.0
        _assert_in_range_and_rebuilt_bit_for_bit(rec)


def test_analyze_reports_a_frame_alpha_of_zero_not_two_pi():
    """The mean spin of this spin-1 state has y = -3e-20, so its azimuth
    alpha is a tiny negative angle, which the frame takes to 0.0."""
    rep = analyze(from_tensors(TensorParams(1, {(1, 0): 0.2, (1, 1): -0.3 + 1e-20j})))
    assert rep.frame.alpha == 0.0 and rep.as_dict()["frame"]["alpha"] == 0.0
    _assert_in_range_and_rebuilt_bit_for_bit(rep.frame)
    _assert_public_twin(rep)
