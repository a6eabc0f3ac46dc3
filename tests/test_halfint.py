from fractions import Fraction

import pytest

from spinsqueeze import HalfInt, halfint
from spinsqueeze.errors import AngularMomentumError
from spinsqueeze.halfint import MAX_EXPONENT, MAX_PARSED, check_projection


def test_parsing_forms():
    assert HalfInt.of(2).twice == 4
    assert HalfInt.of("3/2").twice == 3
    assert HalfInt.of("1.5").twice == 3
    assert HalfInt.of(0.5).twice == 1
    assert HalfInt.of("2").twice == 4
    assert HalfInt.of(HalfInt(3)).twice == 3


def test_rejects_non_half_integers():
    with pytest.raises(AngularMomentumError):
        HalfInt.of(0.3)
    with pytest.raises(AngularMomentumError):
        HalfInt.of("2/3")


def test_rejects_bools():
    """True is an int to Python, but not a quantum number."""
    for value in (True, False):
        with pytest.raises(AngularMomentumError, match="cannot interpret"):
            HalfInt.of(value)


def test_zero_denominator_is_an_input_error():
    for text in ("1/0", "-3/0", " 0/0 ", "1/-0"):
        with pytest.raises(AngularMomentumError, match="zero denominator"):
            HalfInt.of(text)


@pytest.mark.parametrize("value", [
    "1e400", "-1e400", "1e100000", f"{MAX_PARSED + 1}", f"-{MAX_PARSED}.5",
    f"{MAX_PARSED + 1}/1", 1e300, -1e300, Fraction(MAX_PARSED + 1)])
def test_magnitude_over_limit(value):
    with pytest.raises(AngularMomentumError, match="limit"):
        HalfInt.of(value)


def test_magnitude_at_limit():
    assert HalfInt.of(f"{MAX_PARSED}").twice == 2 * MAX_PARSED
    assert HalfInt.of(f"-{MAX_PARSED}").twice == -2 * MAX_PARSED
    assert HalfInt.of(float(MAX_PARSED) - 0.5).twice == 2 * MAX_PARSED - 1
    assert HalfInt.of(10 ** 30).twice == 2 * 10 ** 30     # ints are not bounded


@pytest.mark.parametrize("text", ["1e10000000", "1e-10000000", "0e-10000000",
                                  "1E1_000_000", f"5e-{MAX_EXPONENT + 1}"])
def test_exponent_over_limit_is_rejected_before_parsing(text, monkeypatch):
    """Fraction(text) would first build 10**|exponent|: 12 s for 1e10000000."""
    def must_not_parse(*args):
        pytest.fail("the exact value was built before the exponent was checked")
    monkeypatch.setattr(halfint, "Fraction", must_not_parse)
    with pytest.raises(AngularMomentumError, match="exponent limit"):
        HalfInt.of(text)


def test_exponent_within_limit():
    assert HalfInt.of("15e-1").twice == 3
    assert HalfInt.of(f"0e-{MAX_EXPONENT}").twice == 0
    assert HalfInt.of("0.5E+1").twice == 10


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_non_finite_float_is_an_input_error(value):
    with pytest.raises(AngularMomentumError, match="not finite"):
        HalfInt.of(value)


@pytest.mark.parametrize("text", ["inf", "-nan", "junk", "hello", "", "1e",
                                  "1/2/3"])
def test_junk_text_is_a_value_error(text):
    with pytest.raises(ValueError, match="literal"):
        HalfInt.of(text)


def test_arithmetic_and_ordering():
    assert (HalfInt.of("1/2") + HalfInt.of(1)).twice == 3
    assert (HalfInt.of(1) - HalfInt.of("3/2")).twice == -1
    assert -HalfInt.of("1/2") == HalfInt(-1)
    assert HalfInt.of("1/2") < HalfInt.of(1)
    assert abs(HalfInt(-3)) == HalfInt(3)
    assert float(HalfInt(3)) == 1.5


def test_str_roundtrip():
    for text in ("0", "1/2", "1", "3/2", "5"):
        assert str(HalfInt.of(text)) == text


def test_projection_parity():
    check_projection(HalfInt.of("1/2"), HalfInt.of("-1/2"))
    with pytest.raises(AngularMomentumError):
        check_projection(HalfInt.of("1/2"), HalfInt.of(1))
    with pytest.raises(AngularMomentumError):
        check_projection(HalfInt.of(1), HalfInt.of(2))
