"""Half-integer quantum numbers stored exactly as twice their value."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import AngularMomentumError


# Largest |value| that HalfInt.of accepts from a string, a float or a
# Fraction (ints are not bounded). Up to it a float holds every
# half-integer exactly; no spin or coupling coefficient near it can be built.
MAX_PARSED = 2 ** 52

# Largest |exponent| of a decimal string such as "1.5e0": Fraction("1e-9999999")
# builds 10**9999999 before anything can reject it.
MAX_EXPONENT = 400


def _parse(text: str) -> Fraction:
    s = text.strip()
    num, slash, den = s.partition("/")
    if slash:
        num, den = int(num), int(den)
        if den == 0:
            raise AngularMomentumError(f"{text!r} has a zero denominator")
        return Fraction(num, den)
    try:
        large = abs(int(s.lower().partition("e")[2])) > MAX_EXPONENT
    except ValueError:          # no exponent, or junk that Fraction rejects
        large = False
    if large:
        raise AngularMomentumError(
            f"{text!r} exceeds the exponent limit of {MAX_EXPONENT}")
    return Fraction(s)


@dataclass(frozen=True, order=True)
class HalfInt:
    """An integer or half-integer quantum number, stored as ``twice = 2j``.

    Magnitude-type numbers (j, s, k) are non-negative; projections (m, q)
    may be negative. Construction goes through :meth:`of`, which accepts
    ints, exact floats (1.5), strings ("3/2", "1.5", "2") and HalfInt.
    Anything but an int must be finite and at most ``MAX_PARSED`` in
    magnitude.
    """

    twice: int

    @staticmethod
    def of(value) -> "HalfInt":
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, int) and not isinstance(value, bool):
            return HalfInt(2 * value)
        given = value
        if isinstance(value, str):
            value = _parse(value)
        if isinstance(value, float):
            if not math.isfinite(value):
                raise AngularMomentumError(f"{value} is not finite")
            value = Fraction(value)    # exact: valid inputs are binary halves
        if isinstance(value, Fraction):
            if abs(value) > MAX_PARSED:
                raise AngularMomentumError(
                    f"{given!r} exceeds the magnitude limit of {MAX_PARSED}")
            doubled = 2 * value
            if doubled.denominator != 1:
                raise AngularMomentumError(
                    f"{value} is not an integer or half-integer")
            return HalfInt(int(doubled))
        raise AngularMomentumError(f"cannot interpret {value!r} as a half-integer")

    @property
    def value(self) -> float:
        return self.twice / 2.0

    @property
    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    def __add__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice + other.twice)

    def __sub__(self, other: "HalfInt") -> "HalfInt":
        return HalfInt(self.twice - other.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __abs__(self) -> "HalfInt":
        return HalfInt(abs(self.twice))

    def __float__(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"


def check_magnitude(j: HalfInt, name: str = "j") -> HalfInt:
    """Magnitude quantum numbers must be non-negative."""
    if j.twice < 0:
        raise AngularMomentumError(f"{name} = {j} must be non-negative")
    return j


def check_projection(j: HalfInt, m: HalfInt, names: str = "(j, m)") -> None:
    """A valid (j, m) pair has matching parity and |m| <= j."""
    if (j.twice - m.twice) % 2 != 0:
        raise AngularMomentumError(
            f"{names} = ({j}, {m}) mixes integer and half-integer values")
    if abs(m.twice) > j.twice:
        raise AngularMomentumError(f"{names} = ({j}, {m}) violates |m| <= j")
