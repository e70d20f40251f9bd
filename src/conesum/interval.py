"""Dyadic intervals: the one interval type of the package.

An Interval is [lo 2^exp, hi 2^exp] with integer mantissas of about prec
bits, rounded outward by every operation.  Real embeddings come back as
Intervals (``field.TotallyRealField.embed_at``), and the certified unit
search computes on them, logs included; the log kernel here runs on fixed
point integers.  Values are read through ``endpoints()``: ``lo`` and ``hi``
are mantissas, not values.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import EmptyInterval, PrecisionExhausted

# mantissa bits of the intervals beyond the embedding precision
GUARD_BITS = 16


class Interval:
    """Closed interval [lo 2^exp, hi 2^exp] with integer mantissas of about
    prec bits.  Every operation rounds its result outward to the larger
    operand precision, so it encloses the exact result on any points of the
    operands; ints and Fractions mix in rounded outward.  The precision
    travels with the value: no global state is read."""

    __slots__ = ("lo", "hi", "exp", "prec")

    def __init__(self, lo: int, hi: int, exp: int, prec: int):
        shift = max(lo.bit_length(), hi.bit_length()) - prec
        if shift > 0:
            lo, hi, exp = lo >> shift, -(-hi >> shift), exp + shift
        self.lo, self.hi, self.exp, self.prec = lo, hi, exp, prec

    @classmethod
    def scaled(cls, lo: int, hi: int, s: int, prec: int) -> "Interval":
        """[lo/s, hi/s] for integers lo <= hi and s > 0, rounded outward to
        prec bits.  The scale comes from the larger end in lowest terms, so
        the fields are those of Interval.of(Fraction(lo, s), Fraction(hi, s),
        prec), with one gcd in place of the Fractions."""
        if lo > hi:
            raise EmptyInterval(f"[{lo}/{s}, {hi}/{s}] has lo > hi")
        big = max(-lo, hi)
        g = math.gcd(big, s)
        shift = prec + (s // g).bit_length() - (big // g).bit_length()
        up, down = max(shift, 0), max(-shift, 0)  # scale by 2^shift
        return cls((lo << up) // (s << down), -((-hi << up) // (s << down)), -shift, prec)

    @classmethod
    def of(cls, lo, hi, prec: int) -> "Interval":
        """The rational interval [lo, hi], rounded outward to prec bits."""
        lo, hi = Fraction(lo), Fraction(hi)
        return cls.scaled(lo.numerator * hi.denominator, hi.numerator * lo.denominator,
                          lo.denominator * hi.denominator, prec)

    def __repr__(self) -> str:
        return f"Interval({self.lo}, {self.hi}, {self.exp}, {self.prec})"

    def _coerce(self, other) -> "Interval":
        return other if isinstance(other, Interval) else Interval.of(other, other, self.prec)

    def endpoints(self) -> tuple[Fraction, Fraction]:
        scale = Fraction(2) ** self.exp
        return self.lo * scale, self.hi * scale

    def midpoint(self) -> Fraction:
        lo, hi = self.endpoints()
        return (lo + hi) / 2

    def __contains__(self, value) -> bool:
        lo, hi = self.endpoints()
        return lo <= value <= hi

    def __add__(self, other) -> "Interval":
        other = self._coerce(other)
        exp = min(self.exp, other.exp)
        a, b = self.exp - exp, other.exp - exp
        return Interval((self.lo << a) + (other.lo << b), (self.hi << a) + (other.hi << b),
                        exp, max(self.prec, other.prec))

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo, self.exp, self.prec)

    def __sub__(self, other) -> "Interval":
        return self + -self._coerce(other)

    def __rsub__(self, other) -> "Interval":
        return -self + other

    def __mul__(self, other) -> "Interval":
        other = self._coerce(other)
        products = (self.lo * other.lo, self.lo * other.hi, self.hi * other.lo, self.hi * other.hi)
        return Interval(min(products), max(products), self.exp + other.exp,
                        max(self.prec, other.prec))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        if isinstance(other, Interval):
            a, b, c, d = self.lo, self.hi, other.lo, other.hi
            exp, prec = self.exp - other.exp, max(self.prec, other.prec)
        else:  # a rational n/m: multiply by m, divide by n
            q = Fraction(other)
            a, b = self.lo * q.denominator, self.hi * q.denominator
            c = d = q.numerator
            exp, prec = self.exp, self.prec
        if c <= 0 <= d:
            raise PrecisionExhausted("divisor interval contains zero")
        # shift the dividend so that every quotient has more than prec bits
        s = max(0, prec + 2 + max(c.bit_length(), d.bit_length())
                - max(a.bit_length(), b.bit_length()))
        pairs = [(x << s, y) for x in (a, b) for y in (c, d)]
        return Interval(min(x // y for x, y in pairs), max(-(-x // y) for x, y in pairs),
                        exp - s, prec)

    def log(self) -> "Interval":
        """Natural log, from the bounds of log lo: concavity gives
        log hi <= log lo + (hi - lo)/lo."""
        if self.lo <= 0:
            raise PrecisionExhausted("log of an interval not certified positive")
        k = abs(self.exp + self.lo.bit_length())
        w = self.prec + GUARD_BITS + k.bit_length()
        lo, hi = _log_fixed(self.lo, self.exp, w)
        return Interval(lo, hi - (-(self.hi - self.lo << w) // self.lo), -w, self.prec)


def _iv_sign(iv: Interval) -> int | None:
    if iv.lo > 0:
        return 1
    if iv.hi < 0:
        return -1
    return None


def _atanh_fixed(p: int, q: int, w: int) -> tuple[int, int]:
    """(s, err) with s <= 2^w atanh(p/q) <= s + err, for 0 <= 3p <= q.

    Every step floors, so each power of x and each term falls short of its
    exact value: a power by less than 7/4 units (p/q <= 1/3 shrinks the
    carried error by 9 per step), a term by less than 11/4.  The series
    stops at the first power that reaches 0, and the terms from there on sum
    to less than 2, so J terms are short by less than 3J + 2."""
    x = (p << w) // q
    x2 = x * x >> w
    s, j, power = 0, 0, x
    while power:
        s += power // (2 * j + 1)
        power = power * x2 >> w
        j += 1
    return s, 3 * j + 2


@lru_cache(maxsize=64)
def _ln2_fixed(w: int) -> tuple[int, int]:
    """(s, err) with s <= 2^w ln 2 <= s + err; ln 2 = 2 atanh(1/3)."""
    s, err = _atanh_fixed(1, 3, w)
    return 2 * s, 2 * err


def _log_fixed(m: int, e: int, w: int) -> tuple[int, int]:
    """(lo, hi) with lo <= 2^w log(m 2^e) <= hi for m > 0.

    With m 2^e = 2^k m/b for the power of two b that puts m/b in
    [1/sqrt 2, sqrt 2), log = k ln 2 + 2 atanh((m - b)/(m + b)), and the
    atanh argument is at most 3 - 2 sqrt 2 < 0.172 in absolute value."""
    n = m.bit_length()
    if m * m < 1 << 2 * n - 1:  # m/2^n < 1/sqrt 2
        n -= 1
    k, b = e + n, 1 << n
    s, err = _atanh_fixed(abs(m - b), m + b, w)
    ln2, ln2_err = _ln2_fixed(w)
    k_lo, k_hi = sorted((k * ln2, k * (ln2 + ln2_err)))
    if m < b:
        return k_lo - 2 * (s + err), k_hi - 2 * s
    return k_lo + 2 * s, k_hi + 2 * (s + err)
