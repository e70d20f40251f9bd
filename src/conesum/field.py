"""Exact arithmetic in a totally real number field.

A field is described by a monic irreducible integer polynomial with all
roots real.  Elements are rational coordinate vectors in the power basis
1, t, ..., t^(n-1) of a root t.  Real embeddings are ordered by increasing
root and are only ever produced as rational-endpoint enclosing intervals,
refinable to any width; signs of nonzero elements are decided exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from . import linalg
from .errors import (
    DegenerateRoots,
    DegreeMismatch,
    MixedExponents,
    NotAUnit,
    NotIrreducible,
    NotSquarefree,
    NotTotallyPositive,
    NotTotallyReal,
    UnitRankMismatch,
    ZeroInput,
)

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# rational intervals


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        assert self.lo <= self.hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi

    def sign(self) -> int | None:
        """Certified sign, or None if the interval straddles zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        if self.lo == self.hi == 0:
            return 0
        return None

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self) -> "RatInterval":
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other: "RatInterval") -> "RatInterval":
        return self + (-other)

    def __mul__(self, other: "RatInterval") -> "RatInterval":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RatInterval(min(products), max(products))

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def __float__(self) -> float:
        return float(self.midpoint())


def interval_poly_eval(coeffs: Sequence[Fraction], iv: RatInterval) -> RatInterval:
    """Interval Horner evaluation of a rational polynomial, on integer
    numerators over the common denominator c_den * d^k after k steps, with
    d = lcm(den lo, den hi): the same interval as Horner on Fractions."""
    d = math.lcm(iv.lo.denominator, iv.hi.denominator)
    lo = iv.lo.numerator * (d // iv.lo.denominator)
    hi = iv.hi.numerator * (d // iv.hi.denominator)
    c_den = math.lcm(*(c.denominator for c in coeffs))
    *rest, top = [c.numerator * (c_den // c.denominator) for c in coeffs] or [0]
    acc_lo = acc_hi = top
    scale = 1
    for c in reversed(rest):
        scale *= d
        products = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(products) + c * scale, max(products) + c * scale
    return RatInterval(Fraction(acc_lo, c_den * scale), Fraction(acc_hi, c_den * scale))


# ---------------------------------------------------------------------------
# polynomials over the rationals (dense, ascending coefficients)


def poly_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = _ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_deriv(p: Sequence[Fraction]) -> list[Fraction]:
    return [c * k for k, c in enumerate(p)][1:]


def poly_divmod(num: Sequence[Fraction], den: Sequence[Fraction]):
    num = list(num)
    den = list(den)
    if len(num) < len(den):
        return [], num
    quot = [_ZERO] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(num) - len(den), -1, -1):
        q = num[k + len(den) - 1] / lead
        quot[k] = q
        if q != 0:
            for i, c in enumerate(den):
                num[k + i] -= q * c
    return quot, poly_trim(num)


def sturm_chain(p: Sequence[Fraction]) -> list[list[Fraction]]:
    chain = [list(p), poly_deriv(p)]
    while len(chain[-1]) > 1:
        _, rem = poly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_variations(chain, x: Fraction) -> int:
    signs = []
    for p in chain:
        v = poly_eval(p, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def isolate_real_roots(p: Sequence[Fraction]) -> list[RatInterval]:
    """Disjoint isolating intervals for the real roots, sorted increasing.

    Assumes p squarefree with no rational roots, so interval endpoints are
    never roots themselves.
    """
    lead = p[-1]
    bound = Fraction(1) + max(abs(c / lead) for c in p[:-1]) if len(p) > 1 else _ONE
    chain = sturm_chain(p)

    def nroots(lo, hi):
        return _sign_variations(chain, lo) - _sign_variations(chain, hi)

    result: list[RatInterval] = []
    stack = [(-bound, bound, nroots(-bound, bound))]
    while stack:
        lo, hi, k = stack.pop()
        if k == 0:
            continue
        if k == 1:
            result.append(RatInterval(lo, hi))
            continue
        mid = (lo + hi) / 2
        kl = nroots(lo, mid)
        stack.append((lo, mid, kl))
        stack.append((mid, hi, k - kl))
    result.sort(key=lambda iv: iv.lo)
    return result


def poly_gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> list[Fraction]:
    """A greatest common divisor (not normalized); [] only when both are 0."""
    a, b = poly_trim(list(a)), poly_trim(list(b))
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return a


def _has_integer_root(p: Sequence[Fraction]) -> bool:
    """Whether a squarefree monic integer polynomial has a rational root.

    Such a root is an integer, so no half-integer is a root: Sturm counts
    between half-integers narrow every real root down to a unit interval,
    whose one integer is then tested exactly.
    """
    chain = sturm_chain(p)
    half = Fraction(1, 2)
    bound = 1 + max(abs(c) for c in p[:-1])  # every root lies below it
    stack = [(-bound - half, bound + half)]
    while stack:
        lo, hi = stack.pop()
        if _sign_variations(chain, lo) == _sign_variations(chain, hi):
            continue
        if hi - lo == 1:
            if poly_eval(p, lo + half) == 0:
                return True
            continue
        mid = math.floor((lo + hi) / 2) + half
        stack += [(lo, mid), (mid, hi)]
    return False


def _monic_product(roots: Sequence[RatInterval]) -> list[RatInterval]:
    """Interval coefficients (ascending) of prod (x - r) over the roots."""
    zero = RatInterval(_ZERO, _ZERO)
    coeffs = [RatInterval(_ONE, _ONE)]
    for r in roots:
        shifted = [zero] + coeffs
        coeffs = [s - r * c for s, c in zip(shifted, coeffs + [zero])]
    return coeffs


# ---------------------------------------------------------------------------
# scaled rationals  q * sqrt(D)^e


def _exact_isqrt(d: int) -> int | None:
    r = math.isqrt(d)
    return r if r * r == d else None


@dataclass(frozen=True)
class ScaledRational:
    """Exact value q * sqrt(D)^e with rational q and e in {-1, 0, 1}.

    D is the positive discriminant of the ambient field; determinants of
    embedding matrices of field elements always land in Q * sqrt(D).  When D
    is a perfect square the sqrt folds into q and e normalizes to 0.
    """

    q: Fraction
    e: int
    disc: int

    def __post_init__(self):
        if self.e not in (-1, 0, 1):
            raise MixedExponents(f"exponent {self.e} is not -1, 0 or 1")
        if self.disc <= 0:
            raise DegenerateRoots(f"discriminant {self.disc} is not positive")
        q = Fraction(self.q)
        e = self.e
        if q == 0:
            e = 0
        elif e != 0:
            s = _exact_isqrt(self.disc)
            if s is not None:
                q = q * s if e == 1 else q / s
                e = 0
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "e", e)

    @classmethod
    def rational(cls, q, disc: int) -> "ScaledRational":
        return cls(Fraction(q), 0, disc)

    def _parts(self) -> tuple[Fraction, Fraction]:
        """(rational part, coefficient of sqrt(D))."""
        if self.e == 0:
            return self.q, _ZERO
        coef = self.q if self.e == 1 else self.q / self.disc
        return _ZERO, coef

    def is_zero(self) -> bool:
        return self.q == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScaledRational):
            return NotImplemented
        a0, a1 = self._parts()
        b0, b1 = other._parts()
        if a1 != 0 or b1 != 0:
            if self.disc != other.disc:
                return False
        return (a0, a1) == (b0, b1)

    def __hash__(self):
        r, c = self._parts()
        return hash((r, c, self.disc if c != 0 else 0))

    def __neg__(self) -> "ScaledRational":
        return ScaledRational(-self.q, self.e, self.disc)

    def __add__(self, other: "ScaledRational") -> "ScaledRational":
        if not isinstance(other, ScaledRational):
            return NotImplemented
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.disc != other.disc:
            raise MixedExponents("values over different discriminants")
        if self.e == other.e:
            return ScaledRational(self.q + other.q, self.e, self.disc)
        if self.e != 0 and other.e != 0:
            # q/sqrt(D) == (q/D)*sqrt(D): rewrite in the left operand's form
            q2 = other.q * self.disc if self.e == -1 else other.q / self.disc
            return ScaledRational(self.q + q2, self.e, self.disc)
        raise MixedExponents(
            f"cannot add exponents {self.e} and {other.e} exactly"
        )

    def __sub__(self, other: "ScaledRational") -> "ScaledRational":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, ScaledRational):
            if self.disc != other.disc and not (self.is_zero() or other.is_zero()):
                raise MixedExponents("values over different discriminants")
            e = self.e + other.e
            q = self.q * other.q
            if e == 2:
                return ScaledRational(q * self.disc, 0, self.disc)
            if e == -2:
                return ScaledRational(q / self.disc, 0, self.disc)
            return ScaledRational(q, e, self.disc)
        return ScaledRational(self.q * Fraction(other), self.e, self.disc)

    __rmul__ = __mul__

    def inverse(self) -> "ScaledRational":
        if self.q == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.e == 0:
            return ScaledRational(1 / self.q, 0, self.disc)
        if self.e == 1:  # 1/(q sqrt(D)) = (1/(qD)) sqrt(D)
            return ScaledRational(1 / (self.q * self.disc), 1, self.disc)
        # 1/(q/sqrt(D)) = (1/q) sqrt(D)
        return ScaledRational(1 / self.q, 1, self.disc)

    def __truediv__(self, other):
        if isinstance(other, ScaledRational):
            return self * other.inverse()
        return ScaledRational(self.q / Fraction(other), self.e, self.disc)

    def with_exponent(self, e: int) -> "ScaledRational":
        """Equal value rewritten with the requested exponent when possible."""
        if self.e == e or self.is_zero() or _exact_isqrt(self.disc) is not None:
            return self
        if {self.e, e} == {-1, 1}:
            q = self.q * self.disc if e == -1 else self.q / self.disc
            return ScaledRational(q, e, self.disc)
        raise MixedExponents(f"cannot rewrite exponent {self.e} as {e}")

    def to_mpf(self, prec_bits: int = 128):
        import mpmath

        with mpmath.workprec(prec_bits):
            val = mpmath.mpf(self.q.numerator) / self.q.denominator
            if self.e == 1:
                val *= mpmath.sqrt(self.disc)
            elif self.e == -1:
                val /= mpmath.sqrt(self.disc)
            return +val

    def __float__(self) -> float:
        return float(self.to_mpf(64))

    def exact_str(self) -> str:
        if self.e == 0:
            return str(self.q)
        if self.e == 1:
            return f"{self.q}√{self.disc}"
        return f"{self.q}/√{self.disc}"

    def __repr__(self):
        return f"ScaledRational({self.exact_str()})"


# ---------------------------------------------------------------------------
# the field and its elements


class FieldElement:
    """Element of a totally real field in power-basis coordinates."""

    __slots__ = ("field", "coords")

    def __init__(self, field: "TotallyRealField", coords: Iterable):
        self.field = field
        c = tuple(Fraction(v) for v in coords)
        if len(c) != field.degree:
            raise DegreeMismatch(f"{len(c)} coordinates for a field of degree {field.degree}")
        self.coords = c

    # -- ring structure ------------------------------------------------------

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, (a + b for a, b in zip(self.coords, o.coords)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, (-a for a in self.coords))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, (a - b for a, b in zip(self.coords, o.coords)))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FieldElement(self.field, (a * q for a in self.coords))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field._multiply(self, o)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return self.field._invert(self)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return FieldElement(self.field, (a / q for a in self.coords))
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        result = self.field.one
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.coords == o.coords

    def __hash__(self):
        return hash((id(self.field), self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    # -- invariants ------------------------------------------------------------

    def trace(self) -> Fraction:
        return sum(c * p for c, p in zip(self.coords, self.field.power_traces))

    def norm(self) -> Fraction:
        return self.field.norm(self)

    # -- canonical projective / ray keys ---------------------------------------

    def proj_key(self) -> tuple[Fraction, ...]:
        """Canonical representative of the projective point: first nonzero
        coordinate scaled to 1."""
        for c in self.coords:
            if c != 0:
                return tuple(v / c for v in self.coords)
        raise ZeroInput("zero vector has no projective class")

    def ray_key(self) -> tuple[Fraction, ...]:
        """Canonical representative of the ray: positive scaling with first
        nonzero coordinate of absolute value 1."""
        for c in self.coords:
            if c != 0:
                return tuple(v / abs(c) for v in self.coords)
        raise ZeroInput("zero vector spans no ray")

    def __repr__(self):
        return f"FieldElement{self.coords}"


class TotallyRealField:
    """Totally real number field presented by its defining polynomial."""

    def __init__(self, min_poly: Sequence[int]):
        poly = [int(c) for c in min_poly]
        n = len(poly) - 1
        if n < 2 or poly[-1] != 1:
            raise NotIrreducible("defining polynomial must be monic of degree >= 2")
        self.min_poly = tuple(poly)
        self.degree = n
        fpoly = [Fraction(c) for c in poly]
        if len(poly_gcd(fpoly, poly_deriv(fpoly))) > 1 or _has_integer_root(fpoly):
            raise NotIrreducible(f"{poly} is reducible over the rationals")

        roots = isolate_real_roots(fpoly)
        if len(roots) < n:
            raise NotTotallyReal(f"only {len(roots)} of {n} roots are real")
        # refinement chains, one per root, extended lazily
        self._root_chains: list[list[RatInterval]] = [[iv] for iv in roots]
        if self._has_factor_of_degree_two_or_more():
            raise NotIrreducible(f"{poly} is reducible over the rationals")

        self._build_tables()

    def _has_factor_of_degree_two_or_more(self) -> bool:
        """Whether some product of 2 <= k <= n/2 of the roots, prod (x - r_i),
        is an integer polynomial dividing the defining one.

        A monic integer polynomial with all roots real factors over Q exactly
        when it has such a factor (Gauss's lemma).  The root intervals are
        refined until each coefficient of a candidate product either holds no
        integer, which rules the subset out, or pins exactly one; a fully
        pinned candidate is then divided out exactly.
        """
        n = self.degree
        poly = [Fraction(c) for c in self.min_poly]
        subsets = [
            s for k in range(2, n // 2 + 1) for s in itertools.combinations(range(n), k)
        ]
        depth = 0
        while subsets:
            roots = [self._root_interval(place, depth) for place in range(n)]
            undecided = []
            for subset in subsets:
                pinned = []
                for c in _monic_product([roots[i] for i in subset])[:-1]:
                    lo, hi = math.ceil(c.lo), math.floor(c.hi)
                    if lo > hi:
                        break
                    pinned.append(lo if lo == hi else None)
                else:
                    if None in pinned:
                        undecided.append(subset)
                    elif not poly_divmod(poly, [Fraction(c) for c in pinned] + [_ONE])[1]:
                        return True
            subsets = undecided
            depth += 1
        return False

    def _build_tables(self) -> None:
        n = self.degree
        # theta^k for k = 0 .. 2n-2, reduced to the power basis
        powers: list[tuple[Fraction, ...]] = []
        cur = [_ZERO] * n
        cur[0] = _ONE
        powers.append(tuple(cur))
        for _ in range(2 * n - 2):
            shifted = [_ZERO] + cur[:]
            if len(shifted) > n:
                top = shifted.pop()
                # theta^n = -(a_0 + a_1 theta + ... + a_{n-1} theta^{n-1})
                shifted = [
                    s - top * Fraction(self.min_poly[i]) for i, s in enumerate(shifted)
                ]
            cur = shifted
            powers.append(tuple(cur))
        self._power_table = powers

        # power sums of the roots via Newton's identities
        a = self.min_poly
        p: list[Fraction] = [Fraction(n)]
        for k in range(1, 2 * n - 1):
            s = _ZERO
            for i in range(1, k):
                if k - i <= n:
                    s += Fraction(a[n - (k - i)]) * p[i]
            if k <= n:
                s += Fraction(k) * Fraction(a[n - k])
            p.append(-s)
        self._power_sums = p
        self.power_traces = tuple(p[k] for k in range(n))

        # trace form on the power basis and the discriminant
        self.trace_matrix = [tuple(p[i + j] for j in range(n)) for i in range(n)]
        disc = linalg.det(self.trace_matrix)
        if disc.denominator != 1 or disc <= 0:
            raise DegenerateRoots(f"discriminant {disc} is not a positive integer")
        self.disc_abs = int(disc)

        self.zero = FieldElement(self, [Fraction(0)] * n)
        self.one = self.from_rational(1)
        self.theta = FieldElement(
            self, [Fraction(1) if i == 1 else Fraction(0) for i in range(n)]
        )

    # -- element constructors ---------------------------------------------------

    def element(self, coords: Iterable) -> FieldElement:
        return FieldElement(self, coords)

    def from_rational(self, q) -> FieldElement:
        coords = [Fraction(q)] + [_ZERO] * (self.degree - 1)
        return FieldElement(self, coords)

    # -- arithmetic backends ------------------------------------------------------

    def _multiply(self, x: FieldElement, y: FieldElement) -> FieldElement:
        n = self.degree
        prod = [_ZERO] * (2 * n - 1)
        for i, a in enumerate(x.coords):
            if a == 0:
                continue
            for j, b in enumerate(y.coords):
                if b != 0:
                    prod[i + j] += a * b
        coords = [_ZERO] * n
        for k, c in enumerate(prod):
            if c != 0:
                for j, t in enumerate(self._power_table[k]):
                    coords[j] += c * t
        return FieldElement(self, coords)

    def mult_matrix(self, x: FieldElement) -> list[tuple[Fraction, ...]]:
        """Matrix of multiplication by x on the power basis (rows = images)."""
        cols = []
        for k in range(self.degree):
            basis_vec = FieldElement(
                self, [_ONE if i == k else _ZERO for i in range(self.degree)]
            )
            cols.append((x * basis_vec).coords)
        return cols

    def norm(self, x: FieldElement) -> Fraction:
        return linalg.det(self.mult_matrix(x))

    def _invert(self, x: FieldElement) -> FieldElement:
        if x.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        rows = list(zip(*self.mult_matrix(x)))  # columns act on coordinates
        e0 = [_ONE] + [_ZERO] * (self.degree - 1)
        sol = linalg.solve_unique(rows, e0)
        return FieldElement(self, sol)

    # -- embeddings and signs ----------------------------------------------------

    def _root_interval(self, place: int, depth: int) -> RatInterval:
        chain = self._root_chains[place]
        # p is monic with n simple real roots, so at every lower end of the
        # chain of the root at place it has the sign (-1)^(n - place); a
        # rational midpoint is never a root of an irreducible p of degree >= 2
        lo_sign = (-1) ** (self.degree - place)
        while len(chain) <= depth:
            iv = chain[-1]
            mid = iv.midpoint()
            if interval_poly_eval(self.min_poly, RatInterval(mid, mid)).sign() == lo_sign:
                chain.append(RatInterval(mid, iv.hi))
            else:
                chain.append(RatInterval(iv.lo, mid))
        return chain[depth]

    def _refine(self, x: FieldElement, place: int, decided, goal, least=False):
        """Interval of x at place at the first depth found where decided(iv)
        holds, or at the least such depth.  The chain is nested and interval
        Horner inclusion-monotone, so a decision holds at all greater depths:
        each step jumps by about log2(width / goal(iv)), since widths halve per
        depth, and stays between the greatest failing and least deciding depth
        seen."""
        lo, hi, depth = -1, None, 0
        while True:
            iv = interval_poly_eval(x.coords, self._root_interval(place, depth))
            if decided(iv):
                if not least:
                    return iv
                hi, best = depth, iv
            else:
                lo = depth
            if hi == lo + 1:
                return best
            g = goal(iv)
            r = iv.width / g if g else Fraction(2)
            step = r.numerator.bit_length() - r.denominator.bit_length()
            depth = max(depth + step, lo + 1)
            if hi is not None:
                depth = min(depth, hi - 1)

    def embed_at(self, x: FieldElement, place: int, prec_bits: int) -> RatInterval:
        """Interval of x at place at the least depth of width <= 2^-prec_bits."""
        target = Fraction(1, 2**prec_bits)
        return self._refine(
            x, place, lambda iv: iv.width <= target, lambda _: target, least=True
        )

    def embed(self, x: FieldElement, prec_bits: int = 30) -> list[RatInterval]:
        return [self.embed_at(x, i, prec_bits) for i in range(self.degree)]

    def sign_at(self, x: FieldElement, place: int) -> int:
        """Exact sign of the embedding of x at the given place."""
        if x.is_zero():
            return 0
        return self._refine(
            x, place, lambda iv: iv.sign() is not None, lambda iv: abs(iv.midpoint())
        ).sign()

    def signs(self, x: FieldElement) -> list[int]:
        return [self.sign_at(x, i) for i in range(self.degree)]

    def __repr__(self):
        return f"TotallyRealField({list(self.min_poly)})"

    def __reduce__(self):
        return (make_field, (self.min_poly,))


@lru_cache(maxsize=None)
def _field_cache(min_poly: tuple[int, ...]) -> TotallyRealField:
    return TotallyRealField(min_poly)


def make_field(min_poly: Sequence[int]) -> TotallyRealField:
    """Construct (or fetch the cached copy of) a totally real field.

    Coefficients are ascending: [c0, c1, ..., 1].
    """
    return _field_cache(tuple(int(c) for c in min_poly))


# ---------------------------------------------------------------------------
# public operations


def trace_pairing(x: FieldElement, y: FieldElement) -> Fraction:
    """Trace form <x, y> = Tr(x*y); equals the dot product of embeddings."""
    return (x * y).trace()


def norm(x: FieldElement) -> Fraction:
    return x.norm()


def is_totally_positive(x: FieldElement) -> bool:
    if x.is_zero():
        raise ZeroInput("total positivity is undefined for 0")
    return all(x.field.sign_at(x, i) > 0 for i in range(x.field.degree))


def embed(x: FieldElement, prec_bits: int = 30) -> list[RatInterval]:
    return x.field.embed(x, prec_bits)


def det_scaled(elements: Sequence[FieldElement]) -> ScaledRational:
    """Determinant of the embedding matrix of n elements, as q*sqrt(D).

    With places ordered by increasing root, the power-basis Vandermonde has
    determinant +sqrt(D), so the sign of q is the orientation of the tuple.
    """
    field = elements[0].field
    if len(elements) != field.degree:
        raise DegreeMismatch(f"{len(elements)} elements for a field of degree {field.degree}")
    q = linalg.det([e.coords for e in elements])
    return ScaledRational(q, 1, field.disc_abs)


def min_poly_of(x: FieldElement) -> list[Fraction]:
    """Monic minimal polynomial of x over the rationals, ascending."""
    field = x.field
    rows = []
    power = field.one
    for _ in range(field.degree + 1):
        rows.append(power.coords)
        ker = linalg.kernel(list(zip(*rows)))
        if ker:
            coeffs = list(ker[0])
            lead = next(c for c in reversed(coeffs) if c != 0)
            return [c / lead for c in poly_trim(coeffs)]
        power = power * x
    raise AssertionError("unreachable: degree bound exceeded")


def is_unit(x: FieldElement) -> bool:
    """True when x is an algebraic integer with norm +-1."""
    if x.is_zero():
        return False
    mp = min_poly_of(x)
    if any(c.denominator != 1 for c in mp):
        return False
    return abs(mp[0]) == 1


def root_index_at(x: FieldElement, root_ivs: Sequence[RatInterval], place: int) -> int:
    """Index of the root of the minimal polynomial of x, given by its
    isolating intervals root_ivs, that the embedding of x at place equals."""

    def hits(iv):
        return [k for k, r in enumerate(root_ivs) if not (iv.hi < r.lo or r.hi < iv.lo)]

    def goal(iv):  # midpoint to the nearest root-interval end, which iv holds
        ends = [e for r in root_ivs for e in (r.lo, r.hi) if iv.contains(e)]
        return min(abs(e - iv.midpoint()) for e in ends)

    return hits(x.field._refine(x, place, lambda iv: len(hits(iv)) == 1, goal))[0]


def root_indices(x: FieldElement, places: Sequence[int]) -> list[int]:
    """root_index_at for each of the places, from one minimal polynomial and
    one root isolation; a rational x has one root, index 0, at every place."""
    mp = min_poly_of(x)
    if len(mp) == 2:
        return [0] * len(places)
    root_ivs = isolate_real_roots(mp)
    return [root_index_at(x, root_ivs, place) for place in places]


def limit_pair(
    eps: FieldElement, assignment: Sequence[int] | None = None
) -> tuple[frozenset[int], frozenset[int]]:
    """(argmin places, argmax places) of the embeddings of a unit.

    Powers of a totally positive unit converge projectively to the basis
    direction of the largest embedding (and, for negative powers, of the
    smallest); the unit is generic exactly when both sets are singletons.
    Places are numbered from 1.  assignment, when given, is
    root_indices(eps, range(degree)), already computed by the caller.
    """
    if not is_unit(eps):
        raise NotAUnit(f"{eps} is not a unit")
    if not is_totally_positive(eps):
        raise NotTotallyPositive(f"{eps} is not totally positive")
    if assignment is None:
        assignment = root_indices(eps, range(eps.field.degree))
    lo_root = min(assignment)
    hi_root = max(assignment)
    mins = frozenset(i + 1 for i, k in enumerate(assignment) if k == lo_root)
    maxs = frozenset(i + 1 for i, k in enumerate(assignment) if k == hi_root)
    return mins, maxs


def _is_squarefree(d: int) -> bool:
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def _ceil_at(x: FieldElement, place: int) -> int:
    """Exact ceiling of an irrational embedding, read off a refined interval."""
    prec = 8
    while True:
        iv = x.field.embed_at(x, place, prec)
        lo = math.floor(iv.lo)
        if iv.hi < lo + 1:
            return lo + 1
        prec *= 2


def minus_continued_fraction(
    module_basis: Sequence[FieldElement],
) -> tuple[list[FieldElement], list[int], FieldElement]:
    """One period of the boundary of the convex hull of the totally positive
    points of a lattice M in a real quadratic field.

    Returns (A_0..A_{m-1}, b_0..b_{m-1}, eps): consecutive boundary points,
    walking toward increasing embedding at place 1 (0-indexed), with
    A_{k-1} + A_{k+1} = b_k A_k and A_{k+m} = eps A_k, where eps is the
    totally positive unit generating the stabilizer of M.  The b_k are the
    minus continued fraction of w_k = A_{k-1}/A_k, b_k = ceil(w_k) at place 0,
    which is purely periodic once w_k is reduced (w_k > 1 > w_k' > 0); see
    Zagier, "Zetafunktionen und quadratische Koerper" (1981), section 13.
    """
    from .geometry import primitive_generator, solve_in_basis  # geometry imports field

    m1, m2 = module_basis
    field = m1.field
    # A_0: the primitive lattice point on the ray of 1; P completes it to a
    # basis of M, since a*s + b*t = 1 makes det((a, b), (-t, s)) = 1
    cur = primitive_generator(field.one, module_basis)
    a, b = (int(c) for c in solve_in_basis(module_basis, cur))
    s = pow(a, -1, abs(b)) if b else a
    t = (1 - a * s) // b if b else 0
    prev = m2 * s - m1 * t
    # A_0 is rational, so w_0 = P/A_0 exceeds its conjugate at place 0 exactly
    # when the theta-coordinate of P is negative
    if prev.coords[1] > 0:
        prev = -prev

    def is_reduced(w: FieldElement) -> bool:
        return (
            field.sign_at(w - 1, 0) > 0
            and field.sign_at(w - 1, 1) < 0
            and field.sign_at(w, 1) > 0
        )

    # every A_k with k >= 1 is totally positive: A_{k+1} = (b_k - w_k) A_k
    w = prev / cur
    while not is_reduced(w):
        prev, cur = cur, cur * _ceil_at(w, 0) - prev
        w = prev / cur
    w_start, points, bs = w, [], []
    while True:
        points.append(cur)
        bs.append(_ceil_at(w, 0))
        prev, cur = cur, cur * bs[-1] - prev
        w = prev / cur
        if w == w_start:
            return points, bs, cur / points[0]


def fundamental_unit_quadratic(d: int) -> FieldElement:
    """Smallest totally positive unit > 1 of the ring of integers of Q(sqrt(d)).

    This is the fundamental unit, or its square when that has norm -1; it
    closes one period of the minus continued fraction of the maximal order.
    """
    if d < 2 or not _is_squarefree(d):
        raise NotSquarefree(f"d = {d} must be a squarefree integer >= 2")
    field = make_field([-d, 0, 1])
    omega = field.element([_ONE / 2, _ONE / 2]) if d % 4 == 1 else field.theta
    return minus_continued_fraction((field.one, omega))[2]


@dataclass(frozen=True)
class UnitGroupData:
    """Generators of a finite-index group of totally positive units."""

    generators: tuple[FieldElement, ...]

    def __post_init__(self):
        gens = tuple(self.generators)
        object.__setattr__(self, "generators", gens)
        for g in gens:
            if not is_unit(g):
                raise NotAUnit(f"{g} is not a unit")
            if not is_totally_positive(g):
                raise NotTotallyPositive(f"{g} is not totally positive")

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def field(self) -> TotallyRealField:
        return self.generators[0].field


class UnitPowers:
    """prod_i u_i^(e_i) over exponent vectors e, memoized for one computation.

    u_i and u_i^-1 are computed once.  A new vector is one multiplication away
    from its neighbour one step nearer zero, the first nonzero coordinate moved
    toward 0: the walk descends to the nearest vector in the table and
    multiplies back up, without recursion.  Over no units it gives field.one.
    """

    def __init__(self, field: TotallyRealField, units: Sequence[FieldElement]):
        self._steps = [(u, u.inverse()) for u in units]
        self._table = {(0,) * len(self._steps): field.one}

    def __call__(self, exponents: Sequence[int]) -> FieldElement:
        e, path = tuple(exponents), []
        if len(e) != len(self._steps):
            raise UnitRankMismatch(f"{len(e)} exponents for {len(self._steps)} units")
        while e not in self._table:
            i = next(k for k, a in enumerate(e) if a)
            path.append((e, i))
            e = e[:i] + (e[i] - 1 if e[i] > 0 else e[i] + 1,) + e[i + 1 :]
        x = self._table[e]
        for e, i in reversed(path):
            up, down = self._steps[i]
            x = self._table[e] = x * (up if e[i] > 0 else down)
        return x
