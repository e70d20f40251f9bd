"""Exact arithmetic in a totally real number field.

A field is described by a monic irreducible integer polynomial with all
roots real.  Elements are rational coordinate vectors in the power basis
1, t, ..., t^(n-1) of a root t, stored as integer numerators over one
positive common denominator; products, inverses, norms, minimal
polynomials, Sturm sequences and embedding refinement run on integers.
Real embeddings are ordered by increasing root and are only ever produced
as enclosing dyadic Intervals (``interval.Interval``), refinable to any
width; signs of nonzero elements are decided exactly.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache

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
from .interval import GUARD_BITS, Interval
from .record import FrozenRecord

_ZERO = Fraction(0)
_ONE = Fraction(1)


# ---------------------------------------------------------------------------
# interval bounds


def _interval(bounds: tuple[int, int, int], prec_bits: int) -> Interval:
    """The Interval of [lo/s, hi/s] for bounds (lo, hi, s).  Over the least
    common denominator s' = s / gcd(lo, hi, s), its mantissas carry the bits
    of both numerators, at least prec_bits, and 2 GUARD_BITS more: a dyadic
    [lo/s, hi/s] passes exactly, and any other is rounded outward by less
    than 2^-31 / s' at each end."""
    lo, hi, s = bounds
    g = math.gcd(lo, hi, s)
    bits = max((lo // g).bit_length(), (hi // g).bit_length(), prec_bits) + 2 * GUARD_BITS
    return Interval.scaled(lo, hi, s, bits)


def interval_poly_eval(
    num: Sequence[int], den: int, bounds: tuple[int, int, int]
) -> tuple[int, int, int]:
    """Interval Horner evaluation of the polynomial with coefficients
    num[i] / den for integers num[i] on the interval [lo/d, hi/d] given by
    bounds = (lo, hi, d), on integer numerators over the common denominator
    den * d^k after k steps.  Returns bounds (lo, hi, s) of the interval
    [lo/s, hi/s], the same interval as Horner on Fractions."""
    lo, hi, d = bounds
    *rest, top = num or [0]
    acc_lo = acc_hi = top
    scale = 1
    for c in reversed(rest):
        scale *= d
        products = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(products) + c * scale, max(products) + c * scale
    return acc_lo, acc_hi, den * scale


# ---------------------------------------------------------------------------
# polynomials (dense, ascending coefficients); Sturm chains and the root
# searches run on integer coefficients


def poly_trim(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_deriv(p: Sequence) -> list:
    return [c * k for k, c in enumerate(p)][1:]


def _positive_remainder(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The remainder of a modulo b times a positive rational, as a primitive
    integer polynomial ([] when b divides a): the pseudo-remainder, negated
    when the power of the leading coefficient of b it carries is negative."""
    r = poly_trim(list(a))
    lead, steps = b[-1], 0
    while len(r) >= len(b):
        c, shift = r[-1], len(r) - len(b)
        r = [v * lead for v in r]
        for i, v in enumerate(b):
            r[shift + i] -= c * v
        steps += 1
        poly_trim(r)
    if lead < 0 and steps % 2:
        r = [-v for v in r]
    g = math.gcd(*r)
    return [v // g for v in r] if g > 1 else r


def sturm_chain(p: Sequence[int]) -> list[list[int]]:
    """Sturm chain of an integer polynomial, each member a positive multiple
    of the classical one, so with the same signs everywhere; the last member
    is gcd(p, p') up to a constant."""
    chain = [list(p), poly_deriv(p)]
    while len(chain[-1]) > 1:
        rem = _positive_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_at(p: Sequence[int], a: int, b: int) -> int:
    """Sign of the integer polynomial p at a/b for b > 0, read off the
    integer b^deg(p) p(a/b) by homogeneous Horner."""
    *rest, acc = p
    bk = 1
    for c in reversed(rest):
        bk *= b
        acc = acc * a + c * bk
    return (acc > 0) - (acc < 0)


def _sign_variations(chain: Sequence[Sequence[int]], a: int, b: int) -> int:
    """Sign variations of the chain at a/b for b > 0."""
    signs = [s for s in (_sign_at(p, a, b) for p in chain) if s]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def isolate_real_roots(p: Sequence) -> list[tuple[int, int, int]]:
    """Isolating intervals for the real roots of a squarefree p, sorted
    increasing and meeting at most at an end, each as bounds (lo, hi, s) of
    [lo/s, hi/s] in lowest terms."""
    q = linalg.cleared(p)[0]
    return _isolate(q, sturm_chain(q))


def _isolate(q: Sequence[int], chain: Sequence[Sequence[int]]) -> list[tuple[int, int, int]]:
    """isolate_real_roots of the squarefree integer q on its Sturm chain.

    The sign variations at a less those at b count the roots in (a, b], also
    when a or b is a root, so a rational root may be the upper end of its
    interval and then also the lower end of the next one.
    """
    # every root lies in (-b/s, b/s) with b/s = 1 + max |q_i| / |q_lead|
    s = abs(q[-1])
    b = s + max((abs(c) for c in q[:-1]), default=0)
    result = []
    # entries (lo, hi, s, variations at lo/s, variations at hi/s)
    stack = [(-b, b, s, _sign_variations(chain, -b, s), _sign_variations(chain, b, s))]
    while stack:
        lo, hi, s, vlo, vhi = stack.pop()
        if vlo - vhi == 1:
            g = math.gcd(lo, hi, s)
            result.append((lo // g, hi // g, s // g))
        elif vlo > vhi:
            vmid = _sign_variations(chain, lo + hi, 2 * s)
            stack.append((2 * lo, lo + hi, 2 * s, vlo, vmid))
            stack.append((lo + hi, 2 * hi, 2 * s, vmid, vhi))
    return result[::-1]  # the upper half is searched first


def _monic_product(roots: Sequence[Interval]) -> list[Interval]:
    """Interval coefficients c_0 .. c_{k-1} (ascending) of the monic
    prod (x - r) = x^k + ... over k >= 1 roots, the leading 1 left out."""
    coeffs = [-roots[0]]
    for r in roots[1:]:
        coeffs = [-r * coeffs[0], *(a - r * c for a, c in zip(coeffs, coeffs[1:])), coeffs[-1] - r]
    return coeffs


# ---------------------------------------------------------------------------
# scaled rationals  q * sqrt(D)^e


def _exact_isqrt(d: int) -> int | None:
    r = math.isqrt(d)
    return r if r * r == d else None


def surd_float(a: Fraction, c: Fraction, disc: int) -> float:
    """a + c sqrt(disc), correctly rounded to the nearest float.

    c sqrt(disc) is bracketed between neighbours of the 2^-k grid by an
    integer square root, and k doubles until both ends of the bracket round
    to the same float.  With a = p/q an end r/2^k gives a + r/2^k =
    (p 2^k + q r) / (q 2^k), and int / int division rounds correctly.  An
    irrational value is never a rounding tie, so the loop ends."""
    if c == 0:
        return float(a)
    p, q = a.numerator, a.denominator
    square, den2 = c.numerator**2 * disc, c.denominator**2
    k = 64
    while True:
        scaled = square << 2 * k
        root = math.isqrt(scaled // den2)
        on_grid = root * root * den2 == scaled  # c sqrt(disc) = root / 2^k
        lo, hi = root, root + (not on_grid)
        if c < 0:
            lo, hi = -hi, -lo
        base, den = p << k, q << k
        value = (base + q * lo) / den
        if value == (base + q * hi) / den:
            return value
        k *= 2


class ScaledRational(FrozenRecord):
    """Exact value q * sqrt(D)^e with rational q and e in {-1, 0, 1}.

    D is the positive discriminant of the ambient field; determinants of
    embedding matrices of field elements always land in Q * sqrt(D).  When D
    is a perfect square the sqrt folds into q and e normalizes to 0.
    """

    __slots__ = ("q", "e", "disc")

    def __init__(self, q: Fraction, e: int, disc: int):
        if e not in (-1, 0, 1):
            raise MixedExponents(f"exponent {e} is not -1, 0 or 1")
        if disc <= 0:
            raise DegenerateRoots(f"discriminant {disc} is not positive")
        q = Fraction(q)
        if q == 0:
            e = 0
        elif e != 0:
            s = _exact_isqrt(disc)
            if s is not None:
                q = q * s if e == 1 else q / s
                e = 0
        self._fill(q, e, disc)

    @classmethod
    def rational(cls, q, disc: int) -> "ScaledRational":
        return cls(Fraction(q), 0, disc)

    def parts(self) -> tuple[Fraction, Fraction]:
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
        a0, a1 = self.parts()
        b0, b1 = other.parts()
        if a1 != 0 or b1 != 0:
            if self.disc != other.disc:
                return False
        return (a0, a1) == (b0, b1)

    def __hash__(self):
        r, c = self.parts()
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

    def __float__(self) -> float:
        return surd_float(*self.parts(), self.disc)

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
    """Element of a totally real field: power-basis coordinates num[i] / den
    with integers num[i] and den > 0, kept canonical, gcd(den, *num) = 1."""

    __slots__ = ("field", "num", "den", "_coords")

    def __init__(self, field: "TotallyRealField", coords: Iterable):
        c = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in coords]
        if len(c) != field.degree:
            raise DegreeMismatch(f"{len(c)} coordinates for a field of degree {field.degree}")
        # the least common denominator of reduced fractions is coprime to
        # the numerators it scales them to
        den = math.lcm(*(v.denominator for v in c))
        self.field = field
        self.num = tuple(v.numerator * (den // v.denominator) for v in c)
        self.den = den
        self._coords = None

    @classmethod
    def _make(cls, field: "TotallyRealField", num: Sequence[int], den: int) -> "FieldElement":
        """The element num / den for den > 0, brought to canonical form."""
        g = math.gcd(den, *num)
        x = object.__new__(cls)
        x.field = field
        x.num = tuple(v // g for v in num) if g > 1 else tuple(num)
        x.den = den // g
        x._coords = None
        return x

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates as Fractions, built on first use."""
        if self._coords is None:
            self._coords = tuple(Fraction(v, self.den) for v in self.num)
        return self._coords

    # -- ring structure ------------------------------------------------------

    def _coerce(self, other) -> "FieldElement | None":
        if isinstance(other, FieldElement):
            if other.field is not self.field:
                raise ValueError("elements of different fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def _combine(self, o: "FieldElement", sign: int) -> "FieldElement":
        """self + sign * o."""
        g = math.gcd(self.den, o.den)
        ma, mb = o.den // g, sign * (self.den // g)
        num = [a * ma + b * mb for a, b in zip(self.num, o.num)]
        return FieldElement._make(self.field, num, self.den * ma)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement._make(self.field, [-a for a in self.num], self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._combine(o, -1)

    def __rsub__(self, other):
        return -(self - other)

    def _scale(self, q: Fraction) -> "FieldElement":
        return FieldElement._make(
            self.field, [a * q.numerator for a in self.num], self.den * q.denominator
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.field._multiply(self, o)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        return self.field._invert(self)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(1 / Fraction(other))
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
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((id(self.field), self.coords))

    def is_zero(self) -> bool:
        return not any(self.num)

    # -- invariants ------------------------------------------------------------

    def trace(self) -> Fraction:
        return Fraction(sum(a * p for a, p in zip(self.num, self.field.power_traces)), self.den)

    def norm(self) -> Fraction:
        return self.field.norm(self)

    # -- canonical projective / ray keys ---------------------------------------

    def proj_key(self) -> tuple[Fraction, ...]:
        """Canonical representative of the projective point: first nonzero
        coordinate scaled to 1."""
        for c in self.num:
            if c:
                return tuple(Fraction(v, c) for v in self.num)
        raise ZeroInput("zero vector has no projective class")

    def ray_key(self) -> tuple[Fraction, ...]:
        """Canonical representative of the ray: positive scaling with first
        nonzero coordinate of absolute value 1."""
        for c in self.num:
            if c:
                return tuple(Fraction(v, abs(c)) for v in self.num)
        raise ZeroInput("zero vector spans no ray")

    def __repr__(self):
        return f"FieldElement{self.coords}"


class TotallyRealField:
    """Totally real number field presented by its defining polynomial."""

    def __init__(self, min_poly: Sequence[int]):
        poly = [int(c) for c in min_poly]
        n = len(poly) - 1
        if n < 2 or poly[-1] != 1 or poly != list(min_poly):
            raise NotIrreducible("defining polynomial must be monic over Z of degree >= 2")
        self.min_poly = tuple(poly)
        self.degree = n
        # the last member of the Sturm chain is gcd(p, p')
        chain = sturm_chain(poly)
        if len(chain[-1]) > 1:
            raise NotIrreducible(f"{poly} is reducible over the rationals")
        # refinement chains of bounds, one per real root, extended lazily
        self._root_chains = [[bounds] for bounds in _isolate(poly, chain)]
        real = len(self._root_chains)
        # a rational root is real, so a linear factor is found before the count
        if self._has_factor([1]) or real == n and self._has_factor(range(2, n // 2 + 1)):
            raise NotIrreducible(f"{poly} is reducible over the rationals")
        if real < n:
            raise NotTotallyReal(f"only {real} of {n} roots are real")
        self._build_tables()

    def _has_factor(self, degrees: Iterable[int]) -> bool:
        """Whether some product of k real roots, prod (x - r_i) for k in
        degrees, is an integer polynomial dividing the defining one.

        A monic integer polynomial factors over Q exactly when it has a monic
        integer factor of degree k <= n/2 (Gauss's lemma).  A linear factor's
        root is real; a greater degree is searched only when every root is.
        The root intervals are refined until each coefficient of a candidate
        product either holds no integer, which rules the subset out, or pins
        exactly one; a fully pinned candidate is then divided out exactly.
        x - r reads -r's integers off r's bounds, with no Interval.
        """
        places = range(len(self._root_chains))
        subsets = [s for k in degrees for s in itertools.combinations(places, k)]
        depth = 0
        while subsets:
            roots = {i: _interval(self._root_interval(i, depth), 0)
                     for i in {i for subset in subsets if len(subset) > 1 for i in subset}}
            undecided = []
            for subset in subsets:
                if len(subset) == 1:  # r lies in (lo/s, hi/s]
                    lo, hi, s = self._root_interval(subset[0], depth)
                    integers = [(-(hi // s), -(lo // s) - 1)]
                else:  # the integers in [lo 2^exp, hi 2^exp], off the mantissas
                    integers = [(-(-c.lo >> -c.exp), c.hi >> -c.exp) if c.exp < 0
                                else (c.lo << c.exp, c.hi << c.exp)
                                for c in _monic_product([roots[i] for i in subset])]
                pinned = []
                for lo, hi in integers:
                    if lo > hi:
                        break
                    pinned.append(lo if lo == hi else None)
                else:
                    if None in pinned:
                        undecided.append(subset)
                    elif not _positive_remainder(self.min_poly, pinned + [1]):
                        return True
            subsets = undecided
            depth += 1
        return False

    def _build_tables(self) -> None:
        n = self.degree
        # theta^k for k = 0 .. 2n-2, reduced to the power basis; integral,
        # since the defining polynomial is monic over Z
        powers = [tuple(int(i == k) for i in range(n)) for k in range(n)]
        for _ in range(n - 1):
            powers.append(self._times_theta(powers[-1]))
        self._power_table = powers

        # power sums of the roots via Newton's identities
        a = self.min_poly
        p = [n]
        for k in range(1, 2 * n - 1):
            s = sum(a[n - (k - i)] * p[i] for i in range(1, k) if k - i <= n)
            if k <= n:
                s += k * a[n - k]
            p.append(-s)
        self.power_traces = tuple(p[:n])

        # trace form on the power basis and the discriminant
        self.trace_matrix = [tuple(p[i + j] for j in range(n)) for i in range(n)]
        disc = linalg.int_det(self.trace_matrix)
        if disc <= 0:
            raise DegenerateRoots(f"discriminant {disc} is not a positive integer")
        self.disc_abs = disc

        self.zero = FieldElement._make(self, [0] * n, 1)
        self.one = self.from_rational(1)
        self.theta = FieldElement._make(self, powers[1], 1)

    def _times_theta(self, v: Sequence[int]) -> tuple[int, ...]:
        """Integer coordinates of theta * v: theta^n = -(a_0 + ... + a_{n-1}
        theta^{n-1})."""
        top = v[-1]
        return tuple(s - top * a for s, a in zip((0, *v[:-1]), self.min_poly))

    # -- element constructors ---------------------------------------------------

    def element(self, coords: Iterable) -> FieldElement:
        return FieldElement(self, coords)

    def from_rational(self, q) -> FieldElement:
        q = Fraction(q)
        return FieldElement._make(self, [q.numerator] + [0] * (self.degree - 1), q.denominator)

    # -- arithmetic backends ------------------------------------------------------

    def _multiply(self, x: FieldElement, y: FieldElement) -> FieldElement:
        """Integer convolution of the numerators, reduced by the integer
        power table, over the product of the denominators."""
        n = self.degree
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(x.num):
            if a:
                for j, b in enumerate(y.num):
                    prod[i + j] += a * b
        coords = prod[:n]
        for k in range(n, 2 * n - 1):
            c = prod[k]
            if c:
                for j, t in enumerate(self._power_table[k]):
                    coords[j] += c * t
        return FieldElement._make(self, coords, x.den * y.den)

    def _mult_columns(self, x: FieldElement) -> list[tuple[int, ...]]:
        """Columns of the matrix of multiplication by den * x on the power
        basis: the integer coordinates of num * theta^k."""
        cols = [x.num]
        for _ in range(self.degree - 1):
            cols.append(self._times_theta(cols[-1]))
        return cols

    def norm(self, x: FieldElement) -> Fraction:
        return Fraction(linalg.int_det(self._mult_columns(x)), x.den**self.degree)

    def _invert(self, x: FieldElement) -> FieldElement:
        """den / num: den z for the solution z = adj(M) e_0 / det(M) of the
        integer system M z = e_0, M the matrix of columns num * theta^k."""
        if x.is_zero():
            raise ZeroDivisionError("inverse of zero field element")
        adj, det = linalg.adjugate(list(zip(*self._mult_columns(x))))
        s = x.den if det > 0 else -x.den
        return FieldElement._make(self, [s * row[0] for row in adj], abs(det))

    # -- embeddings and signs ----------------------------------------------------

    def _root_interval(self, place: int, depth: int) -> tuple[int, int, int]:
        """Bounds (lo, hi, s) of the isolating interval [lo/s, hi/s] of the
        root at place after depth bisections."""
        chain = self._root_chains[place]
        # p is monic with m simple real roots, so between the root at place and
        # the one below it has the sign (-1)^(m - place).  Each interval
        # (lo/s, hi/s] holds its root: a midpoint of that sign lies below it,
        # and one of sign 0 is the root itself (a rational root, met only by
        # the factor search), kept as the upper end of the lower half.
        lo_sign = (-1) ** (len(self._root_chains) - place)
        while len(chain) <= depth:
            lo, hi, s = chain[-1]
            if _sign_at(self.min_poly, lo + hi, 2 * s) == lo_sign:
                chain.append((lo + hi, 2 * hi, 2 * s))
            else:
                chain.append((2 * lo, lo + hi, 2 * s))
        return chain[depth]

    def _refine(self, x: FieldElement, place: int, decided, excess, least=False):
        """Bounds (lo, hi, s) of the interval [lo/s, hi/s] of x at place at the
        first depth found where decided(lo, hi, s) holds, or at the least such
        depth.  The chain is nested and interval Horner inclusion-monotone, so
        a decision holds at all greater depths: each step jumps by
        excess(lo, hi, s), about log2(width / the width the decision needs),
        since widths halve per depth, and stays between the greatest failing
        and least deciding depth seen."""
        lo, hi, depth = -1, None, 0
        while True:
            bounds = interval_poly_eval(x.num, x.den, self._root_interval(place, depth))
            if decided(*bounds):
                if not least:
                    return bounds
                hi, best = depth, bounds
            else:
                lo = depth
            if hi == lo + 1:
                return best
            depth = max(depth + excess(*bounds), lo + 1)
            if hi is not None:
                depth = min(depth, hi - 1)

    def embed_at(self, x: FieldElement, place: int, prec_bits: int) -> Interval:
        """Interval of x at place at the least depth of width <= 2^-prec_bits,
        decided on the exact bounds; exact when they are dyadic, rounded
        outward by _interval otherwise."""

        def narrow(lo, hi, s):
            return (hi - lo) << prec_bits <= s

        def excess(lo, hi, s):
            return _excess_bits((hi - lo) << prec_bits, s)

        return _interval(self._refine(x, place, narrow, excess, least=True), prec_bits)

    def embed(self, x: FieldElement, prec_bits: int = 30) -> list[Interval]:
        return [self.embed_at(x, i, prec_bits) for i in range(self.degree)]

    def sign_at(self, x: FieldElement, place: int) -> int:
        """Exact sign of the embedding of x at the given place."""
        if x.is_zero():
            return 0

        def signed(lo, hi, s):
            return lo > 0 or hi < 0 or lo == hi == 0

        def excess(lo, hi, s):  # the goal is the distance of the midpoint to 0
            return _excess_bits(2 * (hi - lo), abs(lo + hi))

        lo, hi, _ = self._refine(x, place, signed, excess)
        return (lo > 0) - (hi < 0)

    def signs(self, x: FieldElement) -> list[int]:
        return [self.sign_at(x, i) for i in range(self.degree)]

    def __repr__(self):
        return f"TotallyRealField({list(self.min_poly)})"

    def __reduce__(self):
        return (make_field, (self.min_poly,))


def _excess_bits(width: int, goal: int) -> int:
    """About log2(width / goal) for integers width, goal >= 0 over one
    denominator; 1 when the goal is 0."""
    return width.bit_length() - goal.bit_length() if goal else 1


@lru_cache(maxsize=None)
def _field_cache(min_poly: tuple[int, ...]) -> TotallyRealField:
    return TotallyRealField(min_poly)


def make_field(min_poly: Sequence[int]) -> TotallyRealField:
    """Construct (or fetch the cached copy of) a totally real field.

    Coefficients are ascending integers: [c0, c1, ..., 1].
    """
    return _field_cache(tuple(min_poly))


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


def embed(x: FieldElement, prec_bits: int = 30) -> list[Interval]:
    return x.field.embed(x, prec_bits)


def det_scaled(elements: Sequence[FieldElement]) -> ScaledRational:
    """Determinant of the embedding matrix of n elements, as q*sqrt(D).

    With places ordered by increasing root, the power-basis Vandermonde has
    determinant +sqrt(D), so the sign of q is the orientation of the tuple.
    """
    field = elements[0].field
    if len(elements) != field.degree:
        raise DegreeMismatch(f"{len(elements)} elements for a field of degree {field.degree}")
    return ScaledRational(coord_det(elements), 1, field.disc_abs)


def coord_det(elements: Sequence[FieldElement]) -> Fraction:
    """Determinant of the power-basis coordinate rows of n elements."""
    return Fraction(linalg.int_det([e.num for e in elements]), math.prod(e.den for e in elements))


def min_poly_of(x: FieldElement) -> list[Fraction]:
    """Monic minimal polynomial of x over the rationals, ascending."""
    powers = [x.field.one]
    for _ in range(x.field.degree):
        powers.append(powers[-1] * x)
    # the first kernel vector e of the integer matrix with columns num(x^k)
    # has its 1 at the first power dependent on the lower ones, so
    # sum_k e_k den(x^k) x^k = 0 is the minimal relation
    ker = linalg.kernel(list(zip(*(p.num for p in powers))))
    coeffs = poly_trim([e * p.den for e, p in zip(ker[0], powers)])
    return [c / coeffs[-1] for c in coeffs]


def is_unit(x: FieldElement) -> bool:
    """True when x is an algebraic integer with norm +-1."""
    return _is_unit_poly(min_poly_of(x))


def _is_unit_poly(mp: Sequence[Fraction]) -> bool:
    """Whether a minimal polynomial (t for 0) is a unit's: integer, constant term +-1."""
    return all(c.denominator == 1 for c in mp) and abs(mp[0]) == 1


def _checked_unit(x: FieldElement) -> list[Fraction]:
    """x's minimal polynomial; NotAUnit or NotTotallyPositive unless x is a totally positive unit."""
    mp = min_poly_of(x)
    if not _is_unit_poly(mp):
        raise NotAUnit(f"{x} is not a unit")
    if not is_totally_positive(x):
        raise NotTotallyPositive(f"{x} is not totally positive")
    return mp


def root_index_at(
    x: FieldElement, roots: Sequence[tuple[int, int, int]], place: int
) -> int:
    """Index of the root of the minimal polynomial of x, given by the bounds
    of its isolating intervals from isolate_real_roots, that the embedding of
    x at place equals."""

    def hits(lo, hi, s):  # root intervals meeting [lo/s, hi/s]
        return [k for k, (a, b, d) in enumerate(roots) if a * s <= hi * d and lo * d <= b * s]

    def excess(lo, hi, s):  # the goal is the distance of the midpoint to the
        # nearest root-interval end in [lo/s, hi/s]; there is one, as two meet it
        return max(
            _excess_bits(2 * d * (hi - lo), abs(2 * s * e - (lo + hi) * d))
            for a, b, d in roots
            for e in (a, b)
            if lo * d <= e * s <= hi * d
        )

    return hits(*x.field._refine(x, place, lambda *b: len(hits(*b)) == 1, excess))[0]


def root_indices(x: FieldElement, places: Sequence[int]) -> list[int]:
    """root_index_at for each of the places, from one minimal polynomial and
    one root isolation; a rational x has one root, index 0, at every place."""
    return _root_indices(x, min_poly_of(x), places)


def _root_indices(x: FieldElement, mp: Sequence[Fraction], places: Sequence[int]) -> list[int]:
    """root_indices on the minimal polynomial mp of x."""
    if len(mp) == 2:
        return [0] * len(places)
    roots = isolate_real_roots(mp)
    return [root_index_at(x, roots, place) for place in places]


def limit_pair(eps: FieldElement) -> tuple[frozenset[int], frozenset[int]]:
    """(argmin places, argmax places) of the embeddings of a unit.

    Powers of a totally positive unit converge projectively to the basis
    direction of the largest embedding (and, for negative powers, of the
    smallest); the unit is generic exactly when both sets are singletons.
    Places are numbered from 1, read off the root indices of the minimal
    polynomial that the unit check finds.
    """
    return _extreme_places(_root_indices(eps, _checked_unit(eps), range(eps.field.degree)))


def _extreme_places(order: Sequence[int]) -> tuple[frozenset[int], frozenset[int]]:
    """(argmin places, argmax places), from 1, of an order such as root indices."""
    lo, hi = min(order), max(order)
    return (frozenset(i + 1 for i, k in enumerate(order) if k == lo),
            frozenset(i + 1 for i, k in enumerate(order) if k == hi))


def _is_squarefree(d: int) -> bool:
    k = 2
    while k * k <= d:
        if d % (k * k) == 0:
            return False
        k += 1
    return True


def _ceil_at(x: FieldElement, place: int) -> int:
    """Exact ceiling of an embedding, read off the first interval on which
    the ceiling is constant: one that holds no integer, for irrational x."""

    def decided(lo, hi, s):
        return -(-lo // s) == -(-hi // s)

    def excess(lo, hi, s):  # the goal is the distance of the midpoint to an integer
        r = (lo + hi) % (2 * s)
        return _excess_bits(2 * (hi - lo), min(r, 2 * s - r))

    lo, _, s = x.field._refine(x, place, decided, excess)
    return -(-lo // s)


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


class UnitGroupData(FrozenRecord):
    """Generators of a finite-index group of totally positive units."""

    __slots__ = ("generators",)

    def __init__(self, generators: Sequence[FieldElement]):
        gens = tuple(generators)
        for g in gens:
            _checked_unit(g)
        self._fill(gens)

    @classmethod
    def _checked(cls, generators: Sequence[FieldElement]) -> "UnitGroupData":
        """Generators checked elsewhere: by a LatticeFrame, or products of checked ones."""
        units = object.__new__(cls)
        units._fill(tuple(generators))
        return units

    @property
    def rank(self) -> int:
        return len(self.generators)

    @property
    def field(self) -> TotallyRealField:
        if not self.generators:
            raise UnitRankMismatch("a unit group without generators names no field")
        return self.generators[0].field


class ExponentTable:
    """Values v(e) over exponent vectors e, memoized: v(e) is step(v(e'), i,
    up) for the neighbour e' one step nearer zero in the first nonzero
    coordinate i (up when e_i > 0).  The walk descends to the nearest vector
    in the table and steps back up, without recursion."""

    def __init__(self, rank: int, origin, step):
        self._rank, self._step = rank, step
        self._table = {(0,) * rank: origin}

    def __call__(self, exponents: Sequence[int]):
        e, path = tuple(exponents), []
        if len(e) != self._rank:
            raise UnitRankMismatch(f"{len(e)} exponents for {self._rank} units")
        while e not in self._table:
            i = next(k for k, a in enumerate(e) if a)
            path.append((e, i))
            e = e[:i] + (e[i] - 1 if e[i] > 0 else e[i] + 1,) + e[i + 1 :]
        x = self._table[e]
        for e, i in reversed(path):
            x = self._table[e] = self._step(x, i, e[i] > 0)
        return x


class UnitPowers(ExponentTable):
    """prod_i u_i^(e_i), one multiplication per new vector; field.one over
    no units."""

    def __init__(self, field: TotallyRealField, units: Sequence[FieldElement]):
        steps = [(u.inverse(), u) for u in units]
        super().__init__(len(steps), field.one, lambda x, i, up: x * steps[i][up])
