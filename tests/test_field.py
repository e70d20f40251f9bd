import functools
import itertools
import math
import random
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesum import linalg
from conesum.errors import (
    DegenerateRoots,
    DegreeMismatch,
    EmptyInterval,
    MixedExponents,
    NotAUnit,
    NotIrreducible,
    NotSquarefree,
    NotTotallyPositive,
    NotTotallyReal,
    UnitRankMismatch,
    ZeroInput,
)
from conesum.field import (
    FieldElement,
    _ceil_at,
    ScaledRational,
    TotallyRealField,
    UnitPowers,
    det_scaled,
    embed,
    fundamental_unit_quadratic,
    interval_poly_eval,
    is_totally_positive,
    is_unit,
    isolate_real_roots,
    limit_pair,
    make_field,
    min_poly_of,
    norm,
    root_index_at,
    sturm_chain,
    surd_float,
    trace_pairing,
)
from conesum.interval import GUARD_BITS, Interval

QUADRATIC = [-3, 0, 1]  # x^2 - 3
CUBIC = [1, -2, -1, 1]  # x^3 - x^2 - 2x + 1
QUARTIC = [1, 1, -4, 0, 1]  # x^4 - 4x^2 + 1 (totally real)


def resultant(p, q):
    """Sylvester-matrix resultant; independent of the field machinery."""
    n, m = len(p) - 1, len(q) - 1
    size = n + m
    rows = []
    for i in range(m):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(p)):
            row[i + j] = Fraction(c)
        rows.append(row)
    for i in range(n):
        row = [Fraction(0)] * size
        for j, c in enumerate(reversed(q)):
            row[i + j] = Fraction(c)
        rows.append(row)
    return linalg.det(rows)


def poly_disc_oracle(poly):
    """disc(f) = (-1)^(n(n-1)/2) Res(f, f') for monic f."""
    fprime = [k * c for k, c in enumerate(poly)][1:]
    n = len(poly) - 1
    sign = (-1) ** (n * (n - 1) // 2)
    return sign * resultant(poly, fprime)


def random_element(field, rng, span=6):
    return field.element(
        [Fraction(rng.randint(-span, span), rng.randint(1, 3)) for _ in range(field.degree)]
    )


class TestMakeField:
    def test_quadratic_roots_and_disc(self):
        F = make_field(QUADRATIC)
        assert F.degree == 2
        assert F.disc_abs == poly_disc_oracle(QUADRATIC) == 12
        lo, hi = F.embed(F.theta, 20)
        assert abs(float(lo.midpoint()) + math.sqrt(3)) < 1e-4
        assert abs(float(hi.midpoint()) - math.sqrt(3)) < 1e-4
        assert lo.endpoints()[1] < hi.endpoints()[0]

    def test_cubic_disc(self):
        F = make_field(CUBIC)
        assert F.disc_abs == poly_disc_oracle(CUBIC) == 49

    def test_quartic_disc_matches_resultant(self):
        F = make_field(QUARTIC)
        assert F.disc_abs == poly_disc_oracle(QUARTIC)

    def test_complex_roots_rejected(self):
        with pytest.raises(NotTotallyReal):
            make_field([1, 0, 1])  # x^2 + 1

    def test_reducible_rejected(self):
        with pytest.raises(NotIrreducible):
            make_field([-4, 0, 1])  # (x-2)(x+2)

    def test_non_monic_rejected(self):
        with pytest.raises(NotIrreducible):
            make_field([-3, 0, 2])

    @pytest.mark.parametrize(
        "poly",
        [
            [6, 0, -5, 0, 1],  # (x^2 - 2)(x^2 - 3): no rational root
            [4, 0, -4, 0, 1],  # (x^2 - 2)^2: not squarefree
            [3, -3, -1, 1],  # (x - 1)(x^2 - 3)
            [0, -3, 0, 1],  # x (x^2 - 3)
            [-1, 0, 9, 0, -6, 0, 1],  # (x^3 - 3x - 1)(x^3 - 3x + 1)
            [-(10**9 + 7) * (10**9 + 9), 2, 1],  # integer roots of ten digits
            [0, -19, 0, 1],  # x (x^2 - 19): 0 is the first bisection point
            [-1, 3, -1, -2, 1],  # (x - 1)(x^3 - x^2 - 2x + 1), 1 between its roots
        ],
    )
    def test_reducible_totally_real_rejected(self, poly):
        with pytest.raises(NotIrreducible):
            make_field(poly)

    def test_irreducible_but_reducible_mod_every_prime(self):
        # x^4 - 10x^2 + 1, the minimal polynomial of sqrt2 + sqrt3
        F = make_field([1, 0, -10, 0, 1])
        assert F.disc_abs == poly_disc_oracle([1, 0, -10, 0, 1])

    def test_reducible_with_complex_roots_is_not_totally_real(self):
        # (x^2 + 1)(x^2 - 2): no rational root, and the real-root count is
        # checked before the search for factors of degree >= 2, which needs
        # every root real
        with pytest.raises(NotTotallyReal):
            make_field([-2, 0, -1, 0, 1])

    def test_rational_root_is_found_before_the_count(self):
        # (x - 1)(x^2 + 1): a rational root is real, so the linear factor
        # search on the real roots runs before the real-root count
        with pytest.raises(NotIrreducible):
            TotallyRealField([-1, 1, -1, 1])

    @given(
        r=st.integers(-(10**6), 10**6),
        q=st.lists(st.integers(-20, 20), min_size=1, max_size=4).map(lambda c: c + [1]),
    )
    @settings(max_examples=200, deadline=None)
    def test_linear_factor_is_found(self, r, q):
        # (x - r) q(x), whatever q's roots are
        poly = [a - r * b for a, b in zip([0] + q, q + [0])]
        with pytest.raises(NotIrreducible):
            TotallyRealField(poly)

    @pytest.mark.parametrize(
        "poly", [[-3.5, 0, 1], [Fraction(-7, 2), 0, 1], [-3, 0, 1.9]], ids=str
    )
    def test_non_integer_coefficient_rejected(self, poly):
        # each was truncated to x^2 - 3
        with pytest.raises(NotIrreducible):
            make_field(poly)
        with pytest.raises(NotIrreducible):
            TotallyRealField(poly)

    @pytest.mark.parametrize(
        "poly", [QUADRATIC, CUBIC, QUARTIC], ids=["sqrt3", "cubic49", "quartic"]
    )
    def test_one_sturm_chain_and_no_fractions(self, poly):
        # one chain for squarefreeness, isolation and refinement; the factor
        # search multiplies Intervals and reads integers off their mantissas
        codes = {f.__code__ for f in (sturm_chain, Interval.of.__func__, Interval.endpoints)}
        calls = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code in codes:
                calls.append(frame.f_code.co_name)

        sys.setprofile(profile)
        try:
            TotallyRealField(poly)
        finally:
            sys.setprofile(None)
        assert calls == ["sturm_chain"]

    @pytest.mark.parametrize("poly", [QUADRATIC, CUBIC], ids=["sqrt3", "cubic49"])
    def test_linear_factor_pass_makes_no_interval(self, poly):
        # degree <= 3 runs the k = 1 pass only, which reads the integers of
        # each root's (lo/s, hi/s] off its integer bounds
        assert profiled_calls((Interval.scaled.__func__,), TotallyRealField, poly) == []

    def test_irreducibility_agrees_with_sympy(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        rng = random.Random(17)
        polys = [
            [rng.randint(-9, 9) for _ in range(rng.randint(2, 5))] + [1]
            for _ in range(120)
        ]
        for a, b in zip(polys[:40], polys[40:80]):
            product = [0] * (len(a) + len(b) - 1)
            for i, u in enumerate(a):
                for j, v in enumerate(b):
                    product[i + j] += u * v
            if len(product) <= 7:
                polys.append(product)
        totally_real = 0
        for poly in polys:
            expr = sympy.Poly(sum(c * x**k for k, c in enumerate(poly)), x)
            irreducible = expr.is_irreducible
            real = len(expr.real_roots()) == len(poly) - 1
            try:
                make_field(poly)
                outcome = "field"
            except NotIrreducible:
                outcome = "reducible"
            except NotTotallyReal:
                outcome = "not totally real"
            if real:
                totally_real += 1
                assert outcome == ("field" if irreducible else "reducible"), poly
            elif outcome == "field":
                pytest.fail(f"{poly} has complex roots but built a field")
            elif irreducible:
                assert outcome == "not totally real", poly
        assert totally_real >= 40


class TestArithmetic:
    @pytest.mark.parametrize("coords", [[1], [1, 2, 3]])
    def test_coordinate_count_must_match_degree(self, coords):
        F = make_field(QUADRATIC)
        with pytest.raises(DegreeMismatch):
            F.element(coords)

    def test_trace_pairing_values(self):
        F = make_field(QUADRATIC)
        one, rt3 = F.one, F.theta
        assert trace_pairing(one, one) == 2
        assert trace_pairing(rt3, rt3) == 6
        assert trace_pairing(one, rt3) == 0

    def test_norm_values(self):
        F = make_field(QUADRATIC)
        assert norm(F.one) == 1
        assert norm(F.element([2, 1])) == 1  # 2 + sqrt(3)
        assert norm(F.element([3, 1])) == 6  # 3 + sqrt(3): 9 - 3

    def test_norm_multiplicative_trace_additive(self):
        rng = random.Random(7)
        for poly in (QUADRATIC, CUBIC, QUARTIC):
            F = make_field(poly)
            for _ in range(40):
                x, y = random_element(F, rng), random_element(F, rng)
                assert norm(x * y) == norm(x) * norm(y)
                assert (x + y).trace() == x.trace() + y.trace()

    def test_inverse(self):
        rng = random.Random(11)
        F = make_field(CUBIC)
        for _ in range(30):
            x = random_element(F, rng)
            if x.is_zero():
                continue
            assert x * x.inverse() == F.one

    def test_trace_pairing_is_embedding_dot_product(self):
        rng = random.Random(3)
        for poly in (QUADRATIC, CUBIC):
            F = make_field(poly)
            for _ in range(10):
                x, y = random_element(F, rng), random_element(F, rng)
                exact = trace_pairing(x, y)
                ivs = [a * b for a, b in zip(embed(x, 40), embed(y, 40))]
                total = ivs[0]
                for iv in ivs[1:]:
                    total = total + iv
                assert exact in total


class TestTotalPositivity:
    def test_examples(self):
        F = make_field(QUADRATIC)
        assert is_totally_positive(F.element([2, 1]))
        assert not is_totally_positive(F.theta)
        with pytest.raises(ZeroInput):
            is_totally_positive(F.zero)


class TestEmbed:
    def test_embedding_of_one(self):
        F = make_field(QUADRATIC)
        for iv in embed(F.one, 50):
            assert iv.endpoints() == (1, 1)

    def test_embedding_value(self):
        F = make_field(QUADRATIC)
        lo, hi = embed(F.element([2, 1]), 40)
        assert abs(float(lo.midpoint()) - (2 - math.sqrt(3))) < 1e-10
        assert abs(float(hi.midpoint()) - (2 + math.sqrt(3))) < 1e-10

    def test_monotone_in_precision(self):
        F = make_field(CUBIC)
        x = F.element([1, 2, -1])
        for place in range(3):
            prev = None
            for prec in (5, 10, 20, 40, 80):
                lo, hi = F.embed_at(x, place, prec).endpoints()
                assert hi - lo <= Fraction(1, 2**prec)
                if prev is not None:
                    assert prev[0] <= lo and hi <= prev[1]
                prev = lo, hi


def poly_eval(p, x):
    """Horner on Fractions."""
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


class RatInterval:
    """The reference interval of these tests: exact Fraction endpoints and
    exact arithmetic, for the oracles that embeddings and root chains are
    checked against (the library's own Interval is dyadic)."""

    def __init__(self, lo, hi):
        assert lo <= hi
        self.lo, self.hi = Fraction(lo), Fraction(hi)

    @classmethod
    def scaled(cls, lo, hi, s):
        return cls(Fraction(lo, s), Fraction(hi, s))

    def __eq__(self, other):
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __repr__(self):
        return f"RatInterval({self.lo}, {self.hi})"

    @property
    def width(self):
        return self.hi - self.lo

    def midpoint(self):
        return (self.lo + self.hi) / 2

    def contains(self, value):
        return self.lo <= value <= self.hi

    def sign(self):
        """Certified sign, or None if the interval straddles zero."""
        if self.lo > 0:
            return 1
        if self.hi < 0:
            return -1
        return 0 if self.lo == self.hi == 0 else None

    def __add__(self, other):
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __neg__(self):
        return RatInterval(-self.hi, -self.lo)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        products = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return RatInterval(min(products), max(products))


def bounds_of(iv):
    """(lo, hi, s) with integers and [lo/s, hi/s] the interval iv, over the
    least common denominator s."""
    s = math.lcm(iv.lo.denominator, iv.hi.denominator)
    return tuple(e.numerator * (s // e.denominator) for e in (iv.lo, iv.hi)) + (s,)


def fraction_horner(coeffs, iv):
    """Interval Horner on Fractions, one RatInterval operation per step."""
    acc = RatInterval(Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        acc = acc * iv + RatInterval(c, c)
    return acc


class ReferenceChain:
    """Root intervals by plain bisection of the isolating interval, one
    Fraction evaluation of p at both ends of every step."""

    def __init__(self, min_poly, place):
        self.poly = [Fraction(c) for c in min_poly]
        self.chain = [RatInterval.scaled(*isolate_real_roots(self.poly)[place])]

    def at(self, depth):
        while len(self.chain) <= depth:
            iv = self.chain[-1]
            mid = iv.midpoint()
            if poly_eval(self.poly, iv.lo) * poly_eval(self.poly, mid) < 0:
                self.chain.append(RatInterval(iv.lo, mid))
            else:
                self.chain.append(RatInterval(mid, iv.hi))
        return self.chain[depth]


@functools.lru_cache(maxsize=None)
def reference_chain(min_poly, place):
    return ReferenceChain(min_poly, place)


def scan(x, chain, decided):
    """First depth, scanned one by one, whose interval satisfies decided."""
    depth = 0
    while not decided(fraction_horner(x.coords, chain.at(depth))):
        depth += 1
    return fraction_horner(x.coords, chain.at(depth))


def scan_embeddings(x, chain, precs):
    """{prec: interval at the first depth of width <= 2^-prec}, from one
    depth-by-depth walk on the integer kernel, which
    test_interval_poly_eval_matches_fraction_horner checks on its own."""
    found, depth = {}, 0
    while len(found) < len(precs):
        iv = RatInterval.scaled(*interval_poly_eval(x.num, x.den, bounds_of(chain.at(depth))))
        for prec in precs:
            if prec not in found and iv.width <= Fraction(1, 2**prec):
                found[prec] = iv
        depth += 1
    return found


def reference_ceil_at(x, place):
    """The loop _ceil_at ran before its one depth search: embed_at at 8, 16,
    32, ... bits until the interval lies below the next integer."""
    prec = 8
    while True:
        lo, hi = x.field.embed_at(x, place, prec).endpoints()
        if hi < math.floor(lo) + 1:
            return math.floor(lo) + 1
        prec *= 2


REFINE_PRECS = (20, 64, 128, 256, 1024)


def refinement_cases():
    """(field, elements): unit powers up to exponent +-8, a unit power minus
    the integer part of its embedding at the last place, where it keeps
    only the fractional part, and small elements."""
    rng = random.Random(5)
    cases = []
    for poly, unit_coords in (
        (QUADRATIC, [[2, 1]]),
        (CUBIC, [[0, 1, 0], [-1, 1, 0]]),
        (QUARTIC, [[0, 1, 0, 0], [-1, 1, 0, 0]]),
    ):
        F = make_field(poly)
        units = [F.element(c) for c in unit_coords]
        xs = [units[0] ** k for k in (-8, -1, 2, 8)] + [u**k for u in units[1:] for k in (-8, 8)]
        big = units[0] ** 8
        xs += [big - math.floor(F.embed_at(big, F.degree - 1, 8).endpoints()[0])]
        xs += [units[0] - F.from_rational(Fraction(7, 3)), random_element(F, rng)]
        cases.append((F, xs))
    return cases


FIELD_IDS = ["quadratic", "cubic", "quartic"]


class TestRefinement:
    """embed_at, sign_at and root_index_at jump through the root chain; they
    must return what a depth-by-depth scan returns."""

    @pytest.mark.parametrize("case", range(3), ids=FIELD_IDS)
    def test_embed_at_is_least_depth_interval(self, case):
        # the least-depth interval, rounded outward to the mantissa bits of
        # its bounds in lowest terms (at least prec) and 2 GUARD_BITS more,
        # and exactly the reference where its denominator is a power of two
        F, xs = refinement_cases()[case]
        dyadic = set()
        for place in range(F.degree):
            chain = reference_chain(F.min_poly, place)
            for x in xs:
                ref = scan_embeddings(x, chain, REFINE_PRECS)
                for prec in REFINE_PRECS:
                    lo, hi, s = bounds_of(ref[prec])
                    bits = max(lo.bit_length(), hi.bit_length(), prec) + 2 * GUARD_BITS
                    got = F.embed_at(x, place, prec).endpoints()
                    assert got == Interval.scaled(lo, hi, s, bits).endpoints()
                    dyadic.add(s & (s - 1) == 0)
                    if s & (s - 1) == 0:
                        assert got == (ref[prec].lo, ref[prec].hi)
        assert dyadic == {True, False}

    @pytest.mark.parametrize("case", range(3), ids=FIELD_IDS)
    def test_sign_and_root_index_match_scan(self, case):
        F, xs = refinement_cases()[case]
        for place in range(F.degree):
            chain = reference_chain(F.min_poly, place)
            for x in xs:
                iv = scan(x, chain, lambda iv: iv.sign() is not None)
                assert F.sign_at(x, place) == iv.sign()

                roots = isolate_real_roots(min_poly_of(x))
                root_ivs = [RatInterval.scaled(*r) for r in roots]

                def hits(iv):
                    return [k for k, r in enumerate(root_ivs) if iv.hi >= r.lo and r.hi >= iv.lo]

                iv = scan(x, chain, lambda iv: len(hits(iv)) == 1)
                assert root_index_at(x, roots, place) == hits(iv)[0]

    def test_root_chain_matches_reference(self):
        for poly in (QUADRATIC, CUBIC, QUARTIC):
            F = make_field(poly)
            for place in range(F.degree):
                ref = reference_chain(F.min_poly, place)
                depths = range(0, 1100, 7)
                assert [RatInterval.scaled(*F._root_interval(place, d)) for d in depths] == [
                    ref.at(d) for d in depths
                ]

    @pytest.mark.parametrize(
        "poly", [QUADRATIC, [-13, 0, 1], CUBIC], ids=["sqrt3", "sqrt13", "cubic"]
    )
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_ceil_at_matches_doubling_loop(self, poly, data):
        # random elements plus a power of 2 + theta, whose embeddings come
        # close to integers where a conjugate is small (as for 2 + sqrt 3)
        F = make_field(poly)
        span = st.integers(-10**6, 10**6)
        coords = data.draw(st.lists(span, min_size=F.degree, max_size=F.degree))
        den = data.draw(st.integers(1, 10**4))
        x = F.element([Fraction(c, den) for c in coords]) + (F.theta + 2) ** data.draw(
            st.integers(0, 16)
        )
        if x.coords[1:] == (0,) * (F.degree - 1):  # keep x irrational
            x = x + F.theta
        for place in range(F.degree):
            assert _ceil_at(x, place) == reference_ceil_at(x, place)

    def test_ceil_at_rational(self):
        F = make_field(CUBIC)
        for q in (Fraction(7), Fraction(-7), Fraction(22, 7), Fraction(-22, 7)):
            for place in range(F.degree):
                assert _ceil_at(F.from_rational(q), place) == math.ceil(q)

    from hypothesis import given, settings
    from hypothesis import strategies as st

    fracs = st.fractions(min_value=-50, max_value=50, max_denominator=10**6)

    @given(coeffs=st.lists(fracs, max_size=7), ends=st.lists(fracs, min_size=2, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_interval_poly_eval_matches_fraction_horner(self, coeffs, ends):
        den = math.lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        for iv in (RatInterval(min(ends), max(ends)), RatInterval(ends[0], ends[0])):
            bounds = interval_poly_eval(num, den, bounds_of(iv))
            assert RatInterval.scaled(*bounds) == fraction_horner(coeffs, iv)


class TestDetScaled:
    def test_quadratic_example(self):
        F = make_field(QUADRATIC)
        d = det_scaled([F.one, F.theta])
        assert d == ScaledRational(Fraction(1), 1, 12)

    def test_dependent_tuple(self):
        F = make_field(QUADRATIC)
        assert det_scaled([F.one, F.one]).is_zero()

    def test_element_count_must_match_degree(self):
        F = make_field(CUBIC)
        with pytest.raises(DegreeMismatch):
            det_scaled([F.one, F.theta])

    def test_gram_consistency_500(self):
        rng = random.Random(123)
        count = 0
        for poly in (QUADRATIC, CUBIC, QUARTIC):
            F = make_field(poly)
            n = F.degree
            for _ in range(167):
                A = [random_element(F, rng) for _ in range(n)]
                d = det_scaled(A)
                gram = [[trace_pairing(a, b) for b in A] for a in A]
                assert d * d == ScaledRational.rational(linalg.det(gram), F.disc_abs)
                if d.e == 1:  # nonsquare disc: q is the raw coordinate det
                    assert linalg.det(gram) == d.q**2 * F.disc_abs
                count += 1
        assert count >= 500

    def test_sign_follows_orientation(self):
        # swapping two rows flips the sign of the scaled determinant
        F = make_field(QUADRATIC)
        a, b = F.element([1, 0]), F.element([1, Fraction(1, 3)])
        assert det_scaled([a, b]).q == -det_scaled([b, a]).q


class TestScaledRationalProperties:
    # algebraic laws checked over generated values
    from hypothesis import given, settings
    from hypothesis import strategies as st

    fracs = st.fractions(
        min_value=-100, max_value=100, max_denominator=40
    )
    exps = st.sampled_from([-1, 0, 1])

    @given(q1=fracs, q2=fracs, e=exps)
    @settings(max_examples=80, deadline=None)
    def test_same_class_addition_matches_floats(self, q1, q2, e):
        a = ScaledRational(q1, e, 12)
        b = ScaledRational(q2, e, 12)
        total = a + b
        assert abs(float(total) - (float(a) + float(b))) < 1e-9

    @given(q1=fracs, q2=fracs, e1=exps, e2=exps)
    @settings(max_examples=80, deadline=None)
    def test_multiplication_matches_floats(self, q1, q2, e1, e2):
        a = ScaledRational(q1, e1, 12)
        b = ScaledRational(q2, e2, 12)
        assert abs(float(a * b) - float(a) * float(b)) < 1e-9

    @given(q=fracs, e=exps)
    @settings(max_examples=80, deadline=None)
    def test_double_negation_and_zero_sum(self, q, e):
        a = ScaledRational(q, e, 12)
        assert -(-a) == a
        assert (a + (-a)).is_zero()

    def test_rational_plus_irrational_rejected(self):
        from conesum.errors import MixedExponents

        a = ScaledRational(Fraction(1), 0, 12)
        b = ScaledRational(Fraction(1), 1, 12)
        with pytest.raises(MixedExponents):
            a + b

    def test_interval_product_contains_products(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st
        # spot-checked directly: midpoint products lie in interval products
        rng = random.Random(9)
        for _ in range(50):
            vals = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(4)]
            a = Interval.of(min(vals[0], vals[1]), max(vals[0], vals[1]), 64)
            b = Interval.of(min(vals[2], vals[3]), max(vals[2], vals[3]), 64)
            prod = a * b
            for x in (*a.endpoints(), a.midpoint()):
                for y in (*b.endpoints(), b.midpoint()):
                    assert x * y in prod


@st.composite
def scaled_triples(draw, mixed=False):
    """Three scaled rationals over one discriminant (49 folds every exponent
    to 0): on one line of equal sqrt(D) parity, where sums are defined, or
    with freely mixed exponents."""
    disc = draw(st.sampled_from([2, 5, 12, 49]))
    if mixed:
        exps = st.sampled_from([-1, 0, 1])
    else:
        exps = st.sampled_from([-1, 1] if draw(st.booleans()) else [0])
    fracs = st.fractions(min_value=-100, max_value=100, max_denominator=40)
    return [ScaledRational(draw(fracs), draw(exps), disc) for _ in range(3)]


@st.composite
def element_triples(draw):
    """Three elements of one field of degree 2, 3 or 4."""
    F = make_field(draw(st.sampled_from([QUADRATIC, CUBIC, QUARTIC])))
    fracs = st.fractions(min_value=-9, max_value=9, max_denominator=5)
    coords = st.lists(fracs, min_size=F.degree, max_size=F.degree)
    return [F.element(draw(coords)) for _ in range(3)]


class TestRingLaws:
    @given(vals=scaled_triples())
    @settings(max_examples=100, deadline=None)
    def test_scaled_addition(self, vals):
        a, b, c = vals
        zero = ScaledRational.rational(0, a.disc)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + zero == a == zero + a
        assert (a + (-a)).is_zero()

    @given(vals=scaled_triples(mixed=True), line=scaled_triples())
    @settings(max_examples=100, deadline=None)
    def test_scaled_multiplication_and_distributivity(self, vals, line):
        a, b, c = vals
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        _, d, e = line
        f = ScaledRational(a.q, a.e, d.disc)
        assert f * (d + e) == f * d + f * e

    @given(vals=scaled_triples(mixed=True))
    @settings(max_examples=100, deadline=None)
    def test_scaled_inverse_and_zero(self, vals):
        a = vals[0]
        assert (a * ScaledRational.rational(0, a.disc)).is_zero()
        if a.is_zero():
            with pytest.raises(ZeroDivisionError):
                a.inverse()
        else:
            assert a * a.inverse() == ScaledRational.rational(1, a.disc)
            assert a.inverse().inverse() == a

    @given(vals=element_triples())
    @settings(max_examples=60, deadline=None)
    def test_field_ring_laws(self, vals):
        x, y, z = vals
        F = x.field
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + F.zero == x and x * F.one == x
        assert (x * F.zero).is_zero() and (x - x).is_zero()

    @given(vals=element_triples())
    @settings(max_examples=60, deadline=None)
    def test_field_inverse_and_zero(self, vals):
        x, y, _ = vals
        if x.is_zero():
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == x.field.one
            assert (x * y) / x == y

    @given(vals=element_triples())
    @settings(max_examples=100, deadline=None)
    def test_inverse_matches_the_fraction_solve(self, vals):
        # the inverse as it was solved before the adjugate: the system of the
        # multiplication columns on Fractions, scaled by den
        for x in vals:
            if x.is_zero():
                continue
            F = x.field
            rows = list(zip(*F._mult_columns(x)))
            sol = linalg.solve_unique(rows, [1] + [0] * (F.degree - 1))
            inv = x.inverse()
            assert inv == F.element(sol) * x.den and math.gcd(inv.den, *inv.num) == 1


class TestScaledRational:
    def test_add_same_exponent(self):
        a = ScaledRational(Fraction(1, 2), -1, 12)
        b = ScaledRational(Fraction(1, 3), -1, 12)
        assert (a + b) == ScaledRational(Fraction(5, 6), -1, 12)

    def test_cross_exponent_equality(self):
        # q/sqrt(D) == (q/D) sqrt(D)
        assert ScaledRational(Fraction(3), -1, 12) == ScaledRational(Fraction(1, 4), 1, 12)

    def test_mul_reduces_exponent(self):
        a = ScaledRational(Fraction(1, 2), 1, 12)
        assert a * a == ScaledRational(Fraction(3), 0, 12)
        b = ScaledRational(Fraction(1), -1, 12)
        assert b * b == ScaledRational(Fraction(1, 12), 0, 12)

    def test_square_disc_folds(self):
        a = ScaledRational(Fraction(2), 1, 49)
        assert a.e == 0 and a.q == 14

    def test_inverse(self):
        for e in (-1, 0, 1):
            a = ScaledRational(Fraction(3, 5), e, 12)
            assert a * a.inverse() == ScaledRational(Fraction(1), 0, 12)

    @pytest.mark.parametrize("e", [2, -2])
    def test_exponent_out_of_range_rejected(self, e):
        with pytest.raises(MixedExponents):
            ScaledRational(Fraction(1), e, 12)

    @pytest.mark.parametrize("disc", [0, -12])
    def test_nonpositive_discriminant_rejected(self, disc):
        with pytest.raises(DegenerateRoots):
            ScaledRational(Fraction(1), 1, disc)

    @given(
        a=st.fractions(max_denominator=10**6),
        c=st.fractions(max_denominator=10**6),
        disc=st.integers(min_value=2, max_value=10**6),
        scale=st.integers(min_value=-80, max_value=80),
    )
    @settings(max_examples=300, deadline=None)
    def test_surd_float_is_correctly_rounded(self, a, c, disc, scale):
        # a near -c sqrt(D) makes the sum cancel; the reference is rounded
        # once from 3000 bits
        c = c * Fraction(2) ** scale
        with mpmath.workprec(3000):
            root = mpmath.sqrt(disc)
            if scale % 3 == 0:  # cancel against a 60-bit rounding of c sqrt(D)
                a = -Fraction(int(mpmath.nint(c.numerator * root * 2**60 / c.denominator)), 2**60)
            exact = mpmath.mpf(a.numerator) / a.denominator + mpmath.mpf(c.numerator) / c.denominator * root
            assert surd_float(a, c, disc) == float(exact)

    def test_float_of_a_scaled_rational(self):
        assert float(ScaledRational(Fraction(1, 4), 1, 12)) == math.sqrt(12) / 4
        assert float(ScaledRational(Fraction(-3), -1, 12)) == -math.sqrt(3) / 2
        assert float(ScaledRational(Fraction(2), 1, 49)) == 14.0
        assert surd_float(Fraction(-3), Fraction(1), 9) == 0.0

    def test_exact_str(self):
        assert ScaledRational(Fraction(1, 4), 1, 12).exact_str() == "1/4√12"
        assert ScaledRational(Fraction(1, 4), -1, 12).exact_str() == "1/4/√12"
        assert ScaledRational(Fraction(0), 1, 12).exact_str() == "0"


class TestUnits:
    def test_pell_oracle_examples(self):
        u3 = fundamental_unit_quadratic(3)
        assert u3.coords == (Fraction(2), Fraction(1))
        u2 = fundamental_unit_quadratic(2)
        assert u2.coords == (Fraction(3), Fraction(2))
        u5 = fundamental_unit_quadratic(5)
        assert u5.coords == (Fraction(3, 2), Fraction(1, 2))

    def test_pell_results_are_smallest_tp_units(self):
        # brute-force oracle: no totally positive unit lies strictly between
        # 1 and the returned unit at the positive-root embedding
        for d in (2, 3, 5, 6, 7):
            u = fundamental_unit_quadratic(d)
            F = u.field
            assert is_unit(u) and is_totally_positive(u)
            upper = float(embed(u, 30)[1].endpoints()[1]) + 0.01
            denom = 2 if d % 4 == 1 else 1
            for a2 in range(-int(denom * upper) - 1, int(denom * upper) + 2):
                for b2 in range(1, int(denom * upper / math.sqrt(d)) + 2):
                    if denom == 2 and (a2 - b2) % 2 != 0:
                        continue
                    cand = F.element([Fraction(a2, denom), Fraction(b2, denom)])
                    if cand == u or abs(cand.norm()) != 1:
                        continue
                    if not min_poly_is_integral(cand):
                        continue
                    if not all(s > 0 for s in F.signs(cand)):
                        continue
                    # candidate is a TP unit: it must not be in (1, u)
                    lo, hi = embed(cand, 30)[1].endpoints()
                    assert lo > 1 or hi < 1 or lo <= 1 <= hi
                    if lo > 1:
                        assert hi > embed(u, 30)[1].endpoints()[0]

    def test_unit_beyond_brute_force_reach(self):
        u = fundamental_unit_quadratic(151)
        assert u.coords == (Fraction(1728148040), Fraction(140634693))

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            fundamental_unit_quadratic(4)


def min_poly_is_integral(x):
    return all(c.denominator == 1 for c in min_poly_of(x))


class TestUnitGroupData:
    def test_accepts_tp_units(self):
        from conesum.field import UnitGroupData

        u = fundamental_unit_quadratic(3)
        V = UnitGroupData((u,))
        assert V.rank == 1
        powers = UnitPowers(V.field, V.generators)
        assert powers([3]) == u * u * u
        assert powers([-2]) == (u * u).inverse()

    def test_rejects_non_unit(self):
        from conesum.errors import NotAUnit
        from conesum.field import UnitGroupData

        F = make_field(QUADRATIC)
        with pytest.raises(NotAUnit):
            UnitGroupData((F.element([3, 1]),))  # norm 6

    def test_rejects_non_totally_positive(self):
        from conesum.errors import NotTotallyPositive
        from conesum.field import UnitGroupData

        F2 = make_field([-2, 0, 1])
        with pytest.raises(NotTotallyPositive):
            UnitGroupData((F2.element([1, 1]),))  # 1+sqrt2: a unit, not TP


def power_product_reference(field, units, exponents):
    x = field.one
    for u, a in zip(units, exponents):
        x = x * u**a
    return x


def walk_units(name):
    if name == "cubic":
        F = make_field(CUBIC)
        th = F.theta
        return F, (th * th, (th - 1) * (th - 1))
    eps = fundamental_unit_quadratic(3)
    # 2eps is a non-unit action of norm 4
    units = {"sqrt3": (eps,), "2eps": (eps * 2,), "sqrt3-2eps": (eps, eps * 2)}
    return eps.field, units[name]


class TestUnitPowers:
    @pytest.mark.parametrize("name", ["cubic", "sqrt3", "2eps", "sqrt3-2eps"])
    def test_matches_power_product(self, name):
        field, units = walk_units(name)
        rng = random.Random(name)
        powers = UnitPowers(field, units)
        vectors = [(0,) * len(units)] + [
            tuple(rng.randint(-6, 6) for _ in units) for _ in range(25)
        ]
        for e in vectors:
            assert powers(e) == power_product_reference(field, units, e)
        assert powers((0,) * len(units)) == field.one

    def test_no_units(self):
        F = make_field(CUBIC)
        assert UnitPowers(F, ())(()) == F.one

    def test_exponent_count_must_match(self):
        from conesum.errors import UnitRankMismatch
        u = fundamental_unit_quadratic(3)
        powers = UnitPowers(u.field, (u, u * u))
        for e in [(1,), (1, 0, 0), ()]:
            with pytest.raises(UnitRankMismatch):
                powers(e)

    def test_one_multiply_per_vector(self, monkeypatch):
        F = make_field(CUBIC)
        th = F.theta
        powers = UnitPowers(F, (th * th, (th - 1) * (th - 1)))  # builds inverses
        calls = []
        multiply = TotallyRealField._multiply

        def counting(self, x, y):
            calls.append(1)
            return multiply(self, x, y)

        monkeypatch.setattr(TotallyRealField, "_multiply", counting)
        box = list(itertools.product(range(-3, 4), repeat=2))
        random.Random(5).shuffle(box)
        for e in box:
            powers(e)
        assert len(calls) == len(box) - 1
        for e in box:
            powers(e)
        assert len(calls) == len(box) - 1

    def test_deep_vector_on_fresh_table(self):
        u = fundamental_unit_quadratic(3)
        k = sys.getrecursionlimit() + 100
        assert UnitPowers(u.field, (u,))((-k,)) == u.inverse() ** k


class TestLimitPair:
    def test_quadratic_unit(self):
        u = fundamental_unit_quadratic(3)  # 2 + sqrt(3)
        assert limit_pair(u) == (frozenset({1}), frozenset({2}))
        assert limit_pair(u * u) == (frozenset({1}), frozenset({2}))

    def test_one(self):
        F = make_field(QUADRATIC)
        assert limit_pair(F.one) == (frozenset({1, 2}), frozenset({1, 2}))

    def test_inverse_swaps(self):
        u = fundamental_unit_quadratic(3)
        mins, maxs = limit_pair(u)
        mins_i, maxs_i = limit_pair(u.inverse())
        assert (mins, maxs) == (maxs_i, mins_i)

    def test_cubic_unit(self):
        F = make_field(CUBIC)
        theta = F.theta
        sq = theta * theta
        assert is_unit(sq) and is_totally_positive(sq)
        mins, maxs = limit_pair(sq)
        assert len(mins) == 1 and len(maxs) == 1

    def test_rejects_non_unit(self):
        with pytest.raises(NotAUnit):
            limit_pair(make_field(QUADRATIC).element([3, 1]))  # norm 6

    @pytest.mark.parametrize("poly, coords", [(QUADRATIC, [2, 1]), (CUBIC, [0, 0, 1]),
                                              (QUARTIC, [0, 0, 1, 0])],
                             ids=["sqrt3", "cubic49", "quartic"])
    def test_one_minimal_polynomial(self, poly, coords):
        # 2 + sqrt3 and theta^2: the unit check and the root indices read the same one
        unit = make_field(poly).element(coords)
        assert profiled_calls((min_poly_of,), limit_pair, unit) == ["min_poly_of"]

    def test_rejects_non_totally_positive(self):
        with pytest.raises(NotTotallyPositive):
            limit_pair(make_field([-2, 0, 1]).element([1, 1]))  # norm -1


def profiled_calls(functions, fn, *args) -> list[str]:
    """The names of the calls made to functions while fn(*args) runs,
    counted by code object."""
    codes = {f.__code__ for f in functions}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


@st.composite
def elements_with_coords(draw):
    """(field, coordinates) in degree 2, 3 or 4; zero coordinates are common."""
    F = make_field(draw(st.sampled_from([QUADRATIC, CUBIC, QUARTIC])))
    fracs = st.one_of(
        st.just(Fraction(0)), st.fractions(min_value=-30, max_value=30, max_denominator=12)
    )
    return F, draw(st.lists(fracs, min_size=F.degree, max_size=F.degree))


def reference_product(F, x, y):
    """x * y from Fraction coordinates: the polynomial product reduced
    modulo the defining polynomial by long division."""
    n = F.degree
    prod = [Fraction(0)] * (2 * n - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    for k in range(2 * n - 2, n - 1, -1):
        top, prod[k] = prod[k], Fraction(0)
        for i in range(n):
            prod[k - n + i] -= top * F.min_poly[i]
    return tuple(prod[:n])


class TestElementRepresentation:
    """Elements are integer numerators over one canonical denominator; what
    they show outside must equal what Fraction coordinates give."""

    @staticmethod
    def assert_canonical(x, coords):
        assert x.den > 0 and math.gcd(x.den, *x.num) == 1
        assert x.coords == tuple(coords)
        assert tuple(Fraction(a, x.den) for a in x.num) == tuple(coords)

    @given(case=elements_with_coords(), other=elements_with_coords())
    @settings(max_examples=200, deadline=None)
    def test_canonical_form_and_arithmetic(self, case, other):
        F, coords = case
        x = F.element(coords)
        self.assert_canonical(x, coords)
        self.assert_canonical(F.element([str(c) for c in coords]), coords)
        ycoords = (other[1] + [Fraction(0)] * F.degree)[: F.degree]
        y = F.element(ycoords)
        self.assert_canonical(x + y, [a + b for a, b in zip(coords, ycoords)])
        self.assert_canonical(x - y, [a - b for a, b in zip(coords, ycoords)])
        self.assert_canonical(-x, [-a for a in coords])
        self.assert_canonical(x * Fraction(-4, 6), [a * Fraction(-2, 3) for a in coords])
        self.assert_canonical(x / Fraction(-3, 5), [a * Fraction(-5, 3) for a in coords])
        self.assert_canonical(x * y, reference_product(F, coords, ycoords))
        if not y.is_zero():
            self.assert_canonical((x * y) / y, coords)

    @given(case=elements_with_coords(), other=elements_with_coords())
    @settings(max_examples=200, deadline=None)
    def test_equality_hash_and_keys_match_fraction_coords(self, case, other):
        F, coords = case
        x = F.element(coords)
        assert hash(x) == hash((id(F), tuple(coords)))
        for y in (x * 3 / 3, (x + x) - x, -(-x), x * F.one):
            assert y == x and hash(y) == hash(x) and (y.num, y.den) == (x.num, x.den)
        ycoords = (other[1] + [Fraction(0)] * F.degree)[: F.degree]
        assert (F.element(ycoords) == x) == (ycoords == coords)
        if not x.is_zero():  # equal numerators over another denominator
            assert x / 2 != x and x * 3 != x
        if F.degree == 2 and coords[1] == 0:
            assert (x == coords[0]) and (coords[0] == x)
        nonzero = [c for c in coords if c != 0]
        if not nonzero:
            with pytest.raises(ZeroInput):
                x.proj_key()
            with pytest.raises(ZeroInput):
                x.ray_key()
            return
        assert x.proj_key() == tuple(c / nonzero[0] for c in coords)
        assert x.ray_key() == tuple(c / abs(nonzero[0]) for c in coords)

    @given(case=elements_with_coords())
    @settings(max_examples=100, deadline=None)
    def test_trace_norm_and_inverse_match_fraction_coords(self, case):
        F, coords = case
        x = F.element(coords)
        assert x.trace() == sum(c * t for c, t in zip(coords, F.power_traces))
        columns = [coords]
        for _ in range(F.degree - 1):
            columns.append(reference_product(F, columns[-1], F.theta.coords))
        assert norm(x) == linalg.det(columns)
        if not x.is_zero():
            self.assert_canonical(x.inverse() * x, F.one.coords)


def fraction_sturm_chain(p):
    """The classical Sturm chain on Fractions: p, p', then the negated
    remainders of polynomial long division."""

    def remainder(a, b):
        a = list(a)
        while len(a) >= len(b) and a:
            q = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= q * c
            while a and a[-1] == 0:
                a.pop()
        return a

    chain = [[Fraction(c) for c in p]]
    chain.append([k * c for k, c in enumerate(chain[0])][1:])
    while len(chain[-1]) > 1:
        rem = remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


class TestSturmOnIntegers:
    int_polys = st.lists(st.integers(-20, 20), min_size=2, max_size=7).filter(
        lambda p: p[-1] != 0
    )

    @given(p=int_polys, x=st.fractions(min_value=-40, max_value=40, max_denominator=10**4))
    @settings(max_examples=300, deadline=None)
    def test_integer_chain_signs_match_fraction_chain(self, p, x):
        from conesum.field import _sign_at, _sign_variations, sturm_chain

        def sign(v):
            return (v > 0) - (v < 0)

        chain, reference = sturm_chain(p), fraction_sturm_chain(p)
        assert len(chain) == len(reference)
        assert all(isinstance(c, int) for q in chain for c in q)
        signs = [_sign_at(q, x.numerator, x.denominator) for q in chain]
        assert signs == [sign(poly_eval(r, x)) for r in reference]
        signs = [sign(poly_eval(r, x)) for r in reference if poly_eval(r, x) != 0]
        changes = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert _sign_variations(chain, x.numerator, x.denominator) == changes


class TestIsolateRealRoots:
    @given(
        ds=st.sets(
            st.integers(2, 60).filter(lambda d: math.isqrt(d) ** 2 != d), min_size=1, max_size=3
        ),
        lead=st.integers(1, 9),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds_isolate_each_root(self, ds, lead):
        """lead * prod (x^2 - d): the bounds are in lowest terms, sorted, at
        most sharing ends, one per root, and p changes sign across each."""
        p = [Fraction(lead)]
        for d in ds:
            p = [a - d * b for a, b in zip([0, 0] + p, p + [0, 0])]
        roots = isolate_real_roots(p)
        assert len(roots) == 2 * len(ds)
        assert all(math.gcd(lo, hi, s) == 1 and s > 0 and lo < hi for lo, hi, s in roots)
        ivs = [RatInterval.scaled(*r) for r in roots]
        assert all(a.hi <= b.lo for a, b in zip(ivs, ivs[1:]))
        assert all(poly_eval(p, iv.lo) * poly_eval(p, iv.hi) < 0 for iv in ivs)


class TestRatIntervalEnclosure:
    """The Fraction reference interval of these tests encloses point results,
    so the oracles built on it are sound; the library's Interval refuses
    reversed ends."""

    fracs = st.fractions(min_value=-60, max_value=60, max_denominator=50)
    unit = st.fractions(min_value=0, max_value=1, max_denominator=30)

    def test_reversed_ends_are_a_typed_error(self):
        # a plain check, so it also holds under python -O
        with pytest.raises(EmptyInterval):
            Interval.of(Fraction(1), Fraction(0), 64)
        with pytest.raises(EmptyInterval):
            Interval.scaled(1, 0, 3, 64)

    @staticmethod
    def point(iv, t):
        return iv.lo + t * (iv.hi - iv.lo)

    @given(ends=st.lists(fracs, min_size=4, max_size=4), s=unit, t=unit)
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_encloses_point_results(self, ends, s, t):
        a = RatInterval(min(ends[:2]), max(ends[:2]))
        b = RatInterval(min(ends[2:]), max(ends[2:]))
        x, y = self.point(a, s), self.point(b, t)
        assert a.contains(x) and b.contains(y)
        assert (a + b).contains(x + y)
        assert (a - b).contains(x - y)
        assert (a * b).contains(x * y)
        assert (-a).contains(-x)
        assert a.contains(a.midpoint())
        sign = a.sign()
        if sign is not None:
            assert (x > 0) - (x < 0) == sign

    @given(
        coeffs=st.lists(fracs, max_size=6),
        ends=st.lists(fracs, min_size=2, max_size=2),
        t=unit,
    )
    @settings(max_examples=200, deadline=None)
    def test_horner_encloses_point_values(self, coeffs, ends, t):
        iv = RatInterval(min(ends), max(ends))
        den = math.lcm(*(c.denominator for c in coeffs))
        num = [c.numerator * (den // c.denominator) for c in coeffs]
        value = poly_eval(coeffs, self.point(iv, t))
        assert RatInterval.scaled(*interval_poly_eval(num, den, bounds_of(iv))).contains(value)
