import math
import random
from fractions import Fraction

import pytest

from conesum import linalg
from conesum.errors import (
    NotIrreducible,
    NotSquarefree,
    NotTotallyReal,
    ZeroInput,
)
from conesum.field import (
    FieldElement,
    RatInterval,
    ScaledRational,
    det_scaled,
    embed,
    fundamental_unit_quadratic,
    is_totally_positive,
    is_unit,
    limit_pair,
    make_field,
    min_poly_of,
    norm,
    trace_pairing,
)

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
        assert lo.contains(Fraction(-17320508, 10**7)) or abs(float(lo) + math.sqrt(3)) < 1e-4
        assert abs(float(hi) - math.sqrt(3)) < 1e-4
        assert float(lo) < float(hi)

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
        # (x^2 + 1)(x^2 - 2): the real-root count is checked before the
        # factor search, which needs every root real
        with pytest.raises(NotTotallyReal):
            make_field([-2, 0, -1, 0, 1])

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
                assert total.contains(exact)


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
            assert iv.lo == iv.hi == 1

    def test_embedding_value(self):
        F = make_field(QUADRATIC)
        lo, hi = embed(F.element([2, 1]), 40)
        assert abs(float(lo) - (2 - math.sqrt(3))) < 1e-10
        assert abs(float(hi) - (2 + math.sqrt(3))) < 1e-10

    def test_monotone_in_precision(self):
        F = make_field(CUBIC)
        x = F.element([1, 2, -1])
        for place in range(3):
            prev = None
            for prec in (5, 10, 20, 40, 80):
                iv = F.embed_at(x, place, prec)
                assert iv.width <= Fraction(1, 2**prec)
                if prev is not None:
                    assert prev.lo <= iv.lo and iv.hi <= prev.hi
                prev = iv


class TestDetScaled:
    def test_quadratic_example(self):
        F = make_field(QUADRATIC)
        d = det_scaled([F.one, F.theta])
        assert d == ScaledRational(Fraction(1), 1, 12)

    def test_dependent_tuple(self):
        F = make_field(QUADRATIC)
        assert det_scaled([F.one, F.one]).is_zero()

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
        from conesum.field import RatInterval

        rng = random.Random(9)
        for _ in range(50):
            vals = [Fraction(rng.randint(-20, 20), rng.randint(1, 9)) for _ in range(4)]
            a = RatInterval(min(vals[0], vals[1]), max(vals[0], vals[1]))
            b = RatInterval(min(vals[2], vals[3]), max(vals[2], vals[3]))
            prod = a * b
            for x in (a.lo, a.hi, a.midpoint()):
                for y in (b.lo, b.hi, b.midpoint()):
                    assert prod.contains(x * y)


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
            upper = float(embed(u, 30)[1].hi) + 0.01
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
                    big = embed(cand, 30)[1]
                    assert big.lo > 1 or big.hi < 1 or big.contains(1)
                    if big.lo > 1:
                        assert big.hi > float(embed(u, 30)[1].lo)

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
        assert V.power_product([3]) == u * u * u
        assert V.power_product([-2]) == (u * u).inverse()

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
