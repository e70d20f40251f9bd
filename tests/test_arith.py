import math
import os
import subprocess
import sys
import time
import types
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conesum.errors import (
    CutoffTooSmall,
    EnumerationMismatch,
    InvalidWeight,
    MissingIntersectionEntry,
    NegativeIndex,
    NotFullRank,
    NotTotallyReal,
    UnitDoesNotPreserveM,
    UnitRankMismatch,
    UnsupportedDegree,
)
from conesum.field import (
    ScaledRational,
    UnitGroupData,
    det_scaled,
    fundamental_unit_quadratic,
    interval_poly_eval,
    is_totally_positive,
    make_field,
)
from conesum import arith, config, geometry
from conesum.fan import LatticeFrame, build_quadratic_fan
from conesum.arith import (
    SQRT3_EXPECTED,
    SQRT3_REFERENCE,
    IntersectionData,
    LatticeModule,
    _QuadraticEnumerator,
    bernoulli,
    lvalue_numeric,
    quadratic_intersections,
    satake_report,
    satake_rhs,
)

ROOT = Path(__file__).resolve().parents[1]


def sqrt3_module():
    F = make_field([-3, 0, 1])
    return LatticeModule(
        basis=(F.one, F.theta / 3),
        rho=F.zero,
        units=UnitGroupData((fundamental_unit_quadratic(3),)),
    )


class TestBernoulli:
    def test_reference_values(self):
        assert bernoulli(1) == Fraction(-1, 2)
        assert bernoulli(2) == Fraction(1, 6)
        assert bernoulli(4) == Fraction(-1, 30)
        assert bernoulli(6) == Fraction(1, 42)

    def test_odd_vanish(self):
        for k in (3, 5, 7, 9, 11):
            assert bernoulli(k) == 0

    def test_negative_index(self):
        with pytest.raises(NegativeIndex):
            bernoulli(-1)

    def test_recurrence_identity(self):
        for k in range(2, 20):
            total = sum(math.comb(k, j) * bernoulli(j) for j in range(k))
            assert total == 0


class TestLatticeModule:
    def test_d_M(self):
        M = sqrt3_module()
        assert M.d_M == ScaledRational(Fraction(1, 3), 1, 12)
        assert abs(float(M.d_M) - 2 / math.sqrt(3)) < 1e-12

    def test_unit_must_preserve_lattice(self):
        F = make_field([-3, 0, 1])
        with pytest.raises(UnitDoesNotPreserveM):
            LatticeModule(
                basis=(F.one, F.theta / 5),
                rho=F.zero,
                units=UnitGroupData((fundamental_unit_quadratic(3),)),
            )

    def test_nonzero_coset(self):
        # rho = (1 - sqrt3)/2 satisfies (eps - 1) rho = -1 in M
        F = make_field([-3, 0, 1])
        rho = F.element([Fraction(1, 2), Fraction(-1, 2)])
        M = LatticeModule(
            basis=(F.one, F.theta / 3),
            rho=rho,
            units=UnitGroupData((fundamental_unit_quadratic(3),)),
        )
        assert M.rho == rho

    @pytest.mark.parametrize(
        "coords",
        [[[1, 0], [2, 0]], [[1, 0]], [[1, 0], [0, 1], [1, 1]]],
        ids=["dependent", "too-few", "too-many"],
    )
    def test_basis_must_have_full_rank(self, coords):
        F = make_field([-3, 0, 1])
        with pytest.raises(NotFullRank):
            LatticeModule(
                basis=tuple(F.element(c) for c in coords),
                rho=F.zero,
                units=UnitGroupData((fundamental_unit_quadratic(3),)),
            )

    def test_bad_coset_rejected(self):
        F = make_field([-3, 0, 1])
        with pytest.raises(UnitDoesNotPreserveM):
            LatticeModule(
                basis=(F.one, F.theta / 3),
                rho=F.element([Fraction(1, 2), 0]),
                units=UnitGroupData((fundamental_unit_quadratic(3),)),
            )


def reference_module_check(basis, rho, units):
    """LatticeModule's rank and unit checks by Fraction solves: each eps m,
    and eps rho - rho, must have integer coefficients in the basis."""
    if det_scaled(list(basis)).is_zero():
        raise NotFullRank("dependent basis")

    def in_lattice(x):
        coeffs = geometry.solve_in_basis(basis, x)
        return coeffs is not None and all(c.denominator == 1 for c in coeffs)

    for eps in units.generators:
        if not all(in_lattice(eps * m) for m in basis) or not in_lattice(eps * rho - rho):
            raise UnitDoesNotPreserveM(f"{eps} does not preserve the coset")


def _ring(name):
    """A Z-basis of the ring of integers and generators of totally positive units."""
    if name == "cubic49":
        F = make_field([1, -2, -1, 1])
        th = F.theta
        return (F.one, th, th * th), (th * th, (th - F.one) * (th - F.one))
    d = int(name[4:])
    F = make_field([-d, 0, 1])
    omega = (F.one + F.theta) / 2 if d % 4 == 1 else F.theta
    return (F.one, omega), (fundamental_unit_quadratic(d),)


@st.composite
def module_data(draw):
    """A rational multiple of an integer sublattice of a ring of integers:
    a random one, or a principal ideal, which every unit maps to itself; a
    rho of small denominator; and unit powers eps^k."""
    ring, gens = _ring(draw(st.sampled_from(["sqrt2", "sqrt3", "sqrt5", "cubic49"])))
    n = len(ring)
    small = st.integers(-3, 3)

    def element(coords):
        return sum((w * c for w, c in zip(ring, coords)), ring[0].field.zero)

    if draw(st.booleans()):
        alpha = element(draw(st.lists(small, min_size=n, max_size=n)))
        points = [alpha * w for w in ring]
    else:
        points = [element(draw(st.lists(small, min_size=n, max_size=n))) for _ in range(n)]
    q = Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    basis = tuple(p * q for p in points)
    den = draw(st.integers(1, 3))
    rho = element([Fraction(c, den) for c in draw(st.lists(small, min_size=n, max_size=n))])
    units = UnitGroupData(tuple(g ** draw(st.integers(-2, 2)) for g in gens))
    return basis, rho, units


def _outcome(check, *args):
    try:
        check(*args)
    except (NotFullRank, UnitDoesNotPreserveM) as exc:
        return type(exc)
    return None


class TestLatticeModuleAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(module_data())
    def test_accepts_and_rejects_as_the_fraction_check(self, data):
        assert _outcome(LatticeModule, *data) == _outcome(reference_module_check, *data)

    def test_one_frame_and_no_fraction_solve(self, monkeypatch):
        F = make_field([-3, 0, 1])
        rho = F.element([Fraction(1, 2), Fraction(-1, 2)])
        sqrt3 = ((F.one, F.theta / 3), rho, UnitGroupData((fundamental_unit_quadratic(3),)))
        ring, gens = _ring("cubic49")
        cubic = (ring, ring[0].field.zero, UnitGroupData(gens))
        frames, solves = [], []
        init, solve = LatticeFrame.__init__, geometry.solve_in_basis
        monkeypatch.setattr(
            LatticeFrame, "__init__", lambda self, *a: frames.append(1) or init(self, *a)
        )
        monkeypatch.setattr(geometry, "solve_in_basis", lambda *a: solves.append(1) or solve(*a))
        for built, data in enumerate((sqrt3, cubic), 1):
            LatticeModule(*data)
            assert (len(frames), len(solves)) == (built, 0)


class TestIntersections:
    def test_sqrt3_reference(self):
        M = sqrt3_module()
        _, vs = build_quadratic_fan(M.basis, M.units.generators[0])
        data = quadratic_intersections(vs)
        assert data.entries == SQRT3_REFERENCE[1]

    def test_sqrt2(self):
        F = make_field([-2, 0, 1])
        _, vs = build_quadratic_fan((F.one, F.theta), fundamental_unit_quadratic(2))
        data = quadratic_intersections(vs)
        assert data.entries == {
            (2, 0): Fraction(-2),
            (0, 2): Fraction(-4),
            (1, 1): Fraction(2),
        }

    def test_sqrt5_self_adjacency_knob(self):
        F = make_field([-5, 0, 1])
        phi = F.element([Fraction(1, 2), Fraction(1, 2)])
        _, vs = build_quadratic_fan((F.one, phi), fundamental_unit_quadratic(5))
        assert quadratic_intersections(vs).entries == {(2,): Fraction(-1)}
        assert quadratic_intersections(vs, self_adjacency=0).entries == {
            (2,): Fraction(-3)
        }

    def test_b_cycle_sanity(self):
        for d, basis_fn in ((2, None), (3, None), (5, None)):
            F = make_field([-d, 0, 1])
            if d == 3:
                basis = (F.one, F.theta / 3)
            elif d == 5:
                basis = (F.one, F.element([Fraction(1, 2), Fraction(1, 2)]))
            else:
                basis = (F.one, F.theta)
            _, vs = build_quadratic_fan(basis, fundamental_unit_quadratic(d))
            assert all(b >= 2 for b in vs.b_cycle)
            assert any(b >= 3 for b in vs.b_cycle)


class TestSatakeRhs:
    def test_exact_reference_identities(self):
        M = sqrt3_module()
        for s in (1, 2, 3):
            data = IntersectionData(s=s, components=2, entries=dict(SQRT3_REFERENCE[s]))
            pred = satake_rhs(data, s, 2, M.d_M)
            coeff, power = SQRT3_EXPECTED[s]
            assert pred.coeff == coeff
            assert pred.pi_power == power

    def test_s2_power_is_pi_fourth(self):
        # the s = 2 identity carries pi^4, matching the direct series value
        M = sqrt3_module()
        data = IntersectionData(s=2, components=2, entries=dict(SQRT3_REFERENCE[2]))
        pred = satake_rhs(data, 2, 2, M.d_M)
        assert pred.pi_power == 4
        assert abs(pred.to_float() - math.pi**4 * math.sqrt(3) / 6) < 1e-12

    def test_linear_in_entries(self):
        M = sqrt3_module()
        base = dict(SQRT3_REFERENCE[1])
        doubled = {k: 2 * v for k, v in base.items()}
        p1 = satake_rhs(IntersectionData(1, 2, base), 1, 2, M.d_M)
        p2 = satake_rhs(IntersectionData(1, 2, doubled), 1, 2, M.d_M)
        assert p2.coeff == p1.coeff * 2

    def test_missing_needed_entry(self):
        M = sqrt3_module()
        entries = dict(SQRT3_REFERENCE[1])
        del entries[(1, 1)]  # B1*B1 is nonzero, so this entry is needed
        with pytest.raises(MissingIntersectionEntry):
            satake_rhs(IntersectionData(1, 2, entries), 1, 2, M.d_M)

    def test_odd_weight_rejected(self):
        # n * s = 3 * 1 is odd
        M = sqrt3_module()
        data = IntersectionData(s=1, components=2, entries=dict(SQRT3_REFERENCE[1]))
        with pytest.raises(InvalidWeight):
            satake_rhs(data, 1, 3, M.d_M)

    def test_odd_bernoulli_entries_not_needed(self):
        # s = 2 entries omit (3,1) and (1,3): B3 = 0 makes them irrelevant
        M = sqrt3_module()
        data = IntersectionData(s=2, components=2, entries=dict(SQRT3_REFERENCE[2]))
        pred = satake_rhs(data, 2, 2, M.d_M)
        assert pred.coeff == SQRT3_EXPECTED[2][0]


class BruteForceOracle:
    """Exhaustive orbit enumeration with exact arithmetic, for small cutoffs."""

    def __init__(self, module, cutoff):
        self.module = module
        F = module.field
        eps = module.units.generators[0]
        if F.sign_at(eps - F.one, 1) < 0:
            eps = eps.inverse()
        self.eps = eps
        m1, m2 = module.basis
        pts = []
        bound = 60
        for a in range(-bound, bound + 1):
            for b in range(-bound, bound + 1):
                if a == 0 and b == 0:
                    continue
                mu = m1 * a + m2 * b + module.rho
                nrm = mu.norm()
                if nrm != 0 and abs(nrm) <= cutoff:
                    pts.append(mu)
        self.points = pts

    def orbit_representatives(self):
        seen = set()
        reps = []
        for mu in self.points:
            if mu.coords in seen:
                continue
            orbit = {mu.coords}
            for sign in (1, -1):
                for k in range(-12, 13):
                    nu = mu * (self.eps**k) * sign
                    orbit.add(nu.coords)
            seen |= orbit
            reps.append(mu)
        return reps


def masked_points(enum, Xi, box, dtype=np.int64):
    """Every (a, b, P, Q, N, slice) with |a|, |b| <= box that ``slice_masks``
    keeps under the scaled norm cut: the point-by-point definition."""
    grid = np.arange(-box, box + 1).astype(dtype)
    A, B = (g.ravel() for g in np.meshgrid(grid, grid, indexing="ij"))
    pp, pm, P, Q = enum.slice_masks(A, B)
    Ni = enum.norm_scaled(P, Q)
    keep = (pp | pm) & (Ni != 0) & (np.abs(Ni) <= Xi)
    return A[keep], B[keep], P[keep], Q[keep], Ni[keep], np.where(pp, 0, 1)[keep]


def sample_modules():
    F3 = make_field([-3, 0, 1])
    F2 = make_field([-2, 0, 1])
    units3 = UnitGroupData((fundamental_unit_quadratic(3),))
    return {
        "sqrt3": sqrt3_module(),
        "Z[sqrt2]": LatticeModule(
            basis=(F2.one, F2.theta),
            rho=F2.zero,
            units=UnitGroupData((fundamental_unit_quadratic(2),)),
        ),
        # rho = (1 - sqrt3)/2 satisfies (eps - 1) rho = -1 in M
        "sqrt3+rho": LatticeModule(
            basis=(F3.one, F3.theta / 3),
            rho=F3.element([Fraction(1, 2), Fraction(-1, 2)]),
            units=units3,
        ),
        # the same lattice with N(m2) = 11/3 > 0: the norm cut keeps one
        # b-interval of the totally positive slice and two half-lines of the
        # mixed one, the other way round from the modules above
        "sqrt3, N(m2) > 0": LatticeModule(
            basis=(F3.one, F3.one * 2 + F3.theta / 3), rho=F3.zero, units=units3
        ),
    }


def big_denominator_module():
    """lambda * (Z + Z sqrt3/3) for a totally positive lambda of norm 1 whose
    coordinates have a denominator near 10^12: the same norms, and so the
    same L-values, as the sqrt3 module, but scaled norms far beyond int64."""
    F = make_field([-3, 0, 1])
    p, q = 10**6, 2 * 10**6 + 1
    den = q * q - 3 * p * p  # N(q^2 + 3p^2 + 2pq sqrt3) = den^2
    lam = F.element([Fraction(q * q + 3 * p * p, den), Fraction(2 * p * q, den)])
    assert lam.norm() == 1 and is_totally_positive(lam)
    return LatticeModule(
        basis=(lam, lam * F.theta / 3),
        rho=F.zero,
        units=UnitGroupData((fundamental_unit_quadratic(3),)),
    )


# the converge fields of the benchmark: basis and totally positive unit
PERFBENCH_FIELDS = {
    2: ([["1", "0"], ["0", "1"]], ["3", "2"]),
    3: ([["1", "0"], ["0", "1/3"]], ["2", "1"]),
    5: ([["1", "0"], ["1/2", "1/2"]], ["3/2", "1/2"]),
    6: ([["1", "0"], ["0", "1"]], ["5", "2"]),
    7: ([["1", "0"], ["0", "1"]], ["8", "3"]),
    13: ([["1", "0"], ["1/2", "1/2"]], ["11/2", "3/2"]),
    19: ([["1", "0"], ["0", "1"]], ["170", "39"]),
}


def fraction_midpoint_float(x, place, prec=40):
    """float of the exact midpoint of the least-depth interval of x^(place)
    of width <= 2^-prec, scanned depth by depth on the integer kernel: the
    float the enumerator read off Fraction-endpoint embeddings."""
    depth = 0
    while True:
        lo, hi, s = interval_poly_eval(x.num, x.den, x.field._root_interval(place, depth))
        if (hi - lo) << prec <= s:
            return float(Fraction(lo + hi, 2 * s))
        depth += 1


class TestEmbeddingFloats:
    """The enumerator's float embeddings and unit ratio are the floats of the
    exact least-depth midpoints, which the dyadic Interval keeps: exactly for
    dyadic bounds, and through its guard bits for theta/3 and the other
    non-dyadic coordinates."""

    @staticmethod
    def modules():
        root = Path(__file__).resolve().parents[1]
        yield "sqrt3.json", config.load_config(str(root / "configs" / "sqrt3.json")).module
        for d, (basis, unit) in PERFBENCH_FIELDS.items():
            raw = {"field": {"min_poly": [-d, 0, 1]},
                   "module": {"basis": basis, "rho": ["0", "0"], "units": [unit]},
                   "fan": {"type": "quadratic-auto"}}
            yield f"sqrt{d}", config.build_config(raw).module
        yield from sample_modules().items()
        yield "big denominator", big_denominator_module()

    def test_floats_are_the_fraction_midpoints(self):
        for name, module in self.modules():
            enum = _QuadraticEnumerator(module)
            want = tuple([fraction_midpoint_float(x, p) for p in range(2)]
                         for x in (*module.basis, module.rho))
            assert enum._emb == want, name
            eps = enum.eps
            assert enum.lam == fraction_midpoint_float(eps, 1) / fraction_midpoint_float(eps, 0)


class TestLvalueNumeric:
    def test_rep_enumeration_matches_bruteforce(self):
        # the vectorized slices pick exactly one representative per orbit of
        # the group generated by the unit and -1, verified exhaustively
        M = sqrt3_module()
        cutoff = 40
        oracle = BruteForceOracle(M, cutoff)
        expected = sorted(abs(mu.norm()) for mu in oracle.orbit_representatives())

        enum = _QuadraticEnumerator(M)
        den = enum.den
        # kept points have |x1| <= sqrt(40) and |x2| <= sqrt(14 * 40), so
        # |a| <= 15 and |b| <= 26; the box is four times wider
        Ni = masked_points(enum, cutoff * den * den, 120)[4]
        got = [Fraction(int(v), den * den) for v in np.abs(Ni)]
        # the oracle glues mu and -mu into one orbit, as do the two slices
        assert sorted(got) == expected

    def test_slice_uniqueness_under_unit_division(self):
        # no two enumerated representatives differ by a unit power (or -1)
        M = sqrt3_module()
        enum = _QuadraticEnumerator(M)
        den = enum.den
        _, _, P, Q, _, _ = masked_points(enum, 25 * den * den, 120)
        reps = [
            M.field.element([Fraction(int(pv), den), Fraction(int(qv), den)])
            for pv, qv in zip(P, Q)
        ]
        eps = enum.eps
        keys = {mu.coords for mu in reps}
        assert len(keys) == len(reps)
        for mu in reps:
            for k in range(-6, 7):
                for sign in (1, -1):
                    nu = mu * eps**k * sign
                    if nu.coords in keys and nu.coords != mu.coords:
                        raise AssertionError(
                            f"{mu.coords} and {nu.coords} are in one orbit"
                        )

    @pytest.mark.parametrize("name", [*sample_modules(), "big denominator"])
    def test_row_intervals_match_masks(self, name):
        # every row of the box solved in one array pass gives exactly the
        # points the masks keep; the big-denominator module runs on object
        # arrays of Python ints
        big = name == "big denominator"
        M = big_denominator_module() if big else sample_modules()[name]
        enum = _QuadraticEnumerator(M)
        cutoff, box = (50, 120) if big else (200, 250)
        Xi = cutoff * enum.den**2
        dtype = enum.int_dtype(box, box + 1, Xi)[0]
        assert (dtype is object) == big
        A, B, _, _, _, kind = masked_points(enum, Xi, box, dtype)
        expected = sorted(zip(A.tolist(), B.tolist(), kind.tolist()))
        a, lo, hi, k = enum.row_intervals(np.arange(-box, box + 1).astype(dtype), Xi, box)
        assert a.dtype == lo.dtype == hi.dtype == dtype
        assert (-box < lo).all() and (hi < box).all(), "the box must hold every interval"
        rows = list(zip(a.tolist(), lo.tolist(), hi.tolist(), k.tolist()))
        # ordered by row, then by lo, and disjoint within a row
        assert rows == sorted(rows)
        assert all(r[2] < s[1] for r, s in zip(rows, rows[1:]) if r[0] == s[0])
        got = [(ai, b, ki) for ai, l, h, ki in rows for b in range(l, h + 1)]
        assert sorted(got) == expected
        assert len(expected) > (40 if big else 100)
        # the box of the enumeration holds every kept point
        alo, ahi, bmax = enum.box(cutoff)
        assert -box < alo <= A.min() and A.max() <= ahi < box
        assert np.abs(B).max() <= bmax < box

    @pytest.mark.parametrize("cutoff", [6e5, 8e6])
    def test_row_range_is_tight(self, cutoff):
        # the rows of the box exceed the first and last rows that hold a kept
        # point by at most 3 on each side
        enum = _QuadraticEnumerator(sqrt3_module())
        Xi = math.floor(Fraction(cutoff) * enum.den**2)
        alo, ahi, bmax = enum.box(cutoff)
        wide = np.arange(2 * alo, 2 * ahi + 1)
        a = enum.row_intervals(wide, Xi, 2 * bmax)[0]
        first, last = int(a.min()), int(a.max())
        assert first - 3 <= alo <= first and last <= ahi <= last + 3
        assert enum.kept_intervals(cutoff, Xi)[0].tolist() == a.tolist()

    def test_isqrt_is_exact(self):
        # int64 inputs stay below 2^62, as int_dtype guarantees
        roots = np.array([0, 1, 2, 3, 1 << 20, 3 << 29, (1 << 31) - 1])
        n = np.concatenate([roots * roots - 1, roots * roots, roots * roots + 1])
        n = np.concatenate([n[n >= 0], [(1 << 62) - 1]])
        expected = [math.isqrt(int(v)) for v in n]
        assert arith._isqrt(n).tolist() == expected
        assert arith._isqrt(n.astype(object)).tolist() == expected
        big = np.array([10**40, 10**40 - 1], dtype=object)
        assert arith._isqrt(big).tolist() == [10**20, 10**20 - 1]

    def test_certificate_rejects_a_wrong_interval(self, monkeypatch):
        enum = _QuadraticEnumerator(sqrt3_module())
        Xi = 60 * enum.den**2
        enum.kept_intervals(60, Xi)  # the true intervals pass
        true_rows = enum.row_intervals

        def one_too_long(a, Xi, bmax):
            ra, lo, hi, k = true_rows(a, Xi, bmax)
            return ra, lo, hi + (ra == 3), k

        monkeypatch.setattr(enum, "row_intervals", one_too_long)
        with pytest.raises(EnumerationMismatch):
            enum.kept_intervals(60, Xi)

    @pytest.mark.parametrize("name", ["sqrt3", "sqrt3+rho", "sqrt3, N(m2) > 0"])
    def test_matches_masked_sum(self, name):
        # the visited points give the same sum as the masks over a box
        M = sample_modules()[name]
        enum = _QuadraticEnumerator(M)
        den2 = enum.den**2
        cutoff = 300
        Ni = masked_points(enum, cutoff * den2, 250)[4]
        for s in (1, 2, 3):
            expected = 2 * float(np.sum((den2 / Ni.astype(float)) ** s))
            got = lvalue_numeric(M, s, cutoff, accel=False)
            assert got == pytest.approx(expected, rel=1e-12, abs=0)

    def test_chunks_split_intervals(self, monkeypatch):
        # chunk boundaries fall inside intervals, and no point is lost or
        # repeated; each norm is its interval's quadratic in b
        monkeypatch.setattr(arith, "_CHUNK_POINTS", 7)
        N2 = 3
        lo = np.array([3, 10, -4, 1])
        hi = np.array([5, 29, -4, 14])
        N1 = np.array([-2, 7, 0, 11])
        N0 = np.array([5, -1000, 9, 40])
        chunks = [
            Ni.tolist() for Ni in arith._interval_norms(N2, N1, N0, lo, hi)
        ]
        assert [len(c) for c in chunks] == [7, 7, 7, 7, 7, 3]
        expected = [
            (N2 * b + n1) * b + n0
            for l, h, n1, n0 in zip(lo.tolist(), hi.tolist(), N1.tolist(), N0.tolist())
            for b in range(l, h + 1)
        ]
        assert sum(chunks, []) == expected

    def test_scaled_norms_beyond_int64(self):
        # den^2 * cutoff > 2^63: the enumeration falls back to Python ints
        # rather than wrapping, and returns the sqrt3 module's values
        M = big_denominator_module()
        enum = _QuadraticEnumerator(M)
        cutoff = 50
        Xi = cutoff * enum.den**2
        assert Xi > 2**63
        assert enum.kept_intervals(cutoff, Xi)[0].dtype == object
        start = time.monotonic()
        for s in (1, 2, 3):
            got = lvalue_numeric(M, s, cutoff, accel=False)
            ref = lvalue_numeric(sqrt3_module(), s, cutoff, accel=False)
            assert got == pytest.approx(ref, rel=1e-12, abs=0)
        assert time.monotonic() - start < 1.0

    def test_identity_values(self):
        M = sqrt3_module()
        r3 = math.sqrt(3)
        v1 = lvalue_numeric(M, 1, 6e5)
        assert abs(v1 + math.pi**2 * r3 / 6) < 1e-3
        v3 = lvalue_numeric(M, 3, 1e5)
        assert abs(v3 + math.pi**6 * r3 / 36) < 1e-6

    def test_cutoff_too_small(self):
        M = sqrt3_module()
        with pytest.raises(CutoffTooSmall):
            lvalue_numeric(M, 2, 2000, tol=1e-6)

    @pytest.mark.parametrize("s", [0, -1, 1.5])
    def test_weight_must_be_positive_integer(self, s):
        with pytest.raises(InvalidWeight):
            lvalue_numeric(sqrt3_module(), s, 100)

    def test_rank_two_unit_group_rejected(self):
        eps = fundamental_unit_quadratic(3)
        M = sqrt3_module()
        units = UnitGroupData((eps, eps * eps))
        M2 = LatticeModule(basis=M.basis, rho=M.rho, units=units)
        with pytest.raises(UnitRankMismatch):
            lvalue_numeric(M2, 2, 100)

    def test_cubic_field_rejected(self):
        module = types.SimpleNamespace(field=make_field([1, -2, -1, 1]))
        with pytest.raises(UnsupportedDegree):
            _QuadraticEnumerator(module)

    def test_nonpositive_discriminant_rejected(self):
        # make_field admits no such quadratic field; a stand-in reaches the check
        field = types.SimpleNamespace(degree=2, min_poly=(1, 0, 1))
        with pytest.raises(NotTotallyReal):
            _QuadraticEnumerator(types.SimpleNamespace(field=field))


def reference_interval_norms(N2, N1, N0, lo, hi):
    """The integer point stage before the chunk plan: each chunk finds its
    intervals by search, cuts the first and last, and evaluates its norms in
    lo's dtype."""
    C = arith._CHUNK_POINTS
    n = (hi - lo + 1).astype(np.int64)
    ends = np.cumsum(n)
    total = int(ends[-1]) if len(ends) else 0
    k = np.arange(min(total, C)).astype(lo.dtype)
    n2k = N2 * k
    buf = np.empty_like(k)
    for p0 in range(0, total, C):
        p1 = min(p0 + C, total)
        i0 = int(np.searchsorted(ends, p0, side="right"))
        i1 = int(np.searchsorted(ends, p1 - 1, side="right")) + 1
        clo, chi = lo[i0:i1].copy(), hi[i0:i1].copy()
        clo[0] += p0 - int(ends[i0] - n[i0])
        chi[-1] -= int(ends[i1 - 1]) - p1
        cn = (chi - clo + 1).astype(np.int64)
        off = clo - (np.cumsum(cn) - cn)
        L = 2 * N2 * off + N1[i0:i1]
        M = (N2 * off + N1[i0:i1]) * off + N0[i0:i1]
        Ni = np.add(n2k[: p1 - p0], np.repeat(L, cn), out=buf[: p1 - p0])
        Ni *= k[: p1 - p0]
        Ni += np.repeat(M, cn)
        yield Ni


def reference_lvalue(module, s, cutoff, accel=True):
    """(value, error estimate) of ``lvalue_numeric`` by the integer point
    loop before the float64 kernel: every chunk of
    ``reference_interval_norms`` converted to float inside the division."""
    enum = _QuadraticEnumerator(module)
    den = enum.den
    Xi = math.floor(Fraction(cutoff) * den * den)
    ordered = s == 1
    width = max(1, Xi // (1 << 14))
    shells = np.zeros(Xi // width + 2) if ordered else None
    total = tail = 0.0
    den2 = float(den * den)
    top = math.floor(Xi * 0.9)
    a, lo, hi = enum.kept_intervals(cutoff, Xi)[:3]
    buf = np.empty(arith._CHUNK_POINTS)
    for Ni in reference_interval_norms(enum.N2, *enum.row_norm(a), lo, hi):
        terms = np.divide(den2, Ni, out=buf[: len(Ni)], casting="unsafe")
        if s % 2 and s > 1:
            np.copysign(np.abs(terms) ** s, terms, out=terms)
        else:
            terms **= s
        if ordered:
            idx = (np.abs(Ni) // width).astype(np.intp)
            shells += np.bincount(idx, weights=terms, minlength=len(shells))
        else:
            total += float(np.sum(terms))
            tail += float(np.sum(np.abs(terms[np.abs(Ni) > top])))
    if not ordered:
        return 2.0 * total, 2.0 * tail / max(s - 1, 1) * 1.2
    csum = 2.0 * np.cumsum(shells)
    if accel:
        vals = [csum[int((len(csum) - 1) * f)] for f in np.linspace(0.6, 1.0, 9)]
        value = (vals[-2] + vals[-1]) / 2
        return value, max(abs(v - value) for v in vals[-4:])
    err = float(abs(2.0 * np.sum(shells[int(len(shells) * 0.9) :]))) * 10
    return float(csum[-1]), err


class TestPointStageAgainstReference:
    """The float64 point stage gives the integer one's floats bit for bit."""

    # (chunk size, cutoffs): the shipped chunk spans several chunks at 6e4;
    # chunks of 7 and 64 points cut intervals into pieces of every length,
    # down to 1, and let intervals straddle chunks
    CHUNKS = [(None, (300, 5e3, 6e4)), (64, (300, 5e3, 6e4)), (7, (60, 600, 5e3))]

    @pytest.mark.parametrize("chunk, cutoffs", CHUNKS, ids=["default", "64", "7"])
    @pytest.mark.parametrize("name", ["sqrt3", "sqrt3+rho"])
    def test_lvalue_is_bit_identical(self, monkeypatch, chunk, cutoffs, name):
        if chunk is not None:
            monkeypatch.setattr(arith, "_CHUNK_POINTS", chunk)
        M = sample_modules()[name]
        for cutoff in cutoffs:
            for s in (1, 2, 3):
                for accel in (True, False):
                    value, err = reference_lvalue(M, s, cutoff, accel)
                    assert lvalue_numeric(M, s, cutoff, accel=accel) == value
                    # on the tol path: the same value, and the same estimate to
                    # the last bit, which a tolerance one ulp below it rejects
                    assert lvalue_numeric(M, s, cutoff, accel=accel, tol=err) == value
                    with pytest.raises(CutoffTooSmall):
                        lvalue_numeric(M, s, cutoff, accel=accel, tol=np.nextafter(err, 0))

    def test_object_rows_are_bit_identical(self):
        # beyond int64 the norms stay Python ints, as in the reference
        M = big_denominator_module()
        for s in (1, 2, 3):
            assert lvalue_numeric(M, s, 50, accel=False) == reference_lvalue(M, s, 50, False)[0]

    def test_norms_are_float64_below_2_53(self):
        # the norms' dtype is float64 exactly when Xi and the re-centred
        # quadratics stay below 2^53; at small a and b the bound is Xi itself
        enum = _QuadraticEnumerator(sqrt3_module())
        assert enum.int_dtype(1, 1, (1 << 53) - 1) == (np.int64, np.float64)
        assert enum.int_dtype(1, 1, 1 << 53) == (np.int64, np.int64)
        assert enum.int_dtype(1, 1, 1 << 62) == (object, object)
        Xi = 8 * 10**6 * enum.den**2
        assert enum.kept_intervals(8e6, Xi)[3] is np.float64
        big = _QuadraticEnumerator(big_denominator_module())
        assert big.kept_intervals(50, 50 * big.den**2)[3] is object

    def test_first_call_loads_no_module(self):
        # np.union1d, np.unique and np.isin load numpy.ma on their first call,
        # some 20 ms; the enumerator calls none of them
        code = (
            "import sys\n"
            "import numpy\n"
            "from conesum.arith import LatticeModule, lvalue_numeric\n"
            "from conesum.field import UnitGroupData, fundamental_unit_quadratic, make_field\n"
            "F = make_field([-3, 0, 1])\n"
            "units = UnitGroupData((fundamental_unit_quadratic(3),))\n"
            "M = LatticeModule(basis=(F.one, F.theta / 3), rho=F.zero, units=units)\n"
            "before = set(sys.modules)\n"
            "lvalue_numeric(M, 2, 2e4)\n"
            "print(sorted(set(sys.modules) - before))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        probe = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd=ROOT, env=env
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "[]"


class TestSatakeReport:
    def test_full_report(self):
        M = sqrt3_module()
        _, vs = build_quadratic_fan(M.basis, M.units.generators[0])
        report = satake_report(M, vs, cutoffs={1: 6e5, 2: 8e6, 3: 1e5})
        assert report["passed"], report
        names = [r["name"] for r in report["results"]]
        assert names == [
            "intersection-numbers-from-hull",
            "identity-s1",
            "identity-s2",
            "identity-s3",
        ]
