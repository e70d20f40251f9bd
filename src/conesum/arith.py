"""L-value verification: numeric coset sums, Bernoulli numbers, and the
intersection-number identity they satisfy.

The series L(M+rho, V; s) = sum over nonzero coset representatives of
N(mu)^(-s) converges absolutely for s > 1 and conditionally for s = 1; the
numeric evaluator enumerates a fundamental domain for the unit action
exactly and orders terms by |N(mu)|.  The closed-form side expands a formal
power of a sum of Bernoulli symbols against intersection numbers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import (
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
from .fan import LatticeFrame, VertexSequence
from .field import (
    FieldElement,
    ScaledRational,
    UnitGroupData,
    det_scaled,
)
from .record import FrozenRecord


@lru_cache(maxsize=None)
def bernoulli(k: int) -> Fraction:
    """Bernoulli numbers with B_1 = -1/2."""
    if k < 0:
        raise NegativeIndex(f"Bernoulli numbers need k >= 0, got {k}")
    if k == 0:
        return Fraction(1)
    # sum_{j=0}^{k} C(k+1, j) B_j = 0
    total = Fraction(0)
    for j in range(k):
        total += math.comb(k + 1, j) * bernoulli(j)
    return -total / (k + 1)


# ---------------------------------------------------------------------------
# lattice modules


class LatticeModule(FrozenRecord):
    """Full-rank lattice M (+ optional translation rho) with a unit group
    preserving the coset."""

    __slots__ = ("basis", "rho", "units")

    def __init__(self, basis: tuple[FieldElement, ...], rho: FieldElement, units: UnitGroupData):
        if not basis or len(basis) != basis[0].field.degree:
            raise NotFullRank(f"a lattice basis needs one element per degree, got {len(basis)}")
        # NotFullRank for a dependent basis; the one check of a config's units
        frame = LatticeFrame(basis, units.generators)
        for eps in units.generators:  # d = 1 in lowest terms: eps rho - rho lies in M
            if frame.coordinates(eps * rho - rho)[1] != 1:
                raise UnitDoesNotPreserveM(f"{eps} does not preserve the coset")
        self._fill(basis, rho, units)

    @property
    def field(self):
        return self.basis[0].field

    @property
    def d_M(self) -> ScaledRational:
        """Square root of the absolute discriminant of the lattice: the
        positive embedding determinant of the basis."""
        det = det_scaled(list(self.basis))
        return det if det.q > 0 else -det


# ---------------------------------------------------------------------------
# intersection data and the closed-form identity


class IntersectionData(FrozenRecord):
    """kappa-normalized intersection numbers of the cusp divisor components,
    keyed by exponent multi-index (k_1, ..., k_r) with sum = n*s."""

    __slots__ = ("s", "components", "entries")

    def __init__(self, s: int, components: int, entries: dict[tuple[int, ...], Fraction]):
        self._fill(s, components, entries)

    def value(self, index: tuple[int, ...]) -> Fraction:
        if index not in self.entries:
            raise MissingIntersectionEntry(f"no intersection entry for {index}")
        return self.entries[index]


class SatakePrediction(FrozenRecord):
    """Exact prediction q * sqrt(D)^e * pi^(n s) for an L-value."""

    __slots__ = ("coeff", "pi_power")

    def __init__(self, coeff: ScaledRational, pi_power: int):
        self._fill(coeff, pi_power)

    def to_float(self) -> float:
        return float(self.coeff) * math.pi**self.pi_power

    def exact_str(self) -> str:
        return f"({self.coeff.exact_str()})*pi^{self.pi_power}"


def satake_rhs(
    data: IntersectionData, s: int, n: int, d_M: ScaledRational
) -> SatakePrediction:
    """Solve the intersection-number identity for the L-value:

        Vol(A) d(M) ((s-1)!)^n / (2 pi i)^(ns) * L = (sum B_t D_t)^(ns) / (ns)!

    with kappa = 1/Vol(A) folded into the stored intersection numbers.  The
    Bernoulli-symbol expansion is exact; entries are looked up only when the
    Bernoulli product is nonzero, and a missing needed entry is an error.
    """
    ns = n * s
    if ns % 2:
        raise InvalidWeight(f"odd n*s = {ns} would leave an imaginary factor")
    r = data.components
    total = Fraction(0)
    for index in _compositions(ns, r):
        bprod = Fraction(1)
        for k in index:
            bprod *= bernoulli(k)
        if bprod == 0:
            continue
        multinomial = math.factorial(ns)
        for k in index:
            multinomial //= math.factorial(k)
        total += multinomial * bprod * data.value(index)
    # (2 pi i)^(ns) = (-1)^(ns/2) 2^(ns) pi^(ns)
    sign = -1 if (ns // 2) % 2 else 1
    rational = (
        Fraction(sign * 2**ns)
        / (math.factorial(s - 1) ** n * math.factorial(ns))
        * total
    )
    coeff = d_M.inverse() * rational
    return SatakePrediction(coeff=coeff, pi_power=ns)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def quadratic_intersections(
    vs: VertexSequence, self_adjacency: int = 2
) -> IntersectionData:
    """Intersection numbers of the cusp divisor components from the hull
    data (s = 1): self-intersections are -b_k, adjacent components meet once
    per adjacency in the periodic cycle.

    A period-1 cycle is a single component meeting itself; the contribution
    of that self-adjacency to its self-intersection is a convention and is
    exposed as a knob (default +2, one for each side).
    """
    m = vs.period
    entries: dict[tuple[int, ...], Fraction] = {}
    for k in range(m):
        index = tuple(2 if i == k else 0 for i in range(m))
        value = Fraction(-vs.b_cycle[k])
        if m == 1:
            value += self_adjacency
        entries[index] = value
    if m >= 2:
        pairs = {tuple(sorted((j, (j + 1) % m))) for j in range(m)}
        for j, k in pairs:
            index = tuple(1 if i in (j, k) else 0 for i in range(m))
            # in a 2-cycle the two components meet on both sides
            count = 2 if m == 2 else 1
            entries[index] = entries.get(index, Fraction(0)) + count
    if m > 2:
        # non-adjacent components are disjoint
        for j in range(m):
            for k in range(j + 1, m):
                index = tuple(1 if i in (j, k) else 0 for i in range(m))
                entries.setdefault(index, Fraction(0))
    return IntersectionData(s=1, components=m, entries=entries)


# ---------------------------------------------------------------------------
# numeric L-values for real quadratic modules


class _QuadraticEnumerator:
    """Exact integer-form machinery for one quadratic module.

    Every embedding of mu = rho + a m1 + b m2 is P + Q theta^(i), scaled by
    den, with P, Q affine integer forms in (a, b).  ``slice_masks`` and
    ``norm_scaled`` define the fundamental domain and the norm cut point by
    point.  ``row_intervals`` solves the same conditions exactly for every
    row a of ``box`` at once: on a row each slice condition is the sign of a
    form affine in b with coefficients in Z[sqrt(d0)], a half-line, and the
    norm cut is a quadratic inequality in b, so a row keeps one integer
    interval of one slice and at most two of the other.  On a row
    den^2 N(mu) is the quadratic N2 b^2 + N1 b + N0 (``row_norm``), which the
    point stage evaluates; ``certify`` checks the intervals against the
    masks.
    """

    def __init__(self, module: LatticeModule):
        field = module.field
        if field.degree != 2:
            raise UnsupportedDegree(
                f"numeric L-values are implemented for n = 2, not n = {field.degree}"
            )
        self.module = module
        self.field = field
        c0, c1, _ = field.min_poly
        self.c0, self.c1 = c0, c1
        self.d0 = c1 * c1 - 4 * c0  # discriminant of the defining polynomial
        if self.d0 <= 0:
            raise NotTotallyReal(f"defining polynomial has discriminant {self.d0}")

        m1, m2 = module.basis
        rho = module.rho
        # a canonical element is integer numerators over the lcm of its
        # coordinate denominators, so den is the lcm of all six
        den = math.lcm(m1.den, m2.den, rho.den)
        self.den = den

        def ints(x):
            return tuple(v * (den // x.den) for v in x.num)

        # P = pa a + pb b + pc ; Q = qa a + qb b + qc   (scaled by den)
        (self.pa, self.qa) = ints(m1)
        (self.pb, self.qb) = ints(m2)
        (self.pc, self.qc) = ints(rho)
        # den^2 N(m2), the b^2 coefficient of every row's norm; nonzero
        self.N2 = self.pb * self.pb - c1 * self.pb * self.qb + c0 * self.qb * self.qb

        gens = module.units.generators
        if len(gens) != 1:
            raise UnitRankMismatch(
                f"quadratic coset sums need one unit generator, got {len(gens)}"
            )
        eps = gens[0]
        if field.sign_at(eps - field.one, 1) < 0:
            eps = eps.inverse()
        self.eps = eps  # place-2 embedding > 1
        self.eP, self.eQ = eps.num

        # float embedding data for the box
        self._emb = tuple(
            [float(iv.midpoint()) for iv in field.embed(x, 40)] for x in (m1, m2, rho)
        )
        self.lam = float(field.embed_at(self.eps, 1, 40).midpoint()) / float(
            field.embed_at(self.eps, 0, 40).midpoint()
        )

    # -- exact sign helpers ---------------------------------------------------

    def _pq(self, a, b):
        P = self.pa * a + self.pb * b + self.pc
        Q = self.qa * a + self.qb * b + self.qc
        return P, Q

    def _sign_at_place(self, P, Q, place: int):
        # sign of P + Q theta^(place), theta = (-c1 +- sqrt(d0)) / 2
        u = 2 * P - self.c1 * Q
        v = Q if place == 1 else -Q
        return _sgn_quad(u, v, self.d0)

    def norm_scaled(self, P, Q):
        """den^2 * N(mu), an exact integer."""
        return P * P - self.c1 * P * Q + self.c0 * Q * Q

    def slice_masks(self, a, b):
        """Masks of the fundamental-sector representatives among mu(a, b)
        for the two quadrants with positive first embedding."""
        import numpy as np
        P, Q = self._pq(np.full_like(b, a), b)
        s1 = self._sign_at_place(P, Q, 0)
        s2 = self._sign_at_place(P, Q, 1)
        # slope >= 1 (totally positive quadrant): x2 - x1 = Q sqrt(d0) >= 0
        # slope < lambda: sign(eQ P - eP Q) > 0 exactly
        lam_cut = np.sign(self.eQ * P - self.eP * Q)
        pp = (s1 > 0) & (s2 > 0) & (Q >= 0) & (lam_cut > 0)
        # mixed quadrant: x1 > 0 > x2, |x2| >= x1, |x2| < lambda x1
        x1px2 = 2 * P - self.c1 * Q  # x1 + x2, rational (scaled)
        lam_plus = (
            2 * self.eP * P
            - self.c1 * (self.eP * Q + self.eQ * P)
            + 2 * self.c0 * self.eQ * Q
        )
        pm = (s1 > 0) & (s2 < 0) & (x1px2 <= 0) & (lam_plus > 0)
        return pp, pm, P, Q

    # -- exact row intervals ----------------------------------------------------

    def box(self, X: float) -> tuple[int, int, int]:
        """(alo, ahi, bmax): every point kept under |N(mu)| <= X has
        alo <= a <= ahi and |b| <= bmax.

        In the embedding plane the two slices are the sectors
        {t (1, +-m) : 1 <= m <= lambda, t^2 m <= X}.  Along each ray an affine
        form is extreme at t = 0 or on the norm curve t = sqrt(X / m), where
        as a function of m it is extreme at m = 1, at m = lambda or where it
        is stationary.  The extremes of a and b, computed in floats, are
        rounded to the integers between them and padded by one row against
        the rounding of the 40-bit embeddings."""
        e1, e2, er = self._emb
        det = e1[0] * e2[1] - e1[1] * e2[0]
        bounds = []
        # a and b are each cx x1 + cy x2 + c, by the inverse embedding matrix
        for cx, cy in ((e2[1] / det, -e2[0] / det), (-e1[1] / det, e1[0] / det)):
            values = [0.0]
            for gy in (cy, -cy):  # the slices x2 = m x1 and x2 = -m x1
                ms = [1.0, self.lam]
                if cx * gy > 0 and 1 < cx / gy < self.lam:
                    ms.append(cx / gy)
                values += [math.sqrt(X / m) * (cx + gy * m) for m in ms]
            c = -(cx * er[0] + cy * er[1])
            bounds.append((math.ceil(c + min(values)) - 1, math.floor(c + max(values)) + 1))
        (alo, ahi), (blo, bhi) = bounds
        return alo, ahi, max(-blo, bhi)

    def row_norm(self, a):
        """(N1, N0) with den^2 N(mu) = N2 b^2 + N1 b + N0 on each row a: the
        form of ``norm_scaled`` expanded in b.  (Not through
        ``norm_scaled``, whose traced calls count certified points.)"""
        c0, c1, pb, qb = self.c0, self.c1, self.pb, self.qb
        P0 = self.pa * a + self.pc
        Q0 = self.qa * a + self.qc
        N1 = (2 * pb - c1 * qb) * P0 + (2 * c0 * qb - c1 * pb) * Q0
        return N1, P0 * P0 - c1 * P0 * Q0 + c0 * Q0 * Q0

    def row_intervals(self, a, Xi: int, bmax: int):
        """The points of the rows a (an integer array) kept under
        |den^2 N(mu)| <= Xi, as arrays (a, lo, hi, slice) ordered by row and
        then by lo: every b in [lo, hi] lies in the slice (0: totally
        positive quadrant, 1: mixed quadrant, the two masks of
        ``slice_masks``), and lo - 1 and hi + 1 do not.  Every row is solved
        in the same array operations, in exact integers of a's dtype.  The
        intervals are clipped to |b| <= bmax, which ``box`` makes hold every
        kept point and which ``certify`` would catch failing."""
        import numpy as np
        d, c0, c1, eP, eQ = self.d0, self.c0, self.c1, self.eP, self.eQ
        pb, qb = self.pb, self.qb
        P0 = self.pa * a + self.pc  # P = pb b + P0, Q = qb b + Q0
        Q0 = self.qa * a + self.qc
        U1, U0 = 2 * pb - c1 * qb, 2 * P0 - c1 * Q0  # x1 + x2 = U1 b + U0

        # a half-line is a pair (lo, hi) with -bmax or bmax on its open side;
        # the slopes do not depend on a, so only the crossing points are arrays
        def affine_nonneg(alpha: int, beta):
            """b with alpha b + beta >= 0."""
            if alpha > 0:
                return -(beta // alpha), bmax
            if alpha < 0:
                return -bmax, beta // -alpha
            return np.where(beta >= 0, -bmax, bmax + 1), bmax

        def sqrt_affine_pos(a0: int, a1: int, b0, b1):
            """b with (a0 + a1 sqrt d) b + b0 + b1 sqrt d > 0, for a nonzero
            slope: the form vanishes at t = (r + w sqrt d) / q."""
            q = a0 * a0 - d * a1 * a1  # nonzero, since d is not a square
            if a0 >= 0 and a1 >= 0:
                rising = True
            elif a0 <= 0 and a1 <= 0:
                rising = False
            else:  # opposite signs: the rational part wins when q > 0
                rising = (a0 > 0) == (q > 0)
            r, w = d * a1 * b1 - a0 * b0, a1 * b0 - a0 * b1
            if q < 0:
                q, r, w = -q, -r, -w
            root = _isqrt(w * w * d)  # floor(|w| sqrt d); w sqrt d is irrational
            if rising:  # b > t, i.e. b >= floor(t) + 1
                return (r + np.where(w >= 0, root, -root - 1)) // q + 1, bmax
            # b < t, i.e. b <= ceil(t) - 1 = -floor(-t) - 1
            return -bmax, -((np.where(w <= 0, root, -root - 1) - r) // q) - 1

        # the place-i embedding is (U1 b + U0 -+ (qb b + Q0) sqrt(d0)) / 2
        x1_pos = sqrt_affine_pos(U1, -qb, U0, -Q0)
        lam_p, lam_q = 2 * eP - c1 * eQ, 2 * c0 * eQ - c1 * eP
        halflines = (
            (
                x1_pos,
                sqrt_affine_pos(U1, qb, U0, Q0),  # x2 > 0
                affine_nonneg(qb, Q0),  # x2 - x1 >= 0
                affine_nonneg(eQ * pb - eP * qb, eQ * P0 - eP * Q0 - 1),  # x2 < lambda x1
            ),
            (
                x1_pos,
                sqrt_affine_pos(-U1, -qb, -U0, -Q0),  # x2 < 0
                affine_nonneg(-U1, -U0),  # x1 + x2 <= 0
                affine_nonneg(  # |x2| < lambda x1
                    lam_p * pb + lam_q * qb, lam_p * P0 + lam_q * Q0 - 1
                ),
            ),
        )
        sector = []
        for lines in halflines:
            lo, hi = np.full_like(a, -bmax), np.full_like(a, bmax)
            for llo, lhi in lines:
                lo, hi = np.maximum(lo, llo), np.minimum(hi, lhi)
            sector.append((lo, hi))

        # den^2 N(mu) is positive on slice 0 and negative on slice 1; with
        # sigma = sign(N2) the cut on slice `inner` is A b^2 + B b + C <= 0
        # for A > 0, one interval, and on the other slice it is the
        # complement of A b^2 + B b + C + 2 Xi + 1 <= 0
        N1, N0 = self.row_norm(a)
        sigma = 1 if self.N2 > 0 else -1
        A, B, C = sigma * self.N2, sigma * N1, sigma * N0 - Xi
        inner, outer = (0, 1) if sigma > 0 else (1, 0)
        qlo, qhi = _quad_interval(A, B, C)
        glo, ghi = _quad_interval(A, B, C + (2 * Xi + 1))
        gap = glo <= ghi
        (ilo, ihi), (olo, ohi) = sector[inner], sector[outer]
        los = (np.maximum(ilo, qlo), olo, np.maximum(olo, np.where(gap, ghi + 1, bmax + 1)))
        his = (np.minimum(ihi, qhi), np.minimum(ohi, np.where(gap, glo - 1, bmax)), ohi)
        lo, hi = np.stack(los, axis=1), np.stack(his, axis=1)
        order = np.argsort(lo, axis=1)
        lo = np.take_along_axis(lo, order, axis=1).ravel()
        hi = np.take_along_axis(hi, order, axis=1).ravel()
        kind = np.array([inner, outer, outer], dtype=np.int8)[order].ravel()
        keep = lo <= hi
        return np.repeat(a, 3)[keep], lo[keep], hi[keep], kind[keep]

    def kept_intervals(self, cutoff: float, Xi: int):
        """Arrays (a, lo, hi) of every row's kept intervals in row order,
        certified against ``slice_masks``, and their norms' dtype: both as
        ``int_dtype`` chooses."""
        import numpy as np
        alo, ahi, bmax = self.box(cutoff)
        dtype, norms = self.int_dtype(max(-alo, ahi, 1), bmax + 1, Xi)
        a, lo, hi, kind = self.row_intervals(
            np.arange(alo, ahi + 1).astype(dtype), Xi, bmax
        )
        self.certify(a, lo, hi, kind, Xi)
        return a, lo, hi, norms

    def int_dtype(self, amax: int, bmax: int, Xi: int):
        """(rows, norms): np.int64 rows when no intermediate reaches 2^62 for
        |a| <= amax, |b| <= bmax and the scaled cut Xi, else object, so that
        numpy never wraps; float64 norms when Xi and the re-centred quadratics
        stay below 2^53, so exact, else the rows' dtype.  The intermediates
        are those of ``_pq``, ``slice_masks`` and ``norm_scaled``, of
        ``row_intervals`` (the crossing points r + w sqrt(d0) with w^2 d0, and
        the quadratic cut's discriminant) and of ``_interval_norms``, whose
        quadratics are re-centred at |b| <= bmax + _CHUNK_POINTS."""
        import numpy as np
        c0, c1, eP, eQ, d = abs(self.c0), abs(self.c1), abs(self.eP), abs(self.eQ), self.d0
        pb, qb, N2 = abs(self.pb), abs(self.qb), abs(self.N2)

        def pq(b):  # bounds on |P| and |Q|
            return (
                abs(self.pa) * amax + pb * b + abs(self.pc),
                abs(self.qa) * amax + qb * b + abs(self.qc),
            )

        def norm(P, Q):
            return P * P + c1 * P * Q + c0 * Q * Q

        P, Q = pq(bmax)
        u = 2 * P + c1 * Q
        U1 = 2 * pb + c1 * qb
        w = qb * u + U1 * Q
        N1 = U1 * P + (2 * c0 * qb + c1 * pb) * Q
        far = 2 * bmax + 3 * _CHUNK_POINTS  # bounds |k + 2 off| in _interval_norms
        recentred = max(Xi, (N2 * far + N1) * far + norm(*pq(far)))
        worst = max(
            recentred,
            norm(P, Q),  # norm_scaled
            u * u + d * Q * Q,  # _sgn_quad
            eQ * P + eP * Q,  # lam_cut
            (2 * eP + c1 * eQ) * P + (c1 * eP + 2 * c0 * eQ) * Q,  # lam_plus
            w * w * d,  # the crossing points' isqrt
            d * qb * Q + U1 * u + w * (math.isqrt(d) + 1),  # r + floor(w sqrt d)
            N1 * N1 + 4 * N2 * (norm(P, Q) + 2 * Xi + 1),  # discriminant
        )
        rows = np.int64 if worst < 1 << 62 else object
        return rows, np.float64 if recentred < 1 << 53 else rows

    def certify(self, a, lo, hi, kind, Xi: int) -> None:
        """Check intervals against ``slice_masks`` and ``norm_scaled``, one
        vectorized call per end: both ends of every interval must be kept by
        its slice under the norm cut, and both outer neighbours rejected."""
        import numpy as np
        for b, inside in ((lo, True), (hi, True), (lo - 1, False), (hi + 1, False)):
            pp, pm, P, Q = self.slice_masks(a, b)
            Ni = self.norm_scaled(P, Q)
            wrong = (np.where(kind == 0, pp, pm) & (Ni != 0) & (np.abs(Ni) <= Xi)) != inside
            if wrong.any():
                bad = int(np.flatnonzero(wrong)[0])
                raise EnumerationMismatch(
                    f"row a = {a[bad]}: interval [{lo[bad]}, {hi[bad]}] of slice "
                    f"{kind[bad]} disagrees with slice_masks"
                )


def _sgn_quad(u, v, d: int):
    """Vectorized exact sign of u + v sqrt(d) for integer arrays."""
    import numpy as np
    s = np.zeros_like(u)
    pos = (u >= 0) & (v >= 0) & ((u > 0) | (v > 0))
    neg = (u <= 0) & (v <= 0) & ((u < 0) | (v < 0))
    s[pos] = 1
    s[neg] = -1
    rest = ~(pos | neg)
    uu, vv = u[rest], v[rest]
    s[rest] = np.sign(uu) * np.sign(uu * uu - d * vv * vv)
    return s


def _isqrt(n):
    """Elementwise floor(sqrt(n)) of a nonnegative integer array, exactly: a
    float square root corrected by one either way in int64 (n < 2^62), or
    ``math.isqrt`` per element on an object array."""
    import numpy as np
    if n.dtype == object:
        return np.array([math.isqrt(v) for v in n], dtype=object)
    r = np.sqrt(n.astype(np.float64)).astype(np.int64)
    r -= r * r > n
    r += (r + 1) * (r + 1) <= n
    return r


def _quad_interval(A: int, B, C):
    """Bounds (lo, hi) of the integers b with A b^2 + B b + C <= 0 for
    A > 0 and integer arrays B, C; lo > hi where there are none."""
    import numpy as np
    disc = B * B - 4 * A * C
    # 4A (A b^2 + B b + C) = t^2 - disc with the integer t = 2A b + B, so the
    # inequality is |t| <= isqrt(disc)
    root = _isqrt(np.maximum(disc, 0))
    lo, hi = -((B + root) // (2 * A)), (root - B) // (2 * A)
    return np.where(disc < 0, hi + 1, lo), hi


_CHUNK_POINTS = 1 << 16  # 512 kB per array, so a chunk stays in cache


def _interval_norms(N2: int, N1, N0, lo, hi, dtype=None):
    """Yield den^2 N(mu) = N2 b^2 + N1_i b + N0_i for every b in
    [lo_i, hi_i], interval by interval and in order, at most _CHUNK_POINTS
    values at a time, as ``dtype`` (lo's by default).

    One vectorized plan cuts the intervals at the chunk boundaries into
    pieces.  A chunk's k-th value, on a piece of interval i, has b = off + k
    and is (N2 k + L) k + M for the quadratic re-centred at the piece's off;
    every chunk builds its norms in one reused buffer, which the next chunk
    overwrites."""
    import numpy as np
    C, dtype = _CHUNK_POINTS, lo.dtype if dtype is None else dtype
    n = (hi - lo + 1).astype(np.int64)
    ends = np.cumsum(n)
    total = int(ends[-1]) if len(ends) else 0
    # the piece starts, deduplicated by hand: np.union1d would load numpy.ma
    p = np.sort(np.concatenate((ends - n, np.arange(C, total, C))))
    p = p[np.diff(p, append=total) > 0]
    i = np.searchsorted(ends, p, side="right")
    off = lo[i] - (ends - n)[i] + p // C * C
    L = (2 * N2 * off + N1[i]).astype(dtype)
    M = ((N2 * off + N1[i]) * off + N0[i]).astype(dtype)
    sizes, first = np.diff(p, append=total), np.searchsorted(p, np.arange(0, total + C, C))
    k = np.arange(min(total, C), dtype=dtype)
    buf = np.empty_like(k)
    for c, (q0, q1) in enumerate(zip(first.tolist(), first[1:].tolist())):
        m = min(C, total - c * C)
        Ni = np.multiply(k[:m], N2, out=buf[:m])
        Ni += np.repeat(L[q0:q1], sizes[q0:q1])
        Ni *= k[:m]
        Ni += np.repeat(M[q0:q1], sizes[q0:q1])
        yield Ni


def lvalue_numeric(
    module: LatticeModule,
    s: int,
    cutoff: float,
    accel: bool = True,
    tol: float | None = None,
) -> float:
    """Numeric value of the coset sum at integer s >= 1.

    Representatives of (M+rho)/V lie in two slope slices (one per sign
    quadrant up to the global -1 symmetry).  Each row a of the lattice meets
    them, under the cut |N(mu)| <= cutoff, in exact integer b-intervals,
    solved for every row of the slices' bounding box in one array pass and
    certified (``_QuadraticEnumerator.kept_intervals``).  Only those points
    are visited, in cache-sized chunks, each norm the row's quadratic in b,
    and summed ordered by |N(mu)|.  For s = 1 the last two checkpoint
    partial sums are averaged (one acceleration level).  A tolerance
    triggers CutoffTooSmall when the internal error estimate exceeds it.
    """
    import numpy as np
    if s < 1 or int(s) != s:
        raise InvalidWeight(f"s must be an integer >= 1, got {s!r}")
    enum = _QuadraticEnumerator(module)
    den = enum.den
    Xi = math.floor(Fraction(cutoff) * den * den)  # bound on the scaled integer norm

    ordered = s == 1
    nshells = 1 << 14
    width = max(1, Xi // nshells)
    shells = np.zeros(Xi // width + 2) if ordered else None
    total = 0.0
    tail = 0.0  # contribution with |N| in the top decade, for a tolerance

    den2 = float(den * den)
    top = math.floor(Xi * 0.9)  # |N| > top: the top decade
    a, lo, hi, dtype = enum.kept_intervals(cutoff, Xi)
    buf = np.empty(_CHUNK_POINTS)
    idx = np.empty(_CHUNK_POINTS, dtype=np.intp)
    for Ni in _interval_norms(enum.N2, *enum.row_norm(a), lo, hi, dtype):
        if ordered:  # each point's shell of |N|, before Ni is divided in place
            shell = idx[: len(Ni)]
            if Ni.dtype == object:  # Python ints may not fit intp
                np.floor_divide(np.abs(Ni), width, out=shell, casting="unsafe")
            else:
                np.abs(Ni, out=shell, casting="unsafe")
                shell //= width
        elif tol is not None:
            far = np.abs(Ni) > top
        # float64 norms turn into their terms in place; "unsafe" lets object
        # arrays of Python ints convert too
        out = Ni if Ni.dtype == np.float64 else buf[: len(Ni)]
        terms = np.divide(den2, Ni, out=out, casting="unsafe")
        if s % 2 and s > 1:  # pow of a negative base is some 20x slower
            np.copysign(np.abs(terms) ** s, terms, out=terms)
        elif s > 1:
            terms **= s
        if ordered:
            shells += np.bincount(shell, weights=terms, minlength=len(shells))
        else:
            total += float(np.sum(terms))
            if tol is not None:
                tail += float(np.sum(np.abs(terms[far])))

    if ordered:
        csum = 2.0 * np.cumsum(shells)  # the -1 symmetry doubles every orbit
        if accel:
            checkpoints = np.linspace(0.6, 1.0, 9)
            vals = [csum[int((len(csum) - 1) * f)] for f in checkpoints]
            value = (vals[-2] + vals[-1]) / 2
            err_est = max(abs(v - value) for v in vals[-4:])
        else:
            value = float(csum[-1])
            err_est = float(abs(2.0 * np.sum(shells[int(len(shells) * 0.9) :]))) * 10
    else:
        value = 2.0 * total
        # |terms| ~ |N|^(-s): the top-decade sum dominates the tail by the
        # integral comparison; a modest safety factor keeps it honest
        err_est = 2.0 * tail / max(s - 1, 1) * 1.2
    if tol is not None and err_est > tol:
        raise CutoffTooSmall(f"error estimate {err_est:.2e} above tolerance {tol:.2e}")
    return float(value)


# ---------------------------------------------------------------------------
# the worked verification table


SQRT3_REFERENCE = {
    # kappa-normalized intersection numbers of the cusp divisors for the
    # module Z + Z*sqrt(3)/3 in Q(sqrt 3), per weight s
    1: {(2, 0): Fraction(-2), (0, 2): Fraction(-3), (1, 1): Fraction(2)},
    2: {(4, 0): Fraction(0), (0, 4): Fraction(0), (2, 2): Fraction(3)},
    3: {
        (6, 0): Fraction(-12),
        (0, 6): Fraction(-81, 2),
        (4, 2): Fraction(-18),
        (2, 4): Fraction(-27),
    },
}

SQRT3_EXPECTED = {
    # exact L-values as coefficient-of-pi^(2s) over sqrt(12)
    1: (ScaledRational(Fraction(-1, 12), 1, 12), 2),
    2: (ScaledRational(Fraction(1, 12), 1, 12), 4),
    3: (ScaledRational(Fraction(-1, 72), 1, 12), 6),
}


def satake_report(
    module: LatticeModule,
    vs: VertexSequence,
    cutoffs: dict[int, float] | None = None,
    tolerances: dict[int, float] | None = None,
) -> dict:
    """Reproduce the three worked identities for the Q(sqrt 3) module as
    exact rational statements, then cross-check numerically.

    Returns a report dictionary with per-line pass flags.
    """
    cutoffs = cutoffs or {1: 6e5, 2: 8e6, 3: 1e5}
    tolerances = tolerances or {1: 1e-3, 2: 1e-6, 3: 1e-6}
    n = module.field.degree
    d_M = module.d_M
    results = []

    geom = quadratic_intersections(vs)
    geom_pass = geom.entries == SQRT3_REFERENCE[1]
    results.append(
        {
            "name": "intersection-numbers-from-hull",
            "pass": bool(geom_pass),
            "detail": {str(k): str(v) for k, v in geom.entries.items()},
        }
    )

    for s in (1, 2, 3):
        data = IntersectionData(
            s=s, components=2, entries=dict(SQRT3_REFERENCE[s])
        )
        pred = satake_rhs(data, s, n, d_M)
        coeff, power = SQRT3_EXPECTED[s]
        exact_ok = pred.coeff == coeff and pred.pi_power == power
        numeric = lvalue_numeric(module, s, cutoffs[s])
        num_err = abs(numeric - pred.to_float())
        results.append(
            {
                "name": f"identity-s{s}",
                "pass": bool(exact_ok and num_err < tolerances[s]),
                "detail": {
                    "prediction": pred.exact_str(),
                    "exact_match": bool(exact_ok),
                    "numeric": numeric,
                    "numeric_error": num_err,
                    "tolerance": tolerances[s],
                },
            }
        )
    return {"passed": all(r["pass"] for r in results), "results": results}
