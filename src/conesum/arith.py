"""L-value verification: numeric coset sums, Bernoulli numbers, and the
intersection-number identity they satisfy.

The series L(M+rho, V; s) = sum over nonzero coset representatives of
N(mu)^(-s) converges absolutely for s > 1 and conditionally for s = 1; the
numeric evaluator enumerates a fundamental domain for the unit action
exactly and orders terms by |N(mu)|.  The closed-form side expands a formal
power of a sum of Bernoulli symbols against intersection numbers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
from .fan import VertexSequence
from .field import (
    FieldElement,
    ScaledRational,
    UnitGroupData,
    det_scaled,
)
from .geometry import solve_in_basis


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


@dataclass(frozen=True)
class LatticeModule:
    """Full-rank lattice M (+ optional translation rho) with a unit group
    preserving the coset."""

    basis: tuple[FieldElement, ...]
    rho: FieldElement
    units: UnitGroupData

    def __post_init__(self):
        if not self.basis or len(self.basis) != self.basis[0].field.degree:
            raise NotFullRank(
                f"a lattice basis needs one element per degree, got {len(self.basis)}"
            )
        if det_scaled(list(self.basis)).is_zero():
            raise NotFullRank("lattice basis elements are linearly dependent")
        for eps in self.units.generators:
            for m in self.basis:
                sol = solve_in_basis(list(self.basis), eps * m)
                if sol is None or any(c.denominator != 1 for c in sol):
                    raise UnitDoesNotPreserveM(f"{eps} does not preserve the lattice")
            shift = eps * self.rho - self.rho
            sol = solve_in_basis(list(self.basis), shift) if not shift.is_zero() else ()
            if sol is None or any(c.denominator != 1 for c in sol):
                raise UnitDoesNotPreserveM(f"{eps} does not preserve the coset")

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


@dataclass(frozen=True)
class IntersectionData:
    """kappa-normalized intersection numbers of the cusp divisor components,
    keyed by exponent multi-index (k_1, ..., k_r) with sum = n*s."""

    s: int
    components: int
    entries: dict[tuple[int, ...], Fraction]

    def value(self, index: tuple[int, ...]) -> Fraction:
        if index not in self.entries:
            raise MissingIntersectionEntry(f"no intersection entry for {index}")
        return self.entries[index]


@dataclass(frozen=True)
class SatakePrediction:
    """Exact prediction q * sqrt(D)^e * pi^(n s) for an L-value."""

    coeff: ScaledRational
    pi_power: int

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
    point.  ``row_intervals`` solves the same conditions exactly for a fixed
    a: each slice condition is then the sign of a form affine in b with
    coefficients in Z[sqrt(d0)], a half-line, and the norm cut is a quadratic
    inequality in b, so the kept points of a row are at most two integer
    intervals per slice.
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
        den = 1
        for x in (*m1.coords, *m2.coords, *rho.coords):
            den = den * x.denominator // math.gcd(den, x.denominator)
        self.den = den

        def ints(x):
            return (int(x.coords[0] * den), int(x.coords[1] * den))

        # P = pa a + pb b + pc ; Q = qa a + qb b + qc   (scaled by den)
        (self.pa, self.qa) = ints(m1)
        (self.pb, self.qb) = ints(m2)
        (self.pc, self.qc) = ints(rho)

        gens = module.units.generators
        if len(gens) != 1:
            raise UnitRankMismatch(
                f"quadratic coset sums need one unit generator, got {len(gens)}"
            )
        eps = gens[0]
        if field.sign_at(eps - field.one, 1) < 0:
            eps = eps.inverse()
        self.eps = eps  # place-2 embedding > 1
        se = 1
        for x in eps.coords:
            se = se * x.denominator // math.gcd(se, x.denominator)
        self.eP, self.eQ = int(eps.coords[0] * se), int(eps.coords[1] * se)

        # float embedding data for the a-range
        e1 = [float(iv) for iv in field.embed(m1, 40)]
        e2 = [float(iv) for iv in field.embed(m2, 40)]
        er = [float(iv) for iv in field.embed(rho, 40)]
        self._emb = (e1, e2, er)
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

    def a_range(self, X: float) -> tuple[int, int]:
        """Rows a that can hold a kept point at cutoff X: both slices have
        |x1| <= sqrt(X) and |x2| <= sqrt(lambda X), bounded here in floats
        with padding."""
        e1, e2, er = self._emb
        cap = math.sqrt((self.lam + 1) * X) * 1.05 + 2
        det = e1[0] * e2[1] - e1[1] * e2[0]
        amax = 0
        for x, y in itertools.product((-cap, cap), repeat=2):
            a = ((x - er[0]) * e2[1] - (y - er[1]) * e2[0]) / det
            amax = max(amax, abs(a))
        return (-int(amax) - 2, int(amax) + 2)

    def row_intervals(self, a: int, Xi: int) -> list[tuple[int, int, int]]:
        """The points of row a kept under |den^2 N(mu)| <= Xi, as sorted
        (lo, hi, slice) triples: every b in [lo, hi] lies in the slice
        (0: totally positive quadrant, 1: mixed quadrant, the two masks of
        ``slice_masks``), and lo - 1 and hi + 1 do not.  Exact in Python
        integers."""
        d, c0, c1, eP, eQ = self.d0, self.c0, self.c1, self.eP, self.eQ
        pb, qb = self.pb, self.qb
        P0 = self.pa * a + self.pc  # P = pb b + P0, Q = qb b + Q0
        Q0 = self.qa * a + self.qc
        U1, U0 = 2 * pb - c1 * qb, 2 * P0 - c1 * Q0  # x1 + x2 = U1 b + U0
        # the place-i embedding is (U1 b + U0 -+ (qb b + Q0) sqrt(d0)) / 2
        x1_pos = _sqrt_affine_pos(U1, -qb, U0, -Q0, d)
        x2_pos = _sqrt_affine_pos(U1, qb, U0, Q0, d)
        x2_neg = _sqrt_affine_pos(-U1, -qb, -U0, -Q0, d)
        lam_p, lam_q = 2 * eP - c1 * eQ, 2 * c0 * eQ - c1 * eP
        pp = (
            x1_pos,
            x2_pos,
            _affine_nonneg(qb, Q0),  # x2 - x1 >= 0
            _affine_nonneg(eQ * pb - eP * qb, eQ * P0 - eP * Q0 - 1),  # x2 < lambda x1
        )
        pm = (
            x1_pos,
            x2_neg,
            _affine_nonneg(-U1, -U0),  # x1 + x2 <= 0
            _affine_nonneg(  # |x2| < lambda x1
                lam_p * pb + lam_q * qb, lam_p * P0 + lam_q * Q0 - 1
            ),
        )
        # den^2 N(mu) = N2 b^2 + N1 b + N0, positive on slice 0, negative on 1
        N2 = pb * pb - c1 * pb * qb + c0 * qb * qb
        N1 = 2 * pb * P0 - c1 * (pb * Q0 + qb * P0) + 2 * c0 * qb * Q0
        N0 = P0 * P0 - c1 * P0 * Q0 + c0 * Q0 * Q0
        out = [(lo, hi, 0) for lo, hi in _clip(pp, _quad_nonpos(N2, N1, N0 - Xi))]
        out += [(lo, hi, 1) for lo, hi in _clip(pm, _quad_nonpos(-N2, -N1, -N0 - Xi))]
        out.sort()
        return out

    def kept_intervals(self, cutoff: float, Xi: int):
        """Arrays (a, lo, hi) of every row's kept intervals in row order,
        certified against ``slice_masks``.  They are int64 when the overflow
        bound allows it, else object arrays of Python ints."""
        import numpy as np
        alo, ahi = self.a_range(cutoff)
        rows = [
            (a, lo, hi, k)
            for a in range(alo, ahi + 1)
            for lo, hi, k in self.row_intervals(a, Xi)
        ]
        a, lo, hi, kind = (list(col) for col in zip(*rows)) if rows else ([],) * 4
        bmax = max(map(abs, lo + hi), default=0) + 1  # the neighbours included
        dtype = self.int_dtype(max(-alo, ahi, 1), bmax, Xi)
        a, lo, hi = (np.array(col, dtype=dtype) for col in (a, lo, hi))
        self.certify(a, lo, hi, np.array(kind, dtype=np.int8), Xi)
        return a, lo, hi

    def int_dtype(self, amax: int, bmax: int, Xi: int):
        """np.int64 when no intermediate of ``_pq``, ``slice_masks`` or
        ``norm_scaled`` reaches 2^62 for |a| <= amax, |b| <= bmax, and Xi is
        below it too; otherwise object, so that numpy computes with Python
        ints and never wraps."""
        import numpy as np
        c0, c1, eP, eQ = abs(self.c0), abs(self.c1), abs(self.eP), abs(self.eQ)
        P = abs(self.pa) * amax + abs(self.pb) * bmax + abs(self.pc)
        Q = abs(self.qa) * amax + abs(self.qb) * bmax + abs(self.qc)
        u = 2 * P + c1 * Q
        worst = max(
            Xi,
            P * P + c1 * P * Q + c0 * Q * Q,  # norm_scaled
            u * u + self.d0 * Q * Q,  # _sgn_quad
            eQ * P + eP * Q,  # lam_cut
            (2 * eP + c1 * eQ) * P + (c1 * eP + 2 * c0 * eQ) * Q,  # lam_plus
        )
        return np.int64 if worst < 1 << 62 else object

    def certify(self, a, lo, hi, kind, Xi: int) -> None:
        """Check intervals against ``slice_masks`` and ``norm_scaled`` in one
        vectorized call: both ends of every interval must be kept by its
        slice under the norm cut, and both outer neighbours rejected."""
        import numpy as np
        pp, pm, P, Q = self.slice_masks(
            np.concatenate((a, a, a, a)), np.concatenate((lo, hi, lo - 1, hi + 1))
        )
        Ni = self.norm_scaled(P, Q)
        kept = np.where(np.tile(kind, 4) == 0, pp, pm) & (Ni != 0) & (np.abs(Ni) <= Xi)
        n = 2 * len(a)
        if not (kept[:n].all() and not kept[n:].any()):
            bad = int(np.flatnonzero(kept != (np.arange(2 * n) < n))[0]) % len(a)
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


# integer sets on a row are closed intervals (lo, hi); an unbounded side is
# +-inf, and an empty set has lo > hi


def _affine_nonneg(alpha: int, beta: int) -> tuple:
    """Integers b with alpha b + beta >= 0."""
    if alpha > 0:
        return -(beta // alpha), math.inf
    if alpha < 0:
        return -math.inf, beta // -alpha
    return (-math.inf, math.inf) if beta >= 0 else (math.inf, -math.inf)


def _floor_sqrt_multiple(w: int, d: int) -> int:
    """floor(w sqrt(d)) for a non-square d > 0."""
    r = math.isqrt(w * w * d)
    return r if w >= 0 else -r - 1


def _sqrt_affine_pos(a0: int, a1: int, b0: int, b1: int, d: int) -> tuple:
    """Integers b with (a0 + a1 sqrt d) b + b0 + b1 sqrt d > 0, for a
    non-square d > 0 and a nonzero slope a0 + a1 sqrt d."""
    q = a0 * a0 - d * a1 * a1  # nonzero, since d is not a square
    if a0 >= 0 and a1 >= 0:
        rising = True
    elif a0 <= 0 and a1 <= 0:
        rising = False
    else:  # opposite signs: the rational part wins when q > 0
        rising = (a0 > 0) == (q > 0)
    # the form vanishes at t = (r + w sqrt d) / q
    r, w = d * a1 * b1 - a0 * b0, a1 * b0 - a0 * b1
    if q < 0:
        q, r, w = -q, -r, -w
    if rising:  # b > t, i.e. b >= floor(t) + 1
        return (r + _floor_sqrt_multiple(w, d)) // q + 1, math.inf
    # b < t, i.e. b <= ceil(t) - 1 = -floor(-t) - 1
    return -math.inf, -((-r + _floor_sqrt_multiple(-w, d)) // q) - 1


def _quad_nonpos(A: int, B: int, C: int) -> list[tuple]:
    """Integers b with A b^2 + B b + C <= 0, for A != 0: one interval when
    A > 0, the complement of one when A < 0."""
    if A < 0:
        # the complement of -A b^2 - B b - C <= -1
        inner = _quad_nonpos(-A, -B, 1 - C)
        if not inner:
            return [(-math.inf, math.inf)]
        ((lo, hi),) = inner
        return [(-math.inf, lo - 1), (hi + 1, math.inf)]
    disc = B * B - 4 * A * C
    if disc < 0:
        return []
    # 4A (A b^2 + B b + C) = t^2 - disc with the integer t = 2A b + B, so the
    # inequality is |t| <= isqrt(disc)
    root = math.isqrt(disc)
    lo, hi = -((B + root) // (2 * A)), (root - B) // (2 * A)
    return [(lo, hi)] if lo <= hi else []


def _clip(halflines, pieces) -> list[tuple[int, int]]:
    """The nonempty intersections of the half-lines with each piece."""
    los, his = zip(*halflines)
    lo, hi = max(los), min(his)
    out = []
    for plo, phi in pieces:
        blo, bhi = max(lo, plo), min(hi, phi)
        if blo <= bhi:
            out.append((blo, bhi))
    return out


_CHUNK_POINTS = 1 << 20  # about 8 MB per int64 array


def _interval_points(a, lo, hi):
    """Yield arrays (A, B) of every point (a_i, b) with lo_i <= b <= hi_i, in
    order, at most _CHUNK_POINTS points at a time."""
    import numpy as np
    n = (hi - lo + 1).astype(np.int64)
    ends = np.cumsum(n)
    total = int(n.sum())
    for p0 in range(0, total, _CHUNK_POINTS):
        p1 = min(p0 + _CHUNK_POINTS, total)
        i0 = int(np.searchsorted(ends, p0, side="right"))
        i1 = int(np.searchsorted(ends, p1 - 1, side="right")) + 1
        clo, chi = lo[i0:i1].copy(), hi[i0:i1].copy()
        clo[0] += p0 - int(ends[i0] - n[i0])
        chi[-1] -= int(ends[i1 - 1]) - p1
        cn = (chi - clo + 1).astype(np.int64)
        start = np.cumsum(cn) - cn
        yield np.repeat(a[i0:i1], cn), np.repeat(clo - start, cn) + np.arange(p1 - p0)


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
    them, under the cut |N(mu)| <= cutoff, in exact integer b-intervals
    (``_QuadraticEnumerator.row_intervals``); only those points are visited,
    in chunks, and summed ordered by |N(mu)|.  For s = 1 the last two
    checkpoint partial sums are averaged (one acceleration level).  A
    tolerance triggers CutoffTooSmall when the internal error estimate
    exceeds it.
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
    tail = 0.0  # contribution with |N| in the top decade, for the estimate

    den2 = float(den * den)
    for A, B in _interval_points(*enum.kept_intervals(cutoff, Xi)):
        Ni = enum.norm_scaled(*enum._pq(A, B))
        terms = (den2 / Ni.astype(float)) ** s
        if ordered:
            idx = (np.abs(Ni) // width).astype(np.intp)
            shells += np.bincount(idx, weights=terms, minlength=len(shells))
        else:
            total += float(np.sum(terms))
            tail += float(np.sum(np.abs(terms)[np.abs(Ni) > Xi * 0.9]))

    if ordered:
        csum = 2.0 * np.cumsum(shells)  # the -1 symmetry doubles every orbit
        if accel:
            checkpoints = np.linspace(0.6, 1.0, 9)
            vals = [csum[int((len(csum) - 1) * f)] for f in checkpoints]
            value = (vals[-2] + vals[-1]) / 2
            err_est = max(abs(v - value) for v in vals[-4:])
        else:
            value = float(csum[-1])
            err_est = float(
                abs(2.0 * np.sum(shells[int(len(shells) * 0.9) :]))
            ) * 10
    else:
        value = 2.0 * total
        # |terms| ~ |N|^(-s): the top-decade sum dominates the tail by the
        # integral comparison; a modest safety factor keeps it honest
        err_est = 2.0 * tail / max(s - 1, 1) * 1.2
    if tol is not None and err_est > tol:
        raise CutoffTooSmall(
            f"error estimate {err_est:.2e} above tolerance {tol:.2e}"
        )
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
