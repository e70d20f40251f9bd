"""Reference checks for each op's answer.

None of these calls into conesum: targets, norms, characteristic
polynomials and square roots are computed here from the op's inputs.
Each check returns None for a correct answer, ("wrong", reason) for a wrong
one, and ("exit", reason) for an honest non-answer with an unexpected exit
code.
"""

from __future__ import annotations

import json
from decimal import Decimal, localcontext
from fractions import Fraction

from workloads import lvalue_reference, norm_of

EXIT_OK, EXIT_FAIL, EXIT_NOT_FOUND = 0, 1, 3

Verdict = tuple[str, str] | None


def _decimal(q: Fraction) -> Decimal:
    return Decimal(q.numerator) / Decimal(q.denominator)


def _scaled_value(text: str) -> Decimal:
    """Value of a ScaledRational exact string: "q", "q√D" or "q/√D"."""
    if "√" not in text:
        return _decimal(Fraction(text))
    head, disc = text.split("√")
    root = Decimal(int(disc)).sqrt()
    if head.endswith("/"):
        return _decimal(Fraction(head[:-1])) / root
    return _decimal(Fraction(head)) * root


def check_converge(op: dict, rc: int, out: str) -> Verdict:
    payload = json.loads(out)
    target = 1 / norm_of(op["field"], op["x0"])
    if Fraction(payload["target"]) != target:
        return "wrong", f"target {payload['target']} != 1/N(x0) = {target}"
    rows = payload["rows"]
    if [r["N"] for r in rows] != list(range(1, len(rows) + 1)):
        return "wrong", "windows are not 1..N"
    errors = []
    with localcontext() as ctx:
        ctx.prec = 60
        for r in rows:
            err = abs(_scaled_value(r["partial_sum"]) - _decimal(target))
            if abs(err - Decimal(r["abs_error"])) > err * Decimal("1e-9") + Decimal("1e-300"):
                return "wrong", f"window {r['N']}: reported error {r['abs_error']} != {err:.6e}"
            errors.append(err)
    if any(b > a for a, b in zip(errors, errors[1:])):
        return "wrong", "errors increase from one window to the next"
    if not errors[-1] < Decimal(op["tol"]):
        reason = f"final error {errors[-1]:.3e} not below {op['tol']}"
        return ("exit" if rc == EXIT_FAIL else "wrong"), reason
    if rc != EXIT_OK:
        return "wrong", f"exit {rc} although the tolerance was reached"
    return None


def check_lvalue(op: dict, rc: int, out: str) -> Verdict:
    value = float(out)
    ref, tol = lvalue_reference(op["s"])
    if not abs(value - ref) <= tol:
        return "wrong", f"L(s={op['s']}) = {value!r}, reference {ref!r} +- {tol}"
    return None


def _poly_mulmod(a: list, b: list, f: list) -> list:
    """a*b mod the monic f; coefficient lists, ascending."""
    n = len(f) - 1
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c:
            for i in range(n + 1):
                prod[k - n + i] -= c * f[i]
    return (prod + [Fraction(0)] * n)[:n]


def _charpoly(u: list, f: list) -> list:
    """Characteristic polynomial of multiplication by u (Faddeev-LeVerrier),
    ascending and monic."""
    n = len(f) - 1
    cols = [_poly_mulmod(u, [Fraction(0)] * j + [Fraction(1)], f) for j in range(n)]
    m = [[cols[j][i] for j in range(n)] for i in range(n)]
    coeffs = [Fraction(0)] * n + [Fraction(1)]
    mk = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        # mk holds X_{k-1} = M M_{k-1}; M_k = X_{k-1} + c_{n-k+1} I and
        # c_{n-k} = -tr(M M_k) / k
        for i in range(n):
            mk[i][i] += coeffs[n - k + 1]
        mk = [[sum(m[i][t] * mk[t][j] for t in range(n)) for j in range(n)] for i in range(n)]
        coeffs[n - k] = -sum(mk[i][i] for i in range(n)) / k
    return coeffs


def check_unit(coords: list[str], f: list[int]) -> Verdict:
    u = [Fraction(c) for c in coords]
    if any(c.denominator != 1 for c in u):
        return "wrong", f"{coords} is not integral"
    cp = _charpoly(u, [Fraction(c) for c in f])
    n = len(f) - 1
    if abs(cp[0]) != 1:
        return "wrong", f"{coords} has norm {(-1) ** n * cp[0]}, not +-1"
    # a real-rooted polynomial has only positive roots iff its coefficients
    # alternate in sign
    if not all((-1) ** (n - i) * cp[i] > 0 for i in range(n + 1)):
        return "wrong", f"{coords} is not totally positive"
    return None


def check_unitsearch(op: dict, rc: int, out: str, min_poly: list[int]) -> Verdict:
    payload = json.loads(out)
    if rc == EXIT_NOT_FOUND:
        return None if payload.get("found") is False else ("wrong", "exit 3 without found: false")
    if rc != EXIT_OK or payload.get("found") is not True:
        return "wrong", f"exit {rc}, found={payload.get('found')}"
    if not payload["bound_conditions"]["passed"]:
        return "wrong", "bound conditions fail"
    if not payload["limit_pair_conditions"]["passed"]:
        return "wrong", "limit-pair conditions fail"
    if not payload["charts"] or not all(c["vertices_certified"] for c in payload["charts"]):
        return "wrong", "a chart's vertices are not certified"
    units = payload["units"]
    if len(units) != len(min_poly) - 1:
        return "wrong", f"{len(units)} units for degree {len(min_poly) - 1}"
    for coords in units:
        reason = check_unit(coords, min_poly)
        if reason:
            return reason
    return None
