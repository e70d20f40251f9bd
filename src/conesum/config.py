"""Run configuration: JSON with exact rationals as "p/q" strings.

The schema is validated before any computation; every number that feeds the
exact machinery is parsed as a Fraction, never as a float.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .arith import LatticeModule
from .errors import ConfigError, ConesumError, ZeroInput
from .fan import FanDescription, build_quadratic_fan
from .field import FieldElement, TotallyRealField, UnitGroupData, make_field
from .geometry import Cone
from .record import Record


def parse_rational(value) -> Fraction:
    if isinstance(value, bool):
        raise ConfigError(f"expected a rational, got {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"cannot parse rational {value!r}") from exc
    raise ConfigError(f"expected a rational, got {value!r}")


def parse_elements(field: TotallyRealField, items, what: str) -> tuple[FieldElement, ...]:
    if not isinstance(items, list):
        raise ConfigError(f"{what} must be a list of elements, got {items!r}")
    return tuple(parse_element(field, c) for c in items)


def parse_element(field: TotallyRealField, coords) -> FieldElement:
    if not isinstance(coords, (list, tuple)) or len(coords) != field.degree:
        raise ConfigError(
            f"element needs {field.degree} coordinates, got {coords!r}"
        )
    return field.element([parse_rational(c) for c in coords])


class RunConfig(Record):
    __slots__ = (
        "field", "module", "fan", "x0", "n_max", "tolerance", "seed", "output_format",
        "unitsearch",
    )

    def __init__(
        self, field: TotallyRealField, module: LatticeModule | None, fan: FanDescription | None,
        x0: FieldElement | None, n_max: int, tolerance: float, seed: int, output_format: str,
        unitsearch: dict | None = None,
    ):
        self._fill(
            field, module, fan, x0, n_max, tolerance, seed, output_format,
            {} if unitsearch is None else unitsearch,
        )


def load_config(path: str, overrides: dict[str, object] | None = None) -> RunConfig:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    return build_config(raw, overrides or {})


def build_config(raw: dict, overrides: dict[str, object] | None = None) -> RunConfig:
    overrides = overrides or {}
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be an object")

    fdesc = raw.get("field")
    if not isinstance(fdesc, dict) or "min_poly" not in fdesc:
        raise ConfigError('config needs "field": {"min_poly": [c0, ..., 1]}')
    coeffs = fdesc["min_poly"]
    if (
        not isinstance(coeffs, list)
        or len(coeffs) < 3
        or any(type(c) is not int for c in coeffs)  # not a bool
        or coeffs[-1] != 1
    ):
        raise ConfigError("min_poly must be an ascending monic integer list")
    try:
        field = make_field(coeffs)
    except ConesumError as exc:
        raise ConfigError(f"bad field: {exc}") from exc

    module = None
    if "module" in raw:
        mdesc = raw["module"]
        if not isinstance(mdesc, dict) or "basis" not in mdesc or "units" not in mdesc:
            raise ConfigError('module needs "basis" and "units"')
        basis = parse_elements(field, mdesc["basis"], "module basis")
        rho = (
            parse_element(field, mdesc["rho"]) if "rho" in mdesc else field.zero
        )
        units = parse_elements(field, mdesc["units"], "module units")
        try:  # the module's frame checks its units
            module = LatticeModule(basis=basis, rho=rho, units=UnitGroupData._checked(units))
        except ConesumError as exc:
            raise ConfigError(f"bad module: {exc}") from exc

    fan = None
    if "fan" in raw:
        fan = _build_fan(raw["fan"], field, module)

    # an override of None keeps the config's value
    merged = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    x0 = None
    if "x0" in merged:
        x0 = parse_element(field, merged["x0"])

    out_fmt = merged.get("format", "csv")
    if out_fmt not in ("csv", "json"):
        raise ConfigError('format must be "csv" or "json"')

    def _int(name, default, minimum):
        v = merged.get(name, default)
        if isinstance(v, bool) or not isinstance(v, int) or v < minimum:
            raise ConfigError(f"{name} must be an integer >= {minimum}")
        return v

    unitsearch = raw.get("unitsearch", {})
    if not isinstance(unitsearch, dict):
        raise ConfigError("unitsearch must be an object")
    for name in ("a", "b"):
        if name in unitsearch:
            parse_rational(unitsearch[name])
    for name, minimum in (("radius", 0), ("window", 1)):
        v = unitsearch.get(name, minimum)
        if isinstance(v, bool) or not isinstance(v, int) or v < minimum:
            raise ConfigError(f"unitsearch {name} must be an integer >= {minimum}")

    tol = merged.get("tolerance", 1e-6)
    if type(tol) not in (int, float) or not tol >= 0:  # not a bool; NaN compares false
        raise ConfigError("tolerance must be a nonnegative number")

    return RunConfig(
        field=field,
        module=module,
        fan=fan,
        x0=x0,
        n_max=_int("N_max", 8, 1),
        tolerance=float(tol),
        seed=_int("seed", 0, 0),
        output_format=out_fmt,
        unitsearch=unitsearch,
    )


def _build_fan(fdesc, field, module) -> FanDescription:
    if not isinstance(fdesc, dict) or "type" not in fdesc:
        raise ConfigError('fan needs a "type"')
    kind = fdesc["type"]
    if kind == "quadratic-auto":
        if module is None:
            raise ConfigError("quadratic-auto fan needs a module")
        if field.degree != 2:
            raise ConfigError("quadratic-auto fan needs a quadratic field")
        if not module.units.generators:
            raise ConfigError("quadratic-auto fan needs a unit generator")
        try:
            desc, _ = build_quadratic_fan(module.basis, module.units.generators[0])
        except ConesumError as exc:
            raise ConfigError(f"bad fan: {exc}") from exc
        return desc
    if kind == "explicit":
        if "cones" not in fdesc or "unit_action" not in fdesc:
            raise ConfigError('explicit fan needs "cones" and "unit_action"')
        if not isinstance(fdesc["cones"], list) or not fdesc["cones"] or not all(fdesc["cones"]):
            raise ConfigError("explicit fan cones must be a nonempty list of nonempty lists")
        try:
            cones = [
                Cone(field, list(parse_elements(field, gens, "cone generators")))
                for gens in fdesc["cones"]
            ]
        except ZeroInput as exc:
            raise ConfigError(f"bad fan cones: {exc}") from exc
        units = parse_elements(field, fdesc["unit_action"], "fan unit action")
        basis = module.basis if module else tuple(
            field.element([1 if i == j else 0 for j in range(field.degree)])
            for i in range(field.degree)
        )
        desc = FanDescription("explicit", basis, units, orbit_cones=tuple(cones))
        try:  # its frame takes only totally positive units acting on M
            desc.frame
        except ConesumError as exc:
            raise ConfigError(f"bad fan unit action: {exc}") from exc
        return desc
    raise ConfigError(f"unknown fan type {kind!r}")
