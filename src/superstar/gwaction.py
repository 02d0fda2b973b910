"""Superfield action on the deformed plane with one odd direction, and its
reduction to the harmonic quartic action on the deformed plane.

The superfield Phi = phi_even + phi_odd xi lives on R^{2|1}; the graded
derivations are star-commutators with the calibrated generators
alpha (i/2) x_mu and alpha (i/2) x_mu xi, where the calibration scale
alpha = 2/theta is the unique rescaling giving the kinetic term unit
normalization (the star-commutator with a coordinate is sigma i theta times
the symplectic gradient, so the scale must cancel theta).  The Lagrangian is
L = K + (M^2/2) P + lambda Q, with the kinetic sum K = (1/2) sum |D Phi|^2,
P = Phi*Phi and Q = Phi*(Phi*P); alpha enters only as (alpha theta/2)^2 on K.
Both actions are linear in M^2 and lambda, so :func:`super_lagrangian` and
:func:`plane_integrals` state each functional once per field and theta.

Trace choice.  The raw Lagrangian density is a superfunction whose full
Berezin-Lebesgue integral vanishes identically when the odd component is
zero and whose plain body integral has an O(theta) imaginary part even for
real fields (the odd derivation contributes i theta/4 times the kinetic
density through the Clifford square xi star xi = i theta/2).  Neither is a
real-valued action functional, so the shipped trace is the real part of the
body Lebesgue integral; ``action_super_report`` exposes both raw channels so
the choice is auditable.

Coefficient maps.  With the identification phi_odd = b phi_even, the
superfield action equals the harmonic quartic action with

    harmonic_sq = b^2 theta^2 / 4,      quartic = coupling (1 - b^4 theta^2 / 4)

(the "derived" map, machine-exact on the verification grid).  It follows in
two lines from xi * xi = c with c = i theta / 2 and alpha = 2/theta:

* harmonic term: the body of the odd derivation of phi + b phi xi is
  -b x_mu phi, so (1/2) sum_mu |.|^2 contributes (b^2/2) x^2 phi^2, which is
  the plane action's (2 harmonic_sq / theta^2) x^2 phi^2 at
  harmonic_sq = b^2 theta^2 / 4;
* quartic term: Phi = phi (1 + b xi) and the odd factor commutes with the
  even one, so Phi*^4 = phi*^4 (1 + b xi)*^4, whose body factor is
  1 + 6 b^2 c + b^4 c^2 with real part 1 - b^4 theta^2 / 4.

The asserted "target" map harmonic_sq = b^4 theta^2 / 16, quartic = coupling
(1 + b^4 theta^2 / 16) is *not* reproducible by any linear trace functional:
the harmonic term arises only from terms quadratic in phi_odd = b phi_even,
so its coefficient is proportional to b^2, never b^4.  ``verify_gw``
measures both maps at every grid point and returns the deviations;
:mod:`superstar.verify` judges them.  The target map misses whenever b != 0
and theta > 0, and the ``gw`` suite checks that it misses exactly there (at
every b != 0 point, and agrees at every b = 0 point).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cache

import numpy as np

from .errors import DimensionError, DivergenceError
from .exppoly import ExpPolyFunction
from .starprod import DeformationContext, star, star_comm
from .superfun import Superfunction, sintegrate

__all__ = [
    "GWParams",
    "Superfield",
    "gw_context",
    "even_context",
    "calibration_scale",
    "graded_derivation",
    "super_lagrangian",
    "plane_integrals",
    "action_super",
    "action_super_report",
    "action_gw",
    "calibration_identities",
    "coefficient_fit",
    "default_grid",
    "default_fields",
    "verify_gw",
]

CALIBRATION_FORMULA = "2/theta"
TRACE_CHOICE = "real part of the body Lebesgue integral"


def calibration_scale(theta: float) -> float:
    """The generator rescaling making the kinetic normalization exact."""
    return 2.0 / float(theta)


@dataclass(frozen=True)
class GWParams:
    """Couplings of the quartic superfield model.

    ``field_ratio`` is the real scalar b identifying the odd component with
    the even one (phi_odd = b phi_even).  All coefficient maps are computed
    on demand from the stored primitives; nothing derived is stored."""

    theta: float
    mass: float
    coupling: float
    field_ratio: float

    def __post_init__(self):
        for name in ("theta", "mass", "coupling", "field_ratio"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.theta <= 0:
            raise ValueError("theta must be positive")
        if self.mass < 0:
            raise ValueError("mass must be nonnegative")

    # -- the asserted coefficient map (the verification target) ---------------
    @property
    def target_harmonic_sq(self) -> float:
        return self.field_ratio ** 4 * self.theta ** 2 / 16.0

    @property
    def target_quartic(self) -> float:
        return self.coupling * (1.0 + self.field_ratio ** 4 * self.theta ** 2 / 16.0)

    # -- the coefficient map the superfield action actually produces ----------
    @property
    def derived_harmonic_sq(self) -> float:
        return self.field_ratio ** 2 * self.theta ** 2 / 4.0

    @property
    def derived_quartic(self) -> float:
        return self.coupling * (1.0 - self.field_ratio ** 4 * self.theta ** 2 / 4.0)


def _is_real(fn: ExpPolyFunction) -> bool:
    diff = fn - fn.conj()
    pts = np.random.default_rng(0).uniform(-1.5, 1.5, (32, fn.d))
    vals = diff.eval(pts)
    ref = max(1.0, float(np.max(np.abs(fn.eval(pts)))))
    return float(np.max(np.abs(vals))) <= 1e-12 * ref


class Superfield:
    """Phi = phi_even + phi_odd xi on R^{2|1} with real components."""

    __slots__ = ("even", "odd")

    def __init__(self, even: ExpPolyFunction, odd: ExpPolyFunction,
                 require_real: bool = True):
        if even.d != 2 or odd.d != 2:
            raise DimensionError("superfield components must live on the plane")
        if require_real and not (_is_real(even) and _is_real(odd)):
            raise ValueError("superfield components must be real")
        self.even = even
        self.odd = odd

    @classmethod
    def identified(cls, phi: ExpPolyFunction, ratio: float) -> "Superfield":
        """The one-field superfield phi + (ratio * phi) xi."""
        return cls(phi, phi.scale(float(ratio)))

    def as_superfunction(self) -> Superfunction:
        return Superfunction(2, 1, {0: self.even, 1: self.odd})


def gw_context(theta: float) -> DeformationContext:
    """Deformation of R^{2|1} with one positive odd generator."""
    return DeformationContext(float(theta), 1, 1, (1, 0))


def even_context(theta: float) -> DeformationContext:
    """Deformation of the plane alone (no odd directions)."""
    return DeformationContext(float(theta), 1, 0, (0, 0))


# ---------------------------------------------------------------------------
# graded derivations


def graded_derivation(ctx: DeformationContext, kind: str, mu: int,
                      f: Superfunction) -> Superfunction:
    """Star-commutator derivation with the calibrated generator.

    ``kind`` = "even": generator alpha (i/2) x_mu (a plain commutator);
    ``kind`` = "odd":  generator alpha (i/2) x_mu xi (graded commutator),
    with alpha = 2/theta.  ``f`` need not be parity-homogeneous: the graded
    commutator is summed over its words."""
    if kind not in ("even", "odd"):
        raise ValueError(f"unknown derivation kind {kind!r}")
    if not 1 <= mu <= 2 * ctx.m:
        raise ValueError(f"coordinate index {mu} not in 1..{2 * ctx.m}")
    if kind == "odd" and ctx.n < 1:
        raise DimensionError("odd derivation needs an odd direction")
    coeff = ExpPolyFunction.coordinate(2 * ctx.m, mu - 1).scale(
        calibration_scale(ctx.theta) * 0.5j)
    word = 0 if kind == "even" else 1
    gen = Superfunction(2 * ctx.m, ctx.n, {word: coeff})
    out = Superfunction.zero(f.m, f.n)
    for w, fn in f.terms.items():
        out = out + star_comm(ctx, gen, Superfunction(f.m, f.n, {w: fn}))
    return out


# ---------------------------------------------------------------------------
# the two action functionals


def _check_integrable(fn: ExpPolyFunction):
    if not fn.integrable:
        raise DivergenceError("field is not integrable on the plane")


def super_lagrangian(ctx: DeformationContext, field: Superfield) -> tuple:
    """The superfield Lagrangian L = K + (M^2/2) P + lambda Q of ``field`` as
    (theta, K, P, Q): the kinetic sum K, P = Phi*Phi and Q = Phi*(Phi*P)."""
    if ctx.m != 1 or ctx.n != 1:
        raise DimensionError("superfield action lives on R^{2|1}")
    _check_integrable(field.even)
    _check_integrable(field.odd)
    sf = field.as_superfunction()
    kinetic = Superfunction.zero(2, 1)
    for kind in ("even", "odd"):
        for mu in (1, 2):
            D = graded_derivation(ctx, kind, mu, sf)
            kinetic = kinetic + star(ctx, D.conj(), D).scale(0.5)
    square = star(ctx, sf, sf)
    return ctx.theta, kinetic, square, star(ctx, sf, star(ctx, sf, square))


def action_super_report(lagrangian: tuple, params: GWParams) -> dict:
    """The action value and both raw trace channels of a super_lagrangian."""
    theta, kinetic, square, quartic = lagrangian
    if theta != params.theta:
        raise ValueError("Lagrangian and parameters disagree on theta")
    total = (kinetic + square.scale(params.mass ** 2 / 2.0)
             + quartic.scale(params.coupling))
    body = complex(total.body().integrate())
    berezin = complex(sintegrate(total))
    return {
        "value": float(body.real),
        "imag_residue": float(body.imag),
        "berezin_channel": [float(berezin.real), float(berezin.imag)],
    }


def action_super(lagrangian: tuple, params: GWParams) -> float:
    """Trace of (1/2) sum |d(Phi)|^2 + (mass^2/2) Phi*Phi + coupling Phi*^4."""
    return action_super_report(lagrangian, params)["value"]


def _quadratic_integrals(phi: ExpPolyFunction):
    """sum_mu int (d_mu phi)^2, int x^2 phi^2 and int phi^2."""
    _check_integrable(phi)
    grad_sq = sum((phi.derive(mu) * phi.derive(mu)).integrate() for mu in range(2))
    x_sq = ExpPolyFunction.monomial(2, (2, 0)) + ExpPolyFunction.monomial(2, (0, 2))
    return grad_sq, (x_sq * phi * phi).integrate(), (phi * phi).integrate()


def plane_integrals(theta: float, phi: ExpPolyFunction) -> tuple:
    """(theta, sum_mu int (d_mu phi)^2, int x^2 phi^2, int phi^2, int phi*^4)
    under the deformation ``theta``; each caller applies its own factors."""
    quadratic = _quadratic_integrals(phi)
    ctx0 = even_context(theta)
    f = Superfunction.from_even(phi, 0)
    quart = star(ctx0, f, star(ctx0, f, star(ctx0, f, f))).body().integrate()
    return (ctx0.theta, *quadratic, quart)


def action_gw(plane: tuple, params: GWParams, *,
              harmonic_sq: float, quartic: float) -> float:
    """The harmonic quartic action on the deformed plane:

        integral of (1/2)(grad phi)^2 + (2 harmonic_sq/theta^2) x^2 phi^2
                    + (mass^2/2) phi^2 + quartic * phi*^4.

    ``plane`` comes from :func:`plane_integrals`; ``harmonic_sq`` and
    ``quartic`` give the coefficient map, target or derived."""
    theta, grad_sq, x_sq, phi_sq, quart = plane
    if theta != params.theta:
        raise ValueError("plane integrals and parameters disagree on theta")
    kinetic = 0.5 * grad_sq
    harmonic = (2.0 * harmonic_sq / theta ** 2) * x_sq
    mass = (params.mass ** 2 / 2.0) * phi_sq
    total = complex(kinetic + harmonic + mass + quartic * quart)
    scale = max(1.0, abs(total))
    if abs(total.imag) > 1e-9 * scale:
        raise ValueError(f"action has imaginary residue {total.imag:.3e}")
    return float(total.real)


# ---------------------------------------------------------------------------
# verification


def calibration_identities(theta: float, phi: ExpPolyFunction) -> dict:
    """The commutator/anticommutator reformulation on the plain plane:

        (1/2) sum_mu |[a x_mu, phi]|^2       = (1/2) (grad phi)^2 -> kinetic
        (w/2)  sum_mu |{a x_mu, phi}|^2      = (2w/theta^2) x^2 phi^2

    with a = alpha i/2 under the calibrated alpha and w = 0.37, a generic
    weight; returns both deviations."""
    harmonic_sq = 0.37
    grad_sq, x_sq, _ = _quadratic_integrals(phi)
    ctx0 = even_context(theta)
    f = Superfunction.from_even(phi, 0)
    kin_comm = 0j
    harm_anti = 0j
    for mu in (1, 2):
        gen = Superfunction.from_even(ExpPolyFunction.coordinate(2, mu - 1).scale(
            calibration_scale(theta) * 0.5j), 0)
        gf, fg = star(ctx0, gen, f), star(ctx0, f, gen)
        comm, anti = gf - fg, gf + fg
        kin_comm += 0.5 * star(ctx0, comm.conj(), comm).body().integrate()
        harm_anti += (harmonic_sq / 2.0) * star(
            ctx0, anti.conj(), anti).body().integrate()
    kinetic = 0.5 * grad_sq
    harmonic = (2.0 * harmonic_sq / theta ** 2) * x_sq
    k_dev = abs(kin_comm - kinetic) / max(1.0, abs(kinetic))
    h_dev = abs(harm_anti - harmonic) / max(1.0, abs(harmonic))
    return {"kinetic_rel_dev": float(k_dev), "harmonic_rel_dev": float(h_dev)}


def coefficient_fit(params: GWParams) -> dict:
    """Empirical coefficient extraction: express the superfield action as a
    linear combination of the four plane functionals

        K = (1/2) int (grad phi)^2,  H = int x^2 phi^2,
        P = (1/2) int phi^2,         Q = int phi*^4

    by least squares over several test fields, and report the fitted
    harmonic/quartic couplings.  A small residual certifies that the
    superfield action lies in the harmonic-quartic family at all."""
    fields = [phi for _, phi in default_fields()] + [
        ExpPolyFunction.gaussian(2, np.diag([-0.3, -0.7]), c=1.2),
        ExpPolyFunction.gaussian(2, -0.8 * np.eye(2), c=0.6).translate([-0.5, 0.1]),
        ExpPolyFunction.gaussian(2, np.diag([-0.6, -0.35])),
    ]
    ctx = gw_context(params.theta)
    rows, values = [], []
    for phi in fields:
        _, grad_sq, x_sq, phi_sq, quart = plane_integrals(params.theta, phi)
        rows.append([0.5 * grad_sq.real, x_sq.real, 0.5 * phi_sq.real, quart.real])
        field = Superfield.identified(phi, params.field_ratio)
        values.append(action_super(super_lagrangian(ctx, field), params))
    A = np.array(rows)
    s = np.array(values)
    coeffs, _, rank, _ = np.linalg.lstsq(A, s, rcond=None)
    residual = float(np.max(np.abs(A @ coeffs - s)) / max(1.0, np.max(np.abs(s))))
    c_kin, c_harm, c_mass, c_quart = (float(c) for c in coeffs)
    return {
        "kinetic_coeff": c_kin,
        "harmonic_sq_fit": c_harm * params.theta ** 2 / 2.0,
        "mass_sq_fit": c_mass,
        "quartic_fit": c_quart,
        "residual": residual,
        "rank": int(rank),
        "fields_used": len(fields),
    }


def default_grid() -> list[GWParams]:
    """Twelve parameter points covering ratio 0 and both signs of growth."""
    grid = []
    for theta in (0.6, 1.7):
        for ratio in (0.0, 0.7, 1.3):
            for coupling, mass in ((0.3, 0.5), (1.1, 1.2)):
                grid.append(GWParams(theta=theta, mass=mass,
                                     coupling=coupling, field_ratio=ratio))
    return grid


def default_fields() -> list[tuple[str, ExpPolyFunction]]:
    """Three real integrable Gaussian test fields."""
    return [
        ("unit-width", ExpPolyFunction.gaussian(2, -0.5 * np.eye(2))),
        ("wide", ExpPolyFunction.gaussian(2, -0.25 * np.eye(2), c=0.8)),
        ("offset", ExpPolyFunction.gaussian(
            2, -0.4 * np.eye(2)).translate([0.35, -0.2])),
    ]


def verify_gw(grid: list[GWParams] | None = None,
              fields: list[tuple[str, ExpPolyFunction]] | None = None) -> dict:
    """Measure the superfield action against the plane action under both
    coefficient maps on every (parameters, field) pair, with the
    calibration identities and the per-term coefficient fit.

    Each point carries the relative deviation of either map; the report
    holds no verdict, the ``gw`` suite and ``superstar gw verify`` judge the
    deviations (:mod:`superstar.verify`).  The calibration scale formula and
    the trace choice are fixed once and reported, never re-fit per point."""
    grid = default_grid() if grid is None else grid
    fields = default_fields() if fields is None else fields
    # the actions are linear in mass^2 and coupling: one Lagrangian per
    # (theta, b, field) and one plane set per (theta, field) serve every point
    lagrangian_at = cache(lambda theta, b, i: super_lagrangian(
        gw_context(theta), Superfield.identified(fields[i][1], b)))
    plane_at = cache(lambda theta, i: plane_integrals(theta, fields[i][1]))
    points = []
    for params in grid:
        for i, (label, _) in enumerate(fields):
            rep = action_super_report(
                lagrangian_at(params.theta, params.field_ratio, i), params)
            plane = plane_at(params.theta, i)
            s_lit = action_gw(plane, params, harmonic_sq=params.target_harmonic_sq,
                              quartic=params.target_quartic)
            s_der = action_gw(plane, params,
                              harmonic_sq=params.derived_harmonic_sq,
                              quartic=params.derived_quartic)
            lit_dev = abs(rep["value"] - s_lit) / max(1.0, abs(s_lit))
            der_dev = abs(rep["value"] - s_der) / max(1.0, abs(s_der))
            points.append({
                **asdict(params),
                "field": label,
                "action_super": rep["value"],
                "imag_residue": rep["imag_residue"],
                "berezin_channel": rep["berezin_channel"],
                "target": {"harmonic_sq": params.target_harmonic_sq,
                           "quartic": params.target_quartic,
                           "action": s_lit,
                           "rel_dev": lit_dev},
                "derived": {"harmonic_sq": params.derived_harmonic_sq,
                            "quartic": params.derived_quartic,
                            "action": s_der,
                            "rel_dev": der_dev},
            })
    cal = calibration_identities(1.3, default_fields()[0][1])
    fit_params = GWParams(theta=1.1, mass=0.9, coupling=0.7, field_ratio=1.2)
    fit = coefficient_fit(fit_params)
    return {
        "grid_points": len(grid),
        "fields": len(fields),
        "calibration": {
            "scale_formula": CALIBRATION_FORMULA,
            "trace": TRACE_CHOICE,
            **cal,
        },
        "coefficient_fit": {
            **asdict(fit_params),
            **fit,
            "target_harmonic_sq": fit_params.target_harmonic_sq,
            "target_quartic": fit_params.target_quartic,
            "derived_harmonic_sq": fit_params.derived_harmonic_sq,
            "derived_quartic": fit_params.derived_quartic,
        },
        "points": points,
        "analysis": (
            "the target coefficient map (harmonic_sq = b^4 theta^2/16, "
            "quartic = coupling (1 + b^4 theta^2/16)) is not reachable by any "
            "linear trace of the superfield Lagrangian: the harmonic term is "
            "quadratic in the odd component b phi, so its coefficient scales "
            "as b^2; the engine-derived map (b^2 theta^2/4, "
            "coupling (1 - b^4 theta^2/4)) matches to machine precision"
        ),
    }
