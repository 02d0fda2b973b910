"""Universal deformation of translation-action algebras.

The flat supergroup R^{2m|n} acts on superfunctions by translation,
rho_z(a)(x, xi) = a(x + z, xi + xi_z).  The deformed product of two smooth
vectors a, b is

    a *_theta b = (rho^a  star  rho^b)(0)

where rho^a(z) = rho_z(a) is an algebra-valued function of the group
coordinate z and the star product acts on z alone.  Here this is realized on
a doubled superspace: even coordinates [x | z], odd generators [xi | xi_z],
with the context placed on the z-block alone, followed by evaluation at
z = 0.

``smooth_vector`` states that action once, as one pull-back, and the tests
check its axioms on it.  The ``udf`` suite samples two classes the action
preserves, drawn by ``sampling``: the integrable star class on R^{2m|n}
("B1-class", where the deformed product reproduces the flat star product
itself), and trigonometric superpolynomials (integer plane waves times odd
monomials, whose deformation is the noncommutative supertorus).
``torus_vs_udf`` derives — rather than assumes — the parameter map and
odd-generator rescaling under which the finitely presented supertorus
coincides with the deformed trigonometric algebra, and checks every
generator-pair product through both engines.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionError
from .exppoly import ExpPolyFunction, worst_dev
from .grassmann import GrassmannElement
from .starprod import DeformationContext, star_general
from .superfun import Superfunction, sf_max_dev, substitute
from .supertorus import SupertorusElement

__all__ = [
    "smooth_vector",
    "udf_product",
    "torus_vs_udf",
]


def smooth_vector(ctx: DeformationContext, a: Superfunction) -> Superfunction:
    """rho^a(z) = rho_z(a) on the doubled superspace [x | z], [xi | xi_z]:
    the translation action x -> x + z, xi -> xi + xi_z as one pull-back."""
    d = 2 * ctx.m
    n = ctx.n
    if a.m != d or a.n != n:
        raise DimensionError(
            f"element on ({a.m}|{a.n}) does not match action on ({d}|{n})")
    M = np.hstack([np.eye(d), np.eye(d)])  # x_source = x' + z
    width = 2 * n + a.naux
    images = [GrassmannElement.monomial(width, 1 << k)
              + GrassmannElement.monomial(width, 1 << (n + k))
              for k in range(n)]
    images += [GrassmannElement.monomial(width, 1 << (2 * n + k))
               for k in range(a.naux)]
    return substitute(a, images, 2 * n, M)


def _eval_group_origin(f: Superfunction, ctx: DeformationContext) -> Superfunction:
    """Evaluate the z-dependence at z = 0, xi_z = 0, keeping [x | xi]."""
    d = 2 * ctx.m
    n = ctx.n
    M = np.vstack([np.eye(d), np.zeros((d, d))])  # (x, z) = (x', 0)
    width = n + f.naux
    images = [GrassmannElement.monomial(width, 1 << k) for k in range(n)]
    images += [GrassmannElement.zero(width) for _ in range(n)]
    images += [GrassmannElement.monomial(width, 1 << (n + k))
               for k in range(f.naux)]
    return substitute(f, images, n, M)


def udf_product(ctx: DeformationContext, a: Superfunction, b: Superfunction) -> Superfunction:
    """Deformed product (rho^a star rho^b)(0) on the action algebra."""
    ra = smooth_vector(ctx, a)
    rb = smooth_vector(ctx, b)
    st = star_general(ra, rb, [(ctx, 2 * ctx.m, ctx.n)])
    return _eval_group_origin(st, ctx)


# ---------------------------------------------------------------------------
# supertorus cross-check


def _map_torus_element(e: SupertorusElement, ctx: DeformationContext,
                       theta_torus: float, odd_scale: float) -> Superfunction:
    """Realize a supertorus element as a trigonometric superfunction:
    U_j -> e^{2 pi i x_j}, V_j -> e^{2 pi i x_{m+j}}, Gamma_k -> s xi^k,
    Xi_l -> s xi^{p+l}; scalar coefficients evaluated at theta_torus.

    The ordered word U^a V^b maps to the symmetric plane wave times the
    Weyl-ordering half-phase e^{i pi theta_torus a.b}, since the deformed
    product of the generator images symmetrizes the two factors."""
    d = 2 * ctx.m
    n = ctx.n
    p, _q = ctx.odd_signature
    out = Superfunction.zero(d, n)
    for (a, b, S, T), c in e.words.items():
        k = 2 * np.pi * np.array(list(a) + list(b), dtype=float)
        nodd = S.bit_count() + T.bit_count()
        ordering = np.exp(1j * np.pi * theta_torus
                          * sum(x * y for x, y in zip(a, b)))
        coeff = c.evaluate(theta_torus) * odd_scale ** nodd * ordering
        word = S | (T << p)
        pw = ExpPolyFunction.plane_wave(d, k, coeff)
        out = out + Superfunction(d, n, {word: pw})
    return out


def _first_coefficient(f: ExpPolyFunction) -> complex:
    """The coefficient of f's first term, in storage order."""
    return next(c for poly in f.keys.values() for c in poly.values())


def torus_vs_udf(ctx: DeformationContext, tol: float = 1e-9) -> dict:
    """Compare the finitely presented supertorus with the deformed
    trigonometric algebra on all generator pairs.

    The parameter map theta_torus = 2 pi theta is derived from the UV
    crossing phase; the odd rescaling is derived from the engine's Clifford
    constant so that (s xi)^2 matches the presented i*theta_torus.  Returns a
    report with per-pair deviations and the first pair that misses ``tol``,
    if any.
    """
    m, n = ctx.m, ctx.n
    p, q = ctx.odd_signature
    d = 2 * m

    report: dict = {"theta_star": ctx.theta}
    theta_torus = 2 * np.pi * ctx.theta
    report["theta_torus"] = theta_torus

    # derive the parameter map from the UV phase, when the even sector exists
    if m >= 1:
        U1 = SupertorusElement.U(m, p, q, 1)
        V1 = SupertorusElement.V(m, p, q, 1)
        fU = _map_torus_element(U1, ctx, theta_torus, 1.0)
        fV = _map_torus_element(V1, ctx, theta_torus, 1.0)
        uv = udf_product(ctx, fU, fV)
        vu = udf_product(ctx, fV, fU)
        word = 0
        ratio = (_first_coefficient(vu.coefficient(word))
                 / _first_coefficient(uv.coefficient(word)))
        residual = abs(ratio - np.exp(-2j * np.pi * theta_torus))
        report["uv_phase_residual"] = float(residual)
    else:
        report["uv_phase_residual"] = 0.0

    # odd rescaling from the engine Clifford constant: (s xi^a)^2 = i eta_a theta_torus
    if n:
        c_plus = ctx.ledger["c_plus"]
        scales = [math.sqrt(abs((1j * e * theta_torus / cp).real))
                  for e, cp in zip(ctx.eta, c_plus)]
        odd_scale = scales[0]
        report["odd_scale"] = odd_scale
        report["odd_scale_spread"] = float(max(scales) - min(scales))
    else:
        odd_scale = 1.0
        report["odd_scale"] = 1.0
        report["odd_scale_spread"] = 0.0

    gens: list[tuple[str, SupertorusElement]] = []
    for j in range(1, m + 1):
        gens.append((f"U{j}", SupertorusElement.U(m, p, q, j)))
        gens.append((f"V{j}", SupertorusElement.V(m, p, q, j)))
    for k in range(1, p + 1):
        gens.append((f"G{k}", SupertorusElement.Gamma(m, p, q, k)))
    for k in range(1, q + 1):
        gens.append((f"X{k}", SupertorusElement.Xi(m, p, q, k)))
    report["generators"] = [name for name, _ in gens]

    relations = []
    for name1, g1 in gens:
        for name2, g2 in gens:
            through_torus = _map_torus_element(g1 * g2, ctx, theta_torus, odd_scale)
            through_udf = udf_product(ctx,
                                      _map_torus_element(g1, ctx, theta_torus, odd_scale),
                                      _map_torus_element(g2, ctx, theta_torus, odd_scale))
            dev = sf_max_dev(through_torus, through_udf)
            relations.append({"pair": f"{name1}*{name2}", "deviation": float(dev)})
    worst = worst_dev(0.0, *(r["deviation"] for r in relations))
    counterexample = next((r for r in relations if not r["deviation"] <= tol), None)
    report["relations"] = relations
    report["max_deviation"] = float(worst)
    report["matched"] = counterexample is None
    report["counterexample"] = counterexample
    return report
