"""Batch verification suites covering every layer of the engine.

Each suite bundles the identity checks for one layer of the calculus into a
deterministic randomized battery and returns a JSON-safe report::

    {"suite": "star", "passed": True, "cases": 550, "checks": [...], ...}

``run_suite`` dispatches by name; ``run_all`` executes every suite and merges
the reports sorted by suite name.  All randomness comes from
``numpy.random.default_rng`` seeded from the ``seed`` argument, so a report is
reproducible byte for byte given the same seed and tolerance.  The ``eps``,
``star``, ``hilbert``, ``heisenberg`` and ``udf`` reports embed the
normalization ledger of the deformation context(s) they exercised (the sign
of the first-order correction, the squared norm of the star unit under the
ledger pairing, and the odd half-coupling constants); the ``torus``,
``qgroup`` and ``gw`` reports carry none.  This is the one module that
judges a deviation: the engine's report functions return deviations only,
and every check record comes from :func:`_check` or :func:`_record`.

Suites
------
``eps``         exhaustive sign-function identities on subsets of an ``n``-set
``star``        deformed product vs. integral oracle, associativity,
                traciality, and translation invariance
``hilbert``     positivity of the J-scalar product, fundamental-symmetry laws,
                superadjoint laws for graded operators
``heisenberg``  representation property and superunitarity of the integrated
                phase-space action
``udf``         associativity of the universal deformation product on two
                sampled classes, and the supertorus cross-check
``torus``       presentation relations, dagger laws, and exhaustive confluence
                of the rewrite rules on short words
``qgroup``      pentagon identity and superunitarity of the multiplicative
                unitary of the solvable quantum supergroup
``gw``          harmonic-superfield action: derived coefficient map, the
                calibration identities, the per-term fit, and the refutation
                of the target coefficient map (see the report's analysis)
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable

import numpy as np

from .exppoly import worst_dev
from .grassmann import GrassmannElement, eps
from .gwaction import verify_gw
from .heisenberg import GroupElement, HeisenbergContext, group_mul, representation
from .hilbert import (
    FockSuperfunction,
    GradedOperator,
    fundamental_symmetry,
    inner_fock,
    inner_l2,
    scalar_J,
    superadjoint,
)
from .qgroup import QGroupContext, pentagon_check
from .sampling import (
    conj_coefficients,
    random_gaussian_superfunction,
    random_integrable_factor,
    random_isotropic_gaussian,
    random_odd_aux_shifts,
    random_oracle_factor,
    random_star_factor,
    random_trig_superpolynomial,
)
from .starprod import DeformationContext, star, star_oracle
from .superfun import (
    Superfunction,
    grassmann_translate,
    sf_max_dev,
    sintegrate,
    smul,
)
from .supertorus import SupertorusElement, TorusScalar, torus_dagger, torus_mul, torus_normal_form
from .udf import torus_vs_udf, udf_product

__all__ = ["SUITE_NAMES", "run_suite", "run_all"]


# ---------------------------------------------------------------------------
# report plumbing
# ---------------------------------------------------------------------------


def _context_json(ctx: DeformationContext) -> dict:
    return {**ctx.header_json(), "ledger": ctx.ledger_json()}


def _json_float(x: float) -> float | None:
    """x as a report number: NaN and infinity, which JSON cannot hold, as null."""
    x = float(x)
    return x if math.isfinite(x) else None


def _tolerance(tol: float | None, default: float) -> float:
    """The one tolerance rule: a check's default unless ``--tol`` is given."""
    return default if tol is None else float(tol)


def _record(name: str, cases: int, max_dev: float, tol: float, **extra) -> dict:
    """One check record; a check that ran no case does not pass, nor does
    one whose deviation is not finite, which is written as null."""
    rec = {
        "check": name,
        "cases": int(cases),
        "max_deviation": _json_float(max_dev),
        "tolerance": float(tol),
        "passed": bool(cases > 0 and max_dev <= tol),
    }
    rec.update(extra)
    return rec


def _check(name: str, devs: Iterable[float], tol: float | None, *,
           default: float, **extra) -> dict:
    """The record of one check from its per-case deviations.

    ``devs`` is read once and not stored: every item is one case, and the
    worst is NaN-sticky (:func:`worst_dev`).  The tolerance is ``default``
    unless ``tol`` (``--tol``) is given.
    """
    cases, max_dev = 0, 0.0
    for cases, dev in enumerate(devs, 1):
        # worst_dev only where the worst can change (a larger deviation or a
        # NaN): eps at n = 10 reads 2.1 million cases
        if not dev <= max_dev:
            max_dev = worst_dev(max_dev, dev)
    return _record(name, cases, max_dev, _tolerance(tol, default), **extra)


def _suite_report(name: str, checks: list[dict], **extra) -> dict:
    report = {
        "suite": name,
        "passed": all(c["passed"] for c in checks),
        "cases": sum(c["cases"] for c in checks),
        "checks": checks,
    }
    report.update(extra)
    return report


def _rng(seed: int, salt: int) -> np.random.Generator:
    return np.random.default_rng(1_000_003 * int(seed) + salt)


# ---------------------------------------------------------------------------
# eps: sign function of disjoint subset merges, exhaustively
# ---------------------------------------------------------------------------


def verify_eps(*, n: int | None = None, tol: float | None = None,
               seed: int = 0) -> dict:
    """Exhaustive identities for the subset-merge sign on an ``n``-set.

    Checks, over all subset pairs and pairwise-disjoint triples encoded as
    bitmasks: the sign vanishes exactly on overlapping subsets, satisfies the
    graded symmetry eps(I,J)eps(J,I) = (-1)^{|I||J|} on disjoint subsets, and
    is multiplicative under disjoint unions in either argument.  All checks
    are exact integer identities, so the tolerance is 0.
    """
    n = 6 if n is None else int(n)
    if not 1 <= n <= 10:
        raise ValueError(f"subset universe size n={n} out of the supported range 1..10")
    size = 1 << n

    def union_misses():
        for I in range(size):
            free = [J for J in range(size) if not J & I]
            for J in free:
                for K in free:
                    if not J & K:
                        yield (abs(eps(I, J | K) - eps(I, J) * eps(I, K))
                               + abs(eps(I | J, K) - eps(I, K) * eps(J, K)))

    # each case yields its miss |lhs - rhs|, summed over a triple's two
    # identities; exact identities ignore --tol
    checks = [
        _check("zero-on-overlapping-subsets",
               (abs(eps(I, J)) for I in range(size) for J in range(size) if I & J),
               None, default=0.0),
        _check("graded-symmetry-on-disjoint-subsets",
               (abs(eps(I, J) * eps(J, I) - (-1) ** (I.bit_count() * J.bit_count()))
                for I in range(size) for J in range(size) if not I & J),
               None, default=0.0),
        _check("disjoint-union-multiplicativity", union_misses(), None, default=0.0),
    ]
    return _suite_report("eps", checks, n=n,
                         ledger=DeformationContext(1.0, 1, 1, (1, 0)).ledger_json())


# ---------------------------------------------------------------------------
# star: deformed product of superfunctions
# ---------------------------------------------------------------------------


def _star_pool() -> list[DeformationContext]:
    return [
        DeformationContext(0.7, 1, 1, (1, 0)),
        DeformationContext(0.9, 1, 2, (1, 1)),
        DeformationContext(1.3, 2, 0, (0, 0)),
        DeformationContext(0.5, 1, 3, (2, 1)),
        DeformationContext(1.1, 2, 2, (0, 2)),
        DeformationContext(-0.8, 1, 2, (2, 0)),
    ]


def verify_star(*, tol: float | None = None, seed: int = 0) -> dict:
    """Deformed-product battery over mixed dimensions and odd signatures.

    * closed-form product vs. the quadrature oracle (200 pairs),
    * associativity on random three-factor products (200 triples),
    * traciality: the integral of a deformed product equals the integral of
      the pointwise product (100 pairs of integrable factors, relative
      deviation; a product that is not integrable fails its case),
    * invariance under even translations and under odd shifts by auxiliary
      Grassmann parameters (50 cases each).
    """
    pool = _star_pool()

    rng = _rng(seed, 11)
    devs = []
    for i in range(200):
        ctx = pool[i % len(pool)]
        f = random_oracle_factor(rng, ctx)
        g = random_oracle_factor(rng, ctx)
        devs.append(sf_max_dev(star(ctx, f, g), star_oracle(ctx, f, g)))
    oracle = _check("closed-form-matches-quadrature-oracle", devs, tol, default=1e-12)

    rng = _rng(seed, 13)
    devs = []
    for i in range(200):
        ctx = pool[i % len(pool)]
        f = random_star_factor(rng, ctx)
        g = random_star_factor(rng, ctx)
        h = random_star_factor(rng, ctx)
        devs.append(sf_max_dev(star(ctx, star(ctx, f, g), h),
                               star(ctx, f, star(ctx, g, h))))
    assoc = _check("associativity", devs, tol, default=1e-10)

    rng = _rng(seed, 17)
    devs = []
    for i in range(1, 101):
        ctx = pool[i % len(pool)]
        f = random_integrable_factor(rng, ctx)
        g = random_integrable_factor(rng, ctx)
        prod = star(ctx, f, g)
        if not all(fn.integrable for fn in prod.terms.values()):
            devs.append(math.nan)  # the case fails: there is no trace to compare
            continue
        lhs = sintegrate(prod)
        rhs = sintegrate(smul(f, g))
        devs.append(abs(lhs - rhs) / max(1.0, abs(rhs)))
    trace = _check("traciality-relative", devs, tol, default=1e-9)

    rng = _rng(seed, 19)
    devs = []
    for i in range(50):
        ctx = pool[i % len(pool)]
        f = random_star_factor(rng, ctx)
        g = random_star_factor(rng, ctx)
        a = rng.uniform(-1, 1, size=2 * ctx.m)
        lhs = star(ctx, f.translate_even(a), g.translate_even(a))
        devs.append(sf_max_dev(lhs, star(ctx, f, g).translate_even(a)))
    even_shift = _check("even-translation-invariance", devs, tol, default=1e-10)

    rng = _rng(seed, 23)
    devs = []
    for i in range(50):
        ctx = pool[i % len(pool)]
        f = random_star_factor(rng, ctx)
        g = random_star_factor(rng, ctx)
        eta = random_odd_aux_shifts(rng, ctx.n, 2)
        lhs = star(ctx, grassmann_translate(f, eta), grassmann_translate(g, eta))
        devs.append(sf_max_dev(lhs, grassmann_translate(star(ctx, f, g), eta)))
    odd_shift = _check("odd-translation-invariance", devs, tol, default=1e-10)

    checks = [oracle, assoc, trace, even_shift, odd_shift]
    return _suite_report("star", checks, contexts=[_context_json(c) for c in pool])


# ---------------------------------------------------------------------------
# hilbert: inner products, fundamental symmetry, superadjoints
# ---------------------------------------------------------------------------


def _rand_graded_operator(rng: np.random.Generator, parities: tuple[int, ...],
                          degree: int) -> GradedOperator:
    k = len(parities)
    M = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            if (parities[i] + parities[j] + degree) % 2 == 0:
                M[i, j] = complex(rng.normal(), rng.normal())
    return GradedOperator(M, parities, degree)


def _graded_gram(rng: np.random.Generator, parities: tuple[int, ...]) -> np.ndarray:
    """Random well-conditioned gram matrix with the graded hermiticity pattern."""
    k = len(parities)
    while True:
        G = np.zeros((k, k), dtype=complex)
        for i in range(k):
            for j in range(i, k):
                if (parities[i] + parities[j]) % 2:
                    continue
                z = complex(rng.normal(), rng.normal())
                if i == j:
                    G[i, i] = z.real if parities[i] == 0 else 1j * z.imag
                else:
                    G[i, j] = z
                    G[j, i] = (-1) ** (parities[i] * parities[j]) * np.conj(z)
        G += np.diag([1.5 if p == 0 else 1.5j for p in parities])
        if np.linalg.cond(G) < 1e6:
            return G


def _backward_error(A: np.ndarray, B: np.ndarray, G: np.ndarray) -> float:
    """max|A - B| / (max(max|A|, max|B|) * cond(G)) for two matrices computed
    through G^{-1}: the deviation in units of what rounding through G^{-1}
    leaves; 0 when both are zero."""
    dev = float(np.max(np.abs(A - B)))
    return dev and dev / (max(np.max(np.abs(A)), np.max(np.abs(B))) * np.linalg.cond(G))


def verify_hilbert(*, tol: float | None = None, seed: int = 0) -> dict:
    """Hilbert-superspace battery.

    * the J-twisted scalar product is real and positive on 100 random nonzero
      superfunctions with up to three odd generators,
    * the fundamental symmetry squares to the exact sign (-1)^{(n+1)|I|} on
      monomials and preserves the indefinite pairing (odd ranks up to 4),
    * superadjoints of graded operators: defining relation, involution,
      conjugate transpose in an orthonormal graded basis, graded product
      reversal.  The defining relation, involution and product reversal
      compare matrices computed through G^{-1}, so they are scored by their
      backward error (:func:`_backward_error`): a sampled gram matrix with
      large entries does not read as a wrong superadjoint.
    """
    rng = _rng(seed, 29)
    values = []
    for _ in range(100):
        n = int(rng.integers(0, 4))
        f = random_gaussian_superfunction(rng, 1, n)
        values.append(complex(scalar_J(f, f)))
    # numpy's min, unlike Python's, keeps a NaN
    values = np.array(values)
    min_real = float(np.min(values.real))
    positivity = _check("j-scalar-product-positivity", np.abs(values.imag), tol,
                        default=1e-10, min_value=_json_float(min_real))
    positivity["passed"] = bool(positivity["passed"] and min_real > 0.0)

    rng = _rng(seed, 31)
    devs = []
    for n in range(5):
        for w in range(1 << n):
            mono = Superfunction(1, n, {w: random_isotropic_gaussian(rng)})
            jj = fundamental_symmetry(fundamental_symmetry(mono))
            sign = (-1) ** ((n + 1) * w.bit_count())
            devs.append(sf_max_dev(jj, mono.scale(sign)))
    square = _check("fundamental-symmetry-square-sign", devs, tol, default=1e-10)

    rng = _rng(seed, 37)
    devs = []
    for n in range(5):
        for _ in range(10):
            f = random_gaussian_superfunction(rng, 1, n)
            g = random_gaussian_superfunction(rng, 1, n)
            lhs = inner_l2(fundamental_symmetry(f), fundamental_symmetry(g))
            devs.append(abs(lhs - inner_l2(f, g)))
    preserve = _check("fundamental-symmetry-preserves-pairing", devs, tol, default=1e-10)

    parities = (0, 0, 1, 1)
    rng = _rng(seed, 41)
    devs = []
    for _ in range(20):
        deg = int(rng.integers(0, 2))
        T = _rand_graded_operator(rng, parities, deg)
        G = _graded_gram(rng, parities)
        Td = superadjoint(T, G)
        # <Td x, y> = (-1)^{deg |x|} <x, T y> on the basis: Td^H G = D G T
        D = np.diag([(-1.0) ** (deg * p) for p in parities])
        devs.append(_backward_error(Td.matrix.conj().T @ G, D @ G @ T.matrix, G))
    defining = _check("superadjoint-defining-relation", devs, tol, default=1e-10)

    rng = _rng(seed, 42)
    devs = []
    for _ in range(20):
        deg = int(rng.integers(0, 2))
        T = _rand_graded_operator(rng, parities, deg)
        G = _graded_gram(rng, parities)
        Tdd = superadjoint(superadjoint(T, G), G)
        devs.append(_backward_error(Tdd.matrix, T.matrix, G))
    involution = _check("superadjoint-involution", devs, tol, default=1e-10)

    rng = _rng(seed, 43)
    G0 = np.diag([1.0, 1.0, 1j, 1j])
    devs = []
    for _ in range(10):
        T = _rand_graded_operator(rng, parities, 0)
        Td = superadjoint(T, G0)
        devs.append(float(np.max(np.abs(Td.matrix - T.matrix.conj().T))))
    basis_formula = _check("superadjoint-orthonormal-basis-transpose", devs, tol,
                           default=1e-10)

    rng = _rng(seed, 47)
    devs = []
    for _ in range(15):
        dS, dT = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        S = _rand_graded_operator(rng, parities, dS)
        T = _rand_graded_operator(rng, parities, dT)
        G = _graded_gram(rng, parities)
        lhs = superadjoint(S.compose(T), G)
        rhs = superadjoint(T, G).compose(superadjoint(S, G)).scale((-1) ** (dS * dT))
        devs.append(_backward_error(lhs.matrix, rhs.matrix, G))
    product_law = _check("superadjoint-graded-product-reversal", devs, tol, default=1e-9)

    checks = [positivity, square, preserve, defining, involution,
              basis_formula, product_law]
    return _suite_report("hilbert", checks,
                         ledger=DeformationContext(1.0, 1, 1, (1, 0)).ledger_json())


# ---------------------------------------------------------------------------
# heisenberg: integrated representation of the phase-space supergroup
# ---------------------------------------------------------------------------

_HCTX = HeisenbergContext(0.7, 1, 1, 1)
_H_NAUX = 4


def _h_rand_odd(rng: np.random.Generator, *, real: bool = False) -> GrassmannElement:
    e = GrassmannElement.zero(_H_NAUX)
    for j in range(1, _H_NAUX + 1):
        if rng.random() < 0.7:
            c = complex(rng.normal(), 0.0 if real else rng.normal())
            e = e + GrassmannElement.generator(_H_NAUX, j).scale(c)
    return e


def _h_rand_group_element(rng: np.random.Generator, *, real: bool = False) -> GroupElement:
    ctx = _HCTX
    z = [_h_rand_odd(rng, real=real) for _ in range(ctx.s)]
    zbar = ([conj_coefficients(x) for x in z] if real
            else [_h_rand_odd(rng) for _ in range(ctx.s)])
    return GroupElement.make(
        ctx,
        q=[rng.normal() for _ in range(ctx.m)],
        p=[rng.normal() for _ in range(ctx.m)],
        xi=[_h_rand_odd(rng, real=real) for _ in range(ctx.r)],
        eta=[_h_rand_odd(rng, real=real) for _ in range(ctx.r)],
        zeta=z, zetabar=zbar, t=rng.normal(), naux=_H_NAUX)


def _h_rand_fock(rng: np.random.Generator) -> FockSuperfunction:
    ctx = _HCTX
    n = ctx.r + ctx.s
    terms = {}
    for w in range(1 << n):
        if rng.random() < 0.8:
            terms[w] = random_isotropic_gaussian(rng, ctx.m)
    if not terms:
        terms[0] = random_isotropic_gaussian(rng, ctx.m)
    return FockSuperfunction(ctx.m, ctx.r, ctx.s, Superfunction(ctx.m, n, terms))


def _value_components(v) -> dict:
    if isinstance(v, GrassmannElement):
        return dict(v.coeffs)
    return {0: complex(v)}


def verify_heisenberg(*, tol: float | None = None, seed: int = 0) -> dict:
    """Representation property and superunitarity of the integrated action.

    * rep(g1) rep(g2) = rep(g1 g2) on 50 random (group pair, vector) samples
      with Grassmann-valued odd coordinates,
    * the pairing on the Fock sector is preserved by real group elements on
      50 random (element, vector pair) samples, component by component in the
      auxiliary Grassmann parameters.
    """
    ctx = _HCTX

    rng = _rng(seed, 53)
    devs = []
    for _ in range(50):
        g1 = _h_rand_group_element(rng)
        g2 = _h_rand_group_element(rng)
        phi = _h_rand_fock(rng)
        lhs = representation(ctx, g1, representation(ctx, g2, phi))
        rhs = representation(ctx, group_mul(ctx, g1, g2), phi)
        devs.append(sf_max_dev(lhs.fun, rhs.fun))
    rep_prop = _check("representation-property", devs, tol, default=1e-9)

    rng = _rng(seed, 59)
    devs = []
    for _ in range(50):
        g = _h_rand_group_element(rng, real=True)
        phi = _h_rand_fock(rng)
        psi = _h_rand_fock(rng)
        lhs = _value_components(
            inner_fock(ctx.theta, representation(ctx, g, phi),
                       representation(ctx, g, psi)))
        rhs = _value_components(inner_fock(ctx.theta, phi, psi))
        # one case per sample: its worst auxiliary component
        devs.append(worst_dev(0.0, *(abs(lhs.get(w, 0j) - rhs.get(w, 0j))
                                     for w in set(lhs) | set(rhs))))
    unitary = _check("superunitarity-real-form", devs, tol, default=1e-9)

    star_ctx = DeformationContext(ctx.theta, ctx.m, ctx.r + ctx.s)
    return _suite_report("heisenberg", [rep_prop, unitary],
                         context={"theta": float(ctx.theta), "m": ctx.m,
                                  "r": ctx.r, "s": ctx.s,
                                  "ledger": star_ctx.ledger_json()})


# ---------------------------------------------------------------------------
# udf: universal deformation formula for the translation action
# ---------------------------------------------------------------------------


def verify_udf(*, tol: float | None = None, seed: int = 0) -> dict:
    """Universal deformation product battery.

    * associativity on 100 random triples in each of two sampled classes,
    * the deformed generator algebra of the periodic action reproduces the
      supertorus presentation under a single consistent rescaling.
    """
    ctx = DeformationContext(0.7, 1, 2, (1, 1))
    b1_class = lambda rng: random_star_factor(rng, ctx, kinds=("gaussian", "pw"))
    trig = lambda rng: random_trig_superpolynomial(rng, ctx)
    checks = []
    for salt, tag, sample in ((61, "B1-class", b1_class),
                              (67, "trig-superpolynomials", trig)):
        rng = _rng(seed, salt)
        devs = []
        for _ in range(100):
            f, g, h = sample(rng), sample(rng), sample(rng)
            lhs = udf_product(ctx, udf_product(ctx, f, g), h)
            rhs = udf_product(ctx, f, udf_product(ctx, g, h))
            devs.append(sf_max_dev(lhs, rhs))
        checks.append(_check(f"associativity-{tag}", devs, tol, default=1e-10))

    bridge = torus_vs_udf(ctx)
    checks.append(_check("supertorus-generator-bridge",
                         (r["deviation"] for r in bridge["relations"]),
                         tol, default=1e-9,
                         theta_torus=float(bridge["theta_torus"]),
                         odd_scale=float(bridge["odd_scale"]),
                         odd_scale_spread=float(bridge["odd_scale_spread"]),
                         uv_phase_residual=float(bridge["uv_phase_residual"])))

    return _suite_report("udf", checks, context=_context_json(ctx))


# ---------------------------------------------------------------------------
# torus: noncommutative supertorus presentation
# ---------------------------------------------------------------------------


def _torus_rules() -> dict:
    return {
        ("V", "U"): (("U", "V"), TorusScalar.of(1.0, 0, -1)),
        ("G", "G"): ((), TorusScalar.of(1j, 1, 0)),
        ("X", "X"): ((), TorusScalar.of(-1j, 1, 0)),
        ("X", "G"): (("G", "X"), TorusScalar.of(-1.0)),
        ("G", "U"): (("U", "G"), TorusScalar.one()),
        ("G", "V"): (("V", "G"), TorusScalar.one()),
        ("X", "U"): (("U", "X"), TorusScalar.one()),
        ("X", "V"): (("V", "X"), TorusScalar.one()),
    }


def _rewrite_closure(word: tuple[str, ...], rules: dict) -> set:
    start = (tuple(word), TorusScalar.one())
    seen = {start}
    frontier = [start]
    terminals = set()
    while frontier:
        w, c = frontier.pop()
        moves = []
        for i in range(len(w) - 1):
            rule = rules.get((w[i], w[i + 1]))
            if rule is not None:
                repl, factor = rule
                moves.append((w[:i] + repl + w[i + 2:], c * factor))
        if not moves:
            terminals.add((w, c))
            continue
        for state in moves:
            if state not in seen:
                seen.add(state)
                frontier.append(state)
    return terminals


def _letters_as_element(word: tuple[str, ...], coeff: TorusScalar) -> SupertorusElement:
    tokens = [(letter, 1, 1) for letter in word]
    return torus_normal_form(tokens, m=1, p=1, q=1).scale(coeff)


def verify_torus(*, tol: float | None = None, seed: int = 0) -> dict:
    """Supertorus presentation battery (every check is exact).

    * the defining relations of the presentation (crossing phase, odd
      squares, odd anticommutation, even/odd commutation),
    * dagger laws: the even generators are unitary and the odd generators
      self-adjoint,
    * confluence: every word of length up to 4 in the four generators has
      exactly one rewrite-normal form and the engine product agrees with it.
    """
    gen = lambda letter: _letters_as_element((letter,), TorusScalar.one())
    U, V, G, X = gen("U"), gen("V"), gen("G"), gen("X")
    one = _letters_as_element((), TorusScalar.one())

    relations = [
        ("crossing-phase", torus_mul(V, U),
         torus_mul(U, V).scale(TorusScalar.of(1.0, 0, -1))),
        ("even-square-of-first-odd", torus_mul(G, G), one.scale(TorusScalar.of(1j, 1, 0))),
        ("even-square-of-second-odd", torus_mul(X, X), one.scale(TorusScalar.of(-1j, 1, 0))),
        ("odd-anticommutation", torus_mul(X, G), torus_mul(G, X).scale(TorusScalar.of(-1.0))),
        ("first-odd-commutes-with-U", torus_mul(G, U), torus_mul(U, G)),
        ("first-odd-commutes-with-V", torus_mul(G, V), torus_mul(V, G)),
        ("second-odd-commutes-with-U", torus_mul(X, U), torus_mul(U, X)),
        ("second-odd-commutes-with-V", torus_mul(X, V), torus_mul(V, X)),
        ("U-unitary", torus_mul(torus_dagger(U), U), one),
        ("V-unitary", torus_mul(torus_dagger(V), V), one),
        ("first-odd-self-adjoint", torus_dagger(G), G),
        ("second-odd-self-adjoint", torus_dagger(X), X),
    ]
    # one miss per case, 0 or 1; exact identities ignore --tol
    rel_check = _check("presentation-relations",
                       [0 if lhs == rhs else 1 for _, lhs, rhs in relations],
                       None, default=0.0)

    rules = _torus_rules()
    misses = []
    for length in range(5):
        for word in itertools.product(("U", "V", "G", "X"), repeat=length):
            terminals = _rewrite_closure(word, rules)
            if len(terminals) != 1:
                misses.append(1)
                continue
            ((w_norm, c_norm),) = terminals
            same = _letters_as_element(word, TorusScalar.one()) == _letters_as_element(w_norm, c_norm)
            misses.append(0 if same else 1)
    conf_check = _check("rewrite-confluence-words-up-to-length-4", misses,
                        None, default=0.0)

    return _suite_report("torus", [rel_check, conf_check],
                         generators=["U", "V", "G", "X"])


# ---------------------------------------------------------------------------
# qgroup: multiplicative unitary of the solvable quantum supergroup
# ---------------------------------------------------------------------------


def verify_qgroup(*, tol: float | None = None, seed: int = 0,
                  qctx: QGroupContext = QGroupContext(1, 2, (1, 1)),
                  t_samples: int = 5) -> dict:
    """Pentagon identity and superunitarity of the multiplicative unitary on
    ``qctx`` with ``t_samples`` sampled t-triples; ``superstar qgroup
    pentagon`` runs it on the context and sample count of its flags."""
    rep = pentagon_check(qctx, t_samples, seed)
    const_dev = rep["constant_legs_deviation"]
    pentagon = _check("pentagon-identity", (s["deviation"] for s in rep["pentagon"]),
                      tol, default=1e-8, constant_legs_deviation=const_dev,
                      samples=rep["pentagon"])
    # the all-constant legs are no sampled case, but their miss fails the check
    pentagon["passed"] = bool(pentagon["passed"] and const_dev <= pentagon["tolerance"])
    unitary = _check("superunitarity", (s["deviation"] for s in rep["superunitarity"]),
                     tol, default=1e-8, samples=rep["superunitarity"])
    return _suite_report("qgroup", [pentagon, unitary],
                         context={"m": qctx.m, "n": qctx.n,
                                  "signature": [int(p) for p in qctx.odd_signature],
                                  "dilation_weights": [float(w) for w in qctx.dilation_weights]})


# ---------------------------------------------------------------------------
# gw: harmonic superfield action
# ---------------------------------------------------------------------------

# smallest relative miss of the target map at a b != 0 point that counts as a
# refutation; the default grid's smallest miss is 0.092
REFUTATION_MARGIN = 1e-3


def _coefficient_map(points: list[dict], which: str, tol: float | None) -> dict:
    """The record of the "target" or "derived" map, one case per point."""
    return _check(f"{which}-coefficient-map", (pt[which]["rel_dev"] for pt in points),
                  tol, default=1e-8)


def _refutation(points: list[dict], tol: float | None) -> dict:
    """The record that the target map is refuted: it misses by more than
    ``REFUTATION_MARGIN`` at every b != 0 point and agrees within the
    tolerance at every b = 0 point, where the two maps coincide, and the
    grid has points of both kinds.  One case per point; ``max_deviation`` is
    the worst target deviation at b = 0, and every point's rides along."""
    per_point = [{"theta": float(pt["theta"]),
                  "field_ratio": float(pt["field_ratio"]),
                  "field": pt["field"],
                  "rel_dev": float(pt["target"]["rel_dev"])}
                 for pt in points]
    b_zero = [p["rel_dev"] for p in per_point if p["field_ratio"] == 0.0]
    b_nonzero = [p["rel_dev"] for p in per_point if p["field_ratio"] != 0.0]
    rec = _record("target-coefficient-map-refuted", len(per_point),
                  worst_dev(0.0, *b_zero), _tolerance(tol, 1e-8),
                  refutation_margin=REFUTATION_MARGIN, points=per_point)
    rec["passed"] = bool(rec["passed"] and b_zero and b_nonzero
                         and all(d > REFUTATION_MARGIN for d in b_nonzero))
    return rec


def verify_gw_suite(*, tol: float | None = None, seed: int = 0) -> dict:
    """Harmonic-superfield action coefficient maps.

    Checks both coefficient maps over the standard grid: the derived map
    (harmonic weight b^2 theta^2/4, quartic Lambda(1 - b^4 theta^2/4)) must
    match the graded action to machine precision, while the target map (b^4
    theta^2/16, Lambda(1 + b^4 theta^2/16)) must be refuted — the harmonic
    term of the graded action is quadratic in the odd component, hence
    quadratic in b, so no linear trace can produce a quartic leading power.
    :func:`_refutation` fails an engine that broke the b = 0 reduction.
    ``gw verify`` (:func:`verify_gw_maps`) still reports whether the target
    map itself holds, and exits 1.
    """
    rep = verify_gw()
    calib = rep["calibration"]
    fit = rep["coefficient_fit"]
    checks = [
        _refutation(rep["points"], tol),
        _coefficient_map(rep["points"], "derived", tol),
        _check("calibration-identities",
               (calib["kinetic_rel_dev"], calib["harmonic_rel_dev"]),
               tol, default=1e-8, scale_formula=calib["scale_formula"]),
        # one aggregate: the fit has one residual over all its fields
        _record("per-term-coefficient-fit", int(fit["fields_used"]),
                float(fit["residual"]), _tolerance(tol, 1e-8),
                kinetic_coeff=float(fit["kinetic_coeff"]),
                harmonic_sq_fit=float(fit["harmonic_sq_fit"]),
                mass_sq_fit=float(fit["mass_sq_fit"]),
                quartic_fit=float(fit["quartic_fit"])),
    ]
    target_worst = worst_dev(0.0, *(pt["target"]["rel_dev"] for pt in rep["points"]))
    return _suite_report("gw", checks, analysis=rep["analysis"], trace=calib["trace"],
                         target_max_rel_dev=float(target_worst))


def verify_gw_maps(*, tol: float | None = None) -> dict:
    """The ``superstar gw verify`` report: ``verify_gw``'s measurements and
    one record per coefficient map; it passes only if both maps hold."""
    rep = verify_gw()
    checks = [_coefficient_map(rep["points"], which, tol) for which in ("target", "derived")]
    return {**rep, "checks": checks, "passed": all(c["passed"] for c in checks)}


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

_SUITES: dict[str, Callable[..., dict]] = {
    "eps": verify_eps,
    "star": verify_star,
    "hilbert": verify_hilbert,
    "heisenberg": verify_heisenberg,
    "udf": verify_udf,
    "torus": verify_torus,
    "qgroup": verify_qgroup,
    "gw": verify_gw_suite,
}

SUITE_NAMES = tuple(sorted(_SUITES)) + ("all",)


def run_suite(name: str, *, seed: int = 0, tol: float | None = None,
              n: int | None = None) -> dict:
    """Run one named suite (or ``all``) and return its JSON-safe report."""
    if name == "all":
        return run_all(seed=seed, tol=tol, n=n)
    fn = _SUITES.get(name)
    if fn is None:
        raise ValueError(
            f"unknown suite {name!r}; available: {', '.join(SUITE_NAMES)}")
    if name == "eps":
        return fn(n=n, tol=tol, seed=seed)
    if n is not None:
        raise ValueError(f"--n applies to the eps suite only, not to {name!r}")
    return fn(tol=tol, seed=seed)


def run_all(*, seed: int = 0, tol: float | None = None,
            n: int | None = None) -> dict:
    """Run every suite and merge the reports, sorted by suite name."""
    suites = [run_suite(nm, seed=seed, tol=tol, n=n if nm == "eps" else None)
              for nm in sorted(_SUITES)]
    return {
        "suite": "all",
        "passed": all(s["passed"] for s in suites),
        "cases": sum(s["cases"] for s in suites),
        "suites": suites,
    }
