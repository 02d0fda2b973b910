"""Deterministic random samples for the verification suites.

Every sampler takes a numpy Generator; suites seed it from the CLI flag /
environment variable, so identical seeds reproduce identical reports.
"""

from __future__ import annotations

import numpy as np

from .exppoly import ExpPolyFunction
from .grassmann import GrassmannElement
from .starprod import DeformationContext
from .superfun import Superfunction

__all__ = [
    "conj_coefficients",
    "random_even",
    "random_gaussian_even",
    "random_gaussian_superfunction",
    "random_isotropic_gaussian",
    "random_plane_wave_even",
    "random_poly_even",
    "random_star_factor",
    "random_oracle_factor",
    "random_integrable_factor",
    "random_trig_superpolynomial",
    "random_odd_aux_shifts",
]


def _random_alpha(rng: np.random.Generator, d: int, max_total: int) -> tuple[int, ...]:
    """Exponent vector with bounded TOTAL degree.

    Chained deformed products multiply polynomial term counts, so samples keep
    the total degree small; the identities under test are about class mixing
    and signs, not about degree growth.
    """
    if d == 0:
        return ()
    alpha = [0] * d
    for _ in range(int(rng.integers(0, max_total + 1))):
        alpha[int(rng.integers(0, d))] += 1
    return tuple(alpha)


def random_gaussian_even(rng: np.random.Generator, d: int) -> ExpPolyFunction:
    """Absolutely integrable Gaussian term with mild oscillation and polynomial."""
    L = rng.normal(size=(d, d)) * 0.35
    S = rng.normal(size=(d, d)) * 0.2
    A = -(L @ L.T + 0.45 * np.eye(d)) + 0.5j * (S + S.T)
    b = 0.6 * (rng.normal(size=d) + 1j * rng.normal(size=d))
    alpha = _random_alpha(rng, d, 1)
    c = complex(rng.normal(), rng.normal())
    return ExpPolyFunction.monomial(d, alpha, c) * ExpPolyFunction.gaussian(d, A, b)


def random_plane_wave_even(rng: np.random.Generator, d: int) -> ExpPolyFunction:
    """One plane wave c e^{i k.x} with k uniform in [-2, 2]^d."""
    k = rng.uniform(-2.0, 2.0, size=d)
    c = complex(rng.normal(), rng.normal())
    return ExpPolyFunction.plane_wave(d, k, c)


def random_poly_even(rng: np.random.Generator, d: int) -> ExpPolyFunction:
    """One or two monomials of total degree at most 2."""
    out = ExpPolyFunction.zero(d)
    for _ in range(int(rng.integers(1, 3))):
        alpha = _random_alpha(rng, d, 2)
        c = complex(rng.normal(), rng.normal())
        out = out + ExpPolyFunction.monomial(d, alpha, c)
    return out


def random_even(rng: np.random.Generator, d: int, kind: str) -> ExpPolyFunction:
    if kind == "gaussian":
        return random_gaussian_even(rng, d)
    if kind == "pw":
        return random_plane_wave_even(rng, d)
    if kind == "poly":
        return random_poly_even(rng, d)
    raise ValueError(f"unknown kind {kind!r}")


def random_isotropic_gaussian(rng: np.random.Generator, m: int = 1) -> ExpPolyFunction:
    """c * exp(-a |x|^2 + b.x) with a in [0.5, 1.5) and complex b, c."""
    A = -np.eye(m) * (0.5 + rng.random())
    b = [complex(rng.normal(), rng.normal()) for _ in range(m)]
    return ExpPolyFunction.gaussian(m, A, b, complex(rng.normal(), rng.normal()))


def random_gaussian_superfunction(rng: np.random.Generator, m: int, n: int) -> Superfunction:
    """Sum of two isotropic Gaussians on random odd words of R^{m|n}."""
    terms: dict[int, ExpPolyFunction] = {}
    for _ in range(2):
        w = int(rng.integers(0, 1 << n))
        fn = random_isotropic_gaussian(rng, m)
        terms[w] = terms[w] + fn if w in terms else fn
    return Superfunction(m, n, terms)


def random_star_factor(rng: np.random.Generator, ctx: DeformationContext,
                       kinds=("gaussian", "pw", "poly"), naux: int = 0) -> Superfunction:
    """Random factor mixing the even classes with odd monomials, on one or two words."""
    d = 2 * ctx.m
    width = ctx.n + naux
    terms = {}
    kind_of: dict[int, str] = {}
    for _ in range(int(rng.integers(1, 3))):
        word = int(rng.integers(0, 1 << width)) if width else 0
        # keep each coefficient in a single class so the series oracle accepts it
        kind = kind_of.setdefault(word, kinds[int(rng.integers(0, len(kinds)))])
        f = random_even(rng, d, kind)
        terms[word] = terms.get(word, ExpPolyFunction.zero(d)) + f
    return Superfunction(d, ctx.n, terms, naux)


def random_oracle_factor(rng: np.random.Generator, ctx: DeformationContext,
                         naux: int = 0) -> Superfunction:
    """Factor in the oracle overlap class: each coefficient pure poly or pure waves."""
    return random_star_factor(rng, ctx, kinds=("pw", "poly"), naux=naux)


def random_integrable_factor(rng: np.random.Generator, ctx: DeformationContext) -> Superfunction:
    """Factor whose coefficients all decay (for tracial-property samples)."""
    return random_star_factor(rng, ctx, kinds=("gaussian",))


def random_trig_superpolynomial(rng: np.random.Generator,
                                ctx: DeformationContext) -> Superfunction:
    """One or two integer plane waves e^{2 pi i k.x}, k in {-2..2}^{2m}, on
    random odd words: the class whose deformation is the supertorus."""
    d = 2 * ctx.m
    n = ctx.n
    terms: dict[int, ExpPolyFunction] = {}
    for _ in range(int(rng.integers(1, 3))):
        k = 2 * np.pi * rng.integers(-2, 3, size=d)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        word = int(rng.integers(0, 1 << n)) if n else 0
        pw = ExpPolyFunction.plane_wave(d, k, c)
        terms[word] = terms[word] + pw if word in terms else pw
    return Superfunction(d, n, terms)


def random_odd_aux_shifts(rng: np.random.Generator, n: int,
                          naux: int) -> list[GrassmannElement]:
    """One odd shift on ``naux`` auxiliary generators per ambient odd coordinate."""
    shifts = []
    for _ in range(n):
        s = GrassmannElement.zero(naux)
        for j in range(1, naux + 1):
            if rng.random() < 0.6:
                s = s + GrassmannElement.generator(naux, j).scale(
                    complex(rng.normal(), rng.normal()))
        shifts.append(s)
    return shifts


def conj_coefficients(e: GrassmannElement) -> GrassmannElement:
    """Complex-conjugate every coefficient, keeping the word order."""
    return GrassmannElement(e.n, {w: np.conj(c) for w, c in e.coeffs.items()})
