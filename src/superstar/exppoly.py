"""Closed even-variable function class: sums of c * x^alpha * exp(x^T A x + b.x).

The class is closed under products, affine substitutions, derivatives, and —
the point of the exercise — exact Gaussian/Fresnel integration over the
trailing variables (``affine`` permutes any others to the end).  Oscillatory
(Fresnel) integrals are evaluated as the closed-form epsilon-regularization
limit A -> A - eps*Id, eps -> 0+, with the determinant prefactor tracked per
eigenvalue on the principal square-root branch; no numeric limits anywhere.

Conventions: a term stores the quadratic form A as the upper triangle of a
symmetric matrix, in the order of the one index table :func:`_triangle`, so
x^T A x carries the full cross coefficient (the (i,j) and (j,i) entries both
contribute).  ``b`` is the linear form, ``alpha`` the
monomial exponent; (A, b) is the term's exponent key.

Terms of one function share few exponent keys, so a function is stored by
key: ``keys`` maps (A, b) to the polynomial {alpha: c} that multiplies
exp(x^T A x + b.x), nonzero and in first-seen order, and
``ExpPolyFunction(d, keys)`` takes such a map over.  Adding a term is a dict
update, and every operation works per key rather than per term:
:func:`ep_mul_into` adds c * f * g into such a map, A and b once per key
pair, and :func:`ep_add_into` adds c * f, so that a sum of products is built
in one map and wrapped once; ``eval`` takes one exponential per key,
:func:`ep_integrate_partial` computes the eigenvalues, inverse and Schur
complement of the integrated block once per quadratic form A and the linear
data once per key, :meth:`ExpPolyFunction.affine` substitutes each key and
each monomial exponent once, and the JSON form builds each key's matrix A
once.  ``terms`` is a read-only tuple of :class:`ExpPolyTerm` built at first
use and cached; no operation reads it.  Equality ignores order, and only the
JSON form sorts.

A kernel integral on a doubled space [u | z1 | z2] passes the kernel's
coupling X and its exact inverse to :func:`ep_integrate_partial`, which is
the one place that multiplies by the kernel: it adds X to the integrated
block, making it [[P, X], [X^T, Q]], inverts that through the Schur
complement on X^{-1}, and divides by the bare kernel's integral.  When P or
Q vanishes (a polynomial or plane-wave factor) the inverse and that
normalization are exact: the blocks that are zero in exact arithmetic are
zero, no eigenvalues are computed, and the normalization is exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import nan, pi
from operator import add
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DivergenceError

__all__ = [
    "ExpPolyFunction",
    "ExpPolyTerm",
    "ep_add_into",
    "ep_from_distinct",
    "ep_integrate",
    "ep_integrate_partial",
    "ep_mul",
    "ep_mul_into",
]

# Relative threshold deciding "zero" for eigenvalue/definiteness questions.
_EIG_TOL = 1e-12


@lru_cache(maxsize=32)
def _triangle(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (rows, cols, pos) for R^d, the one statement of A_ut's order:
    A_ut[k] = A[rows[k], cols[k]] (upper triangle, row by row) and
    A[i, j] = A_ut[pos[i, j]].  At most 32 are cached; the report needs d <= 12."""
    rows, cols = np.triu_indices(d)
    pos = np.empty((d, d), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(len(rows))
    rows.flags.writeable = cols.flags.writeable = pos.flags.writeable = False
    return rows, cols, pos


def _ut_from_matrix(A: np.ndarray) -> tuple[complex, ...]:
    rows, cols, _ = _triangle(A.shape[0])
    return tuple((0.5 * (A + A.T))[rows, cols].astype(complex, copy=False).tolist())


def _matrix_from_ut(ut: Sequence[complex], d: int) -> np.ndarray:
    return np.array(ut, dtype=complex)[_triangle(d)[2]]


@dataclass(frozen=True)
class ExpPolyTerm:
    """One term c * x^alpha * exp(x^T A x + b.x) on R^d.

    ``A_ut`` is the flattened upper triangle of the symmetric matrix A.
    """

    c: complex
    alpha: tuple[int, ...]
    A_ut: tuple[complex, ...]
    b: tuple[complex, ...]


def _negative_definite(A_ut: Sequence[complex], d: int) -> bool:
    re = np.real(_matrix_from_ut(A_ut, d))
    return bool(np.all(np.linalg.eigvalsh(re) < -_EIG_TOL))


def _nonzero(keys: dict) -> dict:
    """The keys map without exact-zero coefficients or keys left empty."""
    for poly in keys.values():
        if not poly or 0 in poly.values():
            break
    else:
        return keys
    out = {}
    for key, poly in keys.items():
        if 0 in poly.values():
            poly = {alpha: c for alpha, c in poly.items() if c != 0}
        if poly:
            out[key] = poly
    return out


class ExpPolyFunction:
    """Finite sum c * x^alpha * exp(x^T A x + b.x) on R^d, stored by exponent key.

    ``keys`` maps each exponent key (A_ut, b) to its polynomial
    {alpha: coefficient}; every coefficient is nonzero, and keys and
    exponents keep the order in which they were first seen.  Equality
    compares the maps, so that order does not matter.  A stored function is
    never changed in place; operations build new maps.

    ``terms`` is a read-only tuple of :class:`ExpPolyTerm`, one per
    (key, alpha), built at first use and cached, for code outside the
    program that wants terms.  Every operation reads ``keys``.
    """

    __slots__ = ("d", "keys", "_terms")

    def __init__(self, d: int, keys: dict | None = None):
        """Take over a {(A_ut, b): {alpha: c}} map, or none for zero.

        The caller hands the map over and does not change it afterwards.
        Exact zeros are dropped, so scaling by 0 or an underflow leaves none.
        """
        self.d = d
        self.keys = _nonzero(keys) if keys else {}
        self._terms = None

    @property
    def terms(self) -> tuple[ExpPolyTerm, ...]:
        if self._terms is None:
            self._terms = tuple(ExpPolyTerm(c, alpha, A_ut, b)
                                for (A_ut, b), poly in self.keys.items()
                                for alpha, c in poly.items())
        return self._terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, d: int) -> "ExpPolyFunction":
        return cls(d)

    @classmethod
    def const(cls, d: int, c) -> "ExpPolyFunction":
        return cls.monomial(d, (0,) * d, c)

    @classmethod
    def one(cls, d: int) -> "ExpPolyFunction":
        return cls.const(d, 1.0)

    @classmethod
    def monomial(cls, d: int, alpha: Sequence[int], c=1.0) -> "ExpPolyFunction":
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != d or any(a < 0 for a in alpha):
            raise ValueError("bad exponent")
        zero_A = (0j,) * (d * (d + 1) // 2)
        zero_b = (0j,) * d
        return cls(d, {(zero_A, zero_b): {alpha: 0j + complex(c)}})

    @classmethod
    def coordinate(cls, d: int, axis: int) -> "ExpPolyFunction":
        alpha = [0] * d
        alpha[axis] = 1
        return cls.monomial(d, alpha)

    @classmethod
    def gaussian(cls, d: int, A, b=None, c=1.0) -> "ExpPolyFunction":
        """c * exp(x^T A x + b.x); A any square array-like (symmetrized)."""
        A = np.asarray(A, dtype=complex).reshape(d, d)
        bvec = np.zeros(d, dtype=complex) if b is None else np.asarray(b, dtype=complex)
        key = (_ut_from_matrix(A), tuple(complex(x) for x in bvec))
        return cls(d, {key: {(0,) * d: 0j + complex(c)}})

    @classmethod
    def plane_wave(cls, d: int, k: Sequence[float], c=1.0) -> "ExpPolyFunction":
        """c * exp(i k.x) for a real wave vector k."""
        b = tuple(1j * complex(ki) for ki in k)
        zero_A = (0j,) * (d * (d + 1) // 2)
        return cls(d, {(zero_A, b): {(0,) * d: 0j + complex(c)}})

    # -- ring structure ------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, ExpPolyFunction):
            if other.d != self.d:
                raise ValueError(f"dimension mismatch: {self.d} vs {other.d}")
            keys = {key: dict(poly) for key, poly in self.keys.items()}
            return ExpPolyFunction(self.d, ep_add_into(keys, other))
        return NotImplemented

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, c) -> "ExpPolyFunction":
        c = complex(c)
        return ExpPolyFunction(self.d, {
            key: {alpha: c * v for alpha, v in poly.items()}
            for key, poly in self.keys.items()})

    def __mul__(self, other):
        if isinstance(other, ExpPolyFunction):
            return ep_mul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def conj(self) -> "ExpPolyFunction":
        """Pointwise complex conjugate (the argument x is real)."""
        return ExpPolyFunction(self.d, {
            (tuple(z.conjugate() for z in A_ut), tuple(z.conjugate() for z in b)):
                {alpha: c.conjugate() for alpha, c in poly.items()}
            for (A_ut, b), poly in self.keys.items()})

    @property
    def is_zero(self) -> bool:
        return not self.keys

    @property
    def integrable(self) -> bool:
        return all(_negative_definite(A_ut, self.d) for A_ut, _ in self.keys)

    # -- calculus ------------------------------------------------------

    def derive(self, mu: int) -> "ExpPolyFunction":
        if not 0 <= mu < self.d:
            raise ValueError(f"axis {mu} out of range for d={self.d}")
        out: dict[tuple, dict[tuple, complex]] = {}
        for key, poly in self.keys.items():
            A_ut, b = key
            row = _matrix_from_ut(A_ut, self.d)[mu].tolist()
            acc = out[key] = {}
            for alpha, c in poly.items():
                if alpha[mu] > 0:
                    lower = list(alpha)
                    lower[mu] -= 1
                    lower = tuple(lower)
                    acc[lower] = acc.get(lower, 0j) + c * alpha[mu]
                # chain rule: d/dx_mu exp(x^T A x + b.x) = (2(Ax)_mu + b_mu) * exp(..)
                if b[mu] != 0:
                    acc[alpha] = acc.get(alpha, 0j) + c * b[mu]
                for j in range(self.d):
                    aij = row[j]
                    if aij != 0:
                        higher = list(alpha)
                        higher[j] += 1
                        higher = tuple(higher)
                        acc[higher] = acc.get(higher, 0j) + 2 * c * aij
        return ExpPolyFunction(self.d, out)

    def affine(self, M, v) -> "ExpPolyFunction":
        """Exact substitution x -> M y + v, returning a function of y.

        M is a (self.d, k) array, so y lives on R^k; M may be rectangular
        (embeddings, evaluations) and k = M.shape[1] also for an empty map.
        v has length self.d.  The exponent data is substituted once per key
        (A, b), the polynomial part prod_i (M[i,:].y + v_i)^alpha_i once per
        exponent alpha.
        """
        M = np.asarray(M, dtype=complex)
        if M.ndim != 2 or M.shape[0] != self.d:
            raise ValueError(f"map of shape {M.shape} does not act on R^{self.d}")
        new_d = M.shape[1]
        v = np.asarray(v, dtype=complex).reshape(self.d)
        expansions: dict[tuple, dict[tuple, complex]] = {}
        out: dict[tuple, dict[tuple, complex]] = {}
        for (A_ut, b_ut), poly in self.keys.items():
            A = _matrix_from_ut(A_ut, self.d)
            b = np.asarray(b_ut)
            e = complex(np.exp(complex(v @ A @ v + b @ v)))
            key = (_ut_from_matrix(M.T @ A @ M),
                   tuple(complex(x) for x in M.T @ (2 * A @ v + b)))
            acc = out.setdefault(key, {})
            for alpha, c in poly.items():
                if alpha not in expansions:
                    rows = [(complex(v[i]), M[i, :]) for i in range(self.d) if alpha[i] > 0]
                    powers = [alpha[i] for i in range(self.d) if alpha[i] > 0]
                    expansions[alpha] = _affine_monomial_expand(rows, powers, new_d)
                base_c = c * e
                for expo, coeff in expansions[alpha].items():
                    acc[expo] = acc.get(expo, 0j) + base_c * coeff
        return ExpPolyFunction(new_d, out)

    def translate(self, a) -> "ExpPolyFunction":
        """f(x) -> f(x + a)."""
        return self.affine(np.eye(self.d), a)

    def integrate(self) -> complex:
        return ep_integrate(self)

    # -- evaluation / serialization ---------------------------------------

    def eval(self, points):
        """Evaluate at an (N, d) array of real points -> (N,) complex array.

        A single point (1-d array of length d) returns a complex scalar.  The
        exponential is evaluated once per key.
        """
        pts = np.asarray(points, dtype=float)
        if self.d == 0:
            total = _coefficient_sum(self)
            return total if pts.ndim <= 1 else np.full(pts.shape[0], total, dtype=complex)
        single = pts.ndim == 1
        if single:
            pts = pts.reshape(1, self.d)
        vals = np.zeros(pts.shape[0], dtype=complex)
        for (A_ut, b), poly in self.keys.items():
            A = _matrix_from_ut(A_ut, self.d)
            e = np.exp(np.einsum("ni,ij,nj->n", pts, A, pts) + pts @ np.asarray(b))
            for alpha, c in poly.items():
                mono = np.ones(pts.shape[0], dtype=complex)
                for i, a in enumerate(alpha):
                    if a:
                        mono = mono * pts[:, i] ** a
                vals += c * mono * e
        return complex(vals[0]) if single else vals

    def to_json_dict(self) -> dict:
        """Terms sorted by alpha, then A and b as (re, im) pairs."""
        rows = []
        for (A_ut, b), poly in self.keys.items():
            order = (tuple((z.real, z.imag) for z in A_ut), tuple((z.real, z.imag) for z in b))
            A = [[[complex(z).real, complex(z).imag] for z in row]
                 for row in _matrix_from_ut(A_ut, self.d).tolist()]
            b_json = [[z.real, z.imag] for z in b]
            rows += [((alpha,) + order,
                      {"c": [c.real, c.imag], "alpha": list(alpha), "A": A, "b": b_json})
                     for alpha, c in poly.items()]
        rows.sort(key=lambda row: row[0])
        return {"d": self.d, "terms": [term for _, term in rows]}

    def __eq__(self, other):
        if not isinstance(other, ExpPolyFunction):
            return NotImplemented
        return self.d == other.d and self.keys == other.keys

    def __repr__(self):
        if not self.keys:
            return f"ExpPolyFunction(d={self.d}, 0)"
        n = sum(len(poly) for poly in self.keys.values())
        return f"ExpPolyFunction(d={self.d}, {n} terms)"


def _coefficient_sum(f: ExpPolyFunction) -> complex:
    return complex(sum((c for poly in f.keys.values() for c in poly.values()), 0j))


# ---------------------------------------------------------------------------
# products


def ep_mul(f: ExpPolyFunction, g: ExpPolyFunction) -> ExpPolyFunction:
    """Exact pointwise product f * g."""
    return ExpPolyFunction(f.d, ep_mul_into({}, f, g))


def ep_mul_into(acc: dict, f: ExpPolyFunction, g: ExpPolyFunction, c=1) -> dict:
    """Add c * f * g into ``acc``, a {(A_ut, b): {alpha: c}} map whose
    polynomials are its own (they are updated in place); returns ``acc``.
    c multiplies the coefficients of f before the product."""
    if f.d != g.d:
        raise ValueError(f"dimension mismatch: {f.d} vs {g.d}")
    for (A1, b1), p1 in f.keys.items():
        if c != 1:
            p1 = {a1: c * c1 for a1, c1 in p1.items()}
        for (A2, b2), p2 in g.keys.items():
            poly = acc.setdefault((tuple(map(add, A1, A2)), tuple(map(add, b1, b2))), {})
            for a1, c1 in p1.items():
                for a2, c2 in p2.items():
                    alpha = tuple(map(add, a1, a2))
                    poly[alpha] = poly.get(alpha, 0j) + c1 * c2
    return acc


def ep_add_into(acc: dict, f: ExpPolyFunction, c=1) -> dict:
    """Add c * f into ``acc``, a keys map as for :func:`ep_mul_into`."""
    for key, p in f.keys.items():
        poly = acc.setdefault(key, {})
        for alpha, v in p.items():
            poly[alpha] = poly.get(alpha, 0j) + (v if c == 1 else c * v)
    return acc


def ep_from_distinct(d: int, terms: Iterable[ExpPolyTerm]) -> ExpPolyFunction:
    """A function from terms whose (key, alpha) are already distinct.

    Nothing is merged; exact zeros are dropped, and the kept terms become the
    cached ``terms`` view, so they keep their identity.
    """
    kept = tuple(t for t in terms if t.c != 0)
    keys: dict[tuple, dict[tuple, complex]] = {}
    for t in kept:
        keys.setdefault((t.A_ut, t.b), {})[t.alpha] = t.c
    out = ExpPolyFunction(d, keys)
    out._terms = kept
    return out


# ---------------------------------------------------------------------------
# exact Gaussian/Fresnel integration


def _principal_sqrt(z: complex) -> complex:
    """Principal branch square root; on the epsilon path Re(z) >= 0 always."""
    return complex(np.sqrt(complex(z)))


def _poly_derive(H: dict, i: int) -> dict:
    out: dict[tuple, complex] = {}
    for gamma, h in H.items():
        if gamma[i]:
            g = list(gamma)
            g[i] -= 1
            key = tuple(g)
            out[key] = out.get(key, 0j) + h * gamma[i]
    return out


def _poly_mul_linear(H: dict, coeffs: np.ndarray) -> dict:
    """Multiply a polynomial in s by the linear form sum_j coeffs[j] * s_j."""
    out: dict[tuple, complex] = {}
    for gamma, h in H.items():
        for j, cj in enumerate(coeffs):
            if cj == 0:
                continue
            g = list(gamma)
            g[j] += 1
            key = tuple(g)
            out[key] = out.get(key, 0j) + h * cj
    return out


def _moment_poly(C: np.ndarray, beta: Sequence[int]) -> dict:
    """H_beta with int y^beta e^{y^T A y + s.y} dy = H_beta(s) * Z * e^{-s^T C s/4}.

    Recursion from differentiating under the integral in s:
    H_{beta+e_i} = dH/ds_i - (1/2)(C s)_i * H,  H_0 = 1,  C = A^{-1}.
    """
    ell = len(beta)
    H: dict[tuple, complex] = {(0,) * ell: 1.0 + 0j}
    for i in range(ell):
        for _ in range(beta[i]):
            dH = _poly_derive(H, i)
            lin = _poly_mul_linear(H, -0.5 * C[i, :])
            out = dict(dH)
            for k, v in lin.items():
                out[k] = out.get(k, 0j) + v
            H = {k: v for k, v in out.items() if v != 0}
    return H


def _affine_monomial_expand(rows, powers, k: int) -> dict[tuple, complex]:
    """Expand prod_i (const_i + vec_i . u)^{p_i} as {u-exponent: coeff} on R^k."""
    acc: dict[tuple, complex] = {(0,) * k: 1.0 + 0j}
    for (const, vec), p in zip(rows, powers):
        # linear factor as exponent dict
        factor: dict[tuple, complex] = {}
        if const != 0:
            factor[(0,) * k] = complex(const)
        for j in range(k):
            if vec[j] != 0:
                e = [0] * k
                e[j] = 1
                factor[tuple(e)] = complex(vec[j])
        for _ in range(p):
            nxt: dict[tuple, complex] = {}
            for e1, c1 in acc.items():
                for e2, c2 in factor.items():
                    e = tuple(map(add, e1, e2))
                    nxt[e] = nxt.get(e, 0j) + c1 * c2
            acc = nxt
            if not acc:
                break
    return acc


def ep_integrate_partial(f: ExpPolyFunction, keep: int, *,
                         kernel: tuple[np.ndarray, np.ndarray] | None = None) -> ExpPolyFunction:
    """Integrate out every coordinate after the first ``keep`` exactly.

    The integrated block is trailing, x = [u | y], so every block of A is a
    slice.  The integral of y^beta e^{y^T Ayy y + s(u).y} is evaluated by
    the Gaussian moment formula with
    Z = pi^{l/2} / prod_j sqrt(mu_j), mu_j the eigenvalues of -Ayy on the
    principal square-root branch (the epsilon-regularization limit), and the
    moment polynomial recursion of :func:`_moment_poly`; the result is an
    ExpPolyFunction of the kept variables u.

    Terms are reduced per exponent key (A, b).  The admissibility test, the
    eigenvalues, the inverse C = Ayy^{-1}, Z and the Schur complement depend
    on A alone and are computed once per quadratic form, as is the moment
    polynomial of each distinct beta; b_y, the reduced linear form and the
    constant e^{-b_y C b_y / 4} once per key, as is the expansion of
    (b_y + B u)^gamma for each distinct gamma.  The coefficients of a key are
    summed in one dict, in term order, before any term is built.

    ``kernel`` = (X, X^{-1}) makes this the star product's kernel integral:
    the integrated block splits into halves z1, z2, and f is multiplied by the
    normalized kernel e^{2 z1^T X z2} / (pi^{l/2} |det X^{-1}|), the bare
    kernel's integral being the denominator.  Every integrated block is then
    Ayy = [[P, X], [X^T, Q]], and C is the Schur complement through the
    exact X^{-1} (:func:`_kernel_inverse`).  When P or Q is zero,
    det(-Ayy) = det(-X)^2 (-1)^{l/2} does not depend on the other block, so
    the normalized Z is exactly 1 and no eigenvalues are computed; the
    admissibility test is then the one on Re(Ayy) = diag(Re P, Re Q).

    Raises DivergenceError when a quadratic form is neither integrable nor
    Fresnel on the integrated block.
    """
    if not 0 <= keep <= f.d:
        raise ValueError(f"keep={keep} out of range for d={f.d}")
    if keep == f.d:
        return f
    if kernel is not None:
        X, x_inv = (np.asarray(a, dtype=complex) for a in kernel)
        if 2 * len(x_inv) != f.d - keep or X.shape != x_inv.shape:
            raise ValueError(f"kernel block of size {len(x_inv)} does not "
                             f"split {f.d - keep} integrated coordinates")
        kernel = (X, x_inv, abs(np.linalg.det(x_inv)))
    groups: dict[tuple, dict[tuple, dict[tuple, complex]]] = {}
    for (A_ut, b), poly in f.keys.items():
        groups.setdefault(A_ut, {})[b] = poly
    out: dict[tuple, dict[tuple, complex]] = {}
    for A_ut, by_b in groups.items():
        _integrate_form(A_ut, by_b, f.d, keep, kernel, out)
    return ExpPolyFunction(keep, out)


def _kernel_inverse(P: np.ndarray, X: np.ndarray, Q: np.ndarray,
                    x_inv: np.ndarray) -> np.ndarray:
    """[[P, X], [X^T, Q]]^{-1} for symmetric P, Q through the known X^{-1}.

    With G = (X - P X^{-T} Q)^{-1} the inverse is
    [[-X^{-T} Q G, G^T], [G, -X^{-1} P G^T]]; G = X^{-1} when P or Q is
    zero, and a zero P or Q leaves its diagonal block exactly zero.
    """
    h = len(X)
    x_inv_t = x_inv.T
    p_zero, q_zero = not P.any(), not Q.any()
    G = x_inv if p_zero or q_zero else np.linalg.inv(X - P @ x_inv_t @ Q)
    C = np.zeros((2 * h, 2 * h), dtype=complex)
    C[:h, h:] = G.T
    C[h:, :h] = G
    if not q_zero:
        C[:h, :h] = -x_inv_t @ Q @ G
    if not p_zero:
        C[h:, h:] = -x_inv @ P @ G.T
    return C


def _integrate_form(A_ut: tuple, by_b: Mapping[tuple, Mapping[tuple, complex]],
                    d: int, k: int, kernel, out: dict) -> None:
    """Integrate the keys sharing one quadratic form A, given as {b: {alpha: c}}.

    Each key's result is added into ``out``, a {(A_ut, b): {alpha: c}} map of
    the first k of the d variables.  ``kernel`` is (X, X^{-1}, |det X^{-1}|)
    for a kernel integral, whose coupling X is added to the integrated block
    here, else None.
    """
    ell = d - k
    A = _matrix_from_ut(A_ut, d)
    Ayy = A[k:, k:].copy()  # the kernel coupling is added in place
    half = ell // 2
    if kernel is not None:
        Ayy[:half, half:] += kernel[0]
        Ayy[half:, :half] += kernel[0].T
    one_sided = kernel is not None and (not Ayy[:half, :half].any()
                                        or not Ayy[half:, half:].any())
    # admissibility of the integrated block
    re_eigs = np.linalg.eigvalsh(np.real(Ayy))
    if one_sided:
        # det(-Ayy) = det(-X)^2 (-1)^{l/2} != 0 exactly; the row-sum norm
        # bounds the spectral radius that scales the test otherwise
        scale = max(1.0, float(np.max(np.sum(np.abs(Ayy), axis=1))))
        degenerate = False
    else:
        mu = np.linalg.eigvals(-Ayy)
        scale = max(1.0, float(np.max(np.abs(mu))))
        degenerate = np.min(np.abs(mu)) <= _EIG_TOL * scale
    if np.max(re_eigs) > _EIG_TOL * scale or degenerate:
        why = (f"smallest |eigenvalue| {np.min(np.abs(mu)):.3g}" if degenerate
               else f"largest eigenvalue of Re A {np.max(re_eigs):.3g}")
        raise DivergenceError(f"exponent neither integrable nor Fresnel on the "
                              f"integrated block of size {ell}: {why}")
    Auy = A[:k, k:]
    if kernel is None:
        C = np.linalg.inv(Ayy)
        Z = pi ** (ell / 2) / np.prod([_principal_sqrt(m) for m in mu])
    else:
        _, x_inv, kernel_det = kernel
        C = _kernel_inverse(Ayy[:half, :half], Ayy[:half, half:], Ayy[half:, half:],
                            x_inv)
        Z = 1.0 if one_sided else 1.0 / (
            np.prod([_principal_sqrt(m) for m in mu]) * kernel_det)
    # s(u) = b_y + B u with B = 2 Auy^T
    B = 2.0 * Auy.T
    Z = complex(Z)
    A_u = _ut_from_matrix(A[:k, :k] - Auy @ C @ Auy.T) if k else ()
    moments: dict[tuple, dict[tuple, complex]] = {}
    for b_key, poly in by_b.items():
        b = np.asarray(b_key)
        b_y = b[k:]
        b_t = tuple(complex(x) for x in b[:k] - Auy @ (C @ b_y))
        decay = complex(np.exp(-0.25 * complex(b_y @ C @ b_y)))
        expansions: dict[tuple, dict[tuple, complex]] = {}
        acc = out.setdefault((A_u, b_t), {})
        for alpha, c in poly.items():
            beta = alpha[k:]
            if beta not in moments:
                moments[beta] = _moment_poly(C, beta)
            const = c * Z * decay
            alpha_u = alpha[:k]
            for gamma, h in moments[beta].items():
                if gamma not in expansions:
                    rows = [(complex(b_y[i]), B[i, :]) for i in range(ell) if gamma[i] > 0]
                    powers = [gamma[i] for i in range(ell) if gamma[i] > 0]
                    expansions[gamma] = _affine_monomial_expand(rows, powers, k)
                ch = complex(const * h)
                for expo, coeff in expansions[gamma].items():
                    total = tuple(map(add, alpha_u, expo))
                    acc[total] = acc.get(total, 0j) + ch * coeff


def ep_integrate(f: ExpPolyFunction) -> complex:
    """Exact integral over all of R^d."""
    return _coefficient_sum(ep_integrate_partial(f, 0))


# ---------------------------------------------------------------------------
# equality


def sample_grid(d: int) -> np.ndarray:
    """Deterministic comparison grid: 64 points in [-1.5, 1.5]^d, fixed per dimension."""
    rng = np.random.default_rng(12345 + d)
    return rng.uniform(-1.5, 1.5, size=(64, d))


def ep_max_dev(f: ExpPolyFunction, g: ExpPolyFunction) -> float:
    """Max absolute deviation on the fixed comparison grid."""
    if f.d != g.d:
        raise ValueError("dimension mismatch")
    if f.d == 0:
        return abs(_coefficient_sum(f) - _coefficient_sum(g))
    grid = sample_grid(f.d)
    return float(np.max(np.abs(f.eval(grid) - g.eval(grid))))


def worst_dev(*devs: float) -> float:
    """The largest of some deviations, or NaN when any of them is NaN.

    ``max`` keeps whichever argument comes first against a NaN, so a running
    ``max`` drops a NaN deviation and the check it feeds passes.
    """
    return nan if any(d != d for d in devs) else max(devs)
