"""Inner products on superfunction spaces and superadjoints of graded operators.

Three products live here:

* ``inner_l2`` — the Berezin-Lebesgue pairing on R^{m|n}, antilinear in its
  first argument.  It is superhermitian but indefinite.
* ``scalar_J`` — the positive scalar product obtained by inserting the
  fundamental symmetry J (the signed odd-sector complement) in the second slot.
* ``inner_fock`` — the pairing on the holomorphic-in-zeta sector used by the
  oscillator representation: a Gaussian Berezin weight pairs each holomorphic
  generator with its conjugate.

The other two are ``inner_l2`` after one map: ``scalar_J`` after J on the
second argument, ``inner_fock`` after the word map D_theta (``_fock_dual``) on
the first, which integrates the conjugate generators out in closed form.

Graded operators on finite bases get a superadjoint through the defining
relation <T' x, y> = (-1)^{|T||x|} <x, T y>, solved in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParityError, SingularityError
from .exppoly import ExpPolyFunction
from .grassmann import eps
from .superfun import Superfunction, sintegrate, smul

__all__ = [
    "inner_l2",
    "fundamental_symmetry",
    "scalar_J",
    "FockSuperfunction",
    "inner_fock",
    "GradedOperator",
    "superadjoint",
    "gram_matrix",
]


# ---------------------------------------------------------------------------
# L2 pairing and the fundamental symmetry


def inner_l2(f: Superfunction, g: Superfunction):
    """<f, g> = integral of conj(f) g over all even and odd coordinates.

    Antilinear in ``f``; returns a GrassmannElement when auxiliary odd
    parameters are present.
    """
    return sintegrate(smul(f.conj(), g))


def fundamental_symmetry(f: Superfunction) -> Superfunction:
    """J: send each ambient odd monomial to its signed complement.

    xi^I -> eps(I, I^c) xi^{I^c}.  Squares to (-1)^{(n+1)|I|} on monomials;
    no scalar twist is needed for <Jf, Jg> = <f, g> (verified over n <= 4).
    Auxiliary generators are spectators.
    """
    full = (1 << f.n) - 1
    out: dict[int, ExpPolyFunction] = {}
    for w, fn in f.terms.items():
        comp = full & ~w
        out[comp | (w & ~full)] = fn.scale(eps(w & full, comp))
    return Superfunction(f.m, f.n, out, f.naux)


def scalar_J(f: Superfunction, g: Superfunction):
    """Positive scalar product (f, g)_J = <f, J g>."""
    return inner_l2(f, fundamental_symmetry(g))


# ---------------------------------------------------------------------------
# Fock sector


@dataclass(frozen=True)
class FockSuperfunction:
    """Element of L^2(R^{m|r}) tensor the holomorphic odd sector on s generators.

    ``fun`` lives on R^{m | r+s}: bits 0..r-1 are the real odd generators,
    bits r..r+s-1 the holomorphic ones (their conjugates never appear:
    ``inner_fock`` integrates them out in closed form).  Auxiliary bits ride
    above as usual.
    """

    m: int
    r: int
    s: int
    fun: Superfunction

    def __post_init__(self):
        if self.fun.m != self.m or self.fun.n != self.r + self.s:
            raise DimensionError(
                f"wrapped function on ({self.fun.m}|{self.fun.n}) does not match "
                f"(m, r, s) = ({self.m}, {self.r}, {self.s})")

    # -- constructors -------------------------------------------------------
    @classmethod
    def one(cls, m: int, r: int, s: int) -> "FockSuperfunction":
        return cls(m, r, s, Superfunction.one(m, r + s))

    @classmethod
    def zeta(cls, m: int, r: int, s: int, index: int) -> "FockSuperfunction":
        if not 1 <= index <= s:
            raise ValueError(f"zeta index {index} not in 1..{s}")
        return cls(m, r, s, Superfunction.xi(m, r + s, r + index))


def _fock_dual(theta: float, phi: FockSuperfunction) -> Superfunction:
    """The word map D_theta of ``inner_fock``."""
    r, s = phi.r, phi.s
    real = (1 << r) - 1
    hol = ((1 << s) - 1) << r
    out: dict[int, ExpPolyFunction] = {}
    for word, fn in phi.fun.terms.items():
        H = word & hol
        h = H.bit_count()
        sign = (-1) ** ((r - (word & real).bit_count()) * s + h * (h + 1) // 2)
        c = sign * eps(hol & ~H, H) * (2j) ** s * (-1j / theta) ** (s - h)
        out[word ^ hol] = fn.scale(c)
    return Superfunction(phi.m, r + s, out, phi.fun.naux)


def inner_fock(theta: float, phi: FockSuperfunction, psi: FockSuperfunction):
    """<phi, psi> = (2i)^s * integral of conj(phi) psi e^{(i/theta) zeta zbar}.

    The Gaussian weight pairs each holomorphic generator with its conjugate;
    the Berezin orientation takes the coefficient of the ordered top monomial
    (zeta^a before zbar^a) with one factor -1 per holomorphic pair, the choice
    that makes the body pairing positive.  Integrating the conjugates out
    (Berezin's Fock-space calculus) leaves <phi, psi> = inner_l2(D phi, psi),
    where, with real = bits 0..r-1, hol = bits r..r+s-1, H = I & hol, h = |H|,

        (D phi)_{I ^ hol} = sigma(I) (2i)^s (-i/theta)^{s-h} phi_I,
        sigma(I) = (-1)^{(r - |I & real|) s + h(h+1)/2} eps(hol & ~H, H).

    A word of phi meets a word of psi at the top only with equal holomorphic
    parts and complementary real parts, the weight gives i/theta for every
    other holomorphic pair, the reordering sign depends on I alone, and the
    constant is conjugated because ``inner_l2`` conjugates its first slot.
    Returns a GrassmannElement when auxiliary parameters are present.
    """
    if (phi.m, phi.r, phi.s) != (psi.m, psi.r, psi.s):
        raise DimensionError("Fock factors live on different spaces")
    return inner_l2(_fock_dual(theta, phi), psi.fun)


# ---------------------------------------------------------------------------
# graded operators


@dataclass(frozen=True, eq=False)
class GradedOperator:
    """Matrix on a finite graded basis with a definite operator degree.

    Entry (i, j) may be nonzero only when parity(i) = parity(j) + degree.
    """

    matrix: np.ndarray
    parities: tuple[int, ...]
    degree: int

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=complex)
        k = len(self.parities)
        if M.shape != (k, k):
            raise DimensionError(f"matrix shape {M.shape} does not match basis size {k}")
        if self.degree not in (0, 1):
            raise ValueError("operator degree must be 0 or 1")
        if any(p not in (0, 1) for p in self.parities):
            raise ValueError("basis parities must be 0 or 1")
        scale = max(1.0, float(np.max(np.abs(M))) if M.size else 1.0)
        cleaned = M.copy()
        for i, pi in enumerate(self.parities):
            for j, pj in enumerate(self.parities):
                if (pi + pj + self.degree) % 2:
                    if abs(M[i, j]) > 1e-12 * scale:
                        raise ParityError(
                            f"entry ({i}, {j}) violates the degree-{self.degree} pattern")
                    cleaned[i, j] = 0.0
        cleaned.setflags(write=False)
        object.__setattr__(self, "matrix", cleaned)
        object.__setattr__(self, "parities", tuple(int(p) for p in self.parities))

    @classmethod
    def identity(cls, parities) -> "GradedOperator":
        k = len(parities)
        return cls(np.eye(k, dtype=complex), tuple(parities), 0)

    def compose(self, other: "GradedOperator") -> "GradedOperator":
        if self.parities != other.parities:
            raise DimensionError("operators on different graded bases")
        return GradedOperator(self.matrix @ other.matrix, self.parities,
                              (self.degree + other.degree) % 2)

    def scale(self, c) -> "GradedOperator":
        return GradedOperator(self.matrix * c, self.parities, self.degree)

    def __add__(self, other: "GradedOperator") -> "GradedOperator":
        if self.parities != other.parities or self.degree != other.degree:
            raise DimensionError("can only add operators of equal degree and basis")
        return GradedOperator(self.matrix + other.matrix, self.parities, self.degree)

    def __sub__(self, other: "GradedOperator") -> "GradedOperator":
        return self + other.scale(-1.0)


def _check_superhermitian(G: np.ndarray, parities) -> None:
    scale = max(1.0, float(np.max(np.abs(G))))
    for i, pi in enumerate(parities):
        for j, pj in enumerate(parities):
            want = (-1) ** (pi * pj) * G[j, i]
            if abs(np.conj(G[i, j]) - want) > 1e-10 * scale:
                raise ValueError("gram matrix is not superhermitian")


def superadjoint(T: GradedOperator, gram) -> GradedOperator:
    """The unique S with <S x, y> = (-1)^{|T||x|} <x, T y> on the basis.

    With the pairing <x, y> = conj(x)^T G y (antilinear first slot) the
    relation reads S^H G = D G T, D = diag((-1)^{|T| p_i}), so
    S = (D G T G^{-1})^H.
    """
    G = np.asarray(gram, dtype=complex)
    k = len(T.parities)
    if G.shape != (k, k):
        raise DimensionError("gram matrix does not match the basis")
    _check_superhermitian(G, T.parities)
    if np.linalg.cond(G) > 1e12:
        raise SingularityError("gram matrix is numerically singular")
    D = np.diag([(-1.0) ** (T.degree * p) for p in T.parities])
    M = D @ G @ T.matrix @ np.linalg.inv(G)
    return GradedOperator(M.conj().T, T.parities, T.degree)


def gram_matrix(inner, basis) -> np.ndarray:
    """Matrix of a sesquilinear pairing on an explicit finite basis."""
    k = len(basis)
    G = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            G[i, j] = inner(basis[i], basis[j])
    return G
