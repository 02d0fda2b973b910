"""Superfunctions f(x, xi) = sum_I f_I(x) xi^I on R^{m|n}.

Representation: one flat Grassmann word per term.  Bits 0..n-1 of the word are
the ambient odd generators xi^1..xi^n; bits n..n+naux-1 are auxiliary odd
parameters (functor-of-points coordinates).  Every coefficient is a purely
even :class:`~superstar.exppoly.ExpPolyFunction` of the m even variables, so
all Koszul signs reduce to :func:`~superstar.grassmann.eps` on the flat words.
The canonical monomial order inside a word is ambient-then-auxiliary,
increasing; serialization and Berezin extraction both refer to that order.

Odd derivatives act from the left: d/dxi^a (xi^a w) = w for any trailing word
w, i.e. d_a xi^C = eps({a}, C-{a}) xi^{C-{a}}.  The Berezin integral extracts
the coefficient of the full ambient word xi^{1..n} (auxiliary factors ride
along unchanged).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .errors import DimensionError, ParityError
from .exppoly import (ExpPolyFunction, ep_add_into, ep_from_distinct, ep_max_dev,
                      ep_mul_into, worst_dev)
from .grassmann import GrassmannElement, eps

__all__ = [
    "Superfunction",
    "grassmann_translate",
    "sf_max_dev",
    "sintegrate",
    "smul",
    "substitute",
]


class Superfunction:
    """Element of C^inf(R^m) tensor the Grassmann algebra on n + naux generators."""

    __slots__ = ("m", "n", "naux", "terms")

    def __init__(self, m: int, n: int, terms: Mapping[int, ExpPolyFunction] | None = None,
                 naux: int = 0):
        if m < 0 or n < 0 or naux < 0:
            raise ValueError("dimensions must be >= 0")
        self.m = m
        self.n = n
        self.naux = naux
        self.terms: dict[int, ExpPolyFunction] = {}
        if terms:
            limit = 1 << (n + naux)
            for word, f in terms.items():
                word = int(word)  # accept numpy integers as words
                if not 0 <= word < limit:
                    raise ValueError(f"word {bin(word)} outside n={n}, naux={naux}")
                if not isinstance(f, ExpPolyFunction):
                    f = ExpPolyFunction.const(m, f)
                if f.d != m:
                    raise DimensionError(f"coefficient dimension {f.d} != m={m}")
                if not f.is_zero:
                    self.terms[word] = f

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, m: int, n: int, naux: int = 0) -> "Superfunction":
        return cls(m, n, {}, naux)

    @classmethod
    def from_keys(cls, m: int, n: int, words: Mapping[int, dict],
                  naux: int = 0) -> "Superfunction":
        """Take over one {(A_ut, b): {alpha: c}} map per word, each wrapped
        once as an :class:`~superstar.exppoly.ExpPolyFunction`."""
        return cls(m, n, {w: ExpPolyFunction(m, keys) for w, keys in words.items()}, naux)

    @classmethod
    def one(cls, m: int, n: int) -> "Superfunction":
        return cls(m, n, {0: ExpPolyFunction.one(m)})

    @classmethod
    def from_even(cls, f: ExpPolyFunction, n: int) -> "Superfunction":
        return cls(f.d, n, {0: f})

    @classmethod
    def xi(cls, m: int, n: int, index: int) -> "Superfunction":
        """Ambient odd generator xi^index (1-based)."""
        if not 1 <= index <= n:
            raise ValueError(f"odd index {index} not in 1..{n}")
        return cls(m, n, {1 << (index - 1): ExpPolyFunction.one(m)})

    @classmethod
    def coordinate(cls, m: int, n: int, axis: int) -> "Superfunction":
        return cls(m, n, {0: ExpPolyFunction.coordinate(m, axis)})

    # -- structure ------------------------------------------------------

    def _unify(self, other: "Superfunction") -> int:
        if self.m != other.m or self.n != other.n:
            raise DimensionError(
                f"superspace mismatch: ({self.m}|{self.n}) vs ({other.m}|{other.n})")
        return max(self.naux, other.naux)

    def __add__(self, other):
        if not isinstance(other, Superfunction):
            return NotImplemented
        naux = self._unify(other)
        out = dict(self.terms)
        for w, f in other.terms.items():
            out[w] = out[w] + f if w in out else f
        return Superfunction(self.m, self.n, out, naux)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def __neg__(self):
        return self.scale(-1.0)

    def scale(self, c) -> "Superfunction":
        return Superfunction(self.m, self.n,
                             {w: f.scale(c) for w, f in self.terms.items()}, self.naux)

    def __mul__(self, other):
        if isinstance(other, Superfunction):
            return smul(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def parity(self) -> int | None:
        """Total odd parity, or None when mixed; the zero function reports 0."""
        if not self.terms:
            return 0
        ps = {w.bit_count() & 1 for w in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def coefficient(self, word: int) -> ExpPolyFunction:
        f = self.terms.get(word)
        return ExpPolyFunction.zero(self.m) if f is None else f

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def chop(self, rel: float = 1e-14) -> "Superfunction":
        """Drop float-noise terms, measured against the global coefficient scale."""
        top = 0.0
        for f in self.terms.values():
            for t in f.terms:
                top = max(top, abs(t.c))
        if top == 0.0:
            return self
        out = {w: ep_from_distinct(f.d, (t for t in f.terms if abs(t.c) > rel * top))
               for w, f in self.terms.items()}
        return Superfunction(self.m, self.n, out, self.naux)

    def body(self) -> ExpPolyFunction:
        """The purely even part (empty Grassmann word)."""
        return self.coefficient(0)

    # -- calculus ------------------------------------------------------

    def derive_odd(self, index: int) -> "Superfunction":
        """Left derivative in the ambient odd generator xi^index (1-based)."""
        if not 1 <= index <= self.n:
            raise ValueError(f"odd index {index} not in 1..{self.n}")
        bit = 1 << (index - 1)
        out = {}
        for w, f in self.terms.items():
            if w & bit:
                rest = w & ~bit
                sign = eps(bit, rest)
                out[rest] = f.scale(sign)
        return Superfunction(self.m, self.n, out, self.naux)

    def translate_even(self, a) -> "Superfunction":
        """x -> x + a on every coefficient."""
        return Superfunction(self.m, self.n,
                             {w: f.translate(a) for w, f in self.terms.items()}, self.naux)

    def conj(self) -> "Superfunction":
        """Coefficient-wise complex conjugation; Grassmann words untouched."""
        return Superfunction(self.m, self.n,
                             {w: f.conj() for w, f in self.terms.items()}, self.naux)

    def __eq__(self, other):
        if not isinstance(other, Superfunction):
            return NotImplemented
        return (self.m, self.n) == (other.m, other.n) and self.terms == other.terms

    def __repr__(self):
        return (f"Superfunction(m={self.m}, n={self.n}, naux={self.naux}, "
                f"{len(self.terms)} terms)")


# ---------------------------------------------------------------------------
# core operations


def smul(f: Superfunction, g: Superfunction) -> Superfunction:
    """Pointwise graded-commutative product."""
    naux = f._unify(g)
    out: dict[int, dict] = {}
    for I, fI in f.terms.items():
        for J, gJ in g.terms.items():
            sign = eps(I, J)
            if sign:
                ep_mul_into(out.setdefault(I | J, {}), fI, gJ, sign)
    return Superfunction.from_keys(f.m, f.n, out, naux)


def sintegrate(f: Superfunction):
    """Berezin-Lebesgue integral: Lebesgue integral of the full-word coefficient.

    Returns a complex number; when auxiliary generators are present the result
    is a GrassmannElement over them (collapsed to complex if purely scalar).
    """
    full = (1 << f.n) - 1
    if f.naux == 0:
        return f.coefficient(full).integrate()
    vals: dict[int, complex] = {}
    for w, fn in f.terms.items():
        if w & full == full:
            aux_word = w >> f.n
            vals[aux_word] = vals.get(aux_word, 0j) + fn.integrate()
    elem = GrassmannElement(f.naux, vals)
    if not elem.coeffs:
        return 0j
    if set(elem.coeffs) == {0}:
        return elem.coeffs[0]
    return elem


def substitute(f: Superfunction, odd_images: Sequence[GrassmannElement], new_n: int,
               even_M=None) -> Superfunction:
    """General pullback: even linear substitution x -> M x' together with
    odd substitution of every flat generator by a constant-coefficient element
    of the target Grassmann algebra.

    ``odd_images[k]`` (one per source flat generator, ambient then auxiliary)
    is a GrassmannElement with complex coefficients on the target algebra:
    new_n ambient generators, then auxiliary ones, as many as the images'
    width leaves.  ``even_M`` is an (f.m, k) array, so x' lives on R^k;
    without it the even arguments are kept.  Products of images are taken
    left-to-right in the source word order, which is exactly how the source
    monomial was written.
    """
    if len(odd_images) != f.n + f.naux:
        raise ValueError("need one odd image per source generator")
    width = odd_images[0].n if odd_images else new_n
    if width < new_n or any(img.n != width for img in odd_images):
        raise DimensionError("odd image lives on the wrong target algebra")
    m = f.m if even_M is None else np.shape(even_M)[1]
    out: dict[int, dict] = {}
    for word, fn in f.terms.items():
        acc = GrassmannElement.one(width)
        w = word
        while w and acc:
            k = (w & -w).bit_length() - 1
            w &= w - 1
            acc = acc.wedge(odd_images[k])
        if not acc:
            continue
        if even_M is not None:
            fn = fn.affine(even_M, np.zeros(f.m))
        for new_word, coeff in acc.coeffs.items():
            ep_add_into(out.setdefault(new_word, {}), fn, coeff)
    return Superfunction.from_keys(m, new_n, out, width - new_n)


def grassmann_translate(f: Superfunction, eta: Sequence[GrassmannElement | None]) -> Superfunction:
    """Shift the ambient odd arguments: f(x, xi) -> f(x, xi + eta).

    ``eta`` has one entry per ambient odd coordinate; each entry is an odd
    GrassmannElement on the naux auxiliary generators, or None for no shift.  Even-parity entries are rejected.
    """
    shifts = list(eta)
    if len(shifts) != f.n:
        raise ValueError(f"need {f.n} odd shifts, got {len(shifts)}")
    naux = f.naux
    for s in shifts:
        if s is None:
            continue
        naux = max(naux, s.n)
        if s.coeffs and s.parity() != 1:
            raise ParityError(f"odd shift has even-parity part: {s!r}")
    width = f.n + naux
    images = []
    for a in range(f.n):
        img = GrassmannElement.monomial(width, 1 << a)
        s = shifts[a]
        if s is not None:
            for aux_word, c in s.coeffs.items():
                img = img + GrassmannElement.monomial(width, aux_word << f.n, c)
        images.append(img)
    for k in range(f.naux):
        images.append(GrassmannElement.monomial(width, 1 << (f.n + k)))
    return substitute(f, images, f.n)


# ---------------------------------------------------------------------------
# comparison


def sf_max_dev(f: Superfunction, g: Superfunction) -> float:
    """Max over Grassmann words of the coefficient deviation on the fixed
    grid; NaN when any word's deviation is NaN."""
    if (f.m, f.n) != (g.m, g.n):
        raise DimensionError("superspace mismatch")
    words = set(f.terms) | set(g.terms)
    return worst_dev(0.0, *(ep_max_dev(f.coefficient(w), g.coefficient(w)) for w in words))
