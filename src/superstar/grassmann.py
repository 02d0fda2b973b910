"""Exact exterior-algebra index calculus.

Index sets of Grassmann monomials ``xi^I`` are machine-word bit sets: bit ``k``
stands for the generator ``xi^{k+1}``.  The sign function :func:`eps` counts
transpositions with popcount tricks, and :class:`GrassmannElement` implements
the graded-commutative algebra with complex coefficients.

Auxiliary odd parameters (functor-of-points coordinates) are further bits of
the same flat word, placed after the ambient generators, so every Koszul sign
is :func:`eps` on flat words and there is no second coefficient ring.

Everything here is exact integer/complex arithmetic; no floats are produced
beyond the coefficients the caller puts in.
"""

from __future__ import annotations

from typing import Iterable, Mapping

__all__ = [
    "GrassmannElement",
    "bits_from_indices",
    "eps",
    "indices_from_bits",
]


def bits_from_indices(indices: Iterable[int]) -> int:
    """Pack 1-based generator indices into a bit set."""
    bits = 0
    for i in indices:
        if i < 1:
            raise ValueError(f"generator indices are 1-based, got {i}")
        bit = 1 << (i - 1)
        if bits & bit:
            raise ValueError(f"repeated generator index {i}")
        bits |= bit
    return bits


def indices_from_bits(bits: int) -> tuple[int, ...]:
    """Unpack a bit set into increasing 1-based generator indices."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length())
        bits ^= low
    return tuple(out)


def eps(I: int, J: int) -> int:
    """Sign of merging the increasing word ``xi^I xi^J`` into ``xi^{I|J}``.

    Returns 0 when the sets overlap, otherwise (-1)**(number of transpositions
    needed to sort the concatenation).  Each j in J must jump over the members
    of I above it, so the count is ``sum_{j in J} |{i in I : i > j}|``.
    """
    if I & J:
        return 0
    odd = 0
    rest = J
    while rest:
        low = rest & -rest
        rest ^= low
        odd ^= (I >> low.bit_length()).bit_count() & 1
    return -1 if odd else 1


class GrassmannElement:
    """Element of the Grassmann algebra on ``n`` generators.

    ``coeffs`` maps bit sets to complex coefficients, with exact zeros pruned.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: Mapping[int, complex] | None = None):
        if n < 0:
            raise ValueError("ambient odd dimension must be >= 0")
        self.n = n
        out: dict[int, complex] = {}
        full = (1 << n) - 1
        for bits, raw in (coeffs or {}).items():
            if bits & ~full:
                raise ValueError(
                    f"index set {bin(bits)} exceeds ambient dimension {n}")
            c = complex(raw)
            if c != 0:
                out[bits] = c
        self.coeffs = out

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "GrassmannElement":
        return cls(n, {})

    @classmethod
    def scalar(cls, n: int, value) -> "GrassmannElement":
        return cls(n, {0: value})

    @classmethod
    def one(cls, n: int) -> "GrassmannElement":
        return cls(n, {0: 1.0})

    @classmethod
    def monomial(cls, n: int, bits: int, coeff=1.0) -> "GrassmannElement":
        return cls(n, {bits: coeff})

    @classmethod
    def generator(cls, n: int, index: int) -> "GrassmannElement":
        """The generator ``xi^index`` (1-based)."""
        return cls(n, {bits_from_indices([index]): 1.0})

    # -- ring structure ---------------------------------------------------

    def _check_same_ambient(self, other: "GrassmannElement") -> None:
        if self.n != other.n:
            raise ValueError(
                f"ambient odd dimensions differ: {self.n} vs {other.n}")

    def __add__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        self._check_same_ambient(other)
        out = dict(self.coeffs)
        for bits, c in other.coeffs.items():
            out[bits] = out[bits] + c if bits in out else c
        return GrassmannElement(self.n, out)

    def __neg__(self):
        return GrassmannElement(
            self.n, {bits: (-1.0 + 0j) * c for bits, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, GrassmannElement):
            return self.wedge(other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, value) -> "GrassmannElement":
        c = complex(value)
        return GrassmannElement(self.n, {bits: c * v for bits, v in self.coeffs.items()})

    def wedge(self, other: "GrassmannElement") -> "GrassmannElement":
        """Graded product: (u xi^I)(v xi^J) = eps(I, J) (u v) xi^{I|J}."""
        self._check_same_ambient(other)
        acc: dict[int, complex] = {}
        for I, u in self.coeffs.items():
            for J, v in other.coeffs.items():
                sign = eps(I, J)
                if sign == 0:
                    continue
                w = u * v
                if sign < 0:
                    w = (-1.0 + 0j) * w
                K = I | J
                acc[K] = acc[K] + w if K in acc else w
        return GrassmannElement(self.n, acc)

    def parity(self) -> int | None:
        """Parity of the words mod 2, or None when mixed; zero reports 0."""
        ps = {bits.bit_count() & 1 for bits in self.coeffs}
        if len(ps) > 1:
            return None
        return ps.pop() if ps else 0

    # -- misc ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, GrassmannElement):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):  # pragma: no cover - elements are not dict keys
        return hash((self.n, frozenset(self.coeffs.items())))

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for bits in sorted(self.coeffs):
            c = self.coeffs[bits]
            mono = "".join(f"xi{i}" for i in indices_from_bits(bits)) or "1"
            parts.append(f"({c!r})*{mono}")
        return " + ".join(parts)
