"""Finitely presented noncommutative supertorus with exact normal-form rewriting.

Generators: even unitaries U_1..U_m, V_1..V_m and odd self-adjoint Gamma_1..
Gamma_p, Xi_1..Xi_q, subject to

    V_j U_j = e^{-2 pi i theta} U_j V_j      (same index; others commute)
    Gamma_k^2 = i theta,   Xi_l^2 = -i theta
    distinct odd generators anticommute

Every element is a sum of normal words U^a V^b Gamma^S Xi^T (integer vectors
a, b; index sets S, T increasing).  Coefficients live in an exact scalar ring
of sums  c * theta^j * e^{2 pi i theta k}  (c complex, j >= 0, k integer), so
relation checks never compare floating-point phases.
"""

from __future__ import annotations

import cmath
import re
from typing import Iterable

__all__ = [
    "TorusScalar",
    "SupertorusElement",
    "torus_normal_form",
    "torus_mul",
    "torus_dagger",
    "parse_torus_tokens",
]


class TorusScalar:
    """Exact scalar: finite sum of c * theta^j * e^{2 pi i theta k}."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[tuple[int, int], complex] | None = None):
        out: dict[tuple[int, int], complex] = {}
        for (j, k), c in (terms or {}).items():
            if c != 0:
                key = (int(j), int(k))
                out[key] = out.get(key, 0j) + complex(c)
        self.terms = {key: c for key, c in out.items() if c != 0}

    # -- constructors --------------------------------------------------------
    @classmethod
    def of(cls, c: complex, theta_pow: int = 0, phase_k: int = 0) -> "TorusScalar":
        return cls({(theta_pow, phase_k): complex(c)})

    @classmethod
    def one(cls) -> "TorusScalar":
        return cls.of(1.0)

    # -- ring ops -------------------------------------------------------------
    def __add__(self, other: "TorusScalar") -> "TorusScalar":
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out.get(key, 0j) + c
        return TorusScalar(out)

    def __mul__(self, other: "TorusScalar") -> "TorusScalar":
        out: dict[tuple[int, int], complex] = {}
        for (j1, k1), c1 in self.terms.items():
            for (j2, k2), c2 in other.terms.items():
                key = (j1 + j2, k1 + k2)
                out[key] = out.get(key, 0j) + c1 * c2
        return TorusScalar(out)

    def scale(self, c) -> "TorusScalar":
        return TorusScalar({key: v * c for key, v in self.terms.items()})

    def __neg__(self) -> "TorusScalar":
        return self.scale(-1.0)

    def __sub__(self, other: "TorusScalar") -> "TorusScalar":
        return self + (-other)

    def conj(self) -> "TorusScalar":
        return TorusScalar({(j, -k): complex(c).conjugate()
                            for (j, k), c in self.terms.items()})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, TorusScalar) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def evaluate(self, theta: float) -> complex:
        import numpy as np
        return sum(c * theta ** j * np.exp(2j * np.pi * theta * k)
                   for (j, k), c in self.terms.items()) + 0j

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for (j, k), c in sorted(self.terms.items()):
            s = f"({c})"
            if j:
                s += f"*theta^{j}"
            if k:
                s += f"*e^(2pi i theta * {k})"
            bits.append(s)
        return " + ".join(bits)


# word key: (a: tuple[int] length m, b: tuple[int] length m, S mask, T mask)
Word = tuple[tuple[int, ...], tuple[int, ...], int, int]


def _insert_odd(mask: int, k: int, square: TorusScalar,
                coeff: TorusScalar) -> tuple[int, TorusScalar]:
    """Multiply the sorted odd monomial ``mask`` by generator ``k`` from the right."""
    higher = (mask >> (k + 1)).bit_count()
    if higher % 2:
        coeff = -coeff
    if mask >> k & 1:
        return mask & ~(1 << k), coeff * square
    return mask | (1 << k), coeff


class SupertorusElement:
    """Sum of normal-ordered words with exact scalar coefficients."""

    __slots__ = ("m", "p", "q", "words")

    def __init__(self, m: int, p: int, q: int,
                 words: dict[Word, TorusScalar] | None = None):
        self.m, self.p, self.q = m, p, q
        out: dict[Word, TorusScalar] = {}
        for word, c in (words or {}).items():
            a, b, S, T = word
            if len(a) != m or len(b) != m:
                raise ValueError(f"word lattice part {a}, {b} does not match m={m}")
            if S >> p or T >> q:
                raise ValueError("odd index out of range")
            if not c.is_zero:
                key = (tuple(a), tuple(b), int(S), int(T))
                out[key] = out[key] + c if key in out else c
        self.words = {w: c for w, c in out.items() if not c.is_zero}

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zero(cls, m: int, p: int, q: int) -> "SupertorusElement":
        return cls(m, p, q)

    @classmethod
    def identity(cls, m: int, p: int, q: int) -> "SupertorusElement":
        z = (0,) * m
        return cls(m, p, q, {(z, z, 0, 0): TorusScalar.one()})

    @classmethod
    def U(cls, m: int, p: int, q: int, j: int, exp: int = 1) -> "SupertorusElement":
        if not 1 <= j <= m:
            raise ValueError(f"U index {j} not in 1..{m}")
        a = tuple(exp if i == j - 1 else 0 for i in range(m))
        return cls(m, p, q, {(a, (0,) * m, 0, 0): TorusScalar.one()})

    @classmethod
    def V(cls, m: int, p: int, q: int, j: int, exp: int = 1) -> "SupertorusElement":
        if not 1 <= j <= m:
            raise ValueError(f"V index {j} not in 1..{m}")
        b = tuple(exp if i == j - 1 else 0 for i in range(m))
        return cls(m, p, q, {((0,) * m, b, 0, 0): TorusScalar.one()})

    @classmethod
    def Gamma(cls, m: int, p: int, q: int, k: int) -> "SupertorusElement":
        if not 1 <= k <= p:
            raise ValueError(f"Gamma index {k} not in 1..{p}")
        return cls(m, p, q, {((0,) * m, (0,) * m, 1 << (k - 1), 0): TorusScalar.one()})

    @classmethod
    def Xi(cls, m: int, p: int, q: int, k: int) -> "SupertorusElement":
        if not 1 <= k <= q:
            raise ValueError(f"Xi index {k} not in 1..{q}")
        return cls(m, p, q, {((0,) * m, (0,) * m, 0, 1 << (k - 1)): TorusScalar.one()})

    # -- linear structure -----------------------------------------------------
    def _check(self, other: "SupertorusElement") -> None:
        if (self.m, self.p, self.q) != (other.m, other.p, other.q):
            raise ValueError("supertorus elements on different generator sets")

    def __add__(self, other: "SupertorusElement") -> "SupertorusElement":
        self._check(other)
        out = dict(self.words)
        for w, c in other.words.items():
            out[w] = out[w] + c if w in out else c
        return SupertorusElement(self.m, self.p, self.q, out)

    def __sub__(self, other: "SupertorusElement") -> "SupertorusElement":
        return self + other.scale(-1.0)

    def scale(self, c) -> "SupertorusElement":
        if not isinstance(c, TorusScalar):
            c = TorusScalar.of(c)
        return SupertorusElement(self.m, self.p, self.q,
                                 {w: v * c for w, v in self.words.items()})

    @property
    def is_zero(self) -> bool:
        return not self.words

    def __eq__(self, other) -> bool:
        return (isinstance(other, SupertorusElement)
                and (self.m, self.p, self.q) == (other.m, other.p, other.q)
                and self.words == other.words)

    def __hash__(self):
        return hash((self.m, self.p, self.q, frozenset(self.words.items())))

    # -- multiplication -------------------------------------------------------
    def _mul_word(self, w1: Word, w2: Word, c: TorusScalar) -> tuple[Word, TorusScalar]:
        a1, b1, S1, T1 = w1
        a2, b2, S2, T2 = w2
        # V^{b1} crosses U^{a2}: phase e^{-2 pi i theta} per elementary crossing
        crossings = sum(x * y for x, y in zip(b1, a2))
        if crossings:
            c = c * TorusScalar.of(1.0, 0, -crossings)
        a = tuple(x + y for x, y in zip(a1, a2))
        b = tuple(x + y for x, y in zip(b1, b2))
        # insert Gamma generators of w2 (ascending); each crosses Xi^{T1} first
        S, T = S1, T1
        t_size = T.bit_count()
        gamma_sq = TorusScalar.of(1j, 1, 0)
        xi_sq = TorusScalar.of(-1j, 1, 0)
        rest = S2
        while rest:
            k = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if t_size % 2:
                c = -c
            S, c = _insert_odd(S, k, gamma_sq, c)
        rest = T2
        while rest:
            k = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            T, c = _insert_odd(T, k, xi_sq, c)
        return (a, b, S, T), c

    def __mul__(self, other: "SupertorusElement") -> "SupertorusElement":
        self._check(other)
        out: dict[Word, TorusScalar] = {}
        for w1, c1 in self.words.items():
            for w2, c2 in other.words.items():
                word, c = self._mul_word(w1, w2, c1 * c2)
                out[word] = out[word] + c if word in out else c
        return SupertorusElement(self.m, self.p, self.q, out)

    # -- involution -----------------------------------------------------------
    def dagger(self) -> "SupertorusElement":
        """Superinvolution: conjugate coefficients, reverse words, with
        U, V unitary and Gamma, Xi self-adjoint."""
        out = SupertorusElement.zero(self.m, self.p, self.q)
        for (a, b, S, T), c in self.words.items():
            ell = S.bit_count() + T.bit_count()
            sign = -1.0 if (ell * (ell - 1) // 2) % 2 else 1.0
            tokens: list[tuple[str, int, int]] = []
            for k in range(self.q - 1, -1, -1):
                if T >> k & 1:
                    tokens.append(("X", k + 1, 1))
            for k in range(self.p - 1, -1, -1):
                if S >> k & 1:
                    tokens.append(("G", k + 1, 1))
            for j in range(self.m):
                if b[j]:
                    tokens.append(("V", j + 1, -b[j]))
            for j in range(self.m):
                if a[j]:
                    tokens.append(("U", j + 1, -a[j]))
            out = out + _from_tokens(self.m, self.p, self.q, tokens,
                                     c.conj().scale(sign))
        return out

    def word_text(self, word: Word) -> str:
        """A normal-ordered word as text, such as ``U1^2 V1 G1``; ``1`` when empty."""
        a, b, S, T = word
        gens = [f"U{j+1}" + (f"^{e}" if e != 1 else "") for j, e in enumerate(a) if e]
        gens += [f"V{j+1}" + (f"^{e}" if e != 1 else "") for j, e in enumerate(b) if e]
        gens += [f"G{k+1}" for k in range(self.p) if S >> k & 1]
        gens += [f"X{k+1}" for k in range(self.q) if T >> k & 1]
        return " ".join(gens) if gens else "1"

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        return "  +  ".join(f"[{c!r}] {self.word_text(w)}"
                            for w, c in sorted(self.words.items()))


def _from_tokens(m: int, p: int, q: int, tokens: Iterable[tuple[str, int, int]],
                 coeff: TorusScalar) -> SupertorusElement:
    acc = SupertorusElement.identity(m, p, q).scale(coeff)
    for kind, index, exp in tokens:
        if kind == "U":
            g = SupertorusElement.U(m, p, q, index, exp)
        elif kind == "V":
            g = SupertorusElement.V(m, p, q, index, exp)
        elif kind == "G":
            g = SupertorusElement.Gamma(m, p, q, index)
        elif kind == "X":
            g = SupertorusElement.Xi(m, p, q, index)
        else:
            raise ValueError(f"unknown generator kind {kind!r}")
        acc = acc * g
    return acc


_TOKEN_RE = re.compile(r"^([UVGX])(\d+)(?:\^(-?\d+))?$")


def parse_torus_tokens(text: str) -> tuple[list[tuple[str, int, int]], complex]:
    """Parse a word like "V1 U1 G1 G1" or "0.5j V1 U2^-1 X1".

    A leading bare number (Python complex syntax) scales the word; generator
    tokens are U/V/G/X followed by a 1-based index, with an optional integer
    power on U and V.
    """
    coeff = 1.0 + 0j
    tokens: list[tuple[str, int, int]] = []
    parts = text.replace("*", " ").split()
    for i, part in enumerate(parts):
        mobj = _TOKEN_RE.match(part)
        if mobj:
            kind, idx, exp = mobj.group(1), int(mobj.group(2)), mobj.group(3)
            e = int(exp) if exp is not None else 1
            if kind in ("G", "X") and e != 1:
                raise ValueError("powers are only supported on U and V; "
                                 "repeat odd generators explicitly")
            tokens.append((kind, idx, e))
            continue
        if i == 0:
            try:
                coeff = complex(part)
            except ValueError:
                pass
            else:
                if not cmath.isfinite(coeff):
                    raise ValueError(f"coefficient {part!r} is not finite")
                continue
        raise ValueError(f"cannot parse token {part!r}")
    return tokens, coeff


def torus_normal_form(tokens_or_text, m: int | None = None, p: int | None = None,
                      q: int | None = None, coeff: complex = 1.0) -> SupertorusElement:
    """Normal-order a generator word (token list or string form)."""
    if isinstance(tokens_or_text, str):
        tokens, text_coeff = parse_torus_tokens(tokens_or_text)
        coeff = coeff * text_coeff
    else:
        tokens = [(k, i, e) for k, i, e in tokens_or_text]
    if m is None:
        m = max((i for k, i, _ in tokens if k in "UV"), default=1)
    if p is None:
        p = max((i for k, i, _ in tokens if k == "G"), default=0)
    if q is None:
        q = max((i for k, i, _ in tokens if k == "X"), default=0)
    return _from_tokens(m, p, q, tokens, TorusScalar.of(coeff))


def torus_mul(e1: SupertorusElement, e2: SupertorusElement) -> SupertorusElement:
    return e1 * e2


def torus_dagger(e: SupertorusElement) -> SupertorusElement:
    return e.dagger()
