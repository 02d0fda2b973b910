"""The Heisenberg supergroup on R^{2m|2r+2s} x R and its oscillator action.

Group elements carry even coordinates (q, p), odd pairs (xi, eta) and
(zeta, zetabar), and a central coordinate t.  Odd coordinates are sums over
auxiliary odd generators (numeric odd values would make every identity
involving them vacuous); t then naturally takes even auxiliary values, since
the group law feeds it the symplectic pairing of odd coordinates:

    (a, t)(a', t') = (a + a', t + t' + omega(a, a')/2),
    omega(a, a') = q.p' - p.q' + sum(xi eta' - xi' eta)
                   + (1/2) sum(zeta zbar' - zeta' zbar).

The zeta-block coefficient 1/2 is forced by the representation property of
the action below (it matches the 1/2 in front of the zeta term of the phase).

The representation on the Fock sector acts by phase-and-shift:

  (U(g) phi)(q0, xi0, zeta0) =
    exp{(2i/theta)[t + (q/2 - q0).p + (xi/2 - xi0).eta
                   + (1/2)(zeta/2 - zeta0).zbar]} phi(q0-q, xi0-xi, zeta0-zeta)

The exponential splits into a plane wave in q0 and a nilpotent part (every
remaining term carries at least one auxiliary generator), so the prefactor
is an exact finite sum.

The real form of the group has real q, p, t, real-coefficient xi, eta, and
zbar the coefficient-conjugate of zeta; superunitarity of U holds on the real
form, while the group axioms and the representation property hold for
arbitrary complex coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParityError
from .exppoly import ExpPolyFunction
from .grassmann import GrassmannElement
from .hilbert import FockSuperfunction
from .superfun import Superfunction, grassmann_translate, smul

__all__ = [
    "HeisenbergContext",
    "GroupElement",
    "group_mul",
    "group_inverse",
    "representation",
]


@dataclass(frozen=True)
class HeisenbergContext:
    """Dimensions and deformation parameter: q, p in R^m; xi, eta odd r-vectors;
    zeta, zetabar odd s-vectors."""

    theta: float
    m: int
    r: int
    s: int

    def __post_init__(self):
        if not self.theta > 0:
            raise ValueError("theta must be positive")
        if min(self.m, self.r, self.s) < 0:
            raise ValueError("dimensions must be >= 0")


def _widen(e: GrassmannElement, N: int) -> GrassmannElement:
    if e.n == N:
        return e
    if e.n > N:
        raise DimensionError("cannot narrow an auxiliary element")
    return GrassmannElement(N, dict(e.coeffs))


def _as_odd_tuple(entries, count: int, naux: int, label: str) -> tuple:
    entries = tuple(entries) if entries is not None else ()
    if len(entries) != count:
        raise DimensionError(f"{label} needs {count} entries, got {len(entries)}")
    out = []
    for e in entries:
        e = _widen(e, naux)
        if e.coeffs and e.parity() != 1:
            raise ParityError(f"{label} coordinate must be odd: {e!r}")
        out.append(e)
    return tuple(out)


@dataclass(frozen=True)
class GroupElement:
    """(q, p, xi, eta, zeta, zetabar, t) with auxiliary-ring odd coordinates."""

    q: tuple[float, ...]
    p: tuple[float, ...]
    xi: tuple[GrassmannElement, ...]
    eta: tuple[GrassmannElement, ...]
    zeta: tuple[GrassmannElement, ...]
    zetabar: tuple[GrassmannElement, ...]
    t: GrassmannElement

    @classmethod
    def make(cls, ctx: HeisenbergContext, *, q=None, p=None, xi=None, eta=None,
             zeta=None, zetabar=None, t=0.0, naux: int = 0) -> "GroupElement":
        """Normalizing constructor; omitted coordinates are zero."""
        m, r, s = ctx.m, ctx.r, ctx.s
        qv = tuple(float(x) for x in (q if q is not None else [0.0] * m))
        pv = tuple(float(x) for x in (p if p is not None else [0.0] * m))
        if len(qv) != m or len(pv) != m:
            raise DimensionError(f"q, p must have length {m}")
        zero = GrassmannElement.zero(naux)
        widths = [naux]
        for group in (xi, eta, zeta, zetabar):
            for e in group or ():
                widths.append(e.n)
        if isinstance(t, GrassmannElement):
            widths.append(t.n)
        N = max(widths)
        fill = lambda v, k: tuple(v) if v is not None else (zero,) * k
        if not isinstance(t, GrassmannElement):
            t = GrassmannElement.scalar(N, complex(t))
        else:
            t = _widen(t, N)
        if t.coeffs and t.parity() != 0:
            raise ParityError("central coordinate t must be even")
        return cls(qv, pv,
                   _as_odd_tuple(fill(xi, r), r, N, "xi"),
                   _as_odd_tuple(fill(eta, r), r, N, "eta"),
                   _as_odd_tuple(fill(zeta, s), s, N, "zeta"),
                   _as_odd_tuple(fill(zetabar, s), s, N, "zetabar"),
                   t)

    @property
    def naux(self) -> int:
        return self.t.n

    def check_dims(self, ctx: HeisenbergContext) -> None:
        if (len(self.q), len(self.xi), len(self.zeta)) != (ctx.m, ctx.r, ctx.s):
            raise DimensionError("group element does not match context dimensions")


def _common_width(g: GroupElement, h: GroupElement) -> int:
    return max(g.naux, h.naux)


def _pair_omega(g: GroupElement, h: GroupElement, N: int) -> GrassmannElement:
    """omega(a, a') over the auxiliary generators (an even element)."""
    val = GrassmannElement.scalar(
        N, complex(np.dot(g.q, h.p) - np.dot(g.p, h.q)))
    for a in range(len(g.xi)):
        val = val + _widen(g.xi[a], N).wedge(_widen(h.eta[a], N)) \
            - _widen(h.xi[a], N).wedge(_widen(g.eta[a], N))
    for c in range(len(g.zeta)):
        val = val + (_widen(g.zeta[c], N).wedge(_widen(h.zetabar[c], N))
                     - _widen(h.zeta[c], N).wedge(_widen(g.zetabar[c], N))).scale(0.5)
    return val


def group_mul(ctx: HeisenbergContext, g: GroupElement, h: GroupElement) -> GroupElement:
    """(a, t)(a', t') = (a + a', t + t' + omega(a, a')/2) — exact BCH for a
    two-step-nilpotent group."""
    g.check_dims(ctx)
    h.check_dims(ctx)
    N = _common_width(g, h)
    add_odd = lambda u, v: tuple(_widen(x, N) + _widen(y, N) for x, y in zip(u, v))
    t = _widen(g.t, N) + _widen(h.t, N) + _pair_omega(g, h, N).scale(0.5)
    return GroupElement(
        tuple(x + y for x, y in zip(g.q, h.q)),
        tuple(x + y for x, y in zip(g.p, h.p)),
        add_odd(g.xi, h.xi), add_odd(g.eta, h.eta),
        add_odd(g.zeta, h.zeta), add_odd(g.zetabar, h.zetabar), t)


def group_inverse(g: GroupElement) -> GroupElement:
    """(-a, -t); exact since omega(a, a) = 0 identically."""
    neg = lambda xs: tuple(x.scale(-1.0) for x in xs)
    return GroupElement(tuple(-x for x in g.q), tuple(-x for x in g.p),
                        neg(g.xi), neg(g.eta), neg(g.zeta), neg(g.zetabar),
                        g.t.scale(-1.0))


# ---------------------------------------------------------------------------
# the representation


def _exp_nilpotent(N: GrassmannElement) -> GrassmannElement:
    """exp of a Grassmann element every word of which carries an auxiliary bit."""
    acc = GrassmannElement.one(N.n)
    term = acc
    k = 0
    while True:
        k += 1
        term = term.wedge(N).scale(1.0 / k)
        if not term.coeffs:
            return acc
        acc = acc + term


def representation(ctx: HeisenbergContext, g: GroupElement,
                   phi: FockSuperfunction) -> FockSuperfunction:
    """Apply U(g): phase-and-shift in all coordinates, exactly."""
    g.check_dims(ctx)
    m, r, s, theta = ctx.m, ctx.r, ctx.s, ctx.theta
    if (phi.m, phi.r, phi.s) != (m, r, s):
        raise DimensionError("Fock element does not match context dimensions")
    n = r + s
    naux = max(g.naux, phi.fun.naux)
    lam = 2j / theta

    fun = Superfunction(m, n, phi.fun.terms, naux)
    if m:
        fun = fun.translate_even([-x for x in g.q])
    shifts = [_widen(e, naux).scale(-1.0) for e in (*g.xi, *g.zeta)]
    shifted = grassmann_translate(fun, shifts)

    # scalar part of the phase: t's body plus q.p/2, times the q0 plane wave
    t0 = complex(g.t.coeffs.get(0, 0.0))
    c = np.exp(lam * (t0 + np.dot(g.q, g.p) / 2))
    base = ExpPolyFunction.plane_wave(m, [-(2.0 / theta) * x for x in g.p], c)

    # nilpotent part: every term carries at least one auxiliary generator
    nil: dict[int, complex] = {}

    def add(word: int, coeff: complex) -> None:
        nil[word] = nil.get(word, 0j) + coeff

    for w, cw in g.t.coeffs.items():
        if w:
            add(w << n, lam * cw)
    for a in range(r):
        pair = _widen(g.xi[a], naux).wedge(_widen(g.eta[a], naux))
        for w, cw in pair.coeffs.items():
            add(w << n, lam * cw / 2)
        for w, cw in _widen(g.eta[a], naux).coeffs.items():
            add((1 << a) | (w << n), -lam * cw)
    for cidx in range(s):
        pair = _widen(g.zeta[cidx], naux).wedge(_widen(g.zetabar[cidx], naux))
        for w, cw in pair.coeffs.items():
            add(w << n, lam * cw / 4)
        for w, cw in _widen(g.zetabar[cidx], naux).coeffs.items():
            add((1 << (r + cidx)) | (w << n), -lam * cw / 2)

    # the nilpotent part has constant coefficients: its exponential is a
    # Grassmann element on the n + naux generators
    phase = _exp_nilpotent(GrassmannElement(n + naux, nil))
    prefactor = Superfunction(m, n, {w: base.scale(c) for w, c in phase.coeffs.items()}, naux)
    return FockSuperfunction(m, r, s, smul(prefactor, shifted))
