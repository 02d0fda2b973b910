"""The deformed product on flat superspace, in two independent implementations.

The *engine* (:func:`star`, and :func:`star_general`, which places whole
contexts on part of a larger superspace) evaluates the oscillatory kernel
integral

    (f1 * f2)(z) = pref * int dz1 dz2  e^{-(2i/theta) omega(z1,z2)} f1(z+z1) f2(z+z2)

exactly on the ExpPoly x Grassmann class, with pref = 1/(pi theta)^{2m} the
inverse of the bare kernel's integral.  Coefficients are even, so the product
factorizes per term pair into an even and an odd sector.  The even sector is
the Gaussian/Fresnel closed form of :mod:`superstar.exppoly` on a doubled
coordinate space, whose integrated block [[P, X], [X^T, Q]] has the exact
kernel coupling X = (-i/theta) Omega with X^{-1} = -i theta Omega; a constant
factor is multiplied pointwise, since every derivative of it vanishes.  The
kernel integral is linear, so the word pairs that land on one output word
share one integral: their odd-sector coefficients times their embedded even
factors are summed into one integrand per output word first.  The
odd sector is the Clifford algebra of
the odd generators (Berezin's Weyl-symbol calculus): on words, bits ambient
then auxiliary in increasing order,

    xi^U * xi^V = (-1)^{sum_{v in V} #{u in U : u > v}} prod_{a in U & V} c_a xi^{U ^ V},

with c_a = i theta_a eta_a / 2 over the active odd generators, and 0 when
U & V holds an inactive or auxiliary bit.  Both sectors are normalized by
construction, so 1 * 1 = 1 exactly, and neither product drops small terms:
blocks of the kernel inverse that vanish in exact arithmetic are exact zeros.

The *oracle* (:func:`star_oracle`) instead sums the bidifferential series
sum_k (1/k!) (sigma i theta/2)^k omega^{mu1 nu1} ... (d..f)(d..g) for
polynomial factors, uses the exact closed phase for plane-wave factors, and
Berezin-integrates the odd kernel factor prod_a (1 - (2i/theta) eta_a xi1^a
xi2^a), divided by its closed-form value on 1 * 1 ("unit_norm").  The engine
and the oracle share no code in either sector, and the oracle states its own
sign sigma = -1 rather than reading the one the engine gives.  The convention
constants (sigma, the Clifford constants c_plus, unit_norm) live in
``DeformationContext.ledger``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import isfinite, pi
from operator import add
from typing import Sequence

import numpy as np

from .errors import ClassError, DimensionError, ParameterRangeError, ParityError
from .exppoly import (ExpPolyFunction, _coefficient_sum, ep_add_into, ep_integrate_partial,
                      ep_mul, ep_mul_into)
from .grassmann import GrassmannElement, eps
from .superfun import Superfunction

__all__ = [
    "DeformationContext",
    "star",
    "star_anticomm",
    "star_comm",
    "star_general",
    "star_oracle",
]

@dataclass(frozen=True)
class DeformationContext:
    """Deformation data for R^{2m|n}: theta, dimensions, odd signature (p, q).

    theta may have either sign (the quantum-supergroup module evaluates its
    products at sampled group coordinates t of both signs); it must be
    nonzero and finite.
    """

    theta: float
    m: int
    n: int
    odd_signature: tuple[int, int] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.odd_signature is None:
            object.__setattr__(self, "odd_signature", (self.n, 0))
        p, q = self.odd_signature
        if p < 0 or q < 0 or p + q != self.n:
            raise ValueError(f"odd signature {self.odd_signature} incompatible with n={self.n}")
        if self.m < 0:
            raise ValueError("m must be >= 0")
        if self.theta == 0 or not isfinite(self.theta):
            raise ValueError(f"theta must be nonzero and finite, got {self.theta!r}")

    @property
    def eta(self) -> tuple[int, ...]:
        p, q = self.odd_signature
        return (1,) * p + (-1,) * q

    def omega_even(self) -> np.ndarray:
        """The 2m x 2m symplectic form [[0, 1_m], [-1_m, 0]]."""
        one, zero = np.eye(self.m), np.zeros((self.m, self.m))
        return np.block([[zero, one], [-one, zero]])

    @cached_property
    def ledger(self) -> dict:
        """Convention constants: sigma and c_plus computed by the engine at
        first use; unit_norm, theta^n times the odd Berezin kernel integral
        on 1 * 1, in closed form (-2i)^n (-1)^{n(n-1)/2} prod_a eta_a."""
        led: dict = {}
        n, q = self.n, self.odd_signature[1]
        led["unit_norm"] = (-2j) ** n * (-1) ** (n * (n - 1) // 2 + q)
        # sigma from the deformed commutator of the first symplectic pair
        if self.m >= 1:
            x1 = Superfunction.coordinate(2 * self.m, self.n, 0)
            x2 = Superfunction.coordinate(2 * self.m, self.n, self.m)
            comm = star(self, x1, x2) - star(self, x2, x1)
            gamma = _coefficient_sum(comm.body())
            sigma = gamma / (1j * self.theta)
            led["sigma"] = int(round(sigma.real))
        else:
            led["sigma"] = -1  # kernel-convention constant; even sector absent
        # Clifford constants xi^a * xi^a
        c_plus = []
        for a in range(1, self.n + 1):
            xa = Superfunction.xi(2 * self.m, self.n, a)
            prod = star(self, xa, xa)
            c_plus.append(_coefficient_sum(prod.body()))
        led["c_plus"] = tuple(c_plus)
        return led

    def header_json(self) -> dict:
        """theta, the dimensions and the odd signature, as reports name the context."""
        return {
            "theta": float(self.theta),
            "m": int(self.m),
            "n": int(self.n),
            "signature": [int(p) for p in self.odd_signature],
        }

    def ledger_json(self) -> dict:
        """The ledger as JSON-safe data (complex values as [re, im])."""
        led = self.ledger
        unit = led["unit_norm"]
        return {
            "sigma": int(led["sigma"]),
            "unit_norm": [unit.real, unit.imag],
            "c_plus": [[z.real, z.imag] for z in led["c_plus"]],
        }


# The former signed-theta factory; ``bench/workloads.py`` still imports it.
context_signed_theta = DeformationContext


# ---------------------------------------------------------------------------
# engine


def _is_constant(f: ExpPolyFunction) -> bool:
    return all(not any(A_ut) and not any(b) and not any(alpha)
               for (A_ut, b), poly in f.keys.items() for alpha in poly)


def _kernel_space(m: int, blocks: Sequence[tuple[DeformationContext, int, int]]):
    """The doubled space of the even-sector kernel integral: (D, (M1, M2), (X, X^{-1})).

    Its coordinates are [original m coords | copies z1 | copies z2], the
    copies in block order; M1 and M2 embed the two factors, and spectator
    coordinates (in no block) are shared by both.  The kernel coupling X and
    its exact inverse X^{-1} are block diagonal, (-i/theta) Omega and
    -i theta Omega per block.
    """
    k_act = sum(2 * ctx.m for ctx, _, _ in blocks)
    D = m + 2 * k_act
    M1 = np.zeros((m, D))
    M2 = np.zeros((m, D))
    M1[:, :m] = np.eye(m)
    M2[:, :m] = np.eye(m)
    X = np.zeros((k_act, k_act), dtype=complex)
    x_inv = np.zeros((k_act, k_act), dtype=complex)
    pref = 1.0  # only checked: ep_integrate_partial divides by 1/pref itself
    off = 0
    for ctx, even_at, _ in blocks:
        k, th = ctx.m, ctx.theta
        k2 = 2 * k
        M1[even_at:even_at + k2, m + off:m + off + k2] = np.eye(k2)
        M2[even_at:even_at + k2, m + k_act + off:m + k_act + off + k2] = np.eye(k2)
        Om = np.zeros((k2, k2))
        Om[:k, k:] = np.eye(k)
        Om[k:, :k] = -np.eye(k)
        X[off:off + k2, off:off + k2] = (-1j / th) * Om  # z1^T (2X) z2 in the exponent
        x_inv[off:off + k2, off:off + k2] = (-1j * th) * Om
        try:
            pref *= 1.0 / (pi ** k2 * th ** k2)
        except (OverflowError, ZeroDivisionError):
            pref = 0.0
        if not (isfinite(pref) and pref != 0):
            raise ParameterRangeError(
                f"theta={th!r}: the kernel prefactor 1/(pi theta)^{k2} is not "
                "a finite nonzero float")
        off += k2
    return D, (M1, M2), (X, x_inv)


def _clifford_pair(u: int, v: int, c: dict[int, complex]) -> tuple[int, complex]:
    """Odd sector for one word pair: (output word, coefficient).

    ``c`` maps the bit of each active odd generator to its Clifford constant;
    a shared bit without one (inactive or auxiliary) squares to zero.
    """
    coef: complex = 1
    odd = 0
    rest = v
    while rest:
        low = rest & -rest
        rest ^= low
        odd ^= (u >> low.bit_length()).bit_count() & 1
        if u & low:
            if low not in c:
                return u ^ v, 0
            coef *= c[low]
    return u ^ v, -coef if odd else coef


def star_general(f: Superfunction, g: Superfunction,
                 blocks: Sequence[tuple[DeformationContext, int, int]]) -> Superfunction:
    """Deformed product of whole contexts placed on part of the superspace.

    Each block ``(ctx, even_at, odd_at)`` lets ``ctx`` act on the even
    coordinates even_at .. even_at+2m-1, in the order (q, p), and on the odd
    bits odd_at .. odd_at+n-1, with its own theta and odd signature; every
    other coordinate and bit is a spectator.  :func:`star` places one context
    on the whole superspace, the universal deformation formula places it on
    the group block of a doubled superspace, and the multiplicative unitary
    on one leg of a tensor power.  A block that starts at a negative offset,
    runs past the superspace or overlaps another raises ValueError.

    Each word pair's odd factor comes from the Clifford rule.  A pair is
    multiplied pointwise when no block acts on an even coordinate or a factor
    is constant, since every derivative of a constant vanishes.  Every other
    pair adds c * embed(f_I) * embed(g_J) to its output word's integrand on
    the doubled space of :func:`_kernel_space`, which is built at the first
    such pair; each side embeds a word's coefficient once per call.  Each
    output word then takes one kernel integral, whatever the number of pairs
    that land on it: by linearity this is the sum of the per-pair integrals.
    :func:`~superstar.exppoly.ep_integrate_partial` multiplies by the
    normalized kernel from (X, X^{-1}), so the result is normalized by
    construction; with a polynomial or plane-wave factor the normalization
    is exactly 1 and no eigenvalues are computed.  The pointwise products and
    the integrals are added into one keys map per output word, which becomes
    its coefficient once, at the end.
    """
    if f.m != g.m or f.n != g.n:
        raise DimensionError(
            f"operands on different superspaces: ({f.m}|{f.n}) vs ({g.m}|{g.n})")
    even = odd = 0  # bit masks of the coordinates and generators placed so far
    clifford: dict[int, complex] = {}
    for ctx, even_at, odd_at in blocks:
        if (min(even_at, odd_at) < 0 or even_at + 2 * ctx.m > f.m
                or odd_at + ctx.n > f.n):
            raise ValueError(f"block ({2 * ctx.m}|{ctx.n}) at ({even_at}, {odd_at}) "
                             f"does not fit in ({f.m}|{f.n})")
        block_even = ((1 << 2 * ctx.m) - 1) << even_at
        block_odd = ((1 << ctx.n) - 1) << odd_at
        if even & block_even or odd & block_odd:
            raise ValueError(f"block at ({even_at}, {odd_at}) overlaps another block")
        even |= block_even
        odd |= block_odd
        for a, e in enumerate(ctx.eta):
            clifford[1 << (odd_at + a)] = 1j * ctx.theta * e / 2
    naux = f._unify(g)
    out: dict[int, dict] = {}
    integrands: dict[int, dict] = {}
    left: dict[int, ExpPolyFunction] = {}
    right: dict[int, ExpPolyFunction] = {}
    kernel = None
    for wf, ff in f.terms.items():
        for wg, gg in g.terms.items():
            word, c = _clifford_pair(wf, wg, clifford)
            if c == 0:
                continue
            if not even or _is_constant(ff) or _is_constant(gg):
                ep_mul_into(out.setdefault(word, {}), ff, gg, c)
                continue
            if kernel is None:
                D, (M1, M2), kernel = _kernel_space(f.m, blocks)
                origin = np.zeros(f.m)
            if wf not in left:
                left[wf] = ff.affine(M1, origin)
            if wg not in right:
                right[wg] = gg.affine(M2, origin)
            ep_mul_into(integrands.setdefault(word, {}), left[wf], right[wg], c)
    for word, keys in integrands.items():
        ep_add_into(out.setdefault(word, {}),
                    ep_integrate_partial(ExpPolyFunction(D, keys), f.m, kernel=kernel))
    return Superfunction.from_keys(f.m, f.n, out, naux)


def star(ctx: DeformationContext, f: Superfunction, g: Superfunction) -> Superfunction:
    """The deformed product on R^{2m|n} (kernel engine, unit-normalized)."""
    if f.m != 2 * ctx.m or f.n != ctx.n:
        raise DimensionError(
            f"function on ({f.m}|{f.n}) does not match context ({2*ctx.m}|{ctx.n})")
    return star_general(f, g, [(ctx, 0, 0)])


# ---------------------------------------------------------------------------
# oracle


def _is_poly(f: ExpPolyFunction) -> bool:
    return all(not any(A_ut) and not any(b) for A_ut, b in f.keys)


def _is_plane_wave(f: ExpPolyFunction) -> bool:
    return all(not any(A_ut) and all(z.real == 0 for z in b)
               and not any(any(alpha) for alpha in poly)
               for (A_ut, b), poly in f.keys.items())


# The kernel convention e^{-(2i/theta) omega}: [x^mu, x^nu] = sigma i theta
# omega^{mu nu}.  Stated, not measured, so an engine sign error cannot reach
# the oracle.
_SIGMA = -1


def _oracle_even_pair(ff: ExpPolyFunction, gg: ExpPolyFunction, theta: float,
                      Om: np.ndarray) -> ExpPolyFunction:
    d = ff.d
    lam = _SIGMA * 1j * theta / 2
    if _is_plane_wave(ff) and _is_plane_wave(gg):
        zero = (0,) * d
        keys: dict = {}
        for (A_ut, b1), p1 in ff.keys.items():
            k1 = np.asarray(b1).imag
            for (_, b2), p2 in gg.keys.items():
                u = float(k1 @ Om @ np.asarray(b2).imag)
                phase = complex(np.exp(-_SIGMA * 1j * theta * u / 2))
                poly = keys.setdefault((A_ut, tuple(map(add, b1, b2))), {})
                poly[zero] = poly.get(zero, 0j) + p1[zero] * p2[zero] * phase
        return ExpPolyFunction(d, keys)
    if not ((_is_poly(ff) or _is_plane_wave(ff)) and (_is_poly(gg) or _is_plane_wave(gg))):
        raise ClassError("oracle supports polynomial or plane-wave even parts only")
    # bidifferential series; terminates because at least one side is polynomial
    pairs = [(ff, gg)]
    total = ExpPolyFunction.zero(d)
    weight = 1.0 + 0j
    k = 0
    while pairs:
        for F, G in pairs:
            total = total + ep_mul(F, G).scale(weight)
        k += 1
        if k > 400:  # pragma: no cover - guarded by the class check
            raise ClassError("series did not terminate")
        weight *= lam / k
        nxt = []
        for F, G in pairs:
            for mu in range(d):
                Fm = F.derive(mu)
                if Fm.is_zero:
                    continue
                for nu in range(d):
                    if Om[mu, nu] == 0:
                        continue
                    Gn = G.derive(nu)
                    if Gn.is_zero:
                        continue
                    nxt.append((Fm.scale(Om[mu, nu]), Gn))
        pairs = nxt
    return total


def _odd_star_pair(wf: int, wg: int, n: int, naux: int,
                   odd_gens: Sequence[tuple[int, int, float]]) -> dict[int, complex]:
    """Odd Berezin kernel integral for one word pair: {output word: coefficient}, raw.

    ``odd_gens`` lists the active generators as (1-based index, eta, theta).

    Big algebra layout: [ambient (n) | copies xi1 | copies xi2 | aux]; the
    Berezin measure extracts the copy bits against their increasing order,
    with the crossing sign eps(kept, integrated).
    """
    act = [a - 1 for a, _, _ in odd_gens]
    n_act = len(act)
    width = n + 2 * n_act + naux
    pos1 = {a: n + i for i, a in enumerate(act)}
    pos2 = {a: n + n_act + i for i, a in enumerate(act)}

    def image(word: int, pos: dict[int, int]) -> GrassmannElement:
        acc = GrassmannElement.one(width)
        w = word
        while w and acc:
            k = (w & -w).bit_length() - 1
            w &= w - 1
            if k >= n:
                img = GrassmannElement.monomial(width, 1 << (k + 2 * n_act))
            elif k in pos:
                img = (GrassmannElement.monomial(width, 1 << k)
                       + GrassmannElement.monomial(width, 1 << pos[k]))
            else:
                img = GrassmannElement.monomial(width, 1 << k)
            acc = acc.wedge(img)
        return acc

    kern = GrassmannElement.one(width)
    for a1, e, th in odd_gens:
        a = a1 - 1
        pair = (1 << pos1[a]) | (1 << pos2[a])
        factor = GrassmannElement(width, {0: 1.0, pair: -2j * e / th})
        kern = kern.wedge(factor)
    integrand = kern.wedge(image(wf, pos1)).wedge(image(wg, pos2))
    M = 0
    for a in act:
        M |= (1 << pos1[a]) | (1 << pos2[a])
    out: dict[int, complex] = {}
    for W, c in integrand.coeffs.items():
        if W & M != M:
            continue
        kept = W & ~M
        sign = eps(kept, M)
        amb = kept & ((1 << n) - 1)
        aux_bits = kept >> (n + 2 * n_act)
        word = amb | (aux_bits << n)
        out[word] = out.get(word, 0j) + sign * complex(c)
    return out


def star_oracle(ctx: DeformationContext, f: Superfunction, g: Superfunction) -> Superfunction:
    """Independent product evaluation on the polynomial/plane-wave class.

    Even sector by the terminating bidifferential series or the closed
    plane-wave phase; odd sector by a finite Berezin expansion of the kernel
    factor, divided by the ledger's closed-form ``unit_norm``.  Neither
    sector shares code with the engine, so this also audits that constant.
    """
    if f.m != 2 * ctx.m or f.n != ctx.n:
        raise DimensionError("function does not match context")
    naux = f._unify(g)
    unit_norm = ctx.ledger["unit_norm"]
    Om = ctx.omega_even()
    theta_odd = float(ctx.theta) ** ctx.n
    gens = [(a + 1, e, ctx.theta) for a, e in enumerate(ctx.eta)]
    out: dict[int, ExpPolyFunction] = {}
    for wf, ff in f.terms.items():
        for wg, gg in g.terms.items():
            even = _oracle_even_pair(ff, gg, ctx.theta, Om)
            if even.is_zero:
                continue
            odd = _odd_star_pair(wf, wg, f.n, naux, gens)
            for word, c in odd.items():
                piece = even.scale(c * theta_odd / unit_norm)
                out[word] = out[word] + piece if word in out else piece
    return Superfunction(f.m, f.n, out, naux)


# ---------------------------------------------------------------------------
# commutators


def _graded_sign(f: Superfunction, g: Superfunction) -> float:
    pf, pg = f.parity(), g.parity()
    if pf == 0 or pg == 0:
        return 1.0
    if pf is None or pg is None:
        raise ParityError("graded bracket needs homogeneous (or even) inputs")
    return -1.0 if (pf * pg) % 2 else 1.0


def star_comm(ctx: DeformationContext, f: Superfunction, g: Superfunction) -> Superfunction:
    """Graded star commutator f*g - (-1)^{|f||g|} g*f."""
    sign = _graded_sign(f, g)
    return star(ctx, f, g) - star(ctx, g, f).scale(sign)


def star_anticomm(ctx: DeformationContext, f: Superfunction, g: Superfunction) -> Superfunction:
    """Graded star anticommutator f*g + (-1)^{|f||g|} g*f."""
    sign = _graded_sign(f, g)
    return star(ctx, f, g) + star(ctx, g, f).scale(sign)
