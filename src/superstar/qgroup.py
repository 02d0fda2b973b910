"""Solvable quantum supergroup on G' = R^{1|0} x|_pi R^{2m|n}.

The function space is spanned by separable terms u(t) f(z) with u a smooth
profile of the dilation coordinate t and f a superfunction of z.  The product
deforms only the z-direction, with deformation parameter theta = t, so the
product of two elements is characterized by its evaluations at fixed t != 0.
Products and Hopf operations take the t-dependence out of the symbolic
profile class (phases like e^{-2i/t}), so every element, on one leg or on
several, is one type: a ``QGroupElement`` evaluated at a t-tuple on demand
and cached, never a closed form in t.

Group law, with pi_t the one-parameter dilation of the symplectic part:

    (t, z) . (t', z') = (t + t', pi_{t'} z + z'),   (t, z)^{-1} = (-t, -pi_{-t} z)

The shipped default is the hyperbolic dilation q_j -> e^{w_j t} q_j,
p_j -> e^{-w_j t} p_j (weights w_j = 1), identity on the odd generators.
This is forced, not chosen: the coproduct is an algebra homomorphism for the
t-parametrized product only if pi_t preserves the graded symplectic form
exactly — the plane-wave phases add as theta-slices t1 + t2, so the twisted
momenta must leave omega(k, k') invariant, and the odd Clifford constants
i t eta/2 likewise forbid any rescaling of the odd generators.  A uniform
scaling e^t Id breaks the pentagon identity (deviation O(1)); the hyperbolic
choice passes it at machine precision.  pi_t has unit superdeterminant, so
G' is unimodular and the graded L^2 pairing needs no modular weight.

Hopf structure: Delta f((t1,z1),(t2,z2)) = f(t1+t2, pi_{t2} z1 + z2); the
counit evaluates at the identity; the antipode precomposes with inversion.
The multiplicative-unitary analogue acts on legs (i, j) of a tensor power by

    W(f1 (x) f2) = (Delta f1) * (1 (x) f2)

with the deformed product taken legwise (theta = t_j on leg j, where the
second factor is supported); the pentagon identity W12 W13 W23 = W23 W12 is
verified numerically on sampled t-triples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ClassError, DimensionError, SingularityError
from .exppoly import ExpPolyFunction, _triangle, worst_dev
from .grassmann import GrassmannElement
from .hilbert import inner_l2
from .starprod import DeformationContext, star, star_general
from .superfun import (
    Superfunction,
    sf_max_dev,
    smul,
    substitute,
)

__all__ = [
    "QGroupContext",
    "QGroupElement",
    "qg_star",
    "coproduct",
    "counit",
    "antipode",
    "tensor",
    "w_apply",
    "pentagon_check",
]


@dataclass(frozen=True)
class QGroupContext:
    """Dimensions, odd signature, and dilation weights of the translation
    part R^{2m|n}.

    ``dilation_weights`` configures pi_t: symplectic pair j transforms as
    q_j -> e^{w_j t} q_j, p_j -> e^{-w_j t} p_j (odd generators fixed), the
    general form-preserving diagonal dilation.  Default: all weights 1."""

    m: int
    n: int
    odd_signature: tuple[int, int] = None  # type: ignore[assignment]
    dilation_weights: tuple[float, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.odd_signature is None:
            object.__setattr__(self, "odd_signature", (self.n, 0))
        if self.dilation_weights is None:
            object.__setattr__(self, "dilation_weights", (1.0,) * self.m)
        p, q = self.odd_signature
        if self.m < 0 or p < 0 or q < 0 or p + q != self.n:
            raise ValueError("inconsistent quantum supergroup dimensions")
        if len(self.dilation_weights) != self.m:
            raise ValueError("need one dilation weight per symplectic pair")

    @property
    def d(self) -> int:
        return 2 * self.m

    def dilation_diag(self, t: float) -> np.ndarray:
        """Diagonal of pi_t on the even coordinates (q_1..q_m, p_1..p_m)."""
        w = np.asarray(self.dilation_weights, dtype=float)
        return np.concatenate([np.exp(w * t), np.exp(-w * t)])

    def star_context(self, t: float):
        if t == 0:
            raise SingularityError("the deformed product is singular at t = 0")
        return DeformationContext(float(t), self.m, self.n, self.odd_signature)


class QGroupElement:
    """Element on ``nlegs`` legs, evaluated lazily in t: ``at`` at a t-tuple
    yields a Superfunction on the legs' z-variables.  Results are cached per
    t-tuple; the cache is confined to this object (one per verification
    run).  A function singular at some t raises there itself."""

    __slots__ = ("nlegs", "_fn", "_cache")

    def __init__(self, nlegs: int, fn):
        self.nlegs = nlegs
        self._fn = fn
        self._cache: dict[tuple[float, ...], Superfunction] = {}

    @classmethod
    def constant(cls, qctx: QGroupContext, c=1.0) -> "QGroupElement":
        return cls.separable(qctx, ExpPolyFunction.const(1, c),
                             Superfunction.one(qctx.d, qctx.n))

    @classmethod
    def separable(cls, qctx: QGroupContext, u: ExpPolyFunction,
                  f: Superfunction) -> "QGroupElement":
        """The one-leg element u(t) f(z)."""
        if u.d != 1:
            raise DimensionError("t-profile must be a function of one variable")
        if f.m != qctx.d or f.n != qctx.n:
            raise DimensionError(
                f"z-part on ({f.m}|{f.n}) does not match group ({qctx.d}|{qctx.n})")
        return cls(1, lambda t: f.scale(complex(u.eval(np.array([[t]]))[0])))

    def at(self, *ts: float) -> Superfunction:
        if len(ts) != self.nlegs:
            raise DimensionError(f"need {self.nlegs} t-values, got {len(ts)}")
        key = tuple(float(t) for t in ts)
        if key not in self._cache:
            self._cache[key] = self._fn(*key)
        return self._cache[key]


# ---------------------------------------------------------------------------
# product and Hopf operations


def qg_star(qctx: QGroupContext, f1, f2) -> QGroupElement:
    """Deformed product on G': at each t, the flat deformed product with
    theta = t (signed); singular at t = 0."""

    def fn(t):
        ctx = qctx.star_context(t)
        return star(ctx, f1.at(t), f2.at(t))

    return QGroupElement(1, fn)


def _embed_leg(qctx: QGroupContext, g: Superfunction, leg: int, nlegs: int) -> Superfunction:
    d, n = qctx.d, qctx.n
    D, N = nlegs * d, nlegs * n
    M = np.zeros((d, D))
    for i in range(d):
        M[i, leg * d + i] = 1.0
    images = [GrassmannElement.monomial(N, 1 << (leg * n + k)) for k in range(n)]
    return substitute(g, images, N, M)


def coproduct(qctx: QGroupContext, f) -> QGroupElement:
    """Delta f((t1,z1),(t2,z2)) = f((t1,z1).(t2,z2)) = f(t1+t2, pi_{t2} z1 + z2):
    the evaluation at t1 + t2 on leg 0, pulled back by the twist
    z1 -> pi_{t2} z1 + z2."""

    def fn(t1, t2):
        return _coproduct_twist(qctx, _embed_leg(qctx, f.at(t1 + t2), 0, 2), 0, 1, 2, t2)

    return QGroupElement(2, fn)


def counit(f) -> complex:
    """Evaluation at the group identity (t, z) = (0, 0); a function singular
    at t = 0, such as a deformed product, raises there."""
    g = f.at(0.0)
    return complex(g.body().eval(np.zeros((1, g.m)))[0])


def antipode(qctx: QGroupContext, f) -> QGroupElement:
    """S(f)(t, z) = f((t,z)^{-1}) = f(-t, -pi_{-t} z); evaluated per t since
    the dilation factors are not symbolic profiles in t."""
    d, n = qctx.d, qctx.n

    def fn(t):
        M = np.diag(-qctx.dilation_diag(-t))
        images = [GrassmannElement.monomial(n, 1 << k, -1.0) for k in range(n)]
        g = f.at(-t)
        return substitute(g, images, n, M)

    return QGroupElement(1, fn)


# ---------------------------------------------------------------------------
# multi-leg machinery and the multiplicative unitary


def tensor(qctx: QGroupContext, legs) -> QGroupElement:
    """f_1 (x) ... (x) f_N as an N-leg element."""
    legs = list(legs)
    N = len(legs)

    def fn(*ts):
        out = None
        for leg, (f, t) in enumerate(zip(legs, ts)):
            piece = _embed_leg(qctx, f.at(t), leg, N)
            out = piece if out is None else smul(out, piece)
        return out

    return QGroupElement(N, fn)


def _split_leg(qctx: QGroupContext, G: Superfunction, j: int, nlegs: int):
    """Write G = sum_alpha sign_alpha * R_alpha * S_alpha with S carrying all
    leg-j dependence and R none, both on the full leg space.  Requires each
    key to be uncoupled between leg j and the rest (no Gaussian cross-block)."""
    d, n = qctx.d, qctx.n
    D = nlegs * d
    on_j = [j * d <= k < (j + 1) * d for k in range(D)]
    rows, cols, _ = _triangle(D)
    on = np.array(on_j, dtype=int)
    # per entry of A_ut, in exppoly's order: 0 rest block, 1 cross block, 2 leg-j block
    block = (on[rows] + on[cols]).tolist()
    jmask = ((1 << n) - 1) << (j * n)
    above = ~((1 << ((j + 1) * n)) - 1)
    pieces = []
    for word, fn in G.terms.items():
        wj = word & jmask
        wr = word & ~jmask
        sign = -1.0 if ((wj.bit_count() * (word & above).bit_count()) % 2) else 1.0
        for (A_ut, b), poly in fn.keys.items():
            scale = max(1.0, max(map(abs, A_ut), default=0.0))
            if any(blk == 1 and abs(a) > 1e-13 * scale for blk, a in zip(block, A_ut)):
                raise ClassError(
                    "term couples leg variables through a Gaussian block; "
                    "no finite separable decomposition")
            key_S = (tuple(a if blk == 2 else 0j for blk, a in zip(block, A_ut)),
                     tuple(x if on else 0j for on, x in zip(on_j, b)))
            key_R = (tuple(0j if blk == 2 else a for blk, a in zip(block, A_ut)),
                     tuple(0j if on else x for on, x in zip(on_j, b)))
            for alpha, c in poly.items():
                alpha_S = tuple(a if on else 0 for on, a in zip(on_j, alpha))
                alpha_R = tuple(0 if on else a for on, a in zip(on_j, alpha))
                R = Superfunction(D, nlegs * n, {wr: ExpPolyFunction(D, {key_R: {alpha_R: c}})})
                S = Superfunction(D, nlegs * n,
                                  {wj: ExpPolyFunction(D, {key_S: {alpha_S: 1 + 0j}})})
                pieces.append((R, S, sign))
    return pieces


def _coproduct_twist(qctx: QGroupContext, G: Superfunction, i: int, j: int,
                     nlegs: int, t: float) -> Superfunction:
    """Pullback by z_i -> pi_t z_i + z_j on the leg space."""
    d, n = qctx.d, qctx.n
    D, N = nlegs * d, nlegs * n
    diag = qctx.dilation_diag(t)
    M = np.eye(D)
    for k in range(d):
        M[i * d + k, i * d + k] = diag[k]
        M[i * d + k, j * d + k] = 1.0
    images = []
    for g in range(N):
        img = GrassmannElement.monomial(N, 1 << g)
        if i * n <= g < (i + 1) * n:
            img = img + GrassmannElement.monomial(
                N, 1 << (j * n + (g - i * n)))
        images.append(img)
    return substitute(G, images, N, M)


def w_apply(qctx: QGroupContext, F, i: int, j: int) -> QGroupElement:
    """The multiplicative-unitary analogue on legs (i, j) of ``F``:

        W_ij = (Delta_i on legs (i, j))  then deformed product against the
        original leg-j content, with theta = t_j.

    On separable input this is literally (Delta f_i) * (1 (x) f_j)."""
    if not 0 <= i < j < F.nlegs:
        raise DimensionError(f"need 0 <= i < j < {F.nlegs}")
    d, n = qctx.d, qctx.n
    N = F.nlegs

    def fn(*ts):
        t_j = ts[j]
        blocks = [(qctx.star_context(t_j), j * d, j * n)]
        ts_F = list(ts)
        ts_F[i] = ts[i] + t_j
        G = F.at(*ts_F)
        out = Superfunction.zero(N * d, N * n)
        for R, S, sign in _split_leg(qctx, G, j, N):
            Rt = _coproduct_twist(qctx, R, i, j, N, t_j)
            out = out + star_general(Rt, S, blocks).scale(sign)
        return out

    return QGroupElement(N, fn)


# ---------------------------------------------------------------------------
# verification


def _sample_elements(qctx: QGroupContext, rng, count: int,
                     z_kind: str = "pw") -> list[QGroupElement]:
    d, n = qctx.d, qctx.n
    out = []
    for _ in range(count):
        u = ExpPolyFunction.plane_wave(1, [rng.uniform(-1, 1)],
                                       complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        terms: dict[int, ExpPolyFunction] = {}
        for _ in range(int(rng.integers(1, 3))):
            word = int(rng.integers(0, 1 << n)) if n else 0
            if z_kind == "pw":
                fn = ExpPolyFunction.plane_wave(
                    d, rng.uniform(-1.5, 1.5, d),
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            else:
                L = rng.normal(size=(d, d)) * 0.3
                A = -(L @ L.T + 0.5 * np.eye(d))
                fn = ExpPolyFunction.gaussian(
                    d, A, 0.4 * rng.normal(size=d),
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
            terms[word] = terms[word] + fn if word in terms else fn
        out.append(QGroupElement.separable(qctx, u, Superfunction(d, n, terms)))
    return out


def _t_triple(rng) -> tuple[float, float, float]:
    while True:
        ts = tuple(float(rng.uniform(0.3, 1.3) * rng.choice([-1.0, 1.0]))
                   for _ in range(3))
        combos = [ts[0], ts[1], ts[2], ts[1] + ts[2], ts[0] + ts[1],
                  ts[0] + ts[1] + ts[2]]
        if min(abs(c) for c in combos) > 0.05:
            return ts


def pentagon_check(qctx: QGroupContext, t_samples: int = 5, seed: int = 0,
                   tol: float = 1e-8) -> dict:
    """Verify W12 W13 W23 = W23 W12 on sampled plane-wave legs and t-triples.

    Also checks the exactness of the all-constant case and the
    superunitarity of W with respect to the graded L^2(G' x G') pairing
    (pointwise in t after the measure-preserving shift t1 -> t1 + t2) at
    three sampled (t1, t2) slices, listed under ``superunitarity["slices"]``
    with their worst as its ``deviation``.
    Raises ValueError for ``t_samples < 1``, which would pass on nothing."""
    if t_samples < 1:
        raise ValueError(f"t_samples must be >= 1, got {t_samples}")
    rng = np.random.default_rng(seed)
    report: dict = {"t_samples": int(t_samples), "seed": int(seed),
                    "tolerance": float(tol)}

    # all-constant legs: both sides equal the constant tensor exactly
    ones = [QGroupElement.constant(qctx) for _ in range(3)]
    T1 = tensor(qctx, ones)
    lhs = w_apply(qctx, w_apply(qctx, w_apply(qctx, T1, 1, 2), 0, 2), 0, 1)
    rhs = w_apply(qctx, w_apply(qctx, T1, 0, 1), 1, 2)
    ts0 = (0.7, -0.5, 1.1)
    dev_const = worst_dev(sf_max_dev(lhs.at(*ts0), T1.at(*ts0)),
                          sf_max_dev(rhs.at(*ts0), T1.at(*ts0)))
    report["constant_legs_deviation"] = float(dev_const)

    triples = []
    for _ in range(t_samples):
        f1, f2, f3 = _sample_elements(qctx, rng, 3, z_kind="pw")
        T = tensor(qctx, [f1, f2, f3])
        lhs = w_apply(qctx, w_apply(qctx, w_apply(qctx, T, 1, 2), 0, 2), 0, 1)
        rhs = w_apply(qctx, w_apply(qctx, T, 0, 1), 1, 2)
        ts = _t_triple(rng)
        dev = sf_max_dev(lhs.at(*ts), rhs.at(*ts))
        triples.append({"t": [round(t, 6) for t in ts], "deviation": float(dev)})
    worst = worst_dev(0.0, *(s["deviation"] for s in triples))
    report["pentagon"] = triples
    report["max_deviation"] = float(worst)
    report["passed"] = bool(worst <= tol and dev_const <= tol)

    f1, f2 = _sample_elements(qctx, rng, 2, z_kind="gaussian")
    g1, g2 = _sample_elements(qctx, rng, 2, z_kind="gaussian")
    F = tensor(qctx, [f1, f2])
    G = tensor(qctx, [g1, g2])
    WF = w_apply(qctx, F, 0, 1)
    WG = w_apply(qctx, G, 0, 1)
    slices = []
    for _ in range(3):
        t1 = float(rng.uniform(0.4, 1.2) * rng.choice([-1.0, 1.0]))
        t2 = float(rng.uniform(0.4, 1.2) * rng.choice([-1.0, 1.0]))
        lhs_val = complex(inner_l2(WF.at(t1, t2), WG.at(t1, t2)))
        # the t1-integral absorbs the coproduct shift, so compare against
        # the shifted slice; pi_t has unit Berezinian, so the change of
        # variables on leg 1 carries no modular factor
        rhs_val = complex(inner_l2(F.at(t1 + t2, t2), G.at(t1 + t2, t2)))
        scale = max(1.0, abs(rhs_val))
        slices.append({"t": [round(t1, 6), round(t2, 6)],
                       "deviation": float(abs(lhs_val - rhs_val) / scale)})
    dev_unitary = float(worst_dev(*(s["deviation"] for s in slices)))
    report["superunitarity"] = {
        "deviation": dev_unitary,
        "modular_weight": 0.0,
        "passed": bool(dev_unitary <= tol),
        "slices": slices,
    }
    report["passed"] = bool(report["passed"]
                            and report["superunitarity"]["passed"])
    return report
