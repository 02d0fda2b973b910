"""Heisenberg supergroup: group law, representation, superunitarity."""

import numpy as np
import pytest

from superstar.errors import DimensionError, ParityError
from superstar.exppoly import ExpPolyFunction
from superstar.grassmann import GrassmannElement
from superstar.heisenberg import (
    GroupElement,
    HeisenbergContext,
    group_inverse,
    group_mul,
    representation,
)
from superstar.hilbert import FockSuperfunction, inner_fock
from superstar.superfun import Superfunction, sf_max_dev

CTX = HeisenbergContext(0.7, 1, 1, 1)
NAUX = 4


def aux(j: int) -> GrassmannElement:
    return GrassmannElement.generator(NAUX, j)


def ge_is_zero(e: GrassmannElement) -> bool:
    return not e.coeffs


def rand_odd(rng, *, real=False, dyadic=False):
    e = GrassmannElement.zero(NAUX)
    for j in range(1, NAUX + 1):
        if rng.random() < 0.7:
            if dyadic:
                c = complex(int(rng.integers(-4, 5)) / 2,
                            0 if real else int(rng.integers(-4, 5)) / 2)
            else:
                c = complex(rng.normal(), 0 if real else rng.normal())
            e = e + aux(j).scale(c)
    return e


def conj_coeffs(e: GrassmannElement) -> GrassmannElement:
    return GrassmannElement(e.n, {w: np.conj(c) for w, c in e.coeffs.items()})


def rand_group_element(rng, ctx=CTX, *, real=False, dyadic=False):
    draw = (lambda: int(rng.integers(-4, 5)) / 2) if dyadic else rng.normal
    z = [rand_odd(rng, real=real, dyadic=dyadic) for _ in range(ctx.s)]
    zbar = ([conj_coeffs(x) for x in z] if real else
            [rand_odd(rng, dyadic=dyadic) for _ in range(ctx.s)])
    return GroupElement.make(
        ctx,
        q=[draw() for _ in range(ctx.m)], p=[draw() for _ in range(ctx.m)],
        xi=[rand_odd(rng, real=real, dyadic=dyadic) for _ in range(ctx.r)],
        eta=[rand_odd(rng, real=real, dyadic=dyadic) for _ in range(ctx.r)],
        zeta=z, zetabar=zbar, t=draw(), naux=NAUX)


def rand_fock(rng, ctx=CTX):
    terms = {}
    n = ctx.r + ctx.s
    for w in range(1 << n):
        if rng.random() < 0.8:
            terms[w] = ExpPolyFunction.gaussian(
                ctx.m, -np.eye(ctx.m) * (0.5 + rng.random()),
                [complex(rng.normal(), rng.normal()) for _ in range(ctx.m)],
                complex(rng.normal(), rng.normal()))
    return FockSuperfunction(ctx.m, ctx.r, ctx.s, Superfunction(ctx.m, n, terms))


def omega_oracle(g, h):
    """The Lie-superalgebra bracket pairing, written independently."""
    N = max(g.naux, h.naux)
    wide = lambda e: GrassmannElement(N, dict(e.coeffs))
    val = GrassmannElement.scalar(
        N, complex(np.dot(g.q, h.p) - np.dot(g.p, h.q)))
    for a in range(len(g.xi)):
        val = val + wide(g.xi[a]).wedge(wide(h.eta[a])) \
            - wide(h.xi[a]).wedge(wide(g.eta[a]))
    for c in range(len(g.zeta)):
        val = val + (wide(g.zeta[c]).wedge(wide(h.zetabar[c]))
                     - wide(h.zeta[c]).wedge(wide(g.zetabar[c]))).scale(0.5)
    return val


# ---------------------------------------------------------------------------
# group law


def test_central_product():
    a = GroupElement.make(CTX, t=0.3)
    b = GroupElement.make(CTX, t=1.1)
    ab = group_mul(CTX, a, b)
    assert ab.t.coeffs == {0: (0.3 + 1.1 + 0j)}
    assert all(x == 0 for x in ab.q + ab.p)
    assert all(ge_is_zero(e) for e in ab.xi + ab.eta + ab.zeta + ab.zetabar)


def test_group_commutator_is_central_omega():
    rng = np.random.default_rng(139)
    for _ in range(10):
        g = rand_group_element(rng, dyadic=True)
        h = rand_group_element(rng, dyadic=True)
        comm = group_mul(CTX, group_mul(CTX, g, h),
                         group_mul(CTX, group_inverse(g), group_inverse(h)))
        assert all(x == 0 for x in comm.q + comm.p)
        assert all(ge_is_zero(e) for e in comm.xi + comm.eta + comm.zeta + comm.zetabar)
        assert ge_is_zero(comm.t - omega_oracle(g, h))


def test_inverse():
    rng = np.random.default_rng(149)
    for _ in range(10):
        g = rand_group_element(rng)
        e = group_mul(CTX, g, group_inverse(g))
        assert all(abs(x) < 1e-15 for x in e.q + e.p)
        assert all(ge_is_zero(x) for x in e.xi + e.eta + e.zeta + e.zetabar)
        assert all(abs(c) < 1e-15 for c in e.t.coeffs.values())


def test_associativity_exact_on_dyadic_samples():
    rng = np.random.default_rng(151)
    for _ in range(15):
        g1 = rand_group_element(rng, dyadic=True)
        g2 = rand_group_element(rng, dyadic=True)
        g3 = rand_group_element(rng, dyadic=True)
        left = group_mul(CTX, group_mul(CTX, g1, g2), g3)
        right = group_mul(CTX, g1, group_mul(CTX, g2, g3))
        assert left.q == right.q and left.p == right.p
        assert ge_is_zero(left.t - right.t)
        for u, v in zip(left.xi + left.eta + left.zeta + left.zetabar,
                        right.xi + right.eta + right.zeta + right.zetabar):
            assert ge_is_zero(u - v)


def test_group_element_validation():
    with pytest.raises(DimensionError):
        GroupElement.make(CTX, q=[0.1, 0.2])
    with pytest.raises(ParityError):
        GroupElement.make(CTX, xi=[aux(1).wedge(aux(2))],
                          eta=[aux(1)], naux=NAUX)
    with pytest.raises(ParityError):
        GroupElement.make(CTX, t=aux(1))
    small = HeisenbergContext(0.7, 0, 1, 0)
    g = GroupElement.make(small, xi=[aux(1)], eta=[aux(2)], naux=NAUX)
    with pytest.raises(DimensionError):
        g.check_dims(CTX)


# ---------------------------------------------------------------------------
# the representation


def test_central_element_acts_by_phase():
    rng = np.random.default_rng(157)
    phi = rand_fock(rng)
    g = GroupElement.make(CTX, t=0.9)
    out = representation(CTX, g, phi)
    assert sf_max_dev(out.fun, phi.fun.scale(np.exp(2j * 0.9 / CTX.theta))) < 1e-12


def test_schroedinger_reduction():
    # r = s = 0: phase-and-shift of ordinary wave functions
    ctx = HeisenbergContext(0.7, 1, 0, 0)
    rng = np.random.default_rng(163)
    for _ in range(5):
        q, p, t = rng.normal(), rng.normal(), rng.normal()
        f = ExpPolyFunction.gaussian(1, -np.eye(1) * (0.5 + rng.random()),
                                     [complex(rng.normal(), rng.normal())])
        phi = FockSuperfunction(1, 0, 0, Superfunction(1, 0, {0: f}))
        out = representation(
            ctx, GroupElement.make(ctx, q=[q], p=[p], t=t), phi)
        phase = np.exp((2j / ctx.theta) * (t + q * p / 2))
        expected = ExpPolyFunction.plane_wave(1, [-2 * p / ctx.theta], phase) \
            * f.translate([-q])
        assert sf_max_dev(out.fun, Superfunction(1, 0, {0: expected})) < 1e-12


def test_representation_property():
    rng = np.random.default_rng(167)
    worst = 0.0
    for _ in range(50):
        g1 = rand_group_element(rng)
        g2 = rand_group_element(rng)
        phi = rand_fock(rng)
        lhs = representation(CTX, g1, representation(CTX, g2, phi))
        rhs = representation(CTX, group_mul(CTX, g1, g2), phi)
        worst = max(worst, sf_max_dev(lhs.fun, rhs.fun))
    assert worst <= 1e-10


def test_representation_property_other_dims():
    rng = np.random.default_rng(173)
    for ctx in (HeisenbergContext(1.3, 1, 2, 0), HeisenbergContext(0.9, 0, 1, 1),
                HeisenbergContext(0.7, 1, 0, 2)):
        for _ in range(5):
            g1 = rand_group_element(rng, ctx)
            g2 = rand_group_element(rng, ctx)
            phi = rand_fock(rng, ctx)
            lhs = representation(ctx, g1, representation(ctx, g2, phi))
            rhs = representation(ctx, group_mul(ctx, g1, g2), phi)
            assert sf_max_dev(lhs.fun, rhs.fun) <= 1e-10


def value_components(v) -> dict:
    if isinstance(v, GrassmannElement):
        return dict(v.coeffs)
    return {0: complex(v)}


def test_superunitarity_real_form():
    rng = np.random.default_rng(179)
    worst = 0.0
    for _ in range(50):
        g = rand_group_element(rng, real=True)
        phi = rand_fock(rng)
        psi = rand_fock(rng)
        lhs = value_components(
            inner_fock(CTX.theta, representation(CTX, g, phi),
                       representation(CTX, g, psi)))
        rhs = value_components(inner_fock(CTX.theta, phi, psi))
        for w in set(lhs) | set(rhs):
            worst = max(worst, abs(lhs.get(w, 0j) - rhs.get(w, 0j)))
    assert worst <= 1e-9


def test_representation_dimension_checks():
    phi = FockSuperfunction.one(0, 1, 0)
    with pytest.raises(DimensionError):
        representation(CTX, GroupElement.make(CTX), phi)
