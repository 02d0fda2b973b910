"""Deformed-product engine tests: derived constants, dual-route oracles, invariants.

The Berezin-sector dual route here is a left-multiplication operator oracle
(wedge plus scaled odd derivative) that shares no code with the kernel engine.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superstar import exppoly, starprod
from superstar.errors import (ClassError, DimensionError, DivergenceError,
                              ParameterRangeError, ParityError)
from superstar.exppoly import ExpPolyFunction, ep_max_dev
from superstar.grassmann import GrassmannElement, eps
from superstar.sampling import (
    random_even,
    random_integrable_factor,
    random_odd_aux_shifts,
    random_oracle_factor,
    random_star_factor,
)
from superstar.starprod import (
    DeformationContext,
    _odd_star_pair,
    star,
    star_anticomm,
    star_comm,
    star_general,
    star_oracle,
)
from superstar.superfun import (
    Superfunction,
    grassmann_translate,
    sf_max_dev,
    sintegrate,
    smul,
)
from superstar.verify import _star_pool, verify_star

THETA = 0.7

CONTEXTS = [
    DeformationContext(THETA, 1, 2),
    DeformationContext(THETA, 1, 2, (1, 1)),
    DeformationContext(THETA, 1, 0),
    DeformationContext(THETA, 0, 2, (1, 1)),
    DeformationContext(1.3, 2, 1, (1, 0)),
]


def const_part(f: Superfunction) -> complex:
    """Constant of the body coefficient (asserts the body is constant)."""
    body = f.body()
    val = 0j
    for t in body.terms:
        assert not any(t.alpha) and not any(t.A_ut) and not any(t.b)
        val += t.c
    return val


# ---------------------------------------------------------------------------
# derived constants


def test_unit_element():
    for ctx in CONTEXTS:
        one = Superfunction.one(2 * ctx.m, ctx.n)
        prod = star(ctx, one, one)
        assert set(prod.terms) <= {0}
        assert const_part(prod) == 1.0


def closed_unit_norm(eta) -> complex:
    n = len(eta)
    eta_prod = 1
    for e in eta:
        eta_prod *= e
    return (-2j) ** n * (-1) ** (n * (n - 1) // 2) * eta_prod


def test_ledger_constants():
    for ctx in CONTEXTS + _star_pool() + [DeformationContext(-1.7, 0, 3, (1, 2))]:
        led = ctx.ledger
        assert led["unit_norm"] == closed_unit_norm(ctx.eta)
        assert led["sigma"] == -1
        assert len(led["c_plus"]) == ctx.n
        for a, e in enumerate(ctx.eta):
            assert led["c_plus"][a] == 1j * ctx.theta * e / 2


def test_coordinate_commutators():
    for theta in (0.7, 1.3):
        ctx = DeformationContext(theta, 2, 0)
        Om = ctx.omega_even()
        coords = [Superfunction.coordinate(4, 0, mu) for mu in range(4)]
        for mu in range(4):
            for nu in range(4):
                comm = star_comm(ctx, coords[mu], coords[nu])
                expected = -1j * theta * Om[mu, nu]
                if expected == 0:
                    assert not comm.terms or sf_max_dev(
                        comm, Superfunction.zero(4, 0)) < 1e-12
                else:
                    assert abs(const_part(comm) - expected) < 1e-12


def test_plane_wave_phase():
    ctx = DeformationContext(THETA, 1, 0)
    Om = ctx.omega_even()
    rng = np.random.default_rng(7)
    for _ in range(10):
        k1 = rng.uniform(-2, 2, size=2)
        k2 = rng.uniform(-2, 2, size=2)
        f = Superfunction.from_even(ExpPolyFunction.plane_wave(2, k1), 0)
        g = Superfunction.from_even(ExpPolyFunction.plane_wave(2, k2), 0)
        prod = star(ctx, f, g)
        phase = np.exp(1j * THETA * float(k1 @ Om @ k2) / 2)
        expected = Superfunction.from_even(
            ExpPolyFunction.plane_wave(2, k1 + k2, phase), 0)
        assert sf_max_dev(prod, expected) < 1e-12


def test_clifford_relations():
    for sig in [(3, 0), (2, 1), (0, 3)]:
        ctx = DeformationContext(THETA, 0, 3, sig)
        xis = [Superfunction.xi(0, 3, a) for a in range(1, 4)]
        for a in range(3):
            for b in range(3):
                anti = star(ctx, xis[a], xis[b]) + star(ctx, xis[b], xis[a])
                expected = 1j * THETA * ctx.eta[a] if a == b else 0j
                assert abs(const_part(anti) - expected) < 1e-12
                extra = {w for w in anti.terms if w != 0}
                for w in extra:
                    assert ep_max_dev(anti.coefficient(w),
                                      ExpPolyFunction.zero(0)) < 1e-12


# ---------------------------------------------------------------------------
# dual-route oracles


def clifford_left_mul(ctx: DeformationContext, word: int,
                      g: Superfunction) -> Superfunction:
    """Left deformed multiplication by the odd monomial ``word``.

    Each generator acts as (wedge by xi_a) + (i theta eta_a / 2) d/dxi_a;
    a monomial acts by composing these in the order the word is written.
    """
    out = g
    for a in reversed(range(ctx.n)):
        if not word >> a & 1:
            continue
        xi_a = Superfunction.xi(g.m, g.n, a + 1)
        out = smul(xi_a, out) + out.derive_odd(a + 1).scale(
            1j * ctx.theta * ctx.eta[a] / 2)
    return out


def test_odd_sector_against_left_multiplication_oracle():
    for sig in [(2, 0), (1, 1), (3, 0), (2, 1)]:
        n = sum(sig)
        ctx = DeformationContext(THETA, 0, n, sig)
        for wf in range(1 << n):
            f = Superfunction(0, n, {wf: ExpPolyFunction.one(0)})
            for wg in range(1 << n):
                g = Superfunction(0, n, {wg: ExpPolyFunction.one(0)})
                assert sf_max_dev(star(ctx, f, g),
                                  clifford_left_mul(ctx, wf, g)) < 1e-12


def test_odd_oracle_with_even_spectator():
    ctx = DeformationContext(THETA, 1, 2, (1, 1))
    rng = np.random.default_rng(3)
    gg = ExpPolyFunction.plane_wave(2, rng.uniform(-1, 1, 2)) \
        + ExpPolyFunction.monomial(2, (1, 0), 0.4)
    for wf in range(4):
        f = Superfunction(2, 2, {wf: ExpPolyFunction.one(2)})
        for wg in range(4):
            g = Superfunction(2, 2, {wg: gg})
            assert sf_max_dev(star(ctx, f, g),
                              clifford_left_mul(ctx, wf, g)) < 1e-10


def test_engine_matches_series_oracle():
    rng = np.random.default_rng(11)
    for ctx in CONTEXTS:
        for naux in (0, 1):
            for _ in range(8):
                f = random_oracle_factor(rng, ctx, naux=naux)
                g = random_oracle_factor(rng, ctx, naux=naux)
                assert sf_max_dev(star(ctx, f, g), star_oracle(ctx, f, g)) <= 1e-12


def test_oracle_catches_flipped_kernel(monkeypatch):
    # negate theta in the engine's even kernel only; the oracle states its own
    # sign, so on fresh contexts the two products must part
    kernel_space = starprod._kernel_space
    monkeypatch.setattr(starprod, "_kernel_space", lambda m, blocks: kernel_space(
        m, [(replace(ctx, theta=-ctx.theta), even_at, odd_at)
            for ctx, even_at, odd_at in blocks]))
    rng = np.random.default_rng(11)
    worst = 0.0
    for ctx in (DeformationContext(THETA, 1, 0), DeformationContext(1.3, 2, 1, (1, 0))):
        for _ in range(4):
            f = random_oracle_factor(rng, ctx)
            g = random_oracle_factor(rng, ctx)
            worst = max(worst, sf_max_dev(star(ctx, f, g), star_oracle(ctx, f, g)))
    assert worst > 1e-6


def test_oracle_exhaustive_odd_monomials():
    for sig in [(2, 0), (1, 1)]:
        ctx = DeformationContext(THETA, 0, 2, sig)
        for wf in range(4):
            f = Superfunction(0, 2, {wf: ExpPolyFunction.one(0)})
            for wg in range(4):
                g = Superfunction(0, 2, {wg: ExpPolyFunction.one(0)})
                assert sf_max_dev(star(ctx, f, g), star_oracle(ctx, f, g)) < 1e-14


def _berezin_expansion(n, naux, gens):
    """The expansion of :func:`_odd_star_pair`, with the kernel and each
    word's images built once: returns a function (u, v) -> {output word: c}.

    Layout [ambient | copies xi1 | copies xi2 | aux] as in the oracle.  The
    copies xi2 come only from v's image, so a term of kernel ^ image(u) that
    lacks a xi1 copy cannot reach the Berezin top form and is left out; the
    kept products are the oracle's, summed in its order.
    """
    act = [a - 1 for a, _, _ in gens]
    n_act = len(act)
    width = n + 2 * n_act + naux
    pos = ({a: n + i for i, a in enumerate(act)},
           {a: n + n_act + i for i, a in enumerate(act)})

    def image(word, side):
        acc = GrassmannElement.one(width)
        for k in range(n + naux):
            if word >> k & 1:
                if k >= n:
                    img = GrassmannElement.monomial(width, 1 << (k + 2 * n_act))
                elif k in pos[side]:
                    img = (GrassmannElement.monomial(width, 1 << k)
                           + GrassmannElement.monomial(width, 1 << pos[side][k]))
                else:
                    img = GrassmannElement.monomial(width, 1 << k)
                acc = acc.wedge(img)
        return acc

    kern = GrassmannElement.one(width)
    for a1, e, th in gens:
        bits = (1 << pos[0][a1 - 1]) | (1 << pos[1][a1 - 1])
        kern = kern.wedge(GrassmannElement(width, {0: 1.0, bits: -2j * e / th}))
    copies1 = sum(1 << b for b in pos[0].values())
    top = copies1 | sum(1 << b for b in pos[1].values())
    words = range(1 << (n + naux))
    left = []
    for u in words:
        full = kern.wedge(image(u, 0))
        left.append(GrassmannElement(width, {W: c for W, c in full.coeffs.items()
                                             if W & copies1 == copies1}))
    right = [image(v, 1) for v in words]

    def pair(u, v):
        out = {}
        for W, c in left[u].wedge(right[v]).coeffs.items():
            if W & top == top:
                kept = W & ~top
                word = (kept & ((1 << n) - 1)) | (kept >> (n + 2 * n_act)) << n
                out[word] = out.get(word, 0j) + eps(kept, top) * c
        return out

    return pair


def test_clifford_rule_against_berezin_expansion_exhaustive():
    # every word pair, ambient then aux bits, for n <= 5 in every signature;
    # even p: all generators active with one theta, odd p: generator 1
    # inactive and the others with distinct theta; theta's sign flips with p
    worst = 0.0
    for n in range(6):
        naux = 2 if n <= 3 else 1
        width = 1 << (n + naux)
        for p in range(n + 1):
            eta = (1,) * p + (-1,) * (n - p)
            sign = -1.0 if p % 2 else 1.0
            if p % 2:
                gens = [(a, eta[a - 1], sign * (0.3 + 0.2 * a)) for a in range(2, n + 1)]
            else:
                gens = [(a, eta[a - 1], sign * 0.7) for a in range(1, n + 1)]
            scale = 1.0
            for _, _, th in gens:
                scale *= th
            scale /= closed_unit_norm([e for _, e, _ in gens])
            berezin = _berezin_expansion(n, naux, gens)
            # the expansion is the oracle's, to the last bit
            for u, v in ((width - 1, width - 1), (width - 1, 0), (0, width - 1),
                         (width // 2 + 1, width - 2)):
                assert berezin(u, v) == _odd_star_pair(u, v, n, naux, gens)
            monos = [Superfunction(0, n, {w: ExpPolyFunction.one(0)}, naux)
                     for w in range(width)]
            # one (0|1) context per active generator, each with its own theta
            blocks = [(DeformationContext(th, 0, 1, (1, 0) if e == 1 else (0, 1)), 0, a - 1)
                      for a, e, th in gens]
            for u in range(width):
                for v in range(width):
                    got = star_general(monos[u], monos[v], blocks)
                    want = {w: c * scale for w, c in berezin(u, v).items()}
                    assert set(got.terms) == set(want), (n, p, u, v)
                    for w, c in want.items():
                        (t,) = got.terms[w].terms
                        worst = max(worst, abs(t.c - c) / abs(c))
    assert worst <= 1e-15


def test_oracle_rejects_gaussians():
    ctx = DeformationContext(THETA, 1, 0)
    f = Superfunction.from_even(
        ExpPolyFunction.gaussian(2, -np.eye(2)), 0)
    g = Superfunction.one(2, 0)
    with pytest.raises(ClassError):
        star_oracle(ctx, f, g)


# ---------------------------------------------------------------------------
# invariants (small counts here; the verification suites run the full sizes)


def test_associativity_random():
    rng = np.random.default_rng(23)
    for ctx in CONTEXTS:
        for _ in range(6):
            f = random_star_factor(rng, ctx)
            g = random_star_factor(rng, ctx)
            h = random_star_factor(rng, ctx)
            left = star(ctx, star(ctx, f, g), h)
            right = star(ctx, f, star(ctx, g, h))
            assert sf_max_dev(left, right) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 7), st.integers(0, 7), st.integers(0, 7),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
       st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False))
def test_associativity_odd_sector_hypothesis(wf, wg, wh, cf, cg):
    ctx = DeformationContext(THETA, 0, 3, (2, 1))
    f = Superfunction(0, 3, {wf: ExpPolyFunction.const(0, cf)})
    g = Superfunction(0, 3, {wg: ExpPolyFunction.const(0, cg)})
    h = Superfunction(0, 3, {wh: ExpPolyFunction.one(0)})
    left = star(ctx, star(ctx, f, g), h)
    right = star(ctx, f, star(ctx, g, h))
    assert sf_max_dev(left, right) <= 1e-12 * max(1.0, abs(cf) * abs(cg))


def test_traciality():
    rng = np.random.default_rng(31)
    checked = 0
    for ctx in CONTEXTS[:2]:
        for _ in range(8):
            f = random_integrable_factor(rng, ctx)
            g = random_integrable_factor(rng, ctx)
            prod = star(ctx, f, g)
            if not all(fn.integrable for fn in prod.terms.values()):
                continue
            lhs = sintegrate(prod)
            rhs = sintegrate(smul(f, g))
            scale = max(1.0, abs(rhs))
            assert abs(lhs - rhs) / scale <= 1e-9
            checked += 1
    assert checked >= 12


def test_translation_invariance_even():
    rng = np.random.default_rng(41)
    ctx = CONTEXTS[1]
    for _ in range(6):
        f = random_star_factor(rng, ctx)
        g = random_star_factor(rng, ctx)
        a = rng.uniform(-1, 1, size=2)
        lhs = star(ctx, f.translate_even(a), g.translate_even(a))
        rhs = star(ctx, f, g).translate_even(a)
        assert sf_max_dev(lhs, rhs) <= 1e-10


def test_translation_invariance_odd():
    rng = np.random.default_rng(43)
    for ctx in (CONTEXTS[1], CONTEXTS[3]):
        for _ in range(6):
            f = random_star_factor(rng, ctx)
            g = random_star_factor(rng, ctx)
            eta = random_odd_aux_shifts(rng, ctx.n, 2)
            lhs = star(ctx, grassmann_translate(f, eta), grassmann_translate(g, eta))
            rhs = grassmann_translate(star(ctx, f, g), eta)
            assert sf_max_dev(lhs, rhs) <= 1e-10


def test_superinvolution_compatibility():
    rng = np.random.default_rng(47)
    ctx = CONTEXTS[1]
    for _ in range(10):
        wf = int(rng.integers(0, 4))
        wg = int(rng.integers(0, 4))
        f = Superfunction(2, 2, {wf: random_star_factor(rng, ctx).coefficient(0)})
        g = Superfunction(2, 2, {wg: random_star_factor(rng, ctx).coefficient(0)})
        sign = -1.0 if (bin(wf).count("1") * bin(wg).count("1")) % 2 else 1.0
        lhs = star(ctx, f, g).conj()
        rhs = star(ctx, g.conj(), f.conj()).scale(sign)
        assert sf_max_dev(lhs, rhs) <= 1e-10


# ---------------------------------------------------------------------------
# graded brackets


def test_comm_anticomm_coordinate_closed_forms():
    ctx = DeformationContext(THETA, 1, 0)
    Om = ctx.omega_even()
    rng = np.random.default_rng(53)
    samples = [
        random_star_factor(rng, ctx),
        Superfunction.from_even(
            ExpPolyFunction.gaussian(2, -0.8 * np.eye(2), [0.2, -0.4j]), 0),
    ]
    for f in samples:
        for mu in range(2):
            x_mu = Superfunction.coordinate(2, 0, mu)
            grad = Superfunction.zero(2, 0)
            for nu in range(2):
                if Om[mu, nu]:
                    f_nu = Superfunction(f.m, f.n, {w: c.derive(nu) for w, c in f.terms.items()},
                                         f.naux)
                    grad = grad + f_nu.scale(Om[mu, nu])
            assert sf_max_dev(star_comm(ctx, x_mu, f),
                              grad.scale(-1j * THETA)) <= 1e-10
            assert sf_max_dev(star_anticomm(ctx, x_mu, f),
                              smul(x_mu, f).scale(2.0)) <= 1e-10


def test_comm_with_unit_vanishes():
    rng = np.random.default_rng(59)
    ctx = CONTEXTS[0]
    one = Superfunction.one(2, 2)
    for _ in range(4):
        f = random_star_factor(rng, ctx)
        if f.parity() is None:
            f = Superfunction(2, 2, {0: f.coefficient(0)})
        assert sf_max_dev(star_comm(ctx, one, f),
                          Superfunction.zero(2, 2)) <= 1e-12


def test_graded_bracket_parity_rules():
    ctx = DeformationContext(THETA, 0, 2)
    xi1 = Superfunction.xi(0, 2, 1)
    xi2 = Superfunction.xi(0, 2, 2)
    # graded commutator of two odds is the symmetric combination
    comm = star_comm(ctx, xi1, xi2)
    direct = star(ctx, xi1, xi2) + star(ctx, xi2, xi1)
    assert sf_max_dev(comm, direct) == 0.0
    mixed = Superfunction.one(0, 2) + xi1
    with pytest.raises(ParityError):
        star_comm(ctx, mixed, xi2)


# ---------------------------------------------------------------------------
# block layouts, error paths


def test_multi_block_independence():
    f_dim = 4
    blocks = [(DeformationContext(0.5, 1, 0), 0, 0), (DeformationContext(1.1, 1, 0), 2, 0)]
    coords = [Superfunction.coordinate(f_dim, 0, mu) for mu in range(f_dim)]

    def comm(mu, nu):
        a = star_general(coords[mu], coords[nu], blocks)
        b = star_general(coords[nu], coords[mu], blocks)
        return const_part(a - b)

    assert abs(comm(0, 1) - (-1j * 0.5)) < 1e-12
    assert abs(comm(2, 3) - (-1j * 1.1)) < 1e-12
    assert abs(comm(0, 2)) < 1e-12
    assert abs(comm(0, 3)) < 1e-12


def test_spectator_even_coordinates():
    # a block on the first symplectic pair leaves the others multiplying pointwise
    blocks = [(DeformationContext(THETA, 1, 0), 0, 0)]
    x3 = Superfunction.coordinate(4, 0, 3)
    f = Superfunction.from_even(ExpPolyFunction.plane_wave(
        4, [0.3, -0.7, 0.2, 0.9]), 0)
    prod = star_general(x3, f, blocks)
    assert sf_max_dev(prod, smul(x3, f)) <= 1e-12


def test_star_rejects_wrong_dimensions():
    ctx = DeformationContext(THETA, 1, 2)
    f = Superfunction.one(2, 2)
    with pytest.raises(DimensionError):
        star(ctx, f, Superfunction.one(4, 2))
    with pytest.raises(DimensionError):
        star(ctx, Superfunction.one(2, 1), Superfunction.one(2, 1))


def test_star_general_validates_blocks():
    f = Superfunction.one(4, 2)
    even, odd = DeformationContext(THETA, 1, 0), DeformationContext(THETA, 0, 1)
    for blocks in (
            # past the even range, past the odd range
            [(even, 3, 0)], [(DeformationContext(THETA, 2, 1), 2, 0)],
            [(odd, 0, 2)], [(DeformationContext(THETA, 1, 2), 0, 1)],
            # a negative offset
            [(even, -1, 0)], [(odd, 0, -1)],
            # overlapping even coordinates, overlapping odd bits
            [(even, 0, 0), (even, 1, 0)],
            [(DeformationContext(THETA, 0, 2), 0, 0), (odd, 0, 1)]):
        with pytest.raises(ValueError):
            star_general(f, f, blocks)
    # a placed block whose kernel prefactor 1/(pi theta)^2 overflows
    x = Superfunction.coordinate(4, 2, 0)
    with pytest.raises(ParameterRangeError):
        star_general(x, x, [(DeformationContext(THETA, 1, 1), 0, 0),
                            (DeformationContext(1e-300, 1, 0), 2, 0)])


def test_divergent_star_raises():
    ctx = DeformationContext(THETA, 1, 0)
    grow = Superfunction.from_even(ExpPolyFunction.gaussian(2, np.eye(2)), 0)
    with pytest.raises(DivergenceError):
        star(ctx, grow, grow)


def _count_reductions(ctx, f, g):
    """Star product f * g, counting np.linalg.eigvals calls, recording the
    sizes of np.linalg.inv calls and the exponent keys and quadratic forms of
    each doubled-space integrand."""
    calls, inv_sizes, keys, forms = [], [], [], []
    eigvals, inv = np.linalg.eigvals, np.linalg.inv
    integrate = starprod.ep_integrate_partial

    def counting_eigvals(a):
        calls.append(a)
        return eigvals(a)

    def counting_inv(a):
        inv_sizes.append(len(a))
        return inv(a)

    def recording_integrate(fn, keep, **kwargs):
        keys.append(len({(t.A_ut, t.b) for t in fn.terms}))
        forms.append(len({t.A_ut for t in fn.terms}))
        return integrate(fn, keep, **kwargs)

    np.linalg.eigvals, np.linalg.inv = counting_eigvals, counting_inv
    starprod.ep_integrate_partial = recording_integrate
    try:
        star(ctx, f, g)
    finally:
        np.linalg.eigvals, np.linalg.inv = eigvals, inv
        starprod.ep_integrate_partial = integrate
    return len(calls), inv_sizes, keys, forms


def test_one_eigendecomposition_per_exponent_key():
    # at most one per quadratic form: one per Gaussian x Gaussian form, none
    # for a one-sided form (a polynomial or plane-wave factor), whose kernel
    # normalization is exactly 1; no inverse is ever of the whole 4x4 block
    ctx = DeformationContext(0.8, 1, 0)
    x1 = ExpPolyFunction.coordinate(2, 0)
    # two exponent keys with different quadratic forms, times a polynomial
    f = (ExpPolyFunction.gaussian(2, -np.eye(2)) * x1 * x1
         + ExpPolyFunction.gaussian(2, -2.0 * np.eye(2), [0.5, 0.0]) * x1)
    g = x1 + ExpPolyFunction.coordinate(2, 1) * x1
    n_eig, inv_sizes, keys, forms = _count_reductions(
        ctx, Superfunction.from_even(f, 0), Superfunction.from_even(g, 0))
    assert keys == [2] and forms == [2]
    assert n_eig == 0 and inv_sizes == []
    # times a Gaussian: one eigen decomposition and one 2x2 inverse per form
    gauss = ExpPolyFunction.gaussian(2, [[-1.0, 0.2], [0.2, -0.5]], [0.0, 1j])
    n_eig, inv_sizes, keys, forms = _count_reductions(
        ctx, Superfunction.from_even(f, 0), Superfunction.from_even(gauss, 0))
    assert keys == [2] and forms == [2]
    assert n_eig == 2 and inv_sizes == [2, 2]
    # two keys sharing one quadratic form, on the other side
    waves = ExpPolyFunction.plane_wave(2, [1.0, 0.3]) + ExpPolyFunction.plane_wave(2, [-0.4, 2.0])
    n_eig, inv_sizes, keys, forms = _count_reductions(
        ctx, Superfunction.from_even(waves, 0), Superfunction.from_even(x1 * x1, 0))
    assert keys == [2] and forms == [1]
    assert n_eig == 0 and inv_sizes == []


def _dense_factor(rng, ctx):
    """A factor with a coefficient on every odd word, mixing the even classes."""
    d = 2 * ctx.m
    kinds = ("gaussian", "poly", "pw")
    return Superfunction(d, ctx.n, {
        w: random_even(rng, d, kinds[w % 3]) if d else ExpPolyFunction.const(
            0, complex(rng.normal(), rng.normal()))
        for w in range(1 << ctx.n)})


@pytest.mark.parametrize("m, n", [(0, 5), (1, 3)])
def test_products_build_each_output_coefficient_once(monkeypatch, m, n):
    # the word-pair loops of smul and star add into one keys map per output
    # word, and each map becomes a function once; no coefficient is added or
    # scaled as a function on the way
    ctx = DeformationContext(0.9, m, n, (n - 1, 1))
    rng = np.random.default_rng([83, m, n])
    f, g = _dense_factor(rng, ctx), _dense_factor(rng, ctx)
    built = {}
    init = ExpPolyFunction.__init__

    def counting(self, d, keys=None):
        # constructions counted by the module that calls ExpPolyFunction(...)
        module = sys._getframe(1).f_globals["__name__"]
        built[module] = built.get(module, 0) + 1
        init(self, d, keys)

    monkeypatch.setattr(ExpPolyFunction, "__init__", counting)

    def forbidden(*args):
        raise AssertionError("a product added or scaled a coefficient")

    for name in ("__add__", "scale"):
        monkeypatch.setattr(ExpPolyFunction, name, forbidden)
    monkeypatch.setattr(starprod, "ep_mul", forbidden)
    for product in (smul, lambda f, g: star(ctx, f, g)):
        built.clear()
        out = product(f, g)
        assert len(out.terms) > 1
        assert built.pop("superstar.superfun") == len(out.terms)
        # with even coordinates, star also embeds each word and integrates
        # each output word once; on R^{0|n} every pair is pointwise
        if product is smul or not m:
            # every pair is pointwise
            assert built == {}
        else:
            # per word, not per word pair: each embedding, each left word
            # times the kernel, each output word's integrand and integral
            nf, ng, nout = len(f.terms), len(g.terms), len(out.terms)
            assert built["superstar.starprod"] <= nf + nout
            assert built["superstar.exppoly"] <= nf + ng + nout + 1


def _kernel_form(rng, m: int, theta: float, kind: str):
    """(P, X, Q, X^{-1}) of a doubled-space block with P = 0 and Q random:
    integrable (Re Q negative definite) or Fresnel (Q purely imaginary)."""
    Om = DeformationContext(theta, m, 0).omega_even()
    d = 2 * m
    S = rng.normal(size=(d, d))
    S = S + S.T
    if kind == "integrable":
        L = rng.normal(size=(d, d))
        Q = -(L @ L.T + 0.3 * np.eye(d)) + 0.5j * S
    else:
        Q = 1j * S
    return np.zeros((d, d), dtype=complex), (-1j / theta) * Om, Q, (-1j * theta) * Om


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("theta", [0.7, -1.3])
@pytest.mark.parametrize("kind", ["integrable", "fresnel"])
def test_one_sided_kernel_closed_form(m, theta, kind):
    # against the dense inverse and the eigenvalue normalization Z * pref,
    # with the Gaussian on either side
    rng = np.random.default_rng([53, m, int(theta > 0), kind == "fresnel"])
    d = 2 * m
    for _ in range(4):
        Z0, X, Q, x_inv = _kernel_form(rng, m, theta, kind)
        for P, Qs in ((Z0, Q), (Q, Z0)):
            Ayy = np.block([[P, X], [X.T, Qs]])
            C = exppoly._kernel_inverse(P, X, Qs, x_inv)
            dense = np.linalg.inv(Ayy)
            assert np.max(np.abs(C - dense)) <= 1e-12 * np.max(np.abs(dense))
            zero = (slice(d, None),) * 2 if not P.any() else (slice(0, d),) * 2
            assert not C[zero].any()
            mu = np.linalg.eigvals(-Ayy)
            z_pref = 1.0 / (np.prod(np.sqrt(mu)) * theta ** (2 * m))
            assert abs(z_pref - 1.0) <= 1e-12


def test_gaussian_kernel_path_matches_generic_integration():
    # both factors Gaussian: the closed-form inverse and the eigenvalue
    # normalization agree with the generic reduction scaled by 1/(pi theta)^2m
    rng = np.random.default_rng(59)
    for ctx in (DeformationContext(0.7, 1, 0), DeformationContext(-1.3, 2, 0)):
        d = 2 * ctx.m
        D, (M1, M2), kernel = starprod._kernel_space(d, [(ctx, 0, 0)])
        zeros = np.zeros(d)
        A = np.zeros((D, D), dtype=complex)  # the bare kernel, for the generic path
        A[d:2 * d, 2 * d:] = kernel[0]
        A[2 * d:, d:2 * d] = kernel[0].T
        K = ExpPolyFunction.gaussian(D, A)
        for _ in range(3):
            f = random_integrable_factor(rng, ctx).terms[0]
            g = random_integrable_factor(rng, ctx).terms[0]
            integrand = f.affine(M1, zeros) * g.affine(M2, zeros)
            got = exppoly.ep_integrate_partial(integrand, d, kernel=kernel)
            want = exppoly.ep_integrate_partial(integrand * K, d).scale(
                1.0 / (np.pi * ctx.theta) ** d)
            top = max(abs(t.c) for t in want.terms)
            assert ep_max_dev(got, want) <= 1e-12 * top


def test_mirror_products_with_a_coordinate_have_equal_term_counts():
    # F * x_mu and x_mu * F differ only in signs of the derivative terms, so
    # no rounding noise may give one of them extra terms
    rng = np.random.default_rng(61)
    ctx = DeformationContext(1.3, 2, 0)
    for _ in range(4):
        F = random_integrable_factor(rng, ctx)
        for mu in range(4):
            x = Superfunction.coordinate(4, 0, mu)
            left, right = star(ctx, F, x), star(ctx, x, F)
            assert len(left.terms[0].terms) == len(right.terms[0].terms)


@pytest.mark.parametrize("theta", [1.0, -0.8, 1e-8])
def test_commuting_squares_multiply_exactly(theta):
    # x1 and x2 commute at m = 2: x1^2 * x2^2 is the pointwise product, exactly
    ctx = DeformationContext(theta, 2, 0)
    x1sq = Superfunction.from_even(ExpPolyFunction.monomial(4, (2, 0, 0, 0)), 0)
    x2sq = Superfunction.from_even(ExpPolyFunction.monomial(4, (0, 2, 0, 0)), 0)
    (term,) = star(ctx, x1sq, x2sq).body().terms
    assert term.alpha == (2, 2, 0, 0) and term.c == 1 + 0j


def test_small_theta_keeps_second_order_constant():
    # x1^2 * x2^2 = x1^2 x2^2 - 2i theta x1 x2 - theta^2 / 2 at m = 1
    theta = 1e-8
    ctx = DeformationContext(theta, 1, 0)
    x1sq = Superfunction.from_even(ExpPolyFunction.monomial(2, (2, 0)), 0)
    x2sq = Superfunction.from_even(ExpPolyFunction.monomial(2, (0, 2)), 0)
    coeffs = {t.alpha: t.c for t in star(ctx, x1sq, x2sq).body().terms}
    want = {(2, 2): 1.0, (1, 1): -2j * theta, (0, 0): -theta ** 2 / 2}
    assert coeffs.keys() == want.keys()
    for alpha, c in want.items():
        assert abs(coeffs[alpha] - c) <= 1e-12 * abs(c)


def test_associativity_catches_dropped_schur_block(monkeypatch):
    # mutant: the kernel inverse without its -X^{-T} Q G block
    closed_form = exppoly._kernel_inverse

    def without_schur_block(P, X, Q, x_inv):
        C = closed_form(P, X, Q, x_inv)
        C[:len(X), :len(X)] = 0
        return C

    monkeypatch.setattr(exppoly, "_kernel_inverse", without_schur_block)
    rng = np.random.default_rng(67)
    worst = 0.0
    for ctx in _star_pool()[:3]:
        kinds = ("gaussian", "poly")
        f, g, h = (random_star_factor(rng, ctx, kinds=kinds) for _ in range(3))
        worst = max(worst, sf_max_dev(star(ctx, star(ctx, f, g), h),
                                      star(ctx, f, star(ctx, g, h))))
    assert worst > 1e-10


def _coefficients(f: ExpPolyFunction) -> dict:
    """{(alpha, A_ut, b): c}, one entry per term of f."""
    return {(alpha, A_ut, b): c for (A_ut, b), poly in f.keys.items()
            for alpha, c in poly.items()}


def _pair_by_pair(ctx, f, g):
    """f * g with one kernel integral per word pair, summed per output word."""
    D, (M1, M2), kernel = starprod._kernel_space(f.m, [(ctx, 0, 0)])
    zeros = np.zeros(f.m)
    clifford = {1 << a: 1j * ctx.theta * e / 2 for a, e in enumerate(ctx.eta)}
    out, pairs = {}, {}
    for wf, ff in f.terms.items():
        for wg, gg in g.terms.items():
            word, c = starprod._clifford_pair(wf, wg, clifford)
            if c == 0:
                continue
            if not ctx.m or starprod._is_constant(ff) or starprod._is_constant(gg):
                piece = ff * gg
            else:
                integrand = ff.affine(M1, zeros) * gg.affine(M2, zeros)
                piece = exppoly.ep_integrate_partial(integrand, f.m, kernel=kernel)
                pairs[word] = pairs.get(word, 0) + 1
            out[word] = out[word] + piece.scale(c) if word in out else piece.scale(c)
    return out, pairs


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("theta", [0.9, -1.2])
@pytest.mark.parametrize("kind", ["gaussian", "poly"])
def test_one_integral_per_word_equals_sum_of_pair_integrals(n, theta, kind):
    # linearity of the kernel integral: the per-word integrand gives the same
    # keys and coefficients as integrating pair by pair
    ctx = DeformationContext(theta, 1, n, (n - 1, 1))
    rng = np.random.default_rng([71, n, int(theta > 0), kind == "poly"])
    shared = 0
    for _ in range(3):
        # four words a side: sixteen pairs on at most eight words
        f, g = (Superfunction(2, n, {int(w): random_even(rng, 2, kind)
                                     for w in rng.choice(1 << n, 4, replace=False)})
                for _ in range(2))
        want, pairs = _pair_by_pair(ctx, f, g)
        shared += sum(k - 1 for k in pairs.values())
        got = star(ctx, f, g)
        top = max(abs(c) for fn in want.values() for poly in fn.keys.values()
                  for c in poly.values())
        dev = 0.0
        for word in set(want) | set(got.terms):
            a = _coefficients(got.coefficient(word))
            b = _coefficients(want[word]) if word in want else {}
            dev = max(dev, max(abs(a.get(k, 0) - b.get(k, 0)) for k in a.keys() | b.keys()))
        assert dev <= 1e-12 * top
    assert shared > 0  # some output word did receive several pairs


def test_word_pairs_on_one_word_make_one_kernel_integral():
    # a1 * a2 and a2 * a1 both land on the word a1 a2 (a1, a2 auxiliary odd
    # parameters); the pairs a1 * a1 and a2 * a2 vanish
    ctx = DeformationContext(0.8, 1, 0)
    rng = np.random.default_rng(73)
    coefficient = [random_even(rng, 2, kind) for kind in ("gaussian", "poly") * 2]
    f = Superfunction(2, 0, {0b01: coefficient[0], 0b10: coefficient[1]}, naux=2)
    g = Superfunction(2, 0, {0b10: coefficient[2], 0b01: coefficient[3]}, naux=2)
    assert _pair_by_pair(ctx, f, g)[1] == {0b11: 2}
    _, _, keys, _ = _count_reductions(ctx, f, g)
    assert len(keys) == 1


def test_associativity_catches_misrouted_word_pair(monkeypatch):
    # mutant: in every product, the word pair (xi^1, xi^2) is added to the
    # output word xi^1 instead of xi^1 xi^2
    clifford_pair = starprod._clifford_pair

    def misrouted(u, v, c):
        word, coef = clifford_pair(u, v, c)
        return (0b01 if (u, v) == (0b01, 0b10) else word), coef

    monkeypatch.setattr(starprod, "_clifford_pair", misrouted)
    (assoc,) = [c for c in verify_star(seed=0)["checks"] if c["check"] == "associativity"]
    assert not assoc["passed"]
    assert assoc["max_deviation"] > 1e-3


def test_context_validation():
    with pytest.raises(ValueError):
        DeformationContext(0.0, 1, 0)
    # a negative theta is a valid deformation parameter
    assert DeformationContext(-1.0, 1, 0).theta == -1.0
    # m < 0 is rejected whatever the sign of theta
    with pytest.raises(ValueError):
        DeformationContext(-1.0, -3, 0)
    for theta in (float("inf"), float("nan")):
        with pytest.raises(ValueError):
            DeformationContext(theta, 1, 0)
    with pytest.raises(ValueError):
        DeformationContext(THETA, 1, 2, (2, 1))


def test_signed_theta_contexts():
    for theta in (0.0, float("-inf"), float("inf"), float("nan")):
        with pytest.raises(ValueError):
            DeformationContext(theta, 1, 0)
    for theta in (0.9, -0.9):
        ctx = DeformationContext(theta, 1, 0)
        x1 = Superfunction.coordinate(2, 0, 0)
        x2 = Superfunction.coordinate(2, 0, 1)
        comm = star(ctx, x1, x2) - star(ctx, x2, x1)
        assert abs(const_part(comm) - (-1j * theta)) < 1e-12
