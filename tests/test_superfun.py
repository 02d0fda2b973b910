"""Superfunction algebra: graded product, Berezin integral, odd translations."""

import math

import numpy as np
import pytest

from superstar.errors import ParityError
from superstar.exppoly import ExpPolyFunction
from superstar.grassmann import GrassmannElement
from superstar.superfun import (
    Superfunction,
    grassmann_translate,
    sf_max_dev,
    sintegrate,
    smul,
    substitute,
)

RNG_SEED = 20260817


def gauss(m: int, scale: float = 1.0) -> ExpPolyFunction:
    return ExpPolyFunction.gaussian(m, -scale * np.eye(m))


def random_superfunction(rng, m: int, n: int, naux: int = 0, nterms: int = 3,
                         *, integrable: bool = False) -> Superfunction:
    terms = {}
    for _ in range(nterms):
        word = int(rng.integers(0, 1 << (n + naux)))
        alpha = tuple(int(a) for a in rng.integers(0, 3, size=m))
        c = complex(rng.normal(), rng.normal())
        f = ExpPolyFunction.monomial(m, alpha, c)
        if integrable or rng.random() < 0.5:
            L = rng.normal(size=(m, m)) * 0.4
            A = -(L @ L.T + 0.5 * np.eye(m))
            f = f * ExpPolyFunction.gaussian(m, A)
        terms[word] = terms.get(word, ExpPolyFunction.zero(m)) + f
    return Superfunction(m, n, terms, naux)


# ---------------------------------------------------------------------------
# product


def test_smul_monomials():
    m, n = 1, 2
    f = gauss(m)
    g = ExpPolyFunction.monomial(m, (2,))
    a = Superfunction(m, n, {0b01: f})
    b = Superfunction(m, n, {0b10: g})
    assert smul(a, b) == Superfunction(m, n, {0b11: f * g})
    # nilpotency
    assert smul(a, Superfunction(m, n, {0b01: g})).is_zero


def test_smul_graded_commutativity():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(30):
        m, n, naux = 1, 2, 2
        wf = int(rng.integers(0, 1 << (n + naux)))
        wg = int(rng.integers(0, 1 << (n + naux)))
        f = Superfunction(m, n, {wf: gauss(m)}, naux)
        g = Superfunction(m, n, {wg: ExpPolyFunction.monomial(m, (1,))}, naux)
        sign = -1.0 if (wf.bit_count() * wg.bit_count()) % 2 else 1.0
        assert smul(f, g) == smul(g, f).scale(sign)


def test_smul_associativity_random():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(100):
        f = random_superfunction(rng, 1, 2, naux=1, nterms=2)
        g = random_superfunction(rng, 1, 2, naux=1, nterms=2)
        h = random_superfunction(rng, 1, 2, naux=1, nterms=2)
        assert sf_max_dev(smul(smul(f, g), h), smul(f, smul(g, h))) <= 1e-10


# ---------------------------------------------------------------------------
# Berezin integral


def test_sintegrate_examples():
    # R^{1|2}: e^{-x^2} xi^1 xi^2 integrates to sqrt(pi)
    f = Superfunction(1, 2, {0b11: gauss(1)})
    assert abs(sintegrate(f) - math.sqrt(math.pi)) < 1e-12
    # no top component -> 0
    g = Superfunction(1, 2, {0b01: gauss(1)})
    assert sintegrate(g) == 0
    # R^{0|1}: a + b xi -> b
    h = Superfunction(0, 1, {0: 2.5 + 1j, 1: -3.0 + 0.5j})
    assert sintegrate(h) == -3.0 + 0.5j


def test_sintegrate_graded_symmetry():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(25):
        m, n = 1, 2
        wf = int(rng.integers(0, 1 << n))
        wg = int(rng.integers(0, 1 << n))
        f = Superfunction(m, n, {wf: gauss(m, 0.7)})
        g = Superfunction(m, n, {wg: ExpPolyFunction.monomial(m, (2,)) * gauss(m, 0.6)})
        sign = -1.0 if (wf.bit_count() * wg.bit_count()) % 2 else 1.0
        lhs = sintegrate(smul(f, g))
        rhs = sintegrate(smul(g, f))
        assert abs(lhs - sign * rhs) < 1e-12


def test_sintegrate_aux_valued():
    # top coefficient carrying an aux factor: result is aux-valued
    f = Superfunction(0, 1, {0b11: 2.0}, naux=1)  # 2 * xi^1 * eta^1
    val = sintegrate(f)
    assert isinstance(val, GrassmannElement)
    assert val == GrassmannElement(1, {1: 2.0})


# ---------------------------------------------------------------------------
# conjugation


def test_conj_examples():
    f = Superfunction(0, 1, {1: 1j})
    assert f.conj() == Superfunction(0, 1, {1: -1j})
    rng = np.random.default_rng(RNG_SEED + 3)
    g = random_superfunction(rng, 1, 2, naux=1)
    assert g.conj().conj() == g


def test_conj_superinvolution_law():
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(40):
        m, n = 1, 3
        wf = int(rng.integers(0, 1 << n))
        wg = int(rng.integers(0, 1 << n))
        f = Superfunction(m, n, {wf: gauss(m) * complex(rng.normal(), rng.normal())})
        g = Superfunction(m, n, {wg: ExpPolyFunction.monomial(m, (1,), complex(rng.normal(), rng.normal()))})
        sign = -1.0 if (wf.bit_count() * wg.bit_count()) % 2 else 1.0
        assert sf_max_dev(smul(f, g).conj(), smul(g.conj(), f.conj()).scale(sign)) < 1e-12


# ---------------------------------------------------------------------------
# odd translation


def test_grassmann_translate_basic():
    f = Superfunction.xi(0, 1, 1)
    shifted = grassmann_translate(f, [GrassmannElement.generator(1, 1)])
    want = Superfunction(0, 1, {0b01: 1.0, 0b10: 1.0}, naux=1)  # xi + eta
    assert shifted == want


def test_grassmann_translate_group_law():
    e1, e2 = GrassmannElement.generator(2, 1), GrassmannElement.generator(2, 2)
    rng = np.random.default_rng(RNG_SEED + 5)
    f = random_superfunction(rng, 1, 2, nterms=3)
    eta = [e1, e2]
    minus = [-e1, -e2]
    back = grassmann_translate(grassmann_translate(f, eta), minus)
    assert sf_max_dev(back, Superfunction(f.m, f.n, f.terms, naux=2)) < 1e-12


def test_grassmann_translate_parity_error():
    e1, e2 = GrassmannElement.generator(2, 1), GrassmannElement.generator(2, 2)
    f = Superfunction.xi(0, 1, 1)
    with pytest.raises(ParityError):
        grassmann_translate(f, [GrassmannElement.one(2)])
    with pytest.raises(ParityError):
        grassmann_translate(f, [e1 * e2 + e1])


def test_berezin_invariant_under_odd_shifts():
    # R^{0|2}, every monomial with scalar and aux-valued coefficients, all
    # combinations of generator shifts: the integral never moves.
    e1, e2 = GrassmannElement.generator(2, 1), GrassmannElement.generator(2, 2)
    shift_choices = [None, e1, e2, e1 + e2, -e1]
    for word in range(4):
        for c in [1.0, 2j]:
            f = Superfunction(0, 2, {word: c})
            base = sintegrate(f)
            for s1 in shift_choices:
                for s2 in shift_choices:
                    shifted = grassmann_translate(f, [s1, s2])
                    val = sintegrate(shifted)
                    # compare as elements over the auxiliary generators
                    lhs = val if isinstance(val, GrassmannElement) else GrassmannElement.scalar(2, val)
                    rhs = base if isinstance(base, GrassmannElement) else GrassmannElement.scalar(2, base)
                    assert lhs == rhs, (word, c, s1, s2)


def test_substitute_identity():
    rng = np.random.default_rng(RNG_SEED + 6)
    f = random_superfunction(rng, 2, 2, naux=1)
    images = [GrassmannElement.monomial(3, 1 << k) for k in range(3)]
    assert substitute(f, images, 2) == f
    assert substitute(f, images, 2, np.eye(2)) == f


def test_substitute_pulls_back_only_surviving_words(monkeypatch):
    # xi2 -> 0 kills every word holding xi2: its even part is never pulled back
    f = Superfunction(2, 2, {w: ExpPolyFunction.monomial(2, (1, w)) for w in range(4)})
    images = [GrassmannElement.monomial(2, 0b01), GrassmannElement(2, {})]
    pulled = []
    affine = ExpPolyFunction.affine
    monkeypatch.setattr(ExpPolyFunction, "affine",
                        lambda fn, *args: pulled.append(fn) or affine(fn, *args))
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    g = substitute(f, images, 2, M)
    assert pulled == [f.terms[0b00], f.terms[0b01]]
    assert g == Superfunction(2, 2, {w: ExpPolyFunction.monomial(2, (w, 1)) for w in (0, 1)})


# ---------------------------------------------------------------------------
# odd derivative (left convention)


def test_derive_odd_left_convention():
    f = Superfunction(0, 2, {0b11: 1.0})  # xi^1 xi^2
    assert f.derive_odd(1) == Superfunction(0, 2, {0b10: 1.0})
    assert f.derive_odd(2) == Superfunction(0, 2, {0b01: -1.0})


def test_derive_odd_graded_product_rule():
    rng = np.random.default_rng(RNG_SEED + 7)
    for _ in range(30):
        n = 3
        wf = int(rng.integers(0, 1 << n))
        wg = int(rng.integers(0, 1 << n))
        f = Superfunction(0, n, {wf: complex(rng.normal(), rng.normal())})
        g = Superfunction(0, n, {wg: complex(rng.normal(), rng.normal())})
        a = int(rng.integers(1, n + 1))
        lhs = smul(f, g).derive_odd(a)
        sign = -1.0 if wf.bit_count() % 2 else 1.0
        rhs = smul(f.derive_odd(a), g) + smul(f, g.derive_odd(a)).scale(sign)
        assert sf_max_dev(lhs, rhs) < 1e-14


# ---------------------------------------------------------------------------
# misc


def test_parity_query():
    f = Superfunction.xi(0, 2, 1)
    assert f.parity() == 1
    g = Superfunction(0, 2, {0b11: 1.0})
    assert g.parity() == 0
    assert (f + g).parity() is None
    assert Superfunction.zero(0, 2).parity() == 0
    # aux bit counts toward parity
    h = Superfunction(0, 1, {0b11: 1.0}, naux=1)
    assert h.parity() == 0


def test_chop_drops_noise_terms():
    x = ExpPolyFunction.coordinate(1, 0)
    f = Superfunction(1, 0, {0: x + ExpPolyFunction.const(1, 1e-18)})
    assert len(f.chop().terms[0].terms) == 1
    # the scale is the largest coefficient over all words: a 1e-18 term alone
    # in one word is dropped against a unit term in another
    g = Superfunction(1, 1, {0: x, 1: ExpPolyFunction.const(1, 1e-18)})
    chopped = g.chop()
    assert set(chopped.terms) == {0}
    assert chopped.terms[0].terms[0] is g.terms[0].terms[0]


def test_sf_max_dev_keeps_a_nan_word():
    rng = np.random.default_rng(RNG_SEED + 8)
    f = random_superfunction(rng, 1, 2)
    assert len(f.terms) > 1
    assert math.isnan(sf_max_dev(f, f.scale(math.nan)))
    assert math.isnan(sf_max_dev(f.scale(math.nan), f))
