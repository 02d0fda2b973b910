"""Deformation of translation-action algebras and the supertorus cross-check."""

import math

import numpy as np
import pytest

from superstar.errors import DimensionError
from superstar.exppoly import ExpPolyFunction
from superstar.sampling import (
    random_odd_aux_shifts,
    random_star_factor,
    random_trig_superpolynomial,
)
from superstar.starprod import DeformationContext, star
from superstar.superfun import Superfunction, grassmann_translate, sf_max_dev, smul
from superstar.udf import smooth_vector, torus_vs_udf, udf_product

CTX = DeformationContext(0.7, 1, 2, (1, 1))

# the two classes the udf suite samples
SAMPLERS = {
    "B1-class": lambda rng, ctx: random_star_factor(rng, ctx, kinds=("gaussian", "pw")),
    "trig-superpolynomials": random_trig_superpolynomial,
}
AXIOM_CONTEXTS = [DeformationContext(0.7, 1, 2, (1, 1)),
                  DeformationContext(0.4, 2, 1),
                  DeformationContext(1.3, 1, 0)]
AXIOM_CASES = [pytest.param(ctx, tag, id=f"{tag}-m{ctx.m}n{ctx.n}")
               for ctx in AXIOM_CONTEXTS for tag in SAMPLERS]


# ---------------------------------------------------------------------------
# the translation action: smooth vectors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("ctx, tag", AXIOM_CASES)
def test_smooth_vector_coefficients_are_translates(ctx, tag):
    # the coefficient of xi^I in rho^a is a_I(x + z); rows with z = 0 check
    # the identity, and equal values at every point isometry and continuity
    rng = np.random.default_rng(7)
    d = 2 * ctx.m
    for _ in range(3):
        a = SAMPLERS[tag](rng, ctx)
        rho_a = smooth_vector(ctx, a)
        x = rng.uniform(-1.2, 1.2, size=(12, d))
        z = rng.uniform(-1.2, 1.2, size=(12, d))
        z[:4] = 0.0
        for word in a.terms:
            got = rho_a.coefficient(word).eval(np.hstack([x, z]))
            want = a.coefficient(word).eval(x + z)
            assert np.max(np.abs(got - want)) < 1e-10 * (1 + np.max(np.abs(want)))


@pytest.mark.parametrize("ctx, tag", AXIOM_CASES)
def test_smooth_vector_is_additive_in_the_group_coordinate(ctx, tag):
    # rho_{z0} rho_z = rho_{z0 + z}: shifting z by z0 equals shifting x by
    # z0, and shifting xi_z by an odd eta equals shifting xi by it
    rng = np.random.default_rng(8)
    d, n = 2 * ctx.m, ctx.n
    odd_moves = 0
    for _ in range(4):
        rho_a = smooth_vector(ctx, SAMPLERS[tag](rng, ctx))
        z0 = rng.uniform(-1, 1, size=d)
        in_z = rho_a.translate_even(np.concatenate([np.zeros(d), z0]))
        in_x = rho_a.translate_even(np.concatenate([z0, np.zeros(d)]))
        assert sf_max_dev(in_z, in_x) < 1e-10
        if n:
            eta = random_odd_aux_shifts(rng, n, 2)
            in_xi_z = grassmann_translate(rho_a, [None] * n + eta)
            in_xi = grassmann_translate(rho_a, eta + [None] * n)
            assert sf_max_dev(in_xi_z, in_xi) < 1e-10
            odd_moves += sf_max_dev(in_xi, rho_a) > 1e-6
    # the odd comparison is not vacuous: some sample has odd content
    assert odd_moves or not n


@pytest.mark.parametrize("ctx, tag", AXIOM_CASES)
def test_smooth_vector_is_an_algebra_automorphism(ctx, tag):
    rng = np.random.default_rng(9)
    for _ in range(3):
        a = SAMPLERS[tag](rng, ctx)
        b = SAMPLERS[tag](rng, ctx)
        assert sf_max_dev(smooth_vector(ctx, smul(a, b)),
                          smul(smooth_vector(ctx, a), smooth_vector(ctx, b))) < 1e-9


def test_smooth_vector_of_plane_wave_translates_the_argument():
    # rho^{e^{ikx}}(z) = e^{ik(x+z)}
    ctx = DeformationContext(0.7, 1, 0)
    k = np.array([0.3, -1.1])
    a = Superfunction.from_even(ExpPolyFunction.plane_wave(2, k), 0)
    rho_a = smooth_vector(ctx, a)
    expected = Superfunction.from_even(
        ExpPolyFunction.plane_wave(4, np.concatenate([k, k])), 0)
    assert sf_max_dev(rho_a, expected) < 1e-14


def test_smooth_vector_of_odd_generator_adds_group_generator():
    # rho^{xi^1}(z) = xi^1 + xi_z^1
    ctx = DeformationContext(0.7, 0, 1)
    a = Superfunction.xi(0, 1, 1)
    rho_a = smooth_vector(ctx, a)
    expected = Superfunction.xi(0, 2, 1) + Superfunction.xi(0, 2, 2)
    assert sf_max_dev(rho_a, expected) < 1e-14


def test_smooth_vector_dimension_check():
    with pytest.raises(DimensionError):
        smooth_vector(CTX, Superfunction.one(4, 2))
    with pytest.raises(DimensionError):
        smooth_vector(CTX, Superfunction.one(2, 1))


# ---------------------------------------------------------------------------
# the deformed product
# ---------------------------------------------------------------------------


def test_udf_recovers_flat_star_on_b1_class():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_star_factor(rng, CTX, kinds=("gaussian", "pw"))
        b = random_star_factor(rng, CTX, kinds=("gaussian", "pw"))
        assert sf_max_dev(udf_product(CTX, a, b), star(CTX, a, b)) < 1e-12


def test_udf_unit_law():
    one = Superfunction.one(2, 2)
    rng = np.random.default_rng(4)
    for sample in SAMPLERS.values():
        a = sample(rng, CTX)
        assert sf_max_dev(udf_product(CTX, a, one), a) < 1e-12
        assert sf_max_dev(udf_product(CTX, one, a), a) < 1e-12


def test_trig_plane_wave_product_phase():
    # e^{2 pi i x_1} times e^{2 pi i x_2} deforms with the Fresnel phase
    # e^{i (theta/2) omega(k1, k2)} = e^{2 i pi^2 theta}
    ctx = DeformationContext(0.7, 1, 0)
    e1 = Superfunction.from_even(
        ExpPolyFunction.plane_wave(2, [2 * np.pi, 0]), 0)
    e2 = Superfunction.from_even(
        ExpPolyFunction.plane_wave(2, [0, 2 * np.pi]), 0)
    prod = udf_product(ctx, e1, e2)
    expected = Superfunction.from_even(
        ExpPolyFunction.plane_wave(2, [2 * np.pi, 2 * np.pi],
                                   np.exp(2j * np.pi**2 * ctx.theta)), 0)
    assert sf_max_dev(prod, expected) < 1e-12


def test_trig_class_closed_under_deformation():
    # the deformed product of integer plane waves is again an integer plane wave
    rng = np.random.default_rng(5)
    a = random_trig_superpolynomial(rng, CTX)
    b = random_trig_superpolynomial(rng, CTX)
    prod = udf_product(CTX, a, b)
    for word, fn in prod.terms.items():
        for A_ut, b in fn.keys:
            assert np.allclose(np.asarray(A_ut), 0)
            lattice = np.array([v / (2j * np.pi) for v in b])
            assert np.max(np.abs(lattice - np.round(lattice.real))) < 1e-9


@pytest.mark.parametrize("tag", list(SAMPLERS))
def test_udf_associativity(tag):
    sample = SAMPLERS[tag]
    rng = np.random.default_rng(6)
    for _ in range(10):
        a, b, c = sample(rng, CTX), sample(rng, CTX), sample(rng, CTX)
        lhs = udf_product(CTX, udf_product(CTX, a, b), c)
        rhs = udf_product(CTX, a, udf_product(CTX, b, c))
        assert sf_max_dev(lhs, rhs) < 1e-10


# ---------------------------------------------------------------------------
# supertorus cross-check
# ---------------------------------------------------------------------------


def test_torus_vs_udf_matches_on_generator_pairs():
    rep = torus_vs_udf(CTX)
    assert all(r["deviation"] < 1e-10 for r in rep["relations"]), rep["relations"]
    assert rep["uv_phase_residual"] < 1e-12
    assert abs(rep["theta_torus"] - 2 * np.pi * CTX.theta) < 1e-14


def test_torus_vs_udf_odd_rescaling_is_two_root_pi():
    rep = torus_vs_udf(CTX)
    assert abs(rep["odd_scale"] - 2 * math.sqrt(math.pi)) < 1e-12
    assert rep["odd_scale_spread"] < 1e-12


def test_torus_vs_udf_other_contexts():
    for ctx in (DeformationContext(0.3, 1, 1, (1, 0)),
                DeformationContext(1.1, 2, 2, (0, 2))):
        rep = torus_vs_udf(ctx)
        assert all(r["deviation"] < 1e-10 for r in rep["relations"]), rep["relations"]


def test_torus_vs_udf_trivial_odd_sector():
    # signature q = 0: no Xi generators appear in the report
    rep = torus_vs_udf(DeformationContext(0.3, 1, 1, (1, 0)))
    assert rep["generators"] == ["U1", "V1", "G1"]
    rep = torus_vs_udf(DeformationContext(0.5, 1, 0, (0, 0)))
    assert rep["generators"] == ["U1", "V1"]
    assert all(not g.startswith("X") for g in rep["generators"])


def test_torus_vs_udf_reports_each_pair_deviation_not_a_verdict():
    # the udf suite judges the pairs; the bridge misses by rounding only, so
    # some pair's deviation is above 1e-17
    rep = torus_vs_udf(CTX)
    assert not {"passed", "matched", "counterexample", "max_deviation"} & set(rep)
    pairs = [r["pair"] for r in rep["relations"]]
    assert pairs == [f"{a}*{b}" for a in rep["generators"] for b in rep["generators"]]
    assert any(not r["deviation"] <= 1e-17 for r in rep["relations"])
    assert all(r["deviation"] < 1e-10 for r in rep["relations"])
