"""Deformation of translation-action algebras and the supertorus cross-check."""

import math

import numpy as np
import pytest

from superstar.errors import DimensionError
from superstar.exppoly import ExpPolyFunction
from superstar.sampling import random_star_factor
from superstar.starprod import DeformationContext, star
from superstar.superfun import Superfunction, sf_max_dev
from superstar.udf import ActionSpec, torus_vs_udf, udf_product

CTX = DeformationContext(0.7, 1, 2, (1, 1))


# ---------------------------------------------------------------------------
# action spec and smooth vectors
# ---------------------------------------------------------------------------


def test_action_spec_validation():
    with pytest.raises(ValueError):
        ActionSpec("weird-class", CTX)


def test_action_axioms_pass_for_shipped_actions():
    ActionSpec("B1-class", CTX)
    ActionSpec("trig-superpolynomials", CTX)
    ActionSpec("B1-class", DeformationContext(0.4, 2, 1))
    ActionSpec("trig-superpolynomials", DeformationContext(1.3, 1, 0))


def test_smooth_vector_of_plane_wave_translates_the_argument():
    # rho^{e^{ikx}}(z) = e^{ik(x+z)}
    ctx = DeformationContext(0.7, 1, 0)
    spec = ActionSpec("B1-class", ctx)
    k = np.array([0.3, -1.1])
    a = Superfunction.from_even(ExpPolyFunction.plane_wave(2, k), 0)
    rho_a = spec.smooth_vector(a)
    expected = Superfunction.from_even(
        ExpPolyFunction.plane_wave(4, np.concatenate([k, k])), 0)
    assert sf_max_dev(rho_a, expected) < 1e-14


def test_smooth_vector_of_odd_generator_adds_group_generator():
    # rho^{xi^1}(z) = xi^1 + xi_z^1
    ctx = DeformationContext(0.7, 0, 1)
    spec = ActionSpec("B1-class", ctx)
    a = Superfunction.xi(0, 1, 1)
    rho_a = spec.smooth_vector(a)
    expected = Superfunction.xi(0, 2, 1) + Superfunction.xi(0, 2, 2)
    assert sf_max_dev(rho_a, expected) < 1e-14


def test_action_is_additive_in_the_group_coordinate():
    spec = ActionSpec("B1-class", CTX)
    rng = np.random.default_rng(1)
    a = random_star_factor(rng, CTX, kinds=("gaussian", "pw"))
    x1, x2 = rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)
    assert sf_max_dev(spec.translate(spec.translate(a, x1), x2),
                      spec.translate(a, x1 + x2)) < 1e-10


def test_smooth_vector_dimension_check():
    spec = ActionSpec("B1-class", CTX)
    with pytest.raises(DimensionError):
        spec.smooth_vector(Superfunction.one(4, 2))
    with pytest.raises(DimensionError):
        spec.translate(Superfunction.one(2, 1), np.zeros(2))


# ---------------------------------------------------------------------------
# the deformed product
# ---------------------------------------------------------------------------


def test_udf_recovers_flat_star_on_b1_class():
    spec = ActionSpec("B1-class", CTX)
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = random_star_factor(rng, CTX, kinds=("gaussian", "pw"))
        b = random_star_factor(rng, CTX, kinds=("gaussian", "pw"))
        assert sf_max_dev(udf_product(spec, a, b), star(CTX, a, b)) < 1e-12


def test_udf_unit_law():
    one = Superfunction.one(2, 2)
    rng = np.random.default_rng(4)
    for tag in ("B1-class", "trig-superpolynomials"):
        spec = ActionSpec(tag, CTX)
        a = spec.sample(rng, 1)[0]
        assert sf_max_dev(udf_product(spec, a, one), a) < 1e-12
        assert sf_max_dev(udf_product(spec, one, a), a) < 1e-12


def test_trig_plane_wave_product_phase():
    # e^{2 pi i x_1} times e^{2 pi i x_2} deforms with the Fresnel phase
    # e^{i (theta/2) omega(k1, k2)} = e^{2 i pi^2 theta}
    ctx = DeformationContext(0.7, 1, 0)
    spec = ActionSpec("trig-superpolynomials", ctx)
    e1 = Superfunction.from_even(
        ExpPolyFunction.plane_wave(2, [2 * np.pi, 0]), 0)
    e2 = Superfunction.from_even(
        ExpPolyFunction.plane_wave(2, [0, 2 * np.pi]), 0)
    prod = udf_product(spec, e1, e2)
    expected = Superfunction.from_even(
        ExpPolyFunction.plane_wave(2, [2 * np.pi, 2 * np.pi],
                                   np.exp(2j * np.pi**2 * ctx.theta)), 0)
    assert sf_max_dev(prod, expected) < 1e-12


def test_trig_class_closed_under_deformation():
    # the deformed product of integer plane waves is again an integer plane wave
    spec = ActionSpec("trig-superpolynomials", CTX)
    rng = np.random.default_rng(5)
    a, b = spec.sample(rng, 2)
    prod = udf_product(spec, a, b)
    for word, fn in prod.terms.items():
        for A_ut, b in fn.keys:
            assert np.allclose(np.asarray(A_ut), 0)
            lattice = np.array([v / (2j * np.pi) for v in b])
            assert np.max(np.abs(lattice - np.round(lattice.real))) < 1e-9


@pytest.mark.parametrize("tag", ["B1-class", "trig-superpolynomials"])
def test_udf_associativity(tag):
    spec = ActionSpec(tag, CTX)
    rng = np.random.default_rng(6)
    for _ in range(10):
        a, b, c = spec.sample(rng, 3)
        lhs = udf_product(spec, udf_product(spec, a, b), c)
        rhs = udf_product(spec, a, udf_product(spec, b, c))
        assert sf_max_dev(lhs, rhs) < 1e-10


# ---------------------------------------------------------------------------
# supertorus cross-check
# ---------------------------------------------------------------------------


def test_torus_vs_udf_matches_on_generator_pairs():
    rep = torus_vs_udf(CTX)
    assert rep["matched"], rep["counterexample"]
    assert rep["max_deviation"] < 1e-10
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
        assert rep["matched"], rep["counterexample"]
        assert rep["max_deviation"] < 1e-10


def test_torus_vs_udf_trivial_odd_sector():
    # signature q = 0: no Xi generators appear in the report
    rep = torus_vs_udf(DeformationContext(0.3, 1, 1, (1, 0)))
    assert rep["generators"] == ["U1", "V1", "G1"]
    rep = torus_vs_udf(DeformationContext(0.5, 1, 0, (0, 0)))
    assert rep["generators"] == ["U1", "V1"]
    assert all(not g.startswith("X") for g in rep["generators"])


def test_torus_vs_udf_judges_pairs_at_the_given_tolerance():
    # the bridge misses by rounding only, so a tolerance below it names a pair
    rep = torus_vs_udf(CTX, 1e-17)
    assert rep["matched"] is False
    pair = rep["counterexample"]
    assert pair is not None and pair in rep["relations"]
    assert not pair["deviation"] <= 1e-17
    assert rep["max_deviation"] < 1e-10
