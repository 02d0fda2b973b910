"""Superfield action on the deformed plane with one odd direction: graded
derivations, both action functionals, and the coefficient-map comparison."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from superstar.errors import DimensionError, DivergenceError
from superstar.exppoly import ExpPolyFunction
from superstar.gwaction import (
    GWParams,
    Superfield,
    action_gw,
    action_super,
    action_super_report,
    calibration_identities,
    calibration_scale,
    coefficient_fit,
    default_fields,
    default_grid,
    even_context,
    graded_derivation,
    gw_context,
    plane_integrals,
    super_lagrangian,
    verify_gw,
)
from superstar.starprod import star
from superstar.superfun import Superfunction, sf_max_dev


def _gauss(a=0.5, c=1.0, center=None):
    fn = ExpPolyFunction.gaussian(2, -a * np.eye(2), c=c)
    return fn.translate(center) if center is not None else fn


# ---------------------------------------------------------------------------
# parameters


def test_coefficient_maps():
    p = GWParams(theta=2.0, mass=0.5, coupling=1.0, field_ratio=1.0)
    assert p.target_harmonic_sq == pytest.approx(0.25)
    assert p.target_quartic == pytest.approx(1.25)
    assert p.derived_harmonic_sq == pytest.approx(1.0)
    assert p.derived_quartic == pytest.approx(0.0)


def test_derived_fields_always_recomputed():
    a = GWParams(theta=1.0, mass=0.0, coupling=2.0, field_ratio=0.5)
    b = GWParams(theta=1.0, mass=0.0, coupling=2.0, field_ratio=0.5)
    assert a == b
    assert a.target_quartic == b.target_quartic
    with pytest.raises(Exception):
        a.theta = 3.0  # frozen


def test_params_validation():
    with pytest.raises(ValueError):
        GWParams(theta=0.0, mass=1.0, coupling=1.0, field_ratio=1.0)
    with pytest.raises(ValueError):
        GWParams(theta=1.0, mass=-0.5, coupling=1.0, field_ratio=1.0)


@pytest.mark.parametrize("name", ["theta", "mass", "coupling", "field_ratio"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_params_reject_non_finite(name, value):
    finite = dict(theta=1.0, mass=1.0, coupling=1.0, field_ratio=1.0)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        GWParams(**{**finite, name: value})


def test_coefficient_map_numerology():
    # the target harmonic coefficient is the square of the derived one over
    # theta^2 — the two maps agree only at field_ratio = 0
    for theta in (0.5, 1.3):
        for b in (0.4, 1.0, 1.7):
            p = GWParams(theta=theta, mass=0.0, coupling=1.0, field_ratio=b)
            assert p.target_harmonic_sq == pytest.approx(
                (p.derived_harmonic_sq / theta) ** 2)


# ---------------------------------------------------------------------------
# superfield


def test_superfield_identification():
    phi = _gauss()
    field = Superfield.identified(phi, 0.75)
    sf = field.as_superfunction()
    assert sf.m == 2 and sf.n == 1
    dev = sf.coefficient(1) - phi.scale(0.75)
    pts = np.random.default_rng(1).uniform(-1, 1, (16, 2))
    assert np.max(np.abs(dev.eval(pts))) <= 1e-15


def test_superfield_validation():
    with pytest.raises(DimensionError):
        Superfield(ExpPolyFunction.gaussian(3, -np.eye(3)), _gauss())
    with pytest.raises(ValueError):
        Superfield(_gauss().scale(1j), _gauss())


# ---------------------------------------------------------------------------
# graded derivations


def test_even_derivation_is_the_symplectic_gradient():
    # the star-commutator with a coordinate is -i theta (omega grad); the
    # calibration 2/theta makes the even derivation exactly (omega grad)_mu
    theta = 0.7
    ctx = gw_context(theta)
    phi = _gauss(0.6, 0.9, [0.1, -0.3]) * ExpPolyFunction.monomial(2, (1, 0))
    f = Superfunction(2, 1, {0: phi, 1: phi.scale(0.5)})
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for mu in (1, 2):
        D = graded_derivation(ctx, "even", mu, f)
        expected = Superfunction.zero(2, 1)
        for nu in range(2):
            if omega[mu - 1, nu]:
                expected = expected + Superfunction(
                    2, 1, {w: fn.derive(nu).scale(omega[mu - 1, nu])
                           for w, fn in f.terms.items()})
        assert sf_max_dev(D, expected) <= 1e-13


def test_derivations_kill_the_unit():
    ctx = gw_context(1.1)
    one = Superfunction.one(2, 1)
    for kind in ("even", "odd"):
        for mu in (1, 2):
            assert graded_derivation(ctx, kind, mu, one).is_zero


def test_odd_derivation_components():
    # on phi0 + b phi0 xi: even part -> -b x_mu phi0, odd part -> (omega grad)_mu phi0
    theta, b = 0.9, 1.3
    ctx = gw_context(theta)
    phi = _gauss(0.45, 1.1)
    f = Superfunction(2, 1, {0: phi, 1: phi.scale(b)})
    omega = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for mu in (1, 2):
        D = graded_derivation(ctx, "odd", mu, f)
        body = ExpPolyFunction.coordinate(2, mu - 1) * phi.scale(-b)
        odd = ExpPolyFunction.zero(2)
        for nu in range(2):
            if omega[mu - 1, nu]:
                odd = odd + phi.derive(nu).scale(omega[mu - 1, nu])
        expected = Superfunction(2, 1, {0: body, 1: odd})
        assert sf_max_dev(D, expected) <= 1e-13


def test_quartic_odd_factor_closed_form():
    # (1 + b xi)*^2 = 1 + b^2 c + 2 b xi with c = xi * xi = i theta/2, so the
    # body of (1 + b xi)*^4 is (1 + b^2 c)^2 + 4 b^2 c = 1 + 6 b^2 c + b^4 c^2;
    # its real part 1 - b^4 theta^2/4 is the derived quartic factor, and the
    # body -b x_mu phi of the odd derivation gives the derived harmonic weight
    for theta, b in ((0.9, 1.3), (1.7, 0.7)):
        ctx = gw_context(theta)
        u = Superfunction.one(2, 1) + Superfunction.xi(2, 1, 1).scale(b)
        u4 = star(ctx, u, star(ctx, u, star(ctx, u, u)))
        c = 0.5j * theta
        closed = 1 + 6 * b ** 2 * c + b ** 4 * c ** 2
        body = u4.body().eval(np.zeros((1, 2)))[0]
        assert abs(body - closed) <= 1e-13
        p = GWParams(theta=theta, mass=0.0, coupling=0.8, field_ratio=b)
        assert p.derived_quartic == pytest.approx(0.8 * closed.real, rel=1e-14)
        # (1/2) sum_mu (b x_mu phi)^2 = (2 harmonic_sq/theta^2) x^2 phi^2
        assert 2 * p.derived_harmonic_sq / theta ** 2 == pytest.approx(
            b ** 2 / 2, rel=1e-14)


def test_graded_leibniz():
    rng = np.random.default_rng(23)
    ctx = gw_context(0.8)

    def rand_even():
        L = rng.normal(size=(2, 2)) * 0.3
        return ExpPolyFunction.gaussian(
            2, -(L @ L.T + 0.4 * np.eye(2)), 0.3 * rng.normal(size=2),
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))

    for _ in range(4):
        # parity-homogeneous pair: f even word, g odd word
        f = Superfunction(2, 1, {0: rand_even()})
        g = Superfunction(2, 1, {1: rand_even()})
        for a, b in [(f, g), (f, f), (g, g), (g, f)]:
            pa = a.parity()
            prod = star(ctx, a, b)
            for kind, pd in (("even", 0), ("odd", 1)):
                for mu in (1, 2):
                    lhs = graded_derivation(ctx, kind, mu, prod)
                    sign = -1.0 if (pd and pa) else 1.0
                    rhs = (star(ctx, graded_derivation(ctx, kind, mu, a), b)
                           + star(ctx, a, graded_derivation(ctx, kind, mu, b)).scale(sign))
                    assert sf_max_dev(lhs, rhs) <= 1e-10


def test_derivation_validation():
    ctx = gw_context(1.0)
    one = Superfunction.one(2, 1)
    with pytest.raises(ValueError):
        graded_derivation(ctx, "sideways", 1, one)
    with pytest.raises(ValueError):
        graded_derivation(ctx, "even", 3, one)
    with pytest.raises(DimensionError):
        graded_derivation(even_context(1.0), "odd", 1, Superfunction.one(2, 0))


# ---------------------------------------------------------------------------
# action functionals


def test_action_super_zero_field():
    params = GWParams(theta=1.0, mass=1.0, coupling=1.0, field_ratio=1.0)
    zero = Superfield(ExpPolyFunction.zero(2), ExpPolyFunction.zero(2))
    assert action_super(super_lagrangian(gw_context(1.0), zero), params) == 0.0


def test_action_super_ratio_zero_is_free_plus_quartic():
    theta, mass, coupling = 0.8, 1.1, 0.6
    params = GWParams(theta=theta, mass=mass, coupling=coupling, field_ratio=0.0)
    phi = _gauss(0.55, 0.9)
    value = action_super(
        super_lagrangian(gw_context(theta), Superfield.identified(phi, 0.0)), params)
    kinetic = 0.5 * sum((phi.derive(mu) * phi.derive(mu)).integrate().real
                        for mu in range(2))
    mass_term = mass ** 2 / 2 * (phi * phi).integrate().real
    ctx0 = even_context(theta)
    f = Superfunction.from_even(phi, 0)
    quart = star(ctx0, f, star(ctx0, f, star(ctx0, f, f))).body().integrate().real
    expected = kinetic + mass_term + coupling * quart
    assert value == pytest.approx(expected, rel=1e-12)


def test_action_gw_zero_field():
    params = GWParams(theta=1.0, mass=1.0, coupling=1.0, field_ratio=1.0)
    value = action_gw(plane_integrals(1.0, ExpPolyFunction.zero(2)), params,
                      harmonic_sq=params.target_harmonic_sq, quartic=params.target_quartic)
    assert value == 0.0


def test_action_gw_free_closed_form():
    # for phi = c e^{-a x^2}: int (grad phi)^2 = c^2 pi (independent of a),
    # int phi^2 = c^2 pi/(2a)
    theta, mass = 1.0, 1.2
    a, c = 0.7, 0.9
    params = GWParams(theta=theta, mass=mass, coupling=0.0, field_ratio=0.0)
    phi = ExpPolyFunction.gaussian(2, -a * np.eye(2), c=c)
    value = action_gw(plane_integrals(theta, phi), params,
                      harmonic_sq=0.0, quartic=0.0)
    expected = c * c * (np.pi / 2 + mass ** 2 * np.pi / (4 * a))
    assert value == pytest.approx(expected, rel=1e-12)


def test_action_gw_positive_for_gaussian():
    params = GWParams(theta=0.9, mass=0.8, coupling=0.5, field_ratio=1.0)
    value = action_gw(plane_integrals(0.9, _gauss()), params,
                      harmonic_sq=params.target_harmonic_sq, quartic=params.target_quartic)
    assert np.isfinite(value) and value > 0


def test_divergent_field_rejected():
    wave = ExpPolyFunction.plane_wave(2, [0.5, -0.3])
    with pytest.raises(DivergenceError):
        plane_integrals(1.0, wave)
    with pytest.raises(DivergenceError):
        super_lagrangian(gw_context(1.0), Superfield(wave, wave, require_real=False))


def test_theta_mismatch_rejected():
    # the functionals record the theta they were computed at
    params = GWParams(theta=1.0, mass=1.0, coupling=1.0, field_ratio=1.0)
    with pytest.raises(ValueError):
        action_gw(plane_integrals(2.0, _gauss()), params,
                  harmonic_sq=params.target_harmonic_sq, quartic=params.target_quartic)
    lagrangian = super_lagrangian(gw_context(2.0), Superfield.identified(_gauss(), 1.0))
    with pytest.raises(ValueError):
        action_super(lagrangian, params)


# ---------------------------------------------------------------------------
# the identity, both channels


def test_super_action_matches_derived_map():
    for theta, mass, coupling, ratio in [(0.7, 0.9, 0.3, 1.1),
                                         (1.6, 0.4, 1.2, 0.6),
                                         (2.0, 0.7, 0.5, 1.4)]:
        params = GWParams(theta=theta, mass=mass, coupling=coupling,
                          field_ratio=ratio)
        phi = _gauss(0.6, 0.9, [0.1, -0.3])
        s_super = action_super(
            super_lagrangian(gw_context(theta), Superfield.identified(phi, ratio)),
            params)
        s_plane = action_gw(plane_integrals(theta, phi), params,
                            harmonic_sq=params.derived_harmonic_sq,
                            quartic=params.derived_quartic)
        assert s_super == pytest.approx(s_plane, rel=1e-10, abs=1e-12)


def test_target_map_obstruction():
    # the three mechanical obstructions: the target map misses by O(1) for
    # ratio != 0, the raw body integral is genuinely complex, and the full
    # Berezin channel vanishes identically at ratio = 0
    theta, mass, coupling, ratio = 0.7, 0.9, 0.3, 1.1
    params = GWParams(theta=theta, mass=mass, coupling=coupling,
                      field_ratio=ratio)
    phi = _gauss(0.6, 0.9)
    rep = action_super_report(
        super_lagrangian(gw_context(theta), Superfield.identified(phi, ratio)), params)
    s_target = action_gw(plane_integrals(theta, phi), params,
                         harmonic_sq=params.target_harmonic_sq,
                         quartic=params.target_quartic)
    assert abs(rep["value"] - s_target) / abs(s_target) > 1e-3
    assert abs(rep["imag_residue"]) > 1e-3

    free = GWParams(theta=theta, mass=mass, coupling=coupling, field_ratio=0.0)
    rep0 = action_super_report(
        super_lagrangian(gw_context(theta), Superfield.identified(phi, 0.0)), free)
    assert rep0["berezin_channel"] == [0.0, 0.0]
    assert rep0["value"] > 0.1  # the body channel keeps the free action


def test_calibration_identities():
    cal = calibration_identities(1.3, _gauss(0.45, 1.1))
    assert cal["kinetic_rel_dev"] <= 1e-12
    assert cal["harmonic_rel_dev"] <= 1e-12
    assert calibration_scale(2.0) == pytest.approx(1.0)


def test_coefficient_fit_recovers_derived_map():
    params = GWParams(theta=1.1, mass=0.9, coupling=0.7, field_ratio=1.2)
    fit = coefficient_fit(params)
    assert fit["residual"] <= 1e-10
    assert fit["rank"] == 4
    assert fit["kinetic_coeff"] == pytest.approx(1.0, abs=1e-10)
    assert fit["mass_sq_fit"] == pytest.approx(params.mass ** 2, abs=1e-9)
    assert fit["harmonic_sq_fit"] == pytest.approx(
        params.derived_harmonic_sq, rel=1e-10)
    assert fit["quartic_fit"] == pytest.approx(params.derived_quartic, rel=1e-9)


def test_verify_gw_report():
    report = verify_gw()
    assert report["grid_points"] >= 12
    assert report["fields"] >= 3
    assert len(report["points"]) == report["grid_points"] * report["fields"]
    assert report["derived_passed"] and report["derived_max_rel_dev"] <= 1e-8
    assert not report["passed"]  # the target map fails whenever ratio != 0
    assert report["target_max_rel_dev"] > 1e-3
    assert report["calibration"]["scale_formula"] == "2/theta"
    assert report["calibration"]["kinetic_rel_dev"] <= 1e-10
    fit = report["coefficient_fit"]
    assert fit["residual"] <= 1e-10
    # the identity must hold with the single fixed calibration at every point
    for pt in report["points"]:
        assert pt["derived"]["rel_dev"] <= 1e-8
        if pt["field_ratio"] == 0.0:
            assert pt["target"]["rel_dev"] <= 1e-8  # maps agree at ratio 0


def test_target_refuted_needs_a_nonzero_ratio():
    # at b = 0 the two maps coincide, so b = 0 points alone refute nothing;
    # b != 0 points alone leave the b = 0 agreement unchecked
    fields = default_fields()[:1]
    b_zero = [p for p in default_grid() if p.field_ratio == 0.0][:2]
    report = verify_gw(grid=b_zero, fields=fields)
    assert report["passed"]
    assert report["target_refuted"] is False
    mixed = b_zero[:1] + [GWParams(theta=0.6, mass=0.5, coupling=0.3,
                                   field_ratio=0.7)]
    report = verify_gw(grid=mixed, fields=fields)
    assert not report["passed"]
    assert report["target_refuted"] is True
    report = verify_gw(grid=mixed[1:], fields=fields)
    assert not report["passed"]
    assert report["target_refuted"] is False


def test_verify_gw_builds_each_functional_once(monkeypatch):
    # both actions are linear in mass^2 and coupling: the default 12 x 3 grid
    # needs one Lagrangian per (theta, b, field), 2 x 3 x 3 = 18, and one
    # plane set per (theta, field), 2 x 3 = 6; the coefficient fit, at a
    # theta off the grid, builds one of each for its own six fields
    from superstar import gwaction

    thetas = {"lagrangian": [], "plane": []}
    real_lagrangian, real_plane = gwaction.super_lagrangian, gwaction.plane_integrals

    def lagrangian(ctx, field):
        thetas["lagrangian"].append(ctx.theta)
        return real_lagrangian(ctx, field)

    def plane(theta, phi):
        thetas["plane"].append(theta)
        return real_plane(theta, phi)

    monkeypatch.setattr(gwaction, "super_lagrangian", lagrangian)
    monkeypatch.setattr(gwaction, "plane_integrals", plane)
    verify_gw()
    on_grid = {p.theta for p in default_grid()}
    assert sum(t in on_grid for t in thetas["lagrangian"]) == 18
    assert sum(t in on_grid for t in thetas["plane"]) == 6
    assert len(thetas["lagrangian"]) == 18 + 6
    assert len(thetas["plane"]) == 6 + 6


def test_empty_grid_passes_nothing():
    report = verify_gw(grid=[], fields=default_fields()[:1])
    assert report["points"] == []
    assert report["passed"] is False
    assert report["derived_passed"] is False
    assert report["target_refuted"] is False


def test_default_grid_and_fields_shape():
    grid = default_grid()
    assert len(grid) >= 12
    assert any(p.field_ratio == 0.0 for p in grid)
    assert any(p.field_ratio != 0.0 for p in grid)
    assert len(default_fields()) >= 3


def test_calibration_sweep_script_runs_and_refutes_the_target_map():
    # scripts/explore_gw_calibration.py is the README's evidence that no
    # reading reproduces the target map; --quick sweeps a reduced grid
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                       env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(root / "scripts" / "explore_gw_calibration.py"),
                          "--quick"], cwd=root, env=env, capture_output=True, text=True,
                         timeout=300)
    assert run.returncode == 0, run.stderr
    assert "conclusion: the derived coefficient map is reproduced" in run.stdout
