"""Exact calculus on the polynomial-times-Gaussian class, with quadrature oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate as sint

from superstar import cli
from superstar.errors import DivergenceError
from superstar.exppoly import (
    ExpPolyFunction,
    _matrix_from_ut,
    _triangle,
    _ut_from_matrix,
    ep_add_into,
    ep_from_distinct,
    ep_integrate,
    ep_integrate_partial,
    ep_max_dev,
    ep_mul,
    ep_mul_into,
    worst_dev,
)
from superstar.sampling import random_even
from superstar.starprod import DeformationContext, star, star_oracle
from superstar.superfun import Superfunction, sf_max_dev
from superstar.udf import torus_vs_udf

RNG = np.random.default_rng(20260817)


def _re_im(v: complex) -> np.ndarray:
    return np.array([v.real, v.imag])


def quad_oracle(f: ExpPolyFunction, lim: float = 30.0) -> complex:
    """Quadrature over R^d for d in {1, 2} (test oracle only).

    Adaptive Gauss-Kronrod in x (``quad_vec``, real and imaginary part in one
    pass).  For d = 2 the integrand at x is the y-integral by a 400-node
    Gauss-Legendre rule on [-lim, lim], from one vectorized ``f.eval``; on
    the test integrands, entire and Gaussian-decaying, that rule's error is
    far below the 1e-9 bound.
    """
    opts = dict(epsabs=1e-13, epsrel=1e-12, limit=400)
    if f.d == 1:
        val, _ = sint.quad_vec(lambda x: _re_im(f.eval(np.array([x]))), -lim, lim, **opts)
        return complex(*val)
    if f.d == 2:
        ys, ws = np.polynomial.legendre.leggauss(400)
        ys, ws = lim * ys, lim * ws

        def slab(x):
            return _re_im(f.eval(np.column_stack([np.full_like(ys, x), ys])) @ ws)

        val, _ = sint.quad_vec(slab, -lim, lim, **opts)
        return complex(*val)
    raise NotImplementedError


def random_integrable(rng, d: int, nterms: int = 1, *, max_deg: int = 2,
                      imag_quad: float = 0.3) -> ExpPolyFunction:
    """Random absolutely integrable function: Re(A) strictly negative definite."""
    keys = {}
    for _ in range(nterms):
        L = rng.normal(size=(d, d)) * 0.5
        S = rng.normal(size=(d, d)) * imag_quad
        A = -(L @ L.T + 0.4 * np.eye(d)) + 1j * (S + S.T) / 2
        b = rng.normal(size=d) + 1j * rng.normal(size=d)
        alpha = tuple(int(a) for a in rng.integers(0, max_deg + 1, size=d))
        c = complex(rng.normal(), rng.normal())
        poly = keys.setdefault((_ut_from_matrix(A), tuple(map(complex, b))), {})
        poly[alpha] = poly.get(alpha, 0j) + c
    return ExpPolyFunction(d, keys)


def integrate_axes(f: ExpPolyFunction, axes) -> ExpPolyFunction:
    """Integrate out ``axes``: ``affine`` moves them last, exactly (a
    permutation), and the other axes keep their order."""
    order = [i for i in range(f.d) if i not in axes] + sorted(axes)
    moved = f.affine(np.eye(f.d)[:, order], np.zeros(f.d))
    return ep_integrate_partial(moved, f.d - len(axes))


def coefficients(f: ExpPolyFunction) -> dict:
    """{(alpha, A_ut, b): c}, one entry per term of f."""
    return {(alpha, A_ut, b): c for (A_ut, b), poly in f.keys.items()
            for alpha, c in poly.items()}


# ---------------------------------------------------------------------------
# integration examples


def test_gaussian_integral_sqrt_pi():
    f = ExpPolyFunction.gaussian(1, [[-1.0]])
    assert abs(ep_integrate(f) - math.sqrt(math.pi)) < 1e-12
    assert abs(ep_integrate(f) - quad_oracle(f)) < 1e-12


def test_odd_moment_vanishes():
    f = ExpPolyFunction.coordinate(1, 0) * ExpPolyFunction.gaussian(1, [[-1.0]])
    assert abs(ep_integrate(f)) < 1e-14


def test_even_moments_match_known_values():
    g = ExpPolyFunction.gaussian(1, [[-1.0]])
    x2 = ExpPolyFunction.monomial(1, (2,)) * g
    x4 = ExpPolyFunction.monomial(1, (4,)) * g
    assert abs(ep_integrate(x2) - math.sqrt(math.pi) / 2) < 1e-12
    assert abs(ep_integrate(x4) - 3 * math.sqrt(math.pi) / 4) < 1e-12


@pytest.mark.parametrize("b", [0.3, 1.1, 2.5])
def test_shifted_gaussian(b):
    f = ExpPolyFunction.gaussian(1, [[-1.0]], [b])
    want = math.sqrt(math.pi) * math.exp(b * b / 4)
    assert abs(ep_integrate(f) - want) < 1e-12 * want
    assert abs(ep_integrate(f) - quad_oracle(f)) < 1e-9 * want


def test_divergent_integrals_raise():
    with pytest.raises(DivergenceError):
        ep_integrate(ExpPolyFunction.gaussian(1, [[0.0]], [1.0]))  # e^x
    with pytest.raises(DivergenceError):
        ep_integrate(ExpPolyFunction.one(1))
    with pytest.raises(DivergenceError):
        ep_integrate(ExpPolyFunction.plane_wave(1, [2.0]))


def test_fresnel_integral():
    # int e^{i x^2} dx = sqrt(pi) e^{i pi/4}
    f = ExpPolyFunction.gaussian(1, [[1j]])
    want = math.sqrt(math.pi) * np.exp(1j * math.pi / 4)
    assert abs(ep_integrate(f) - want) < 1e-12
    # epsilon-regularized oracle: A = i - eps, analytic value for each eps
    for eps in [1e-3, 1e-5]:
        reg = ExpPolyFunction.gaussian(1, [[1j - eps]])
        assert abs(ep_integrate(reg) - math.sqrt(math.pi) / np.sqrt(eps - 1j)) < 1e-12


def test_fresnel_with_coupled_real_direction():
    # e^{-x^2 + 2ixy}: Re(A) is singular PSD but A invertible; the y-integral
    # of the x-Gaussian times plane wave must agree with the iterated value
    # int dx dy e^{-x^2+2ixy} g(y) computed against an explicit narrow Gaussian.
    A = np.array([[-1.0, 1j], [1j, 0.0]])
    f = ExpPolyFunction.gaussian(2, A)
    assert not f.integrable
    # int dx e^{-x^2+2ixy} = sqrt(pi) e^{-y^2}; then int dy sqrt(pi) e^{-y^2} = pi
    assert abs(ep_integrate(f) - math.pi) < 1e-12


def test_integrability_flags():
    assert ExpPolyFunction.gaussian(1, [[-2.0]]).integrable
    # e^{i x^2} is not absolutely integrable, but its Fresnel limit exists
    f = ExpPolyFunction.gaussian(1, [[1j]])
    assert not f.integrable
    assert abs(ep_integrate(f) - math.sqrt(math.pi) * np.exp(1j * math.pi / 4)) < 1e-12
    # the constant 1 is neither
    one = ExpPolyFunction.one(1)
    assert not one.integrable
    with pytest.raises(DivergenceError):
        ep_integrate(one)


def test_quadrature_agreement_random():
    rng = np.random.default_rng(7)
    for i in range(25):
        d = 1 + (i % 2)
        f = random_integrable(rng, d, nterms=1 + (i % 2))
        exact = ep_integrate(f)
        approx = quad_oracle(f)
        assert abs(exact - approx) <= 1e-9 * max(1.0, abs(exact)), (i, d)


def test_translation_invariance_of_integral():
    rng = np.random.default_rng(11)
    for i in range(50):
        d = 1 + (i % 3)
        f = random_integrable(rng, d, nterms=1 + (i % 2))
        a = rng.normal(size=d)
        lhs = ep_integrate(f.translate(a))
        rhs = ep_integrate(f)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs)), (i, d)


def test_integral_of_derivative_vanishes():
    rng = np.random.default_rng(13)
    for i in range(50):
        d = 1 + (i % 3)
        f = random_integrable(rng, d)
        mu = int(rng.integers(0, d))
        val = ep_integrate(f.derive(mu))
        assert abs(val) <= 1e-12 * max(1.0, _scale_of(f)), (i, d)


def _scale_of(f):
    return max(map(abs, coefficients(f).values()), default=1.0)


def test_partial_integration_consistency():
    rng = np.random.default_rng(17)
    for _ in range(10):
        f = random_integrable(rng, 3)
        full = ep_integrate(f)
        partial = ep_integrate(integrate_axes(f, [1]))
        assert abs(full - partial) <= 1e-11 * max(1.0, abs(full))
        # integrate axes one at a time in a different order
        step = integrate_axes(ep_integrate_partial(f, 2), [0])
        assert abs(ep_integrate(step) - full) <= 1e-11 * max(1.0, abs(full))


def test_partial_integration_pointwise_against_quadrature():
    rng = np.random.default_rng(19)
    f = random_integrable(rng, 2)
    g = integrate_axes(f, [0])  # function of the old axis 1
    for y in [-0.7, 0.0, 1.3]:
        section_re, _ = sint.quad(
            lambda x: f.eval(np.array([[x, y]]))[0].real, -30, 30, limit=400)
        section_im, _ = sint.quad(
            lambda x: f.eval(np.array([[x, y]]))[0].imag, -30, 30, limit=400)
        assert abs(g.eval(np.array([y])) - complex(section_re, section_im)) < 1e-9



def _keyed_integrand(rng, d: int, nkeys: int) -> ExpPolyFunction:
    """Several terms on each of ``nkeys`` exponent keys; the last key reuses
    the first key's quadratic form with another linear form."""
    keys = list(random_integrable(rng, d, nkeys - 1).keys)
    keys.append((keys[0][0], tuple(map(complex, rng.normal(size=d) + 1j * rng.normal(size=d)))))
    out = {}
    for key in keys:
        poly = out.setdefault(key, {})
        for _ in range(int(rng.integers(2, 5))):
            alpha = tuple(int(a) for a in rng.integers(0, 3, size=d))
            poly[alpha] = poly.get(alpha, 0j) + complex(rng.normal(), rng.normal())
    return ExpPolyFunction(d, out)


def _max_rel_coefficient_dev(f: ExpPolyFunction, g: ExpPolyFunction) -> float:
    """Same keys required; then the largest coefficient deviation relative to
    the largest coefficient."""
    cf, cg = coefficients(f), coefficients(g)
    assert cf.keys() == cg.keys()
    top = max(abs(c) for c in cf.values())
    return max(abs(cf[k] - cg[k]) for k in cf) / top


@pytest.mark.parametrize("d,axes", [(2, [0]), (3, [1]), (3, [0, 2]), (3, [0, 1, 2])])
def test_keyed_reduction_equals_termwise_reduction(d, axes):
    rng = np.random.default_rng([41, d, len(axes)])
    for nkeys in (2, 3, 4):
        f = _keyed_integrand(rng, d, nkeys)
        assert len(f.keys) == nkeys
        assert len(coefficients(f)) > nkeys
        whole = integrate_axes(f, axes)
        termwise = {}
        for (alpha, A_ut, b), c in coefficients(f).items():
            single = ExpPolyFunction(d, {(A_ut, b): {alpha: c}})
            ep_add_into(termwise, integrate_axes(single, axes))
        termwise = ExpPolyFunction(whole.d, termwise)
        assert _max_rel_coefficient_dev(whole, termwise) <= 1e-12, (nkeys, axes)


def test_keyed_reduction_raises_on_the_one_inadmissible_key():
    rng = np.random.default_rng(43)
    good = _keyed_integrand(rng, 2, 3)
    # e^{x_0} times x_1: no Gaussian decay or oscillation along axis 0
    bad = (ExpPolyFunction.gaussian(2, np.diag([0.0, -1.0]), [1.0, 0.0])
           * ExpPolyFunction.coordinate(2, 1))
    integrate_axes(good, [0])
    with pytest.raises(DivergenceError):
        integrate_axes(good + bad, [0])
    with pytest.raises(DivergenceError):
        ep_integrate(good + bad)


@pytest.mark.parametrize("keep", [-1, 3, 4])
def test_keep_outside_the_dimension_raises(keep):
    f = random_integrable(np.random.default_rng(47), 2)
    with pytest.raises(ValueError, match="out of range"):
        ep_integrate_partial(f, keep)


def test_kernel_that_does_not_split_the_trailing_block_raises():
    f = random_integrable(np.random.default_rng(53), 4)
    kernel = (0.5j * np.eye(2), -2j * np.eye(2))  # an oscillating coupling
    assert ep_integrate_partial(f, 0, kernel=kernel).d == 0
    for keep in (1, 3):  # a trailing block of 3 or 1 coordinates
        with pytest.raises(ValueError, match="does not split"):
            ep_integrate_partial(f, keep, kernel=kernel)
    with pytest.raises(ValueError, match="does not split"):
        ep_integrate_partial(f, 0, kernel=(np.ones((1, 2)), np.ones((2, 2))))


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=complex).view(np.uint64)


@pytest.mark.parametrize("d", range(13))
def test_triangle_table_round_trips_symmetric_forms_bit_for_bit(d):
    rng = np.random.default_rng([59, d])
    for _ in range(5):
        A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        A = A + A.T
        A[rng.random(size=(d, d)) < 0.2] = 0.0  # zero entries keep their sign bit
        A = np.triu(A) + np.triu(A, 1).T
        ut = _ut_from_matrix(A)
        # the upper triangle, row by row
        assert ut == tuple(complex(A[i, j]) for i in range(d) for j in range(i, d))
        assert all(type(z) is complex for z in ut)
        back = _matrix_from_ut(ut, d)
        assert np.array_equal(_bits(back), _bits(A))
        assert np.array_equal(_bits(_ut_from_matrix(back)), _bits(ut))


def test_triangle_table_is_read_only_and_bounded():
    assert _triangle.cache_info().maxsize is not None
    for table in _triangle(4):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0
    assert _triangle(4) is _triangle(4)

# ---------------------------------------------------------------------------
# algebra: product, translate, derive


def test_mul_examples():
    x = ExpPolyFunction.coordinate(1, 0)
    pw = ExpPolyFunction.plane_wave(1, [2.0])
    assert ep_mul(x * pw, x) == ep_mul(ExpPolyFunction.monomial(1, (2,)), pw)
    g = ExpPolyFunction.gaussian(1, [[-1.0]])
    assert ep_mul(g, g) == ExpPolyFunction.gaussian(1, [[-2.0]])


def test_mul_merges_duplicate_keys():
    x = ExpPolyFunction.coordinate(1, 0)
    s = x + x
    assert len(s.terms) == 1 and s.terms[0].c == 2


def random_exact_term(rng, d: int) -> ExpPolyFunction:
    """Term with small-integer data: float ops on it are exact, so structural
    equality of reassociated products is meaningful."""
    A = rng.integers(-2, 3, size=(d, d)).astype(float)
    A = (A + A.T) / 2 + 1j * 0.0
    b = rng.integers(-2, 3, size=d).astype(complex)
    alpha = tuple(int(a) for a in rng.integers(0, 2, size=d))
    c = complex(int(rng.integers(-3, 4)) or 1)
    return ExpPolyFunction(d, {(_ut_from_matrix(A), tuple(b)): {alpha: c}})


def test_mul_commutative_associative_structural():
    rng = np.random.default_rng(23)
    for _ in range(20):
        f = random_exact_term(rng, 2)
        g = random_exact_term(rng, 2)
        h = random_exact_term(rng, 2)
        assert ep_mul(f, g) == ep_mul(g, f)
        assert ep_mul(ep_mul(f, g), h) == ep_mul(f, ep_mul(g, h))
    # generic float data: commutative structurally, associative pointwise
    for _ in range(10):
        f = random_integrable(rng, 2)
        g = random_integrable(rng, 2)
        h = random_integrable(rng, 2)
        assert ep_mul(f, g) == ep_mul(g, f)
        assert ep_max_dev(ep_mul(ep_mul(f, g), h), ep_mul(f, ep_mul(g, h))) <= 1e-10


@pytest.mark.parametrize("d", [1, 2, 3])
def test_mul_into_matches_mul_and_scale_exactly(d):
    # the accumulating product is the product's keys map, bit for bit; with
    # c = -1 it is the negated product, since negation commutes with rounding
    rng = np.random.default_rng([29, d])
    for _ in range(10):
        f, g = (sum((random_even(rng, d, kind)
                     for kind in rng.permutation(["gaussian", "poly", "pw"])),
                    ExpPolyFunction.zero(d)) for _ in range(2))
        assert ep_mul_into({}, f, g) == ep_mul(f, g).keys
        assert ep_mul_into({}, f, g, -1) == ep_mul(f, g).scale(-1).keys
        assert ep_mul_into({}, f, g, -1) != ep_mul(f, g).keys
        # adding into a map sums like __add__ and scales like scale
        assert ep_add_into(ep_add_into({}, f), g) == (f + g).keys
        c = complex(rng.normal(), rng.normal())
        assert ep_add_into({}, f, c) == f.scale(c).keys
        # accumulating never writes into the operands' polynomials
        keys_f = {key: dict(poly) for key, poly in f.keys.items()}
        acc = ep_add_into({}, f)
        ep_mul_into(acc, f, g)
        assert f.keys == keys_f


def test_translate_examples():
    x2 = ExpPolyFunction.monomial(1, (2,))
    a = 0.7
    shifted = x2.translate([a])
    want = (ExpPolyFunction.monomial(1, (2,))
            + ExpPolyFunction.monomial(1, (1,), 2 * a)
            + ExpPolyFunction.const(1, a * a))
    assert shifted == want

    k = 1.3
    pw = ExpPolyFunction.plane_wave(1, [k])
    assert ep_max_dev(pw.translate([a]), pw.scale(np.exp(1j * k * a))) <= 1e-14


def test_translate_group_law():
    rng = np.random.default_rng(29)
    for _ in range(10):
        f = random_integrable(rng, 2, nterms=2)
        a = rng.normal(size=2)
        assert ep_max_dev(f.translate(a).translate(-a), f) < 1e-12


def test_derive_examples():
    x2 = ExpPolyFunction.monomial(1, (2,))
    assert x2.derive(0) == ExpPolyFunction.monomial(1, (1,), 2.0)
    g = ExpPolyFunction.gaussian(1, [[-1.0]])
    want = ExpPolyFunction.monomial(1, (1,), -2.0) * g
    assert g.derive(0) == want


def test_derive_commutes_with_translate():
    rng = np.random.default_rng(31)
    for _ in range(10):
        f = random_integrable(rng, 2, nterms=2)
        a = rng.normal(size=2)
        lhs = f.translate(a).derive(1)
        rhs = f.derive(1).translate(a)
        assert ep_max_dev(lhs, rhs) < 1e-11


def test_affine_substitution_pointwise():
    rng = np.random.default_rng(37)
    f = random_integrable(rng, 2, nterms=2)
    M = rng.normal(size=(2, 3))
    v = rng.normal(size=2)
    g = f.affine(M, v)
    pts = rng.normal(size=(20, 3))
    assert np.max(np.abs(g.eval(pts) - f.eval(pts @ M.T + v))) < 1e-10


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(-3, 3)), min_size=1, max_size=3),
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2),
                          st.integers(-3, 3)), min_size=1, max_size=3))
def test_product_pointwise(spec_f, spec_g):
    def build(spec):
        f = ExpPolyFunction.zero(2)
        for a0, a1, c in spec:
            f = f + ExpPolyFunction.monomial(2, (a0, a1), float(c))
        return f
    f, g = build(spec_f), build(spec_g)
    pts = np.linspace(-1, 1, 7).reshape(-1, 1) * np.ones((1, 2))
    assert np.max(np.abs(ep_mul(f, g).eval(pts) - f.eval(pts) * g.eval(pts))) < 1e-12


# ---------------------------------------------------------------------------
# serialization & equality


def test_equality_ignores_term_order():
    a = ExpPolyFunction.coordinate(2, 0)
    b = ExpPolyFunction.gaussian(2, -np.eye(2), [0.5, 1j], c=2.0)
    ab, ba = a + b, b + a
    assert ab.terms != ba.terms
    assert ab == ba
    assert ab.to_json_dict() == ba.to_json_dict()
    assert [t["alpha"] for t in ab.to_json_dict()["terms"]] == [[0, 0], [1, 0]]
    assert ab != a
    # scaling by 0 or to an underflow leaves no terms
    assert ab.scale(0).is_zero
    assert ExpPolyFunction.const(2, 1e-300).scale(1e-300).is_zero


def test_terms_view_round_trips_and_is_cached():
    rng = np.random.default_rng(43)
    for d in (1, 2, 3):
        f = _keyed_integrand(rng, d, 3) + random_integrable(rng, d, nterms=2)
        keys = {}
        for t in f.terms:
            keys.setdefault((t.A_ut, t.b), {})[t.alpha] = t.c
        assert ExpPolyFunction(d, keys) == f
        assert f.terms is f.terms
        # one view term per (key, alpha), read from the keyed storage
        assert len(f.terms) == sum(len(poly) for poly in f.keys.values())
        assert {(t.alpha, t.A_ut, t.b): t.c for t in f.terms} == coefficients(f)
    # terms handed to ep_from_distinct are the view: they keep their identity
    kept = f.terms[1:]
    assert all(a is b for a, b in zip(ep_from_distinct(f.d, kept).terms, kept))


def test_json_keeps_sorted_term_order():
    # terms sorted by alpha, then A and b as (re, im) pairs, whatever order
    # the keys and exponents were first seen in
    rng = np.random.default_rng(47)
    f = _keyed_integrand(rng, 2, 3)
    terms = list(coefficients(f).items())
    shuffled = {}
    for i in rng.permutation(len(terms)):
        (alpha, A_ut, b), c = terms[i]
        shuffled.setdefault((A_ut, b), {})[alpha] = c
    shuffled = ExpPolyFunction(2, shuffled)
    want = sorted(((alpha, tuple((z.real, z.imag) for z in A_ut),
                    tuple((z.real, z.imag) for z in b)) for (alpha, A_ut, b), _ in terms))
    for g in (f, shuffled):
        got = [(tuple(t["alpha"]),
                tuple(tuple(z) for i, row in enumerate(t["A"]) for z in row[i:]),
                tuple(tuple(z) for z in t["b"])) for t in g.to_json_dict()["terms"]]
        assert got == want
    assert f.to_json_dict() == shuffled.to_json_dict()


def test_worst_dev_keeps_a_nan_wherever_it_comes():
    assert worst_dev(0.0, 2.0, 1.0) == 2.0
    assert worst_dev(1.0, math.inf) == math.inf
    for devs in [(0.0, math.nan), (math.nan, 1.0), (1.0, math.nan, 2.0)]:
        assert math.isnan(worst_dev(*devs)), devs


def test_no_program_path_reads_the_terms_view(monkeypatch, capsys):
    # every operation reads the keyed storage; the view is for outside code
    def refuse(self):
        raise AssertionError("a program path read the terms view")

    monkeypatch.setattr(ExpPolyFunction, "terms", property(refuse))
    ctx = DeformationContext(0.7, 1, 2, (1, 1))
    assert ctx.ledger["sigma"] == -1
    x1, x2 = (Superfunction.coordinate(2, 2, axis) for axis in (0, 1))
    poly = x1 * x1 + Superfunction.xi(2, 2, 1) * x2
    waves = [Superfunction.from_even(ExpPolyFunction.plane_wave(2, k, c), 2)
             for k, c in (([1.0, -0.5], 0.5 + 1j), ([0.3, 2.0], -1.5))]
    wave = waves[0] + waves[1]
    for f, g in ((poly, x2), (wave, waves[1]), (wave, poly)):
        assert sf_max_dev(star_oracle(ctx, f, g), star(ctx, f, g)) < 1e-12
    assert cli.main(["star", "exp(-x1^2-x2^2)*xi1 + x1 star x2", "--m", "1", "--n", "1"]) == 0
    assert "terms" in capsys.readouterr().out
    assert all(r["deviation"] <= 1e-9 for r in torus_vs_udf(ctx)["relations"])
