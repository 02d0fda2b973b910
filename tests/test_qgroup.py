"""Solvable quantum supergroup: deformed product with theta = t, Hopf
operations for the semidirect composition, and the multiplicative-unitary
pentagon identity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superstar.errors import ClassError, DimensionError, SingularityError
from superstar.exppoly import ExpPolyFunction
from superstar.grassmann import GrassmannElement
from superstar.qgroup import (
    QGroupContext,
    QGroupElement,
    antipode,
    coproduct,
    counit,
    pentagon_check,
    qg_star,
    tensor,
    w_apply,
)
from superstar.starprod import star
from superstar.superfun import Superfunction, sf_max_dev, substitute

QCTX = QGroupContext(1, 2, (1, 1))


def _rand_element(qctx, rng, z_kind="pw", with_body=True):
    """Separable u(t) f(z) with a plane-wave t-profile and a small random
    z-part (plane waves or strictly decaying Gaussians per word)."""
    d, n = qctx.d, qctx.n
    u = ExpPolyFunction.plane_wave(
        1, [rng.uniform(-1, 1)], complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
    words = {0} if with_body else set()
    while len(words) < 2:
        words.add(int(rng.integers(0, 1 << n)) if n else 0)
    terms = {}
    for word in words:
        if z_kind == "pw":
            fn = ExpPolyFunction.plane_wave(
                d, rng.uniform(-1.5, 1.5, d),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        else:
            L = rng.normal(size=(d, d)) * 0.3
            fn = ExpPolyFunction.gaussian(
                d, -(L @ L.T + 0.5 * np.eye(d)), 0.4 * rng.normal(size=d),
                complex(rng.uniform(-1, 1), rng.uniform(-1, 1)))
        terms[word] = fn
    return QGroupElement.separable(qctx, u, Superfunction(qctx.d, qctx.n, terms))


# ---------------------------------------------------------------------------
# contexts and validation


def test_context_defaults_and_validation():
    qctx = QGroupContext(2, 3)
    assert qctx.d == 4
    assert qctx.odd_signature == (3, 0)
    assert qctx.dilation_weights == (1.0, 1.0)
    assert qctx.star_context(1.0).eta == (1, 1, 1)
    with pytest.raises(ValueError):
        QGroupContext(1, 2, (1, 2))
    with pytest.raises(ValueError):
        QGroupContext(2, 0, dilation_weights=(1.0,))


def test_star_context_singular_at_zero():
    with pytest.raises(SingularityError):
        QCTX.star_context(0.0)
    ctx = QCTX.star_context(-0.8)
    assert ctx.theta == pytest.approx(-0.8)


@given(st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_dilation_is_a_one_parameter_group(s, t):
    qctx = QGroupContext(2, 1, dilation_weights=(1.0, 0.5))
    comp = qctx.dilation_diag(s) * qctx.dilation_diag(t)
    direct = qctx.dilation_diag(s + t)
    assert np.max(np.abs(comp - direct)) <= 1e-12 * max(1.0, np.max(np.abs(direct)))


def test_dilation_has_unit_determinant_per_pair():
    diag = QCTX.dilation_diag(0.73)
    assert abs(diag[0] * diag[1] - 1.0) < 1e-15


def test_element_validation():
    bad_u = ExpPolyFunction.const(2, 1.0)
    with pytest.raises(DimensionError):
        QGroupElement.separable(QCTX, bad_u, Superfunction.one(QCTX.d, QCTX.n))
    with pytest.raises(DimensionError):
        QGroupElement.separable(QCTX, ExpPolyFunction.const(1, 1.0),
                                Superfunction.one(4, 1))


def test_element_caches_and_validates():
    calls = []

    def fn(t):
        calls.append(t)
        return Superfunction.one(QCTX.d, QCTX.n)

    elem = QGroupElement(1, fn)
    elem.at(0.5)
    elem.at(0.5)
    assert len(calls) == 1
    elem.at(0.7)
    assert len(calls) == 2
    with pytest.raises(DimensionError):
        elem.at(0.5, 0.7)


# ---------------------------------------------------------------------------
# the deformed product


def test_qg_star_is_the_flat_product_at_fixed_t():
    rng = np.random.default_rng(3)
    f, g = _rand_element(QCTX, rng), _rand_element(QCTX, rng)
    prod = qg_star(QCTX, f, g)
    for t in (0.9, -0.45):
        expected = star(QCTX.star_context(t), f.at(t), g.at(t))
        assert sf_max_dev(prod.at(t), expected) <= 1e-14
    with pytest.raises(SingularityError):
        prod.at(0.0)


def test_unit_element():
    one = QGroupElement.constant(QCTX)
    prod = qg_star(QCTX, one, one)
    for t in (0.6, -1.1):
        assert sf_max_dev(prod.at(t), one.at(t)) <= 1e-14


def test_z_constant_elements_multiply_pointwise_in_t():
    u1 = ExpPolyFunction.plane_wave(1, [0.7], 1.5)
    u2 = ExpPolyFunction.gaussian(1, [[-0.3]], [0.2], 0.8)
    f = QGroupElement.separable(QCTX, u1, Superfunction.one(QCTX.d, QCTX.n))
    g = QGroupElement.separable(QCTX, u2, Superfunction.one(QCTX.d, QCTX.n))
    prod = qg_star(QCTX, f, g)
    for t in (0.4, -0.9, 1.3):
        val = prod.at(t).coefficient(0).eval(np.zeros((1, QCTX.d)))[0]
        pt = np.array([[t]])
        expected = complex(u1.eval(pt)[0]) * complex(u2.eval(pt)[0])
        assert abs(complex(val) - expected) <= 1e-12 * max(1.0, abs(expected))


def test_qg_star_associative_at_fixed_t():
    rng = np.random.default_rng(11)
    f, g, h = (_rand_element(QCTX, rng) for _ in range(3))
    left = qg_star(QCTX, qg_star(QCTX, f, g), h)
    right = qg_star(QCTX, f, qg_star(QCTX, g, h))
    for t in (0.8, -0.55):
        assert sf_max_dev(left.at(t), right.at(t)) <= 1e-10


# ---------------------------------------------------------------------------
# Hopf structure


def test_coproduct_of_unit_is_unit_tensor_unit():
    one = QGroupElement.constant(QCTX)
    D = coproduct(QCTX, one)
    expected = Superfunction.one(2 * QCTX.d, 2 * QCTX.n)
    for ts in [(0.5, 0.7), (-0.8, 1.2)]:
        assert sf_max_dev(D.at(*ts), expected) <= 1e-14


def test_coproduct_is_an_algebra_homomorphism():
    # Delta(f * g) = (Delta f) * (Delta g) with the product taken legwise at
    # theta = t1 on leg 1 and theta = t2 on leg 2 — the identity that forces
    # the dilation to preserve the graded symplectic form exactly.
    from superstar.starprod import star_general

    rng = np.random.default_rng(7)
    d, n = QCTX.d, QCTX.n
    f, g = _rand_element(QCTX, rng), _rand_element(QCTX, rng)
    Dfg = coproduct(QCTX, qg_star(QCTX, f, g))
    Df, Dg = coproduct(QCTX, f), coproduct(QCTX, g)
    for t1, t2 in [(0.7, -0.4), (-0.9, 0.55), (1.1, 0.3)]:
        lhs = Dfg.at(t1, t2)
        blocks = [(QCTX.star_context(t1), 0, 0), (QCTX.star_context(t2), d, n)]
        rhs = star_general(Df.at(t1, t2), Dg.at(t1, t2), blocks)
        assert sf_max_dev(lhs, rhs) <= 1e-12


def _restrict_leg(sl, keep, qctx):
    """Set the other leg of a 2-leg slice to zero, keeping leg ``keep``."""
    d, n = qctx.d, qctx.n
    M = np.zeros((2 * d, d))
    M[keep * d:(keep + 1) * d, :] = np.eye(d)
    zero = GrassmannElement.zero(n)
    gens = [GrassmannElement.monomial(n, 1 << k) for k in range(n)]
    images = gens if keep == 0 else [zero] * n
    images = images + (gens if keep == 1 else [zero] * n)
    return substitute(sl, images, n, M)


def test_counit_laws():
    rng = np.random.default_rng(21)
    f = _rand_element(QCTX, rng)
    D = coproduct(QCTX, f)
    for t in (0.8, -0.6):
        left = _restrict_leg(D.at(0.0, t), 1, QCTX)
        assert sf_max_dev(left, f.at(t)) <= 1e-13
        right = _restrict_leg(D.at(t, 0.0), 0, QCTX)
        assert sf_max_dev(right, f.at(t)) <= 1e-13


def test_counit_values():
    assert counit(QGroupElement.constant(QCTX, 2.5)) == pytest.approx(2.5)
    u = ExpPolyFunction.plane_wave(1, [0.9], 1.0)
    k = np.array([0.3, -0.7])
    f = QGroupElement.separable(
        QCTX, u, Superfunction(QCTX.d, QCTX.n,
                               {0: ExpPolyFunction.plane_wave(2, k, 1.0)}))
    # plane waves are 1 at the origin and u(0) = 1
    assert counit(f) == pytest.approx(1.0)


def test_counit_of_a_product_is_singular():
    # the deformed product has theta = t, so it has no value at t = 0
    f = QGroupElement.constant(QCTX)
    with pytest.raises(SingularityError):
        counit(qg_star(QCTX, f, f))


def test_antipode_squares_to_identity():
    rng = np.random.default_rng(5)
    f = _rand_element(QCTX, rng)
    S2 = antipode(QCTX, antipode(QCTX, f))
    for t in (0.9, -0.7):
        assert sf_max_dev(S2.at(t), f.at(t)) <= 1e-13


def test_antipode_inverts_the_composition():
    # f(g^{-1} . g) = f(identity): applying the antipode twist to leg 1 of the
    # coproduct slice at (-t, t) and merging the legs collapses to counit(f).
    rng = np.random.default_rng(31)
    d, n = QCTX.d, QCTX.n
    f = _rand_element(QCTX, rng)
    D = coproduct(QCTX, f)
    for t in (0.8, -1.1):
        sl = D.at(-t, t)
        M = np.zeros((2 * d, d))
        M[:d, :] = np.diag(-QCTX.dilation_diag(-t))
        M[d:, :] = np.eye(d)
        images = ([GrassmannElement.monomial(n, 1 << k, -1.0) for k in range(n)]
                  + [GrassmannElement.monomial(n, 1 << k) for k in range(n)])
        merged = substitute(sl, images, n, M)
        expected = Superfunction.one(d, n).scale(counit(f))
        assert sf_max_dev(merged, expected) <= 1e-12


# ---------------------------------------------------------------------------
# the multiplicative unitary


def test_w_fixes_unit_in_first_leg():
    rng = np.random.default_rng(13)
    one = QGroupElement.constant(QCTX)
    f2 = _rand_element(QCTX, rng)
    T = tensor(QCTX, [one, f2])
    W = w_apply(QCTX, T, 0, 1)
    for ts in [(0.7, 0.9), (-0.5, 1.1)]:
        assert sf_max_dev(W.at(*ts), T.at(*ts)) <= 1e-13


def test_w_is_linear():
    rng = np.random.default_rng(17)
    f1, f2, g1 = (_rand_element(QCTX, rng) for _ in range(3))
    Ta = tensor(QCTX, [f1, f2])
    Tb = tensor(QCTX, [g1, f2])

    def combined(t1, t2):
        return Ta.at(t1, t2) + Tb.at(t1, t2).scale(0.5 - 0.25j)

    Wsum = w_apply(QCTX, QGroupElement(2, combined), 0, 1)
    Wa = w_apply(QCTX, Ta, 0, 1)
    Wb = w_apply(QCTX, Tb, 0, 1)
    for ts in [(0.8, 0.6), (-0.9, -0.4)]:
        expected = Wa.at(*ts) + Wb.at(*ts).scale(0.5 - 0.25j)
        assert sf_max_dev(Wsum.at(*ts), expected) <= 1e-12


def test_w_apply_validates_legs():
    T = tensor(QCTX, [QGroupElement.constant(QCTX)] * 2)
    with pytest.raises(DimensionError):
        w_apply(QCTX, T, 1, 1)
    with pytest.raises(DimensionError):
        w_apply(QCTX, T, 0, 2)
    W = w_apply(QCTX, T, 0, 1)
    with pytest.raises(SingularityError):
        W.at(0.5, 0.0)



def test_products_raise_only_at_their_own_singular_point():
    # W on legs (0, 1) deforms with theta = t_1 alone: t_0 = 0 is a regular
    # point, where W is continuous; t_1 = 0 and qg_star at t = 0 are singular
    rng = np.random.default_rng(19)
    f1, f2 = _rand_element(QCTX, rng), _rand_element(QCTX, rng)
    W = w_apply(QCTX, tensor(QCTX, [f1, f2]), 0, 1)
    assert sf_max_dev(W.at(0.0, 0.7), W.at(1e-9, 0.7)) <= 1e-7
    with pytest.raises(SingularityError):
        W.at(0.5, 0.0)
    with pytest.raises(SingularityError):
        qg_star(QCTX, f1, f2).at(0.0)

def test_w_apply_rejects_gaussian_cross_coupling():
    d, n = QCTX.d, QCTX.n
    D = 2 * d
    A = np.zeros((D, D))
    A[0, d] = A[d, 0] = -0.2
    A -= 0.5 * np.eye(D)
    coupled = Superfunction(D, 2 * n, {0: ExpPolyFunction.gaussian(D, A, np.zeros(D))})
    F = QGroupElement(2, lambda t1, t2: coupled)
    W = w_apply(QCTX, F, 0, 1)
    with pytest.raises(ClassError):
        W.at(0.5, 0.7)


def test_pentagon_identity():
    report = pentagon_check(QCTX, t_samples=3, seed=2)
    assert report["passed"]
    assert report["constant_legs_deviation"] == 0.0
    assert report["max_deviation"] <= 1e-10
    assert len(report["pentagon"]) == 3
    for entry in report["pentagon"]:
        assert entry["deviation"] <= 1e-10
        assert len(entry["t"]) == 3


def test_pentagon_with_nondefault_weights():
    qctx = QGroupContext(1, 2, (1, 1), dilation_weights=(0.5,))
    report = pentagon_check(qctx, t_samples=2, seed=4)
    assert report["passed"]
    assert report["max_deviation"] <= 1e-10


def test_superunitarity():
    report = pentagon_check(QCTX, t_samples=1, seed=6)
    uni = report["superunitarity"]
    assert uni["passed"]
    assert uni["deviation"] <= 1e-10
    assert uni["modular_weight"] == 0.0


def test_pentagon_purely_even_context():
    qctx = QGroupContext(1, 0, (0, 0))
    report = pentagon_check(qctx, t_samples=2, seed=9)
    assert report["passed"]
    assert report["max_deviation"] <= 1e-10
