"""Inner products, fundamental symmetry, Fock pairing, superadjoints."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from superstar.errors import DimensionError, ParityError, SingularityError
from superstar.exppoly import ExpPolyFunction, ep_integrate, ep_mul
from superstar.grassmann import GrassmannElement
from superstar.hilbert import (
    FockSuperfunction,
    GradedOperator,
    _fock_dual,
    fundamental_symmetry,
    gram_matrix,
    inner_fock,
    inner_l2,
    scalar_J,
    superadjoint,
)
from superstar.superfun import Superfunction, sf_max_dev, sintegrate, smul

THETA = 0.7


def rand_gauss(rng, m=1):
    A = -np.eye(m) * (0.5 + rng.random())
    b = [complex(rng.normal(), rng.normal()) for _ in range(m)]
    return ExpPolyFunction.gaussian(m, A, b, complex(rng.normal(), rng.normal()))


def rand_fun(rng, m, n, words=3, naux=0):
    terms = {}
    for w in rng.integers(0, 1 << (n + naux), size=words):
        f = rand_gauss(rng, m)
        w = int(w)
        terms[w] = terms[w] + f if w in terms else f
    return Superfunction(m, n, terms, naux)


def rand_homogeneous(rng, m, n, parity):
    terms = {}
    words = [w for w in range(1 << n) if bin(w).count("1") % 2 == parity]
    for w in rng.choice(words, size=min(2, len(words)), replace=False):
        terms[int(w)] = rand_gauss(rng, m)
    return Superfunction(m, n, terms)


# ---------------------------------------------------------------------------
# L2 pairing


def test_inner_l2_pure_odd_example():
    a, b, c, d = 0.4 - 1.1j, 2.0 + 0.5j, -0.7j, 1.3
    f = Superfunction(0, 1, {0: ExpPolyFunction.const(0, a),
                             1: ExpPolyFunction.const(0, b)})
    g = Superfunction(0, 1, {0: ExpPolyFunction.const(0, c),
                             1: ExpPolyFunction.const(0, d)})
    assert abs(inner_l2(f, g) - (np.conj(a) * d + np.conj(b) * c)) < 1e-14


def test_inner_l2_even_with_odd_n_vanishes():
    g = ExpPolyFunction.gaussian(1, -np.eye(1))
    f = Superfunction(1, 1, {0: g})
    assert inner_l2(f, f) == 0j


def test_inner_l2_superhermitian():
    rng = np.random.default_rng(61)
    for n in (1, 2, 3):
        for pf in (0, 1):
            for pg in (0, 1):
                f = rand_homogeneous(rng, 1, n, pf)
                g = rand_homogeneous(rng, 1, n, pg)
                lhs = np.conj(inner_l2(f, g))
                rhs = (-1) ** (pf * pg) * inner_l2(g, f)
                assert abs(lhs - rhs) < 1e-10


def test_inner_l2_degree_rule():
    rng = np.random.default_rng(67)
    for n in (1, 2, 3, 4):
        for pf in (0, 1):
            for pg in (0, 1):
                if (pf + pg + n) % 2 == 0:
                    continue
                f = rand_homogeneous(rng, 1, n, pf)
                g = rand_homogeneous(rng, 1, n, pg)
                assert inner_l2(f, g) == 0j


@settings(max_examples=60, deadline=None)
@given(*(st.complex_numbers(max_magnitude=5, allow_nan=False, allow_infinity=False)
         for _ in range(4)))
def test_inner_l2_r01_formula_hypothesis(a, b, c, d):
    f = Superfunction(0, 1, {0: ExpPolyFunction.const(0, a),
                             1: ExpPolyFunction.const(0, b)})
    g = Superfunction(0, 1, {0: ExpPolyFunction.const(0, c),
                             1: ExpPolyFunction.const(0, d)})
    expected = np.conj(a) * d + np.conj(b) * c
    assert abs(inner_l2(f, g) - expected) <= 1e-12 * max(1.0, abs(expected))


# ---------------------------------------------------------------------------
# fundamental symmetry and the J-scalar product


def test_j_square_law():
    rng = np.random.default_rng(71)
    for n in range(5):
        for w in range(1 << n):
            mono = Superfunction(1, n, {w: rand_gauss(rng)})
            jj = fundamental_symmetry(fundamental_symmetry(mono))
            sign = (-1) ** ((n + 1) * bin(w).count("1"))
            assert sf_max_dev(jj, mono.scale(sign)) < 1e-12


def test_j_preserves_inner_product():
    rng = np.random.default_rng(73)
    for n in range(5):
        for _ in range(10):
            f = rand_fun(rng, 1, n)
            g = rand_fun(rng, 1, n)
            lhs = inner_l2(fundamental_symmetry(f), fundamental_symmetry(g))
            assert abs(lhs - inner_l2(f, g)) <= 1e-10


def test_scalar_j_pure_odd_example():
    a, b = 0.8 - 0.3j, 1.1 + 0.7j
    f = Superfunction(0, 1, {0: ExpPolyFunction.const(0, a),
                             1: ExpPolyFunction.const(0, b)})
    assert abs(scalar_J(f, f) - (abs(a) ** 2 + abs(b) ** 2)) < 1e-14


def test_scalar_j_equals_coefficient_norms():
    rng = np.random.default_rng(79)
    for n in (0, 1, 2, 3):
        f = rand_fun(rng, 1, n)
        oracle = sum(ep_integrate(ep_mul(fn.conj(), fn)) for fn in f.terms.values())
        val = scalar_J(f, f)
        assert abs(val - oracle) <= 1e-10 * max(1.0, abs(oracle))


def test_scalar_j_hermitian():
    rng = np.random.default_rng(83)
    for n in (1, 2, 3):
        for _ in range(5):
            f = rand_fun(rng, 1, n)
            g = rand_fun(rng, 1, n)
            assert abs(scalar_J(f, g) - np.conj(scalar_J(g, f))) <= 1e-10


def test_scalar_j_positivity():
    rng = np.random.default_rng(89)
    for i in range(100):
        n = int(rng.integers(0, 4))
        f = rand_fun(rng, 1, n, words=2)
        val = scalar_J(f, f)
        assert abs(val.imag) <= 1e-10
        assert val.real > 0


# ---------------------------------------------------------------------------
# Fock pairing


def test_fock_equality_compares_the_function():
    one = FockSuperfunction.one(1, 1, 1)
    assert one == FockSuperfunction.one(1, 1, 1)
    assert one != FockSuperfunction.zeta(1, 1, 1, 1)


def test_fock_s0_reduces_to_l2():
    rng = np.random.default_rng(97)
    for _ in range(5):
        f = FockSuperfunction(1, 1, 0, rand_fun(rng, 1, 1))
        g = FockSuperfunction(1, 1, 0, rand_fun(rng, 1, 1))
        assert abs(inner_fock(THETA, f, g) - inner_l2(f.fun, g.fun)) < 1e-12


def test_fock_s1_constants():
    # hand expansion of (2i) * Berezin[ conj(phi) psi (1 + (i/theta) z zbar) ]:
    # <1,1> = 2/theta and <z,z> = 2i, cross terms vanish
    one = FockSuperfunction.one(0, 0, 1)
    z = FockSuperfunction.zeta(0, 0, 1, 1)
    assert abs(inner_fock(THETA, one, one) - 2 / THETA) < 1e-14
    assert abs(inner_fock(THETA, z, z) - 2j) < 1e-14
    assert inner_fock(THETA, one, z) == 0j
    assert inner_fock(THETA, z, one) == 0j


def test_fock_s1_general_element_oracle():
    rng = np.random.default_rng(101)
    for _ in range(20):
        a, al, c, ga = (complex(rng.normal(), rng.normal()) for _ in range(4))
        phi = FockSuperfunction(0, 0, 1, Superfunction(0, 1, {0: ExpPolyFunction.const(0, a),
                                                              1: ExpPolyFunction.const(0, al)}))
        psi = FockSuperfunction(0, 0, 1, Superfunction(0, 1, {0: ExpPolyFunction.const(0, c),
                                                              1: ExpPolyFunction.const(0, ga)}))
        expected = (2 / THETA) * np.conj(a) * c + 2j * np.conj(al) * ga
        assert abs(inner_fock(THETA, phi, psi) - expected) < 1e-13


def test_fock_weight_truncates_by_nilpotency():
    # with s pairs the weight contributes exactly (i/theta)^s to the top term,
    # so the pairing of vacua factorizes into (2/theta)^s
    for s in (1, 2, 3):
        one = FockSuperfunction.one(0, 0, s)
        assert abs(inner_fock(THETA, one, one) - (2 / THETA) ** s) < 1e-12


def test_fock_superhermitian():
    rng = np.random.default_rng(103)
    for _ in range(10):
        r, s = int(rng.integers(0, 2)), int(rng.integers(1, 3))
        for pf in (0, 1):
            for pg in (0, 1):
                phi = FockSuperfunction(1, r, s, rand_homogeneous(rng, 1, r + s, pf))
                psi = FockSuperfunction(1, r, s, rand_homogeneous(rng, 1, r + s, pg))
                lhs = np.conj(inner_fock(THETA, phi, psi))
                rhs = (-1) ** (pf * pg) * inner_fock(THETA, psi, phi)
                assert abs(lhs - rhs) <= 1e-10


def embed_with_conjugates(phi, naux, conjugate):
    """Relabel into the doubled odd algebra [xi | zeta1 zbar1 zeta2 zbar2 ... | aux].

    The relabeling is monotone in the bit order, so no sign appears.  With
    ``conjugate`` the coefficients are conjugated and each holomorphic bit
    lands on its conjugate partner.
    """
    r, s = phi.r, phi.s
    W = r + 2 * s
    out = {}
    for word, fn in phi.fun.terms.items():
        big = 0
        for k in range(r + s + naux):
            if word >> k & 1:
                if k < r:
                    big |= 1 << k
                elif k < r + s:
                    big |= 1 << (r + 2 * (k - r) + conjugate)
                else:
                    big |= 1 << (W + k - r - s)
        out[big] = fn.conj() if conjugate else fn
    return Superfunction(phi.m, W, out, naux)


def fock_reference(theta, phi, psi):
    """The Fock pairing on the doubled algebra, term by term from its definition:
    (-1)^s (2i)^s times the Berezin integral of conj(phi) psi times the weight
    prod_a (1 + (i/theta) zeta_a zbar_a)."""
    m, r, s = phi.m, phi.r, phi.s
    naux = max(phi.fun.naux, psi.fun.naux)
    weight = {}
    for S in range(1 << s):
        word = sum(0b11 << (r + 2 * a) for a in range(s) if S >> a & 1)
        weight[word] = ExpPolyFunction.const(m, (1j / theta) ** bin(S).count("1"))
    big = smul(smul(embed_with_conjugates(phi, naux, True),
                    embed_with_conjugates(psi, naux, False)),
               Superfunction(m, r + 2 * s, weight, naux))
    val = sintegrate(big)
    factor = (-1) ** s * (2j) ** s
    return val.scale(factor) if isinstance(val, GrassmannElement) else val * factor


def components(val):
    return val.coeffs if isinstance(val, GrassmannElement) else {0: val}


def rand_fock(rng, m, r, s, naux, words=4):
    return FockSuperfunction(m, r, s, rand_fun(rng, m, r + s, words, naux))


def test_fock_matches_doubled_space_reference():
    rng = np.random.default_rng(139)
    for m in (0, 1):
        for r in range(3):
            for s in range(4):
                for naux in (0, 2):
                    for theta in (0.7, -1.3):
                        phi = rand_fock(rng, m, r, s, naux)
                        psi = rand_fock(rng, m, r, s, naux)
                        got = components(inner_fock(theta, phi, psi))
                        want = components(fock_reference(theta, phi, psi))
                        for word in set(got) | set(want):
                            a, b = got.get(word, 0j), want.get(word, 0j)
                            assert abs(a - b) <= 1e-14 * abs(b), (m, r, s, naux, theta, word)


def test_fock_dual_flips_the_holomorphic_bits():
    rng = np.random.default_rng(149)
    for r in range(3):
        for s in range(4):
            hol = ((1 << s) - 1) << r
            phi = rand_fock(rng, 1, r, s, 2, words=6)
            dual = _fock_dual(THETA, phi)
            assert set(dual.terms) == {w ^ hol for w in phi.fun.terms}
            assert (dual.m, dual.n, dual.naux) == (1, r + s, 2)


def test_fock_dimension_mismatch():
    with pytest.raises(DimensionError):
        inner_fock(THETA, FockSuperfunction.one(0, 0, 1), FockSuperfunction.one(0, 1, 1))
    with pytest.raises(DimensionError):
        FockSuperfunction(1, 1, 1, Superfunction.one(1, 1))
    with pytest.raises(ValueError):
        FockSuperfunction.zeta(0, 1, 1, 2)


# ---------------------------------------------------------------------------
# graded operators and superadjoints


def graded_basis_gram(rng, parities):
    """Random invertible superhermitian gram with the even-degree pattern.

    Superhermiticity forces even-even diagonal entries real and odd-odd ones
    purely imaginary; the diagonal bump keeps the matrix well-conditioned.
    """
    k = len(parities)
    while True:
        G = np.zeros((k, k), dtype=complex)
        for i in range(k):
            for j in range(i, k):
                if (parities[i] + parities[j]) % 2:
                    continue
                z = complex(rng.normal(), rng.normal())
                if i == j:
                    G[i, i] = z.real if parities[i] == 0 else 1j * z.imag
                else:
                    G[i, j] = z
                    G[j, i] = (-1) ** (parities[i] * parities[j]) * np.conj(z)
        G += np.diag([1.5 if p == 0 else 1.5j for p in parities])
        if np.linalg.cond(G) < 1e6:
            return G


def rand_graded_operator(rng, parities, degree):
    k = len(parities)
    M = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            if (parities[i] + parities[j] + degree) % 2 == 0:
                M[i, j] = complex(rng.normal(), rng.normal())
    return GradedOperator(M, parities, degree)


def test_identity_superadjoint():
    parities = (0, 0, 1, 1)
    I = GradedOperator.identity(parities)
    rng = np.random.default_rng(107)
    G = graded_basis_gram(rng, parities)
    out = superadjoint(I, G)
    assert np.max(np.abs(out.matrix - np.eye(4))) < 1e-12


def test_superadjoint_defining_relation():
    rng = np.random.default_rng(109)
    parities = (0, 0, 1, 1)
    for _ in range(20):
        deg = int(rng.integers(0, 2))
        T = rand_graded_operator(rng, parities, deg)
        G = graded_basis_gram(rng, parities)
        Td = superadjoint(T, G)
        for x in range(4):
            for y in range(4):
                ex, ey = np.eye(4)[x], np.eye(4)[y]
                lhs = np.conj(Td.matrix @ ex) @ G @ ey
                rhs = (-1) ** (deg * parities[x]) * (np.conj(ex) @ G @ (T.matrix @ ey))
                assert abs(lhs - rhs) < 1e-10


def solve_defining_relation(T, G, parities):
    """Least-squares solve for S with <S e_x, e_y> = (-1)^{|T| p_x} <e_x, T e_y>."""
    k = len(parities)
    rows, rhs = [], []
    GT = G @ T.matrix
    for x in range(k):
        for y in range(k):
            row = np.zeros(k * k, dtype=complex)
            for j in range(k):
                row[j * k + x] = G[j, y]
            rows.append(row)
            rhs.append((-1) ** (T.degree * parities[x]) * GT[x, y])
    sol, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
    return np.conj(sol.reshape(k, k))


def test_superadjoint_orthonormal_basis_formula():
    # canonical gram on a 2|2 basis: 1 on even vectors, i on odd vectors
    # (superhermiticity forces odd-odd diagonals imaginary); a degree-0
    # operator then has superadjoint equal to its conjugate transpose
    rng = np.random.default_rng(113)
    parities = (0, 0, 1, 1)
    G = np.diag([1.0, 1.0, 1j, 1j])
    T = rand_graded_operator(rng, parities, 0)
    Td = superadjoint(T, G)
    assert np.max(np.abs(Td.matrix - T.matrix.conj().T)) < 1e-12
    assert np.max(np.abs(solve_defining_relation(T, G, parities) - Td.matrix)) < 1e-10


def test_superadjoint_matches_linear_system_solve():
    rng = np.random.default_rng(137)
    parities = (0, 0, 1, 1)
    for deg in (0, 1):
        T = rand_graded_operator(rng, parities, deg)
        G = graded_basis_gram(rng, parities)
        Td = superadjoint(T, G)
        assert np.max(np.abs(solve_defining_relation(T, G, parities) - Td.matrix)) < 1e-9


def test_superadjoint_involution():
    rng = np.random.default_rng(127)
    parities = (0, 1, 1, 0)
    for _ in range(10):
        deg = int(rng.integers(0, 2))
        T = rand_graded_operator(rng, parities, deg)
        G = graded_basis_gram(rng, parities)
        Tdd = superadjoint(superadjoint(T, G), G)
        assert np.max(np.abs(Tdd.matrix - T.matrix)) < 1e-9


def test_superadjoint_product_law():
    rng = np.random.default_rng(131)
    parities = (0, 0, 1, 1)
    for _ in range(10):
        dS, dT = int(rng.integers(0, 2)), int(rng.integers(0, 2))
        S = rand_graded_operator(rng, parities, dS)
        T = rand_graded_operator(rng, parities, dT)
        G = graded_basis_gram(rng, parities)
        lhs = superadjoint(S.compose(T), G)
        rhs = superadjoint(T, G).compose(superadjoint(S, G)).scale((-1) ** (dS * dT))
        assert np.max(np.abs(lhs.matrix - rhs.matrix)) < 1e-9


def test_graded_operator_validation():
    with pytest.raises(ParityError):
        GradedOperator(np.array([[0, 1.0], [0, 0]]), (0, 0), 1)
    with pytest.raises(DimensionError):
        GradedOperator(np.zeros((2, 3)), (0, 1), 0)
    with pytest.raises(ValueError):
        GradedOperator(np.zeros((2, 2)), (0, 2), 0)
    with pytest.raises(DimensionError):
        GradedOperator.identity((0,)).compose(GradedOperator.identity((0, 1)))


def test_superadjoint_error_paths():
    T = GradedOperator.identity((0, 1))
    with pytest.raises(SingularityError):
        superadjoint(T, np.zeros((2, 2)))
    with pytest.raises(ValueError):
        superadjoint(T, np.array([[1.0, 0.3], [0.9, 1.0]]))
    with pytest.raises(DimensionError):
        superadjoint(T, np.eye(3))


def test_gram_matrix_from_l2_basis():
    basis = [Superfunction(0, 1, {0: ExpPolyFunction.one(0)}),
             Superfunction(0, 1, {1: ExpPolyFunction.one(0)})]
    G = gram_matrix(inner_l2, basis)
    assert np.max(np.abs(G - np.array([[0, 1], [1, 0]]))) < 1e-14
    T = GradedOperator(np.diag([1.5 + 0.5j, -2.0j]), (0, 1), 0)
    Td = superadjoint(T, G)
    assert np.max(np.abs(Td.matrix - np.diag([2j, 1.5 - 0.5j]))) < 1e-12
