"""Exterior-algebra index calculus: signs, products, parity, aux parameters as flat bits."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from superstar.grassmann import (
    GrassmannElement,
    bits_from_indices,
    eps,
    indices_from_bits,
)


def eps_oracle(I_bits: int, J_bits: int) -> int:
    """Definitional sign: count bubble-sort transpositions of the concatenation."""
    seq = list(indices_from_bits(I_bits)) + list(indices_from_bits(J_bits))
    if len(set(seq)) != len(seq):
        return 0
    swaps = 0
    a = list(seq)
    for i in range(len(a)):
        for j in range(len(a) - 1 - i):
            if a[j] > a[j + 1]:
                a[j], a[j + 1] = a[j + 1], a[j]
                swaps += 1
    return -1 if swaps % 2 else 1


def test_eps_examples():
    assert eps(bits_from_indices([1]), bits_from_indices([2])) == +1
    assert eps(bits_from_indices([2]), bits_from_indices([1])) == -1
    assert eps(bits_from_indices([1]), bits_from_indices([1])) == 0
    assert eps(bits_from_indices([1, 3]), bits_from_indices([2])) == -1


def test_eps_matches_transposition_count_exhaustively():
    for n in range(7):
        for I in range(1 << n):
            for J in range(1 << n):
                assert eps(I, J) == eps_oracle(I, J), (n, I, J)


def test_eps_antisymmetry_product_rule():
    # eps(I,J) * eps(J,I) = (-1)^{|I||J|} for disjoint I, J
    for n in range(7):
        for I in range(1 << n):
            for J in range(1 << n):
                if I & J:
                    continue
                expected = -1 if (I.bit_count() * J.bit_count()) % 2 else 1
                assert eps(I, J) * eps(J, I) == expected


def test_eps_union_multiplicativity():
    # eps(I, J|K) = eps(I,J) * eps(I,K) for pairwise disjoint I, J, K
    n = 6
    for I in range(1 << n):
        rest = [(J, K) for J in range(1 << n) if not J & I
                for K in range(1 << n) if not (K & I or K & J)]
        for J, K in rest:
            assert eps(I, J | K) == eps(I, J) * eps(I, K)


def test_bits_roundtrip():
    assert bits_from_indices([]) == 0
    assert indices_from_bits(bits_from_indices([2, 5, 3])) == (2, 3, 5)
    with pytest.raises(ValueError):
        bits_from_indices([1, 1])
    with pytest.raises(ValueError):
        bits_from_indices([0])


# ---------------------------------------------------------------------------
# wedge


def xi(n: int, *idx: int) -> GrassmannElement:
    return GrassmannElement.monomial(n, bits_from_indices(idx))


def test_wedge_monomials():
    assert xi(2, 1) * xi(2, 2) == xi(2, 1, 2)
    assert xi(2, 2) * xi(2, 1) == -xi(2, 1, 2)
    a, b = 2.5, -1 + 3j
    assert (a * xi(2, 1)) * (b * xi(2, 1)) == GrassmannElement.zero(2)


def test_wedge_associativity_monomials_exhaustive():
    for n in range(6):
        monos = [GrassmannElement.monomial(n, bits) for bits in range(1 << n)]
        for a, b, c in product(monos, repeat=3):
            assert (a * b) * c == a * (b * c)


def test_wedge_graded_commutativity():
    n = 5
    for I in range(1 << n):
        for J in range(1 << n):
            a = GrassmannElement.monomial(n, I)
            b = GrassmannElement.monomial(n, J)
            sign = -1.0 if (I.bit_count() * J.bit_count()) % 2 else 1.0
            assert a * b == sign * (b * a)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError):
        xi(2, 1).wedge(xi(3, 1))
    with pytest.raises(ValueError):
        xi(2, 1) + xi(3, 1)


small_complex = st.builds(
    complex,
    st.integers(min_value=-3, max_value=3).map(float),
    st.integers(min_value=-3, max_value=3).map(float),
)


def elements(n: int):
    return st.dictionaries(
        keys=st.integers(min_value=0, max_value=(1 << n) - 1),
        values=small_complex,
        max_size=5,
    ).map(lambda d: GrassmannElement(n, d))


@settings(max_examples=200, deadline=None)
@given(elements(4), elements(4), elements(4))
def test_wedge_associative_and_distributive(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# ---------------------------------------------------------------------------
# auxiliary odd parameters: further bits of the flat word


def test_aux_ring_generators_anticommute():
    e1, e2 = GrassmannElement.generator(2, 1), GrassmannElement.generator(2, 2)
    assert e1 * e1 == GrassmannElement.zero(2)
    assert e1 * e2 == -(e2 * e1)
    with pytest.raises(ValueError):
        GrassmannElement.generator(2, 3)


def test_parity_query():
    assert GrassmannElement.zero(2).parity() == 0
    assert xi(2, 1).parity() == 1
    assert xi(2, 1, 2).parity() == 0
    assert (xi(2, 1) + xi(2, 2)).parity() == 1
    assert (GrassmannElement.one(2) + xi(2, 1)).parity() is None
    # odd ambient generator times an odd auxiliary bit: total parity even
    assert xi(4, 1, 3).parity() == 0
