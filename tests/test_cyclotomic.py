from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wreathdec.cyclotomic import (
    Cyclotomic,
    _polydiv_exact,
    cyclotomic_polynomial,
    root_of_unity,
)

KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_polynomials():
    for m, coeffs in KNOWN_PHI.items():
        assert cyclotomic_polynomial(m) == coeffs


def test_roots_of_unity_basics():
    assert root_of_unity(5, 0) == 1
    assert root_of_unity(2, 1) == -1
    i = root_of_unity(4, 1)
    assert i * i == -1
    assert root_of_unity(6, 7) == root_of_unity(6, 1)


def test_power_and_minimal_polynomial():
    for m in range(1, 13):
        z = root_of_unity(m, 1)
        acc = Cyclotomic.from_rational(m, 1)
        for _ in range(m):
            acc = acc * z
        assert acc == 1
        phi = cyclotomic_polynomial(m)
        value = sum((c * root_of_unity(m, k) for k, c in enumerate(phi)), Cyclotomic(m))
        assert not value


def test_geometric_sum_vanishes():
    for m in range(2, 13):
        total = sum((root_of_unity(m, k) for k in range(m)), Cyclotomic(m))
        assert not total


def test_rational_detection():
    assert Cyclotomic.from_rational(5, 7).as_rational() == 7
    assert (root_of_unity(3, 1) + root_of_unity(3, 2)).as_rational() == -1
    with pytest.raises(ValueError):
        root_of_unity(5, 1).as_rational()


def test_conjugation():
    assert root_of_unity(6, 1).conjugate() == root_of_unity(6, 5)
    for m in (3, 4, 5, 6, 8):
        for a in range(m):
            for b in range(m):
                x, y = root_of_unity(m, a), root_of_unity(m, b)
                assert (x * y).conjugate() == x.conjugate() * y.conjugate()
                assert (x + y).conjugate() == x.conjugate() + y.conjugate()
        z = root_of_unity(m, 1)
        assert (z * z.conjugate()) == 1


def test_incompatible_orders_raise():
    with pytest.raises(ValueError):
        root_of_unity(4, 1) + root_of_unity(6, 1)
    with pytest.raises(ValueError):
        root_of_unity(4, 1) * root_of_unity(8, 1)


@pytest.mark.parametrize("call", [
    "Cyclotomic(2.0)",
    "Cyclotomic(True, [1])",
    "Cyclotomic(0)",
    "Cyclotomic(-4, [1])",
    "root_of_unity(4, 1.5)",
    "root_of_unity(4.0, 1)",
    "root_of_unity(4, True)",
    "root_of_unity(0, 1)",
    "Cyclotomic(4, ['1/2'])",
    "Cyclotomic(4, [0.1])",
    "Cyclotomic(4, [1, False])",
    "Cyclotomic.from_rational(4, True)",
    "Cyclotomic.from_rational(4, 0.5)",
    "Cyclotomic.from_rational(4, '1/2')",
    "cyclotomic_polynomial(2.0)",
    "cyclotomic_polynomial(True)",
])
def test_bad_orders_exponents_and_coefficients_raise_value_error(call):
    """They once raised TypeError, or were taken as the order True, the
    coefficient 1/2 parsed from text, or the binary value of the float 0.1."""
    cyclotomic_polynomial(1), cyclotomic_polynomial(2)  # a cached entry must not answer
    names = {"Cyclotomic": Cyclotomic, "root_of_unity": root_of_unity,
             "cyclotomic_polynomial": cyclotomic_polynomial}
    with pytest.raises(ValueError):
        eval(call, names)


def test_rational_promotion():
    z = root_of_unity(4, 1)
    assert z + 0 == z
    assert z * 1 == z
    assert 2 * z == z + z
    assert (1 - z) + z == 1
    assert z * Fraction(1, 2) + z * Fraction(1, 2) == z
    assert Cyclotomic(4, [Fraction(1, 2), 3, Fraction(4, 2)]).coeffs == (Fraction(-3, 2), 3)
    assert Cyclotomic.from_rational(4, Fraction(6, 3)).coeffs == (2, 0)
    assert type(Cyclotomic.from_rational(4, Fraction(6, 3)).coeffs[0]) is int


small_elt = st.tuples(
    st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)
).map(lambda cs: Cyclotomic(5, [Fraction(c) for c in cs]))


@given(small_elt, small_elt, small_elt)
def test_field_axioms_samples(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a


def test_canonical_equality_and_hash():
    a = root_of_unity(4, 1) + root_of_unity(4, 3)  # z - z = 0... i + i^3 = 0
    assert a == 0
    assert hash(Cyclotomic.from_rational(6, 3)) == hash(Fraction(3))
    seen = {root_of_unity(6, k) for k in range(12)}
    assert len(seen) == 6


def test_linear_character_table_orthogonality():
    # the m linear characters b -> z^(i*b) of the cyclic group of order m
    for m in (2, 4, 6):
        for i in range(m):
            for j in range(m):
                total = sum(
                    (
                        root_of_unity(m, i * b) * root_of_unity(m, j * b).conjugate()
                        for b in range(m)
                    ),
                    Cyclotomic(m),
                )
                assert total == (m if i == j else 0)


def test_integral_coefficients_are_ints():
    z = root_of_unity(6, 1)
    value = z * 3 + Fraction(4, 2)
    assert all(type(c) is int for c in value.coeffs)
    assert type((z * Fraction(1, 2)).coeffs[1]) is Fraction
    assert type((z * Fraction(1, 2) * 2).coeffs[1]) is int
    # z^2 = -1 in Q(i): the halves cancel during the reduction modulo Phi_4
    reduced = Cyclotomic(4, [Fraction(1, 2), 0, Fraction(1, 2)])
    assert reduced.coeffs == (0, 0) and all(type(c) is int for c in reduced.coeffs)


def test_as_rational_returns_a_fraction():
    values = (Cyclotomic.from_rational(4, 3), Cyclotomic(4), Cyclotomic(4, [Fraction(1, 3)]))
    for value in values:
        assert type(value.as_rational()) is Fraction


def test_fraction_and_int_coefficients_agree():
    for m in (1, 4, 6):
        a, b = Cyclotomic(m, [Fraction(2)]), Cyclotomic(m, [2])
        assert a == b and hash(a) == hash(b)
        assert a.coeffs == b.coeffs
    a = Cyclotomic(6, [Fraction(2), Fraction(-3), Fraction(1, 2)])
    b = Cyclotomic(6, [2, -3, Fraction(1, 2)])
    assert a == b and hash(a) == hash(b)


def test_repr_of_integral_and_fractional_coefficients():
    assert repr(Cyclotomic(6, [2])) == "2"
    assert repr(Cyclotomic(6, [Fraction(1, 2)])) == "1/2"
    assert repr(Cyclotomic(6, [2, Fraction(1, 2)])) == "2 + 1/2*z6^1"
    assert repr(Cyclotomic(4, [Fraction(-1, 2), -2])) == "-1/2 + -2*z4^1"
    assert repr(Cyclotomic(5)) == "0"


def test_inexact_polynomial_division_raises():
    assert _polydiv_exact([-1, 0, 1], (1, 1)) == [-1, 1]
    with pytest.raises(RuntimeError):
        _polydiv_exact([1, 0, 1], (1, 1))
