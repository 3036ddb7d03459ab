from fractions import Fraction
from math import factorial

import pytest

from wreathdec.partitions import generate_partitions, hook_lengths
from wreathdec.sn_char import (
    _mn,
    centralizer_order,
    character_table_sn,
    degree,
    mn_value,
)


def test_trivial_and_sign_characters():
    for rho in generate_partitions(4):
        assert mn_value((4,), rho) == 1
    assert mn_value((1, 1), (2,)) == -1
    assert mn_value((1, 1, 1), (2, 1)) == -1
    assert mn_value((1, 1, 1), (3,)) == 1


def test_hand_checked_values():
    assert mn_value((2, 1), (1, 1, 1)) == 2
    assert mn_value((2, 1), (3,)) == -1
    assert mn_value((2, 1), (2, 1)) == 0
    assert mn_value((), ()) == 1


def test_size_mismatch_raises():
    with pytest.raises(ValueError):
        mn_value((2, 1), (2, 2))


def test_degree_examples():
    assert degree(()) == 1
    for n in range(1, 8):
        assert degree((n,)) == 1
        assert degree((1,) * n) == 1
    assert degree((2, 1)) == 2
    assert degree((2, 2)) == 2
    assert degree((3, 2)) == 5


def test_degree_equals_value_at_identity():
    for n in range(9):
        for lam in generate_partitions(n):
            assert degree(lam) == mn_value(lam, (1,) * n)


def test_centralizer_orders():
    assert centralizer_order((3,)) == 3
    assert centralizer_order((2, 1)) == 2
    assert centralizer_order((1, 1, 1)) == 6
    assert centralizer_order((2, 2, 1)) == 8
    for k in range(1, 9):
        assert sum(factorial(k) // centralizer_order(rho)
                   for rho in generate_partitions(k)) == factorial(k)


def test_row_orthogonality():
    for k in range(1, 9):
        types = generate_partitions(k)
        for lam in types:
            for mu in types:
                ip = sum(
                    Fraction(mn_value(lam, rho) * mn_value(mu, rho), centralizer_order(rho))
                    for rho in types
                )
                assert ip == (1 if lam == mu else 0)


def test_squared_degrees_sum_to_group_order():
    for k in range(1, 9):
        assert sum(degree(lam) ** 2 for lam in generate_partitions(k)) == factorial(k)


def test_small_tables():
    assert character_table_sn(1) == [[1]]
    # rows and columns both run (2,) then (1,1)
    assert character_table_sn(2) == [[1, 1], [-1, 1]]
    table = character_table_sn(3)
    assert table[0] == [1, 1, 1]
    assert [row[2] for row in table] == [1, 2, 1]  # identity column = degrees


def test_table_guard():
    with pytest.raises(ValueError):
        character_table_sn(13)
    with pytest.raises(ValueError):
        character_table_sn(0)


def test_cache_is_invisible():
    before = mn_value((3, 2, 1), (2, 2, 1, 1))
    _mn.cache_clear()
    assert mn_value((3, 2, 1), (2, 2, 1, 1)) == before


@pytest.mark.parametrize("call,message", [
    (lambda: mn_value((1, 2), (3,)), "weakly decreasing"),
    (lambda: mn_value((3,), (1, 2)), "weakly decreasing"),
    (lambda: mn_value((2, 0), (2,)), "must be positive"),
    (lambda: degree((1, 2)), "weakly decreasing"),
    (lambda: degree((True,)), "must be ints"),
    (lambda: hook_lengths((1, 2)), "weakly decreasing"),
], ids=["mn_lam", "mn_rho", "mn_zero", "degree", "degree_bool", "hook_lengths"])
def test_bad_arguments_raise_value_error(call, message):
    """mn_value((1, 2), (3,)) returned 0, degree and hook_lengths raised IndexError."""
    with pytest.raises(ValueError, match=message):
        call()
