import hashlib
from fractions import Fraction
from math import factorial

import pytest

from wreathdec.partitions import generate_partitions, hook_lengths, rim_hooks
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


def test_rim_hooks_match_the_hook_lengths():
    """One slide per cell of hook length t; what is left lies inside lam, and
    the sign is -1 to the leg length, the rows of the hook less one."""
    for n in range(13):
        for lam in generate_partitions(n):
            hooks = hook_lengths(lam)
            for t in range(1, n + 1):
                pairs = rim_hooks(lam, t)
                assert len(pairs) == sum(h == t for h in hooks.values()), (lam, t)
                assert len({mu for _, mu in pairs}) == len(pairs), (lam, t)
                for sign, mu in pairs:
                    padded = mu + (0,) * (len(lam) - len(mu))
                    assert len(mu) <= len(lam) and all(map(int.__le__, padded, lam)), (lam, mu)
                    assert sum(mu) == n - t, (lam, mu)
                    rows = sum(a != b for a, b in zip(lam, padded))
                    assert sign == (-1) ** (rows - 1), (lam, mu)


# sha256 of the character table of S_n as text, one row per lam and one
# value per rho, both in generate_partitions order, values space-separated:
# recorded from the beta-set strip that rim_hooks replaced
MN_TABLE_DIGESTS = {
    0: "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    1: "6b86b273ff34fce19d6b804eff5a3f5747ada4eaa22f1d49c01e52ddb7875b4b",
    2: "be13ed1b2e062bfefcba3739caa566de08b268eba4530239d4794b7a809dd2b6",
    3: "9db6d0873362d3498d0ab0ed5c8c39465d14581c1538d09da45424a71cd35f04",
    4: "13cc375b1023ef48a5b5eab46f6ee00924a55c2a80efab552f714f94291c1384",
    5: "823712bca48943107e5e499232801acf649d27dbd0fa3361ad47a792effc2f02",
    6: "527cc96c00495eee87aa033b8714c1f26b745a4f4dac67445ecef016fe7e9124",
    7: "f54831ef84afd7ed97f5cd57d37bf8590855fb4a8e8373c87e604aa3f34b86d0",
    8: "2b22df9b61f071ec77de573413033cf21efab6c7b7b3cbe44b6eec967deb55c2",
    9: "dae5f5767b31eef90774b95776e40e7e5427132bcf9c297d6570351a811c55c8",
    10: "6bfb47968919a9a56e26c85d88b3ccc81c180664efb18d475afe5c1ee7af94ff",
    11: "cfddf3751e146f9b133801f31f25f3ec88720da81a93f1718cc85aa4d220adb1",
    12: "02f67db06d553d1c7f90bbc3e3de434ddbf922f0899123c12847df36b16dc760",
    13: "c922b1cb78c79213a836b1704f95885560b626517cac5a0cd30e8100cd343418",
    14: "4df0f2afa1f81ba93313be75d1762acde4c035d2be2596a1c26a3ddbc4f7485e",
}


@pytest.mark.parametrize("n", sorted(MN_TABLE_DIGESTS))
def test_mn_values_match_the_frozen_tables(n):
    parts = generate_partitions(n)
    text = "\n".join(" ".join(str(mn_value(lam, rho)) for rho in parts) for lam in parts)
    assert hashlib.sha256(text.encode()).hexdigest() == MN_TABLE_DIGESTS[n]
