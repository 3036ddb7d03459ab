import random
from fractions import Fraction

import pytest

from wreathdec.lr import iterated_lr, lr_coefficient, restriction_expansion
from wreathdec.partitions import generate_partitions
from wreathdec.sn_char import centralizer_order, degree, mn_value


def lr_by_characters(alpha, beta, gamma):
    """Independent oracle: the coefficient as a character inner product over
    the product of two symmetric groups, via centralizer-weighted sums."""
    j, l = sum(beta), sum(gamma)
    if sum(alpha) != j + l:
        return 0
    total = Fraction(0)
    for rho1 in generate_partitions(j):
        for rho2 in generate_partitions(l):
            combined = tuple(sorted(rho1 + rho2, reverse=True))
            total += Fraction(
                mn_value(alpha, combined) * mn_value(beta, rho1) * mn_value(gamma, rho2),
                centralizer_order(rho1) * centralizer_order(rho2),
            )
    assert total.denominator == 1
    return int(total)


def test_empty_factor_is_kronecker_delta():
    for n in range(6):
        for alpha in generate_partitions(n):
            for gamma in generate_partitions(n):
                expected = 1 if alpha == gamma else 0
                assert lr_coefficient(alpha, (), gamma) == expected
                assert lr_coefficient(alpha, gamma, ()) == expected


def test_hand_checked_coefficients():
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 1), (1,), (2,)) == 1
    assert lr_coefficient((3,), (1,), (1, 1)) == 0
    assert lr_coefficient((2, 2), (1,), (2, 1)) == 1
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2  # checked by character oracle
    # size mismatch and non-containment give zero
    assert lr_coefficient((2,), (1,), (2,)) == 0
    assert lr_coefficient((1, 1, 1), (2,), (1,)) == 0


def test_agrees_with_character_oracle():
    for k in range(6):
        for alpha in generate_partitions(k):
            for j in range(k + 1):
                for beta in generate_partitions(j):
                    for gamma in generate_partitions(k - j):
                        assert lr_coefficient(alpha, beta, gamma) == lr_by_characters(
                            alpha, beta, gamma
                        )


def test_symmetry_in_the_two_factors():
    for k in range(9):
        for alpha in generate_partitions(k):
            for j in range(k // 2 + 1):
                for beta in generate_partitions(j):
                    for gamma in generate_partitions(k - j):
                        assert lr_coefficient(alpha, beta, gamma) == lr_coefficient(
                            alpha, gamma, beta
                        )


def test_iterated_lr_degenerate_cases():
    assert iterated_lr((), []) == 1
    assert iterated_lr((), [(), (), ()]) == 1
    for beta in generate_partitions(4):
        for alpha in generate_partitions(4):
            assert iterated_lr(alpha, [beta]) == (1 if alpha == beta else 0)


def test_iterated_lr_boxes_give_degree():
    # inducting w single boxes from the trivial subgroup counts standard
    # tableaux, i.e. the degree
    for w in range(1, 6):
        for target in generate_partitions(w):
            assert iterated_lr(target, [(1,)] * w) == degree(target)


def test_iterated_lr_factor_order_invariance():
    rng = random.Random(202)
    factor_sets = [
        [(2,), (1,), (1, 1)],
        [(2, 1), (1,), (2,)],
        [(1,), (1,), (2, 2)],
        [(3,), (2, 1)],
    ]
    for factors in factor_sets:
        total = sum(map(sum, factors))
        for target in generate_partitions(total):
            reference = iterated_lr(target, factors)
            for _ in range(4):
                shuffled = factors[:]
                rng.shuffle(shuffled)
                assert iterated_lr(target, shuffled) == reference


def test_restriction_expansion():
    assert restriction_expansion((2, 1), 0) == [((), (2, 1), 1)]
    assert restriction_expansion((2, 1), 1) == [
        ((1,), (2,), 1),
        ((1,), (1, 1), 1),
    ]
    with pytest.raises(ValueError):
        restriction_expansion((2, 1), 4)


def test_restriction_degrees_sum():
    # summing over j with binomial weights recovers 2^k times the degree
    from math import comb

    for k in range(7):
        for alpha in generate_partitions(k):
            total = sum(
                comb(k, j) * c * degree(beta) * degree(gamma)
                for j in range(k + 1)
                for beta, gamma, c in restriction_expansion(alpha, j)
            )
            assert total == 2**k * degree(alpha)


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_lr_coefficient_checks_before_the_cache(warm):
    """With `warm` the int arguments are cached first; (1, True) and
    (2, 1.0) hash like (1, 1) and (2, 1), so a check on a miss only would
    answer them from the cache."""
    lr_coefficient.cache_clear()
    if warm:
        assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    for args in [((2, 1.0), (1,), (1, True)), ((2, 1), (1,), (1, True)), ((2, 1), (True,), (1, 1))]:
        with pytest.raises(ValueError, match="partition parts must be ints"):
            lr_coefficient(*args)


def test_lr_coefficient_cache_is_read_through_the_public_name():
    lr_coefficient.cache_clear()
    assert lr_coefficient((2, 1), (1,), (1, 1)) == lr_coefficient((2, 1), (1,), (1, 1)) == 1
    info = lr_coefficient.cache_info()
    assert (info.hits, info.misses) == (1, 1)
    # the checked tuples are the cache keys, so a list partition is answered too
    assert lr_coefficient([2, 1], [1], [1, 1]) == 1
    assert lr_coefficient.cache_info().hits == 2
