"""The label engine against a frozen per-pair reference.

The reference below is the original formulation, kept here on purpose: one
coefficient per (alpha, gamma) pair, and a Schur-product fold redone for
every target shape.  The engine in `decomp` shares rows across slot
permutations and folds each product once, so the two must agree exactly.
"""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from wreathdec import decomp
from wreathdec.decomp import (
    glabels,
    hlabels,
    induce_H_to_G,
    k_coefficient,
    k_matrix,
    k_rows,
    r_slot,
    restrict_G_to_H,
)
from wreathdec.lr import iterated_lr, lr_coefficient, schur_product
from wreathdec.partitions import generate_partitions


def frozen_fold(factors):
    """{mu: coefficient} of the product of the Schur functions of factors,
    folded one factor at a time through lr_coefficient."""
    state = {(): 1}
    size = 0
    for phi in factors:
        size += sum(phi)
        new = {}
        for mu in generate_partitions(size):
            m = sum(c * lr_coefficient(mu, nu, phi) for nu, c in state.items())
            if m:
                new[mu] = m
        state = new
    return state


def frozen_k(alpha, gamma, p):
    mid = r_slot(p)
    gamma_i, gamma_r = gamma[:mid] + gamma[mid + 1 :], gamma[mid]
    if any(sum(g) > sum(a) for a, g in zip(alpha, gamma_i)):
        return 0
    if sum(gamma_r) != sum(sum(a) - sum(g) for a, g in zip(alpha, gamma_i)):
        return 0
    slot_terms = []
    for a, g in zip(alpha, gamma_i):
        terms = [
            (beta, c)
            for beta in generate_partitions(sum(a) - sum(g))
            if (c := lr_coefficient(a, beta, g))
        ]
        if not terms:
            return 0
        slot_terms.append(terms)
    total = 0
    for combo in product(*slot_terms):
        coeff = 1
        for _, c in combo:
            coeff *= c
        total += coeff * frozen_fold([b for b, _ in combo]).get(gamma_r, 0)
    return total


def frozen_compositions(n, parts):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in frozen_compositions(n - first, parts - 1):
            yield (first,) + rest


def frozen_restrict(gamma, p):
    mid = r_slot(p)
    gamma_i, gamma_r = gamma[:mid] + gamma[mid + 1 :], gamma[mid]
    result = {}
    for extra in frozen_compositions(sum(gamma_r), p - 1):
        sizes = [sum(g) + e for g, e in zip(gamma_i, extra)]
        for alpha in product(*(generate_partitions(s) for s in sizes)):
            k = frozen_k(alpha, gamma, p)
            if k:
                result[alpha] = k
    return result


@st.composite
def label_pairs(draw):
    p = draw(st.sampled_from([3, 5, 7]))
    w = draw(st.integers(0, 4))
    alpha = draw(st.sampled_from(hlabels(p, w)))
    gamma = draw(st.sampled_from(glabels(p, w)))
    return p, alpha, gamma


@settings(max_examples=60, deadline=None)
@given(label_pairs())
def test_engine_matches_frozen_per_pair_formula(case):
    p, alpha, gamma = case
    w = sum(map(sum, alpha))
    assert k_coefficient(alpha, gamma, p) == frozen_k(alpha, gamma, p)
    row = {g: k for g in glabels(p, w) if (k := frozen_k(alpha, g, p))}
    assert induce_H_to_G(alpha, p) == row
    # insertion order too: verify prints the repr of this dict
    assert list(restrict_G_to_H(gamma, p).items()) == list(frozen_restrict(gamma, p).items())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.integers(0, 4).flatmap(lambda n: st.sampled_from(generate_partitions(n))),
                max_size=4))
def test_schur_product_matches_fold_per_target(factors):
    size = sum(map(sum, factors))
    expected = frozen_fold(factors)  # one fold per example, every target read off it
    assert schur_product(factors) == expected
    for mu in generate_partitions(size):
        assert iterated_lr(mu, factors) == expected.get(mu, 0)


def test_k_matrix_exhaustive_at_p3():
    p = 3
    for w in range(6):
        rows, cols = hlabels(p, w), glabels(p, w)
        expected = [[frozen_k(alpha, gamma, p) for gamma in cols] for alpha in rows]
        assert k_matrix(p, w) == expected
        assert list(k_rows(p, w)) == [
            [(j, v) for j, v in enumerate(row) if v] for row in expected
        ]


def frozen_induce(alpha, p):
    """The per-entry scatter that induce_H_to_G once ran: each key-row entry
    is built as a list of p - 1 empty slots, alpha's nonempty slots filled
    from the key components and gamma^r inserted at r."""
    slots, row = decomp._orbit(alpha)
    mid = r_slot(p)
    result = {}
    for (*gammas, gamma_r, _), k in row.items():
        gamma = [()] * (p - 1)
        for s, g in zip(slots, gammas):
            gamma[s] = g
        gamma.insert(mid, gamma_r)
        result[tuple(gamma)] = k
    return result


SCATTER_CASES = [(p, w) for p in (3, 5, 7, 11, 13, 17, 19) for w in range(4)]
SCATTER_CASES += [(5, 4), (3, 6), (13, 4)]


@pytest.mark.parametrize("p,w", SCATTER_CASES)
def test_scatter_matches_the_frozen_per_entry_loop(p, w):
    """Key order included; w = 0 and p = 3, one H-slot on each side of r,
    are among the cases."""
    col = {gamma: j for j, gamma in enumerate(glabels(p, w))}
    expected_rows = []
    for alpha in hlabels(p, w):
        expected = frozen_induce(alpha, p)
        assert list(induce_H_to_G(alpha, p).items()) == list(expected.items()), alpha
        expected_rows.append(sorted((col[gamma], k) for gamma, k in expected.items()))
    assert list(k_rows(p, w)) == expected_rows
