from math import factorial

import pytest
from bareiss import determinant

from wreathdec import decomp
from wreathdec.lr import lr_coefficient
from wreathdec.oracle import (
    oracle_restriction,
    parametrized_character,
    verify_mackey_multiplicities,
    wreath_group,
)
from wreathdec.decomp import (
    basic_set,
    block_partition,
    blocks,
    degree_G,
    degree_H,
    glabels,
    gram_matrix,
    gram_rows,
    hlabels,
    induce_H_to_G,
    k_coefficient,
    k_matrix,
    k_rows,
    restrict_G_to_H,
)
from wreathdec.partitions import (
    generate_multipartitions,
    generate_partitions,
    hat,
    p_core_and_quotient,
)


def test_k_coefficient_weight_one():
    alpha = ((1,), ())
    assert k_coefficient(alpha, ((1,), (), ()), 3) == 1
    assert k_coefficient(alpha, ((), (1,), ()), 3) == 1
    assert k_coefficient(alpha, ((), (), (1,)), 3) == 0


def test_k_coefficient_weight_zero():
    assert k_coefficient(((), ()), ((), (), ()), 3) == 1
    assert induce_H_to_G(((), ()), 3) == {((), (), ()): 1}
    assert restrict_G_to_H(((), (), ()), 3) == {((), ()): 1}


def test_k_coefficient_validates_labels():
    with pytest.raises(ValueError):
        k_coefficient(((1,), ()), ((1,), (), ()), 4)
    with pytest.raises(ValueError):
        k_coefficient(((1,),), ((1,), (), ()), 3)
    with pytest.raises(ValueError):
        k_coefficient(((1,), ()), ((2,), (), ()), 3)
    with pytest.raises(ValueError, match="p must be an odd prime, got 4"):
        induce_H_to_G(((1,), (), ()), 4)
    with pytest.raises(ValueError, match="expected 2 components, got 3"):
        induce_H_to_G(((1,), (), ()), 3)
    with pytest.raises(ValueError, match="expected 3 components, got 2"):
        restrict_G_to_H(((1,), ()), 3)


@pytest.mark.parametrize("call,message", [
    (lambda: k_coefficient(((0,), ()), ((), (), ()), 3), "must be positive"),
    (lambda: induce_H_to_G(((-1,), ()), 3), "must be positive"),
    (lambda: restrict_G_to_H(((), (2, 1, 3), ()), 3), "weakly decreasing"),
    (lambda: lr_coefficient((1, 2), (1,), (1,)), "weakly decreasing"),
    (lambda: degree_H(((1, 2), ()), 3), "weakly decreasing"),
    (lambda: parametrized_character(wreath_group(3, 3), ((), (1, 2), ())), "weakly decreasing"),
    (lambda: k_coefficient(((1,), ()), ((), (1,), ()), 3.0), "p must be an odd prime, got 3.0"),
    (lambda: oracle_restriction(((), (2, 1, 3), ()), 3), "weakly decreasing"),
    (lambda: verify_mackey_multiplicities(1, 0, (1, 2), (), (2, 1), 3, 3), "weakly decreasing"),
], ids=["k_coefficient", "induce", "restrict", "lr", "degree_H", "character", "float_p",
        "oracle_restriction", "mackey"])
def test_bad_library_arguments_raise_value_error(call, message):
    """Each of these once returned a wrong answer or raised another error."""
    with pytest.raises(ValueError, match=message):
        call()


def test_key_rows_are_shared_by_every_p_and_read_only():
    decomp._key_row.cache_clear()
    list(k_rows(5, 3))
    misses = decomp._key_row.cache_info().misses
    assert misses == 6  # every multiset of nonempty partitions of total size 3
    list(k_rows(3, 3))
    assert decomp._key_row.cache_info().misses == misses
    row = decomp._key_row(((1,),))
    with pytest.raises(TypeError):
        row[next(iter(row))] = 0


def test_empty_special_slot_columns_are_unit():
    for p in (3, 5):
        for w in range(4):
            for alpha in hlabels(p, w):
                for gamma in glabels(p, w):
                    if gamma[decomp.r_slot(p)]:
                        continue
                    expected = 1 if gamma == hat(alpha, p) else 0
                    assert k_coefficient(alpha, gamma, p) == expected


def test_restriction_of_kernel_characters_is_single_irreducible():
    for p in (3, 5):
        for w in range(3):
            for gamma in glabels(p, w):
                if gamma[decomp.r_slot(p)]:
                    continue
                terms = restrict_G_to_H(gamma, p)
                assert len(terms) == 1
                ((alpha, mult),) = terms.items()
                assert mult == 1 and hat(alpha, p) == gamma


def test_nonkernel_restrictions_are_never_single_unit_terms():
    # the converse direction is not forced by the coefficient formula; this
    # records the empirical outcome on the desk-scale range: every label with
    # a nonempty special slot restricts with >= 2 constituents
    for p, w_max in [(3, 3), (5, 2), (7, 1)]:
        for w in range(1, w_max + 1):
            for gamma in glabels(p, w):
                if not gamma[decomp.r_slot(p)]:
                    continue
                terms = restrict_G_to_H(gamma, p)
                total = sum(terms.values())
                assert total >= 2, (p, w, gamma, terms)


def test_induce_example_weight_one():
    terms = induce_H_to_G(((1,), ()), 3)
    assert terms == {((1,), (), ()): 1, ((), (1,), ()): 1}


def test_induction_support_for_concentrated_labels():
    # all boxes at a single slot: support avoids the other slots entirely
    p = 5
    mid = decomp.r_slot(p)
    alpha = ((), (3,), (), ())
    for gamma, mult in induce_H_to_G(alpha, p).items():
        assert mult > 0
        for j, comp in enumerate(gamma):
            if j not in (1, mid) and comp:
                pytest.fail(f"unexpected support at slot {j}: {gamma}")


def test_degrees_weight_one():
    assert [degree_G(g, 3) for g in glabels(3, 1)] == [1, 2, 1]
    assert [degree_H(a, 3) for a in hlabels(3, 1)] == [1, 1]
    assert degree_G(((), (), ()), 3) == 1


def test_degree_squares_sum_to_group_order():
    for p, w_max in [(3, 3), (5, 2)]:
        for w in range(w_max + 1):
            order_g = (p * (p - 1)) ** w * factorial(w)
            order_h = (p - 1) ** w * factorial(w)
            assert sum(degree_G(g, p) ** 2 for g in glabels(p, w)) == order_g
            assert sum(degree_H(a, p) ** 2 for a in hlabels(p, w)) == order_h


def test_degree_conservation_and_scaling():
    for p, w_max in [(3, 3), (5, 2), (7, 1)]:
        for w in range(w_max + 1):
            for gamma in glabels(p, w):
                total = sum(
                    k * degree_H(alpha, p)
                    for alpha, k in restrict_G_to_H(gamma, p).items()
                )
                assert total == degree_G(gamma, p)
            for alpha in hlabels(p, w):
                total = sum(
                    k * degree_G(gamma, p)
                    for gamma, k in induce_H_to_G(alpha, p).items()
                )
                assert total == p**w * degree_H(alpha, p)


def test_k_matrix_is_consistent_with_both_sparse_views():
    p, w = 3, 2
    matrix = k_matrix(p, w)
    rows, cols = hlabels(p, w), glabels(p, w)
    for i, alpha in enumerate(rows):
        for j, gamma in enumerate(cols):
            assert matrix[i][j] == k_coefficient(alpha, gamma, p)
    for j, gamma in enumerate(cols):
        sparse = restrict_G_to_H(gamma, p)
        assert {rows[i]: row[j] for i, row in enumerate(matrix) if row[j]} == sparse


def test_gram_weight_one_example():
    assert gram_matrix(3, 1) == [[1, 1, 0], [1, 2, 1], [0, 1, 1]]


def test_gram_symmetry_and_minors():
    for p, w in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]:
        gram = gram_matrix(p, w)
        n = len(gram)
        assert all(gram[i][j] == gram[j][i] for i in range(n) for j in range(n))
        assert all(gram[i][i] >= 1 for i in range(n))
        # positive semidefinite at desk scale: leading principal minors >= 0
        for k in range(1, n + 1):
            sub = [row[:k] for row in gram[:k]]
            assert determinant(sub) >= 0


def test_sparse_gram_entries_are_symmetric_and_equal_k_transpose_k():
    """gram_rows accumulates the upper half only and mirrors it; a dense K^T K
    checks every entry, at w = 0 too, where the matrix is [[1]]."""
    cases = [(p, w) for p in (3, 5, 7) for w in range(4)] + [(3, 5), (13, 2)]
    for p, w in cases:
        kmat = k_matrix(p, w)
        n = len(glabels(p, w))
        dense = [
            [sum(row[i] * row[j] for row in kmat) for j in range(n)] for i in range(n)
        ]
        rows = list(gram_rows(p, w))
        assert rows == [[(j, v) for j, v in enumerate(line) if v] for line in dense], (p, w)
        entries = [(i, j, v) for i, row in enumerate(rows) for j, v in row]
        assert sorted((j, i, v) for i, j, v in entries) == entries
        assert gram_matrix(p, w) == dense
    assert gram_matrix(3, 0) == gram_matrix(13, 0) == [[1]]


def test_gram_unit_block_on_kernel_labels():
    for p, w in [(3, 2), (5, 1)]:
        labels = glabels(p, w)
        gram = gram_matrix(p, w)
        mid = decomp.r_slot(p)
        idx = [i for i, g in enumerate(labels) if not g[mid]]
        for a in idx:
            for b in idx:
                assert gram[a][b] == (1 if a == b else 0)


def test_determinant_small_cases():
    assert determinant([]) == 1
    assert determinant([[5]]) == 5
    assert determinant([[1, 2], [3, 4]]) == -2
    assert determinant([[0, 1], [1, 0]]) == -1
    assert determinant([[2, 0, 1], [1, 1, 0], [0, 3, 1]]) == 5


def test_basic_set_counts_match_regular_class_counts():
    for n in range(1, 11):
        for p in (3, 5):
            regular = [
                lam
                for lam in generate_partitions(n)
                if all(part % p for part in lam)
            ]
            assert len(basic_set(n, p)) == len(regular)


def test_basic_set_below_p_is_everything():
    for p in (3, 5, 7):
        for n in range(1, p):
            assert basic_set(n, p) == list(generate_partitions(n))


def test_basic_set_refines_blocks():
    for n in range(1, 9):
        for p in (3, 5):
            members = set(basic_set(n, p))
            for (core, weight), lams in block_partition(n, p).items():
                inside = [lam for lam in lams if lam in members]
                assert len(inside) == len(generate_multipartitions(weight, p - 1))


def test_blocks_partition_and_nakayama():
    for n in range(1, 9):
        for p in (3, 5):
            blocks = block_partition(n, p)
            all_members = [lam for members in blocks.values() for lam in members]
            assert sorted(all_members) == sorted(generate_partitions(n))
            for (core, weight), members in blocks.items():
                assert sum(core) + p * weight == n
                assert len(members) == len(generate_multipartitions(weight, p))
                for lam in members:
                    assert p_core_and_quotient(lam, p).core == core
            # equal cores iff same block
            cores = {}
            for lam in generate_partitions(n):
                cores.setdefault(p_core_and_quotient(lam, p).core, set()).add(lam)
            assert set(map(frozenset, cores.values())) == {
                frozenset(m) for m in blocks.values()
            }


def test_blocks_below_p_are_singletons():
    for p in (3, 5, 7):
        for n in range(1, p):
            assert all(len(m) == 1 for m in block_partition(n, p).values())


@pytest.mark.parametrize("p", [3, 5, 7])
def test_one_block_grouping_feeds_basic_set_and_block_partition(p):
    mid = decomp.r_slot(p)
    for n in range(21):
        grouped = blocks(n, p)
        basic = set(basic_set(n, p))
        first_index = []
        for (core, weight), members in grouped.items():
            lams = [lam for lam, _ in members]
            first_index.append(generate_partitions(n).index(lams[0]))
            assert lams == sorted(lams, reverse=True)
            for lam, flag in members:
                core_q, quotient, weight_q = p_core_and_quotient(lam, p)
                assert (core_q, weight_q) == (core, weight)
                assert flag == (not quotient[mid]) == (lam in basic), (n, lam)
        assert first_index == sorted(first_index)
        assert sum(len(m) for m in grouped.values()) == len(generate_partitions(n))
        assert block_partition(n, p) == {
            key: [lam for lam, _ in members] for key, members in grouped.items()
        }
