import re
from functools import lru_cache

import pytest
from hypothesis import given, strategies as st

import wreathdec as wd
from wreathdec import decomp, lr

from wreathdec.partitions import (
    _beads,
    _strip,
    check_partition,
    format_multipartition,
    format_partition,
    generate_multipartitions,
    generate_partitions,
    hat,
    hook_lengths,
    p_core_and_quotient,
    parse_multipartition,
    parse_partition,
    reconstruct_from_core_quotient,
)


# --- independent counting oracle (recurrence, no enumeration) ---

@lru_cache(maxsize=None)
def count_partitions(n, largest=None):
    if largest is None:
        largest = n
    if n == 0:
        return 1
    return sum(count_partitions(n - k, min(k, n - k)) for k in range(1, largest + 1))


# --- independent core oracle: greedy rim-hook surgery on the diagram ---

def strip_rim_hooks(lam, p):
    """Remove rim hooks of length exactly p until no hook is divisible by p."""
    lam = list(lam)
    removed = 0
    while True:
        hooks = hook_lengths(tuple(lam))
        if all(h % p for h in hooks.values()):
            return tuple(lam), removed
        (i, j) = next(cell for cell, h in hooks.items() if h == p)
        conj_j = sum(1 for x in lam if x > j)
        leg = conj_j - i - 1
        for r in range(i, i + leg):
            lam[r] = lam[r + 1] - 1
        lam[i + leg] = j
        lam = [x for x in lam if x]
        removed += 1


partition_st = st.integers(0, 9).flatmap(
    lambda n: st.sampled_from(generate_partitions(n)) if n else st.just(())
)


def test_generate_partitions_base_cases():
    assert generate_partitions(0) == ((),)
    assert generate_partitions(3) == ((3,), (2, 1), (1, 1, 1))
    assert len(generate_partitions(6)) == 11


@pytest.mark.parametrize("n", range(13))
def test_generate_partitions_count_matches_recurrence(n):
    assert len(generate_partitions(n)) == count_partitions(n)


def test_generate_partitions_order_is_lex_decreasing():
    for n in range(9):
        parts = generate_partitions(n)
        assert list(parts) == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)


def test_each_partition_keeps_the_prefix_of_its_predecessor():
    # the order property the prefix walk of partitions._prefix_walk relies on:
    # the successor keeps the first k - 1 parts, k the count of parts above 1
    for n in range(41):
        parts = generate_partitions(n)
        for prev, lam in zip(parts, parts[1:]):
            k = len(prev) - prev.count(1)
            assert lam[: k - 1] == prev[: k - 1], (prev, lam)
            assert lam[k - 1] == prev[k - 1] - 1, (prev, lam)


def test_generate_multipartitions_small():
    assert generate_multipartitions(0, 4) == (((), (), (), ()),)
    assert generate_multipartitions(1, 3) == (
        (((1,), (), ())),
        (((), (1,), ())),
        (((), (), (1,))),
    )
    assert len(generate_multipartitions(3, 3)) == 22


@pytest.mark.parametrize("w,t", [(w, t) for w in range(6) for t in (1, 2, 3, 4)])
def test_generate_multipartitions_count_is_convolution(w, t):
    counts = {0: 1}
    for _ in range(t - 1):
        counts = {
            n: sum(counts.get(n - k, 0) * count_partitions(k) for k in range(n + 1))
            for n in range(w + 1)
        }
    expected = sum(counts.get(w - k, 0) * count_partitions(k) for k in range(w + 1))
    mps = generate_multipartitions(w, t)
    assert len(mps) == expected
    assert all(sum(map(sum, mp)) == w for mp in mps)
    assert len(set(mps)) == len(mps)


@lru_cache(maxsize=None)
def frozen_multipartitions(w, t):
    """The original enumeration, one recursion level per slot: the size of
    the first component from w down to 0, then the rest recursively."""
    if t == 1:
        return tuple((lam,) for lam in generate_partitions(w))
    out = []
    for s in range(w, -1, -1):
        for head in generate_partitions(s):
            for tail in frozen_multipartitions(w - s, t - 1):
                out.append((head,) + tail)
    return tuple(out)


@pytest.mark.parametrize("w,t", [(w, t) for w in range(7) for t in range(1, 10)]
                         + [(4, 13), (4, 12), (6, 5), (6, 4), (2, 60)])
def test_generate_multipartitions_keeps_the_frozen_order(w, t):
    assert generate_multipartitions(w, t) == frozen_multipartitions(w, t)


def test_generate_multipartitions_depth_is_bounded_by_weight():
    # one recursion level per slot would pass the recursion limit here
    assert generate_multipartitions(0, 5000) == (((),) * 5000,)
    labels = generate_multipartitions(1, 1100)
    assert [mp.index((1,)) for mp in labels] == list(range(1100))


def test_hook_lengths_examples():
    assert hook_lengths((1,)) == {(0, 0): 1}
    assert hook_lengths((3,)) == {(0, 0): 3, (0, 1): 2, (0, 2): 1}
    assert hook_lengths((2, 1)) == {(0, 0): 3, (0, 1): 1, (1, 0): 1}


@given(partition_st)
def test_hook_lengths_match_arm_leg_definition(lam):
    hooks = hook_lengths(lam)
    assert len(hooks) == sum(lam)
    for (i, j), h in hooks.items():
        arm = lam[i] - j - 1
        leg = sum(1 for r in range(i + 1, len(lam)) if lam[r] > j)
        assert h == arm + leg + 1


def test_beta_numbers_round_trip():
    assert _beads((4, 2, 1), 3) == [6, 3, 1]
    assert _strip([6, 3, 1]) == (4, 2, 1)
    assert _strip(_beads((4, 2, 1), 6)) == (4, 2, 1)


def test_core_quotient_trivial_and_single_hook():
    assert p_core_and_quotient((), 3) == ((), ((), (), ()), 0)
    core, quotient, weight = p_core_and_quotient((3,), 3)
    assert core == () and weight == 1
    assert sum(map(sum, quotient)) == 1


def test_core_quotient_against_rim_hook_oracle():
    for n in range(11):
        for lam in generate_partitions(n):
            for p in (3, 5, 7):
                core, quotient, weight = p_core_and_quotient(lam, p)
                oracle_core, oracle_weight = strip_rim_hooks(lam, p)
                assert core == oracle_core
                assert weight == oracle_weight
                assert sum(core) + p * weight == n
                assert weight == sum(map(sum, quotient))


def test_core_has_no_hook_divisible_by_p():
    for n in range(11):
        for lam in generate_partitions(n):
            for p in (3, 5, 7):
                core = p_core_and_quotient(lam, p).core
                assert all(h % p for h in hook_lengths(core).values())


def test_round_trip_both_ways():
    for n in range(9):
        for lam in generate_partitions(n):
            for p in (3, 5, 7):
                core, quotient, _ = p_core_and_quotient(lam, p)
                assert reconstruct_from_core_quotient(core, quotient, p) == lam
    # converse: core/quotient pairs come back unchanged
    for p in (3, 5):
        for core in [(), (1,), (2,)]:
            if p_core_and_quotient(core, p).weight:
                continue
            for quotient in generate_multipartitions(2, p):
                lam = reconstruct_from_core_quotient(core, quotient, p)
                assert p_core_and_quotient(lam, p) == (core, quotient, 2)


def test_reconstruct_size_identity():
    for quotient in generate_multipartitions(1, 3):
        lam = reconstruct_from_core_quotient((), quotient, 3)
        assert sum(lam) == 3


def test_reconstruct_rejects_non_core():
    with pytest.raises(ValueError):
        reconstruct_from_core_quotient((3,), ((), (), ()), 3)


def test_rejects_bad_p():
    for p in (0, 1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            p_core_and_quotient((2, 1), p)


def test_hat():
    assert hat(((), ()), 3) == ((), (), ())
    assert hat(((1,), (2,)), 3) == ((1,), (), (2,))
    assert hat(((2,), (), (1,), ()), 5) == ((2,), (), (), (1,), ())
    with pytest.raises(ValueError):
        hat(((1,), (), ()), 3)


def test_text_format():
    assert format_partition(()) == "[]"
    assert format_partition((3, 1, 1)) == "[3,1,1]"
    assert parse_partition(" [ 3 , 1 , 1 ] ") == (3, 1, 1)
    assert format_multipartition(((2,), (1, 1), ())) == "[[2],[1,1],[]]"
    assert parse_multipartition("[[2], [1,1], []]") == ((2,), (1, 1), ())
    with pytest.raises(ValueError):
        parse_partition("[1,3]")
    with pytest.raises(ValueError):
        parse_partition('["a"]')


@pytest.mark.parametrize("bad", [(3, -1), (1, 2), (2, 0), "ab", (1.0,), (True,), 3, None])
def test_format_partition_refuses_what_is_not_a_partition(bad):
    with pytest.raises(ValueError):
        format_partition(bad)


@pytest.mark.parametrize("bad", [((1,), "x"), ((3, -1),), ((1, 2), ()), "ab", 5, None])
def test_format_multipartition_refuses_what_is_not_a_multipartition(bad):
    with pytest.raises(ValueError):
        format_multipartition(bad)


def test_text_format_takes_any_iterable_of_partitions():
    assert format_partition([3, 1]) == "[3,1]"
    assert format_multipartition([[2], (1, 1), []]) == "[[2],[1,1],[]]"
    assert format_multipartition(iter([(1,)])) == "[[1]]"


@given(partition_st)
def test_text_format_round_trip(lam):
    assert parse_partition(format_partition(lam)) == lam


@given(st.lists(partition_st, min_size=1, max_size=4))
def test_multipartition_format_round_trip(comps):
    mp = tuple(comps)
    assert parse_multipartition(format_multipartition(mp)) == mp


def test_check_partition_rejects_garbage():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


@pytest.mark.parametrize("call,message", [
    (lambda: p_core_and_quotient((0,), 3), "must be positive"),
    (lambda: p_core_and_quotient((2, 0), 3), "must be positive"),
    (lambda: p_core_and_quotient((1, 2), 3), "weakly decreasing"),
    (lambda: p_core_and_quotient((2.0, 1), 3), "must be ints"),
    (lambda: reconstruct_from_core_quotient((1, 2), ((), (), ()), 3), "weakly decreasing"),
    (lambda: reconstruct_from_core_quotient((), ((1,), (0,), ()), 3), "must be positive"),
    (lambda: reconstruct_from_core_quotient((), ((), (1, 2), ()), 3), "weakly decreasing"),
], ids=["zero", "trailing_zero", "increasing", "float", "core", "quotient_zero",
        "quotient_increasing"])
def test_core_quotient_entry_points_validate(call, message):
    """Each of these was accepted, or failed only as a bad beta-set, before."""
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("parts", [(1.5,), (2.0, 1), "21", (True,), (2, False), ("1",)])
def test_check_partition_rejects_parts_that_are_not_ints(parts):
    with pytest.raises(ValueError, match="must be ints"):
        check_partition(parts)


@pytest.mark.parametrize("call,warm,message", [
    (lambda: wd.generate_partitions(2.0), lambda: wd.generate_partitions(2),
     "n must be an int, got 2.0"),
    (lambda: wd.generate_multipartitions(1.5, 2), lambda: wd.generate_multipartitions(1, 2),
     "w must be an int, got 1.5"),
    (lambda: wd.generate_multipartitions(2, True), lambda: wd.generate_multipartitions(2, 1),
     "t must be an int, got True"),
    (lambda: wd.basic_set(2.0, 3), lambda: wd.basic_set(2, 3), "n must be an int, got 2.0"),
    (lambda: wd.block_partition(True, 3), lambda: wd.block_partition(1, 3),
     "n must be an int, got True"),
    (lambda: wd.k_matrix(3, 1.0), lambda: wd.k_matrix(3, 1), "w must be an int, got 1.0"),
    (lambda: wd.gram_matrix(3, "1"), lambda: wd.gram_matrix(3, 1), "w must be an int, got '1'"),
    (lambda: wd.character_table_sn(2.5), lambda: wd.character_table_sn(2),
     "k must be an int, got 2.5"),
    (lambda: wd.character_table_sn("1"), lambda: wd.character_table_sn(1),
     "k must be an int, got '1'"),
    (lambda: wd.restriction_expansion((2, 1.0), 1), lambda: wd.restriction_expansion((2, 1), 1),
     "partition parts must be ints"),
    (lambda: wd.restriction_expansion((2, 1), 1.0), lambda: wd.restriction_expansion((2, 1), 1),
     "j must be an int, got 1.0"),
    (lambda: wd.mn_value((2,), (1, "1")), lambda: wd.mn_value((2,), (1, 1)),
     "partition parts must be ints"),
    (lambda: wd.mn_value((2,), (1, 1.0)), lambda: wd.mn_value((2,), (1, 1)),
     "partition parts must be ints"),
], ids=["partitions", "multipartitions_w", "multipartitions_t", "basic_set", "block_partition",
        "k_matrix", "gram_matrix", "table_float", "table_str", "expansion_alpha",
        "expansion_j", "mn_str", "mn_float"])
def test_sizes_that_are_not_ints_are_refused(call, warm, message):
    """Each raised TypeError or, for a bool or a float equal to an int,
    answered as that int before.  The int call runs first, so an answer from
    a cache would show."""
    warm()
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_checked_caches_refuse_a_wrong_number_of_arguments():
    """The checks pair with the arguments one to one, so an extra argument
    is refused, not dropped."""
    with pytest.raises(TypeError, match=re.escape("takes 1 argument(s), got 2")):
        wd.generate_partitions(3, 1)
    with pytest.raises(TypeError, match=re.escape("takes 3 argument(s), got 2")):
        wd.lr_coefficient((1,), (1,))


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("call,int_call,message", [
    (lambda: wd.induce_H_to_G(((2, 1.0), ()), 3), lambda: wd.induce_H_to_G(((2, 1), ()), 3),
     "partition parts must be ints: (2, 1.0)"),
    (lambda: wd.induce_H_to_G(((1,), None), 3), lambda: wd.induce_H_to_G(((1,), ()), 3),
     "partition parts must be ints: None"),
    (lambda: wd.induce_H_to_G(((1,), 0), 3), lambda: wd.induce_H_to_G(((1,), ()), 3),
     "partition parts must be ints: 0"),
    (lambda: wd.induce_H_to_G(((1,), ""), 3), lambda: wd.induce_H_to_G(((1,), ()), 3),
     "partition parts must be ints: ''"),
    (lambda: wd.induce_H_to_G(None, 3), lambda: wd.induce_H_to_G(((), ()), 3),
     "a label must be an iterable of partitions: None"),
    (lambda: wd.iterated_lr((3,), [(2.0,), (1,)]), lambda: wd.iterated_lr((3,), [(2,), (1,)]),
     "partition parts must be ints: (2.0,)"),
    (lambda: wd.iterated_lr((3,), [(2,), None]), lambda: wd.iterated_lr((3,), [(2,), ()]),
     "partition parts must be ints: None"),
    (lambda: wd.iterated_lr(3, [(2,), (1,)]), lambda: wd.iterated_lr((3,), [(2,), (1,)]),
     "partition parts must be ints: 3"),
    (lambda: wd.iterated_lr((3,), 5), lambda: wd.iterated_lr((3,), [(3,)]),
     "factors must be an iterable of partitions: 5"),
    (lambda: wd.iterated_lr((1, 2), [(2,), (1,)]), lambda: wd.iterated_lr((2, 1), [(2,), (1,)]),
     "weakly decreasing"),
    (lambda: wd.k_coefficient(None, ((1,), (), ()), 3),
     lambda: wd.k_coefficient(((1,), ()), ((1,), (), ()), 3),
     "a label must be an iterable of partitions: None"),
    (lambda: wd.restrict_G_to_H(((), (1,), None), 3), lambda: wd.restrict_G_to_H(((), (1,), ()), 3),
     "partition parts must be ints: None"),
    (lambda: wd.hat(((1,), 0), 3), lambda: wd.hat(((1,), ()), 3),
     "partition parts must be ints: 0"),
    (lambda: wd.lr_coefficient(3, (), ()), lambda: wd.lr_coefficient((3,), (), (3,)),
     "partition parts must be ints: 3"),
    (lambda: wd.hook_lengths(5), lambda: wd.hook_lengths((5,)), "partition parts must be ints: 5"),
    (lambda: wd.oracle_restriction(((), (1,), None), 3),
     lambda: wd.oracle_restriction(((), (1,), ()), 3), "partition parts must be ints: None"),
    (lambda: lr.schur_product([(1,), None]), lambda: lr.schur_product([(1,), ()]),
     "partition parts must be ints: None"),
    (lambda: lr.schur_product([(1,), 0]), lambda: lr.schur_product([(1,), ()]),
     "partition parts must be ints: 0"),
    (lambda: lr.schur_product([(2.0,)]), lambda: lr.schur_product([(2,)]),
     "partition parts must be ints: (2.0,)"),
    (lambda: lr.schur_product(5), lambda: lr.schur_product([(3,)]),
     "factors must be an iterable of partitions: 5"),
], ids=["induce_float", "induce_none", "induce_zero", "induce_str", "induce_label_none",
        "iterated_float", "iterated_none", "iterated_target_int", "iterated_factors_int",
        "iterated_target_increasing", "k_label_none", "restrict_none", "hat_zero", "lr_int",
        "hooks_int", "oracle_restriction_none", "schur_none", "schur_zero", "schur_float",
        "schur_int"])
def test_labels_and_partitions_are_checked_before_the_caches(call, int_call, message, warm):
    """Each raised TypeError, was accepted, or, for a float equal to an int,
    answered from the cache after the int call.  Cold starts from cleared
    label caches; with `warm` the int call runs first."""
    decomp._key_row.cache_clear()
    lr._schur_product.cache_clear()
    wd.lr_coefficient.cache_clear()
    if warm:
        int_call()
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("fn,args,as_tuples", [
    (wd.k_coefficient, ([[1], []], [(), [1], ()], 3), (((1,), ()), ((), (1,), ()), 3)),
    (wd.induce_H_to_G, ([[2, 1], []], 3), (((2, 1), ()), 3)),
    (wd.restrict_G_to_H, ([(), [2], [1]], 3), (((), (2,), (1,)), 3)),
    (wd.degree_G, ([(), [2], [1]], 3), (((), (2,), (1,)), 3)),
    (wd.degree_H, ([[1], [1]], 3), (((1,), (1,)), 3)),
    (wd.hat, ([[1], []], 3), (((1,), ()), 3)),
    (wd.iterated_lr, ([2, 1], [[1], [1]]), ((2, 1), ((1,), (1,)))),
], ids=["k_coefficient", "induce", "restrict", "degree_G", "degree_H", "hat", "iterated_lr"])
def test_list_labels_are_answered_as_their_tuples(fn, args, as_tuples, warm):
    """Each but degree_G and degree_H raised TypeError before: a list does
    not hash, nor does it concatenate with a tuple in hat."""
    decomp._key_row.cache_clear()
    lr._schur_product.cache_clear()
    if warm:
        fn(*as_tuples)
    assert fn(*args) == fn(*as_tuples)


def test_parse_partition_rejects_booleans():
    with pytest.raises(ValueError, match="must be ints"):
        parse_partition("[true, true]")
    with pytest.raises(ValueError, match="must be ints"):
        parse_multipartition("[[1], [true]]")


@pytest.mark.parametrize("parse,text", [
    (parse_partition, b"[2,1]"),
    (parse_partition, None),
    (parse_partition, 3),
    (parse_multipartition, b"[[2],[1]]"),
    (parse_multipartition, None),
    (parse_multipartition, 3),
])
def test_parse_refuses_text_that_is_not_a_str(parse, text):
    """bytes were decoded and parsed; None and 3 raised TypeError in json.loads."""
    with pytest.raises(ValueError, match=r"^not a (multi)?partition: "):
        parse(text)
