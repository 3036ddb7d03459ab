"""The oracle's class finder and induction against a frozen reference.

The reference below is the original formulation, kept here on purpose: each
class is found by conjugating its representative by every group element,
which also gives one conjugation row per class, and induction averages the
zero-extended subgroup character (None off the subgroup K, whose order is
passed by hand) over each whole row.  The oracle now closes orbits under a
generating set and induces by summing over the members of each class that
lie in K, enumerated from the blocks, so the two must agree exactly.

The Mackey claims once induced their right-hand sides block by block, the
heavy block (slot r) first; they now read the irreducible of the split
label from `parametrized_character`, which orders blocks by slot.  The
frozen two-block inductions pin that label's slots.
"""

import gc
import weakref
from fractions import Fraction
from functools import reduce
from math import factorial

import pytest

from wreathdec import oracle
from wreathdec.cyclotomic import Cyclotomic
from wreathdec.oracle import (
    BaseGroup,
    ClassFunction,
    WreathGroup,
    _cycle_products,
    _split_label,
    base_group,
    group_order,
    induce,
    inner_product,
    parametrized_character,
    perm_cycles,
    verify_mackey_multiplicities,
    verify_suite,
    wreath_group,
)
from wreathdec.partitions import generate_multipartitions, generate_partitions
from wreathdec.sn_char import mn_value

CASES = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]


def frozen_class_label(group, elem):
    f, sigma = elem
    cycles, _ = perm_cycles(sigma)
    parts = [[] for _ in group.base.class_reps]
    for cyc in cycles:
        prod = reduce(group.base.mult, (f[i] for i in cyc))
        parts[group.base.class_of[prod]].append(len(cyc))
    return tuple(tuple(sorted(ps, reverse=True)) for ps in parts)


def frozen_classes(group):
    """Full conjugation: (reps, sizes, labels, class_of_index, rows)."""
    labels = [frozen_class_label(group, e) for e in group.elements]
    invs = [group.inv(e) for e in group.elements]
    assigned = [-1] * len(group.elements)
    reps, sizes, rows = [], [], []
    for i, g in enumerate(group.elements):
        if assigned[i] >= 0:
            continue
        row = [
            group.index[group.mult(group.mult(x, g), xi)]
            for x, xi in zip(group.elements, invs)
        ]
        members = set(row)
        for j in members:
            assigned[j] = len(reps)
        reps.append(g)
        sizes.append(len(members))
        rows.append(row)
    class_labels = tuple(labels[group.index[rep]] for rep in reps)
    return tuple(reps), tuple(sizes), class_labels, tuple(assigned), rows


def frozen_tilde_value(base, base_values, lam, f, sigma):
    """The extension-style character value, or None when some coordinate
    leaves the table's domain (cycle products of outside elements can still
    land inside)."""
    for x in f:
        if x not in base_values:
            return None
    val = 1
    for prod in _cycle_products(base, f, sigma):
        val = val * base_values[prod]
    return val * mn_value(lam, perm_cycles(sigma)[1])


def frozen_block_chi0(group, blocks):
    """Pointwise values of an outer tensor product over consecutive blocks,
    zero (None) off the block-product subgroup."""

    def chi0(elem):
        f, sigma = elem
        val = 1
        for start, size, base_values, lam in blocks:
            if any(not start <= sigma[start + i] < start + size for i in range(size)):
                return None
            sub_sigma = tuple(sigma[start + i] - start for i in range(size))
            v = frozen_tilde_value(group.base, base_values, lam, f[start : start + size], sub_sigma)
            if v is None:
                return None
            val = val * v
        return val

    return chi0


def frozen_induce(group, rows, chi0, subgroup_order):
    cached = [chi0(e) for e in group.elements]
    values = []
    for row in rows:
        acc = Cyclotomic(group.base.value_order)
        for xi in row:
            if cached[xi] is not None:
                acc = acc + cached[xi]
        values.append(acc * Fraction(1, subgroup_order))
    return tuple(values)


@pytest.mark.parametrize("kind", ["G", "H"])
@pytest.mark.parametrize("p,w", CASES)
def test_classes_match_full_conjugation(p, w, kind):
    group = wreath_group(p, w, kind)
    reps, sizes, labels, class_of_index, _ = frozen_classes(group)
    assert group.class_reps == reps
    assert group.class_sizes == sizes
    assert group.class_labels == labels
    assert group.class_of_index == class_of_index


def frozen_base_classes(base):
    """Full conjugation of each unassigned element: (reps, sizes, class_of)."""
    class_of, reps, sizes = {}, [], []
    for g in base.elements:
        if g in class_of:
            continue
        orbit = {base.mult(base.mult(x, g), base.inv(x)) for x in base.elements}
        for y in orbit:
            class_of[y] = len(reps)
        reps.append(g)
        sizes.append(len(orbit))
    return tuple(reps), tuple(sizes), class_of


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_base_classes_match_full_conjugation(p):
    for base in (base_group(p).G, base_group(p).H):
        reps, sizes, class_of = frozen_base_classes(base)
        assert base.class_reps == reps
        assert base.class_sizes == sizes
        assert base.class_of == class_of


@pytest.mark.parametrize("kept", [0, 1])
def test_wrong_base_classes_fail_the_orbit_check(kept, monkeypatch):
    pair = base_group(3)
    G = pair.G
    bad = BaseGroup("G", G.elements, G.identity, G.mult, G.inv, G.irr, G.value_order,
                    G.generators[kept : kept + 1])
    assert bad.class_sizes != G.class_sizes
    monkeypatch.setattr(oracle, "base_group", lambda p: pair._replace(G=bad))
    oracle._wreath_cached.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="disagree"):
            wreath_group(3, 2, "G")
    finally:
        oracle._wreath_cached.cache_clear()


def multi_block_characters(group):
    """(blocks, subgroup order) of every label with two or more nonempty
    slots, built as `parametrized_character` builds them."""
    for label in generate_multipartitions(group.w, len(group.base.irr)):
        blocks, start = [], 0
        for slot, lam in enumerate(label):
            if lam:
                blocks.append((start, sum(lam), group.base.irr[slot], lam))
                start += sum(lam)
        if len(blocks) >= 2:
            order = len(group.base.elements) ** group.w
            for _, size, _, _ in blocks:
                order *= factorial(size)
            yield blocks, order


def linear_induction(p, k, i, alpha):
    """(blocks, subgroup order) of the induction of (i-th linear extension) x
    (alpha) from the small wreath product on k letters."""
    pair = base_group(p)
    theta = {(0, b): v for b, v in pair.H.irr[pair.islots.index(i)].items()}
    return [(0, k, theta, alpha)], group_order(p, k, "H")


def split_blocks(p, k, j_range=None):
    """(i, j, beta, gamma, blocks, subgroup order) of the block induction of
    (degree-(p-1) extension) x (beta) boxed with (i-th linear extension) x
    (gamma) on the big wreath product on k letters, the heavy block first,
    for 0 < j = |beta| < k unless `j_range` says otherwise."""
    pair = base_group(p)
    psi_r = pair.G.irr[pair.r - 1]
    for i in pair.islots:
        psi_i = pair.G.irr[i - 1]
        for j in j_range or range(1, k):
            order = len(pair.G.elements) ** k * factorial(j) * factorial(k - j)
            for beta in generate_partitions(j):
                for gamma in generate_partitions(k - j):
                    blocks = [(0, j, psi_r, beta), (j, k - j, psi_i, gamma)]
                    blocks = [b for b in blocks if b[1]]
                    yield i, j, beta, gamma, blocks, order


def mackey_characters(p, k):
    """(blocks, subgroup order) of every induction `verify_mackey_multiplicities`
    made on the big wreath product on k letters before it read its right
    side from `parametrized_character`."""
    for i in base_group(p).islots:
        for alpha in generate_partitions(k):
            yield linear_induction(p, k, i, alpha)
    for *_, blocks, order in split_blocks(p, k):
        yield blocks, order


def frozen_block_induce(group, rows, blocks, order):
    return frozen_induce(group, rows, frozen_block_chi0(group, blocks), order)


@pytest.mark.parametrize("p", [3, 5])
def test_class_sum_induction_matches_whole_group_average(p):
    groups = [wreath_group(p, 2, kind) for kind in ("G", "H")]
    cases = [(g, c) for g in groups for c in multi_block_characters(g)]
    cases += [(groups[0], c) for c in mackey_characters(p, 2)]
    rows = {id(g): frozen_classes(g)[4] for g in groups}
    assert len(cases) == {3: 10, 5: 28}[p]
    for group, (blocks, order) in cases:
        got = induce(group, blocks).values
        assert got == frozen_block_induce(group, rows[id(group)], blocks, order)


@pytest.mark.parametrize("kind", ["G", "H"])
def test_every_generator_is_needed_for_the_orbit_check(kind):
    group = WreathGroup(getattr(base_group(3), kind), 3)
    gens = group._generators()
    assert len(gens) == len(group.base.generators) + 2
    for dropped in range(len(gens)):
        with pytest.raises(RuntimeError, match="disagree"):
            group._build_classes(gens[:dropped] + gens[dropped + 1 :])


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 2)])
def test_split_label_is_the_frozen_two_block_induction(p, k):
    pair = base_group(p)
    gw = wreath_group(p, k, "G")
    rows = frozen_classes(gw)[4]
    cases = list(split_blocks(p, k))
    assert {i < pair.r for i, *_ in cases} == {True, False}
    for i, _, beta, gamma, blocks, order in cases:
        frozen = frozen_block_induce(gw, rows, blocks, order)
        assert induce(gw, blocks).values == frozen, (i, beta, gamma)
        got = parametrized_character(gw, _split_label(pair, i, beta, gamma)).values
        assert got == frozen, (i, beta, gamma)


def test_mackey_multiplicities_match_the_frozen_block_inductions():
    p, k = 3, 2
    gw = wreath_group(p, k, "G")
    rows = frozen_classes(gw)[4]
    count = 0
    for i, j, beta, gamma, blocks, order in split_blocks(p, k, range(k + 1)):
        rhs = ClassFunction(gw, frozen_block_induce(gw, rows, blocks, order))
        for alpha in generate_partitions(k):
            lin_blocks, lin_order = linear_induction(p, k, i, alpha)
            lhs = frozen_block_induce(gw, rows, lin_blocks, lin_order)
            assert induce(gw, lin_blocks).values == lhs, (i, alpha)
            expected = inner_product(ClassFunction(gw, lhs), rhs)
            got = verify_mackey_multiplicities(i, j, alpha, beta, gamma, p, k)
            assert got == expected, (i, j, alpha, beta, gamma)
            count += 1
    assert count == 2 * 2 * (2 + 1 + 2)


@pytest.mark.parametrize("p,k", [(3, 3), (5, 2)])
def test_induction_evaluates_each_element_of_the_subgroup_once(p, k, monkeypatch):
    calls = []
    evaluate = oracle._block_value
    monkeypatch.setattr(oracle, "_block_value", lambda *args: calls.append(args) or evaluate(*args))
    gw = wreath_group(p, k, "G")
    for blocks, order in [
        next(multi_block_characters(gw)),
        linear_induction(p, k, base_group(p).islots[0], (k,)),
    ]:
        calls.clear()
        induce(gw, blocks)
        assert len(calls) == order
        assert len({(f, sigma) for _, _, f, sigma in calls}) == order
    assert order == group_order(p, k, "H")


def test_verify_suite_releases_its_groups():
    """No process-wide cache outside `_wreath_cached` keeps a group alive."""
    oracle._wreath_cached.cache_clear()  # the group below is built afresh
    verify_suite(3, 2)
    ref = weakref.ref(wreath_group(3, 2, "G"))
    oracle._wreath_cached.cache_clear()
    gc.collect()
    assert ref() is None
