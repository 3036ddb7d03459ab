import ast
import hashlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from frozen_wreath import (
    cyclotomic_values,
    frozen_base_tables,
    frozen_class_label,
    frozen_cycle_products,
    frozen_encode,
    frozen_identity,
    frozen_inv,
    frozen_law,
    frozen_mult,
)
from suite_groups import suite_groups

from wreathdec import decomp, oracle
from wreathdec.oracle import (
    BaseGroup,
    GuardError,
    WreathGroup,
    _cycle_product_ids,
    _cyclotomic,
    base_group,
    base_group_claims,
    class_structure_claims,
    character_claims,
    conjugacy_classes,
    index_exponents,
    induce,
    inner_product,
    mackey_claims,
    oracle_restriction,
    parametrized_character,
    perm_cycles,
    primitive_root,
    restrict_to_h,
    tilde_restriction_claims,
    verify_mackey_multiplicities,
    verify_suite,
    wreath_group,
)
from wreathdec.partitions import generate_multipartitions, generate_partitions


def all_pass(claims):
    failures = [c for c in claims if c.status == "fail"]
    assert not failures, failures[:3]


def test_primitive_roots():
    assert primitive_root(3) == 2
    assert primitive_root(5) == 2
    assert primitive_root(7) == 3
    assert primitive_root(11) == 2
    assert primitive_root(13) == 2


def test_index_exponents_fix_trivial_slot_and_biject():
    for p in (3, 5, 7):
        exps = index_exponents(p)
        assert exps[1] == 0
        assert sorted(exps.values()) == list(range(p - 1))
        assert (p + 1) // 2 not in exps


def test_base_group_shape():
    pair = base_group(5)
    assert len(pair.G.elements) == 20
    assert len(pair.H.elements) == 4
    assert len(pair.G.class_reps) == 5
    assert len(pair.H.class_reps) == 4
    # complement embeds with the right values: psi_i restricted equals theta_i
    g_irr, h_irr = frozen_base_tables(5)
    for slot, i in enumerate(pair.islots):
        for b in pair.H.elements:
            assert g_irr[i - 1][(0, b)] == h_irr[slot][b]
            assert (pair.G.monomials[i - 1][frozen_law(pair.G).index[(0, b)]]
                    == pair.H.monomials[slot][frozen_law(pair.H).index[b]])


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_monomials_match_the_frozen_cyclotomic_tables(p):
    """Every monomial, listed by element number, is the frozen cyclotomic
    table's value at that element."""
    pair = base_group(p)
    for base, irr in zip((pair.G, pair.H), frozen_base_tables(p)):
        assert len(base.monomials) == len(irr)
        for mono, table in zip(base.monomials, irr):
            assert len(mono) == len(base.elements)
            for x, v in zip(base.elements, mono):
                assert _cyclotomic(p - 1, *v) == table[x]


def test_base_group_rejects_bad_p():
    for p in (2, 4, 9, 19):
        with pytest.raises(ValueError):
            base_group(p)


def test_base_group_claims():
    for p in (3, 5, 7):
        all_pass(base_group_claims(p))


def test_group_law_and_inverses():
    g2 = wreath_group(3, 2, "G")

    def mult(i, j):  # on ids, through the frozen tuple-level law
        return frozen_encode(g2, frozen_mult(g2, g2.elements[i], g2.elements[j]))

    for i in range(50):
        inv = frozen_encode(g2, frozen_inv(g2, g2.elements[i]))
        assert mult(i, inv) == mult(inv, i) == 0
        assert mult(i, 0) == mult(0, i) == i
    a, b, c = 3, 40, 57
    assert mult(mult(a, b), c) == mult(a, mult(b, c))


def test_cycle_products():
    g2 = wreath_group(3, 2, "G")
    base, law = g2.base, frozen_law(g2.base)
    x, y = (1, 0), (2, 1)
    assert frozen_cycle_products(base, (x, y), (0, 1)) == [x, y]
    assert frozen_cycle_products(base, (x, y), (1, 0)) == [law.mult(x, y)]
    # the library's product on element numbers agrees on every element
    for j in range(g2.order):
        f, sigma = g2.elements[j]
        digits = [law.index[z] for z in f]
        got = _cycle_product_ids(base.mul_table, digits, perm_cycles(sigma)[0])
        assert [base.elements[z] for z in got] == frozen_cycle_products(base, f, sigma)


def test_cycle_products_of_conjugates_match_classwise():
    g2 = wreath_group(3, 2, "G")
    for g in g2.elements[::17]:
        c = g2.class_of_index[frozen_encode(g2, g)]
        lab = frozen_class_label(g2, g)
        assert g2.class_labels[c] == lab
        for x in g2.elements[::23]:
            conj = frozen_mult(g2, frozen_mult(g2, x, g), frozen_inv(g2, x))
            assert frozen_class_label(g2, conj) == lab
            assert g2.class_of_index[frozen_encode(g2, conj)] == c


@pytest.mark.parametrize("kind", ["G", "H"])
@pytest.mark.parametrize("w", [0, 1, 2, 3])
def test_id_zero_is_the_identity_in_class_zero(w, kind):
    group = wreath_group(3, w, kind)
    assert group.elements[0] == frozen_identity(group)
    assert group.class_of_index[0] == 0
    assert group.class_reps[0] == frozen_identity(group)
    assert group.class_sizes[0] == 1


def test_class_counts():
    assert len(wreath_group(3, 1, "G").class_reps) == 3
    assert len(wreath_group(3, 2, "G").class_reps) == 9
    assert len(wreath_group(3, 2, "H").class_reps) == len(
        generate_multipartitions(2, 2)
    )
    for p, w in [(3, 1), (3, 2), (5, 1)]:
        claims = class_structure_claims(*suite_groups(p, w))
        all_pass(claims)


def test_conjugacy_classes_accessor():
    g1 = wreath_group(3, 1, "G")
    data = conjugacy_classes(g1)
    assert sum(c.size for c in data) == 6
    assert len({c.label for c in data}) == 3


@pytest.mark.parametrize("group", ["x", None, base_group(3).G], ids=["str", "None", "base"])
def test_conjugacy_classes_refuses_what_is_not_a_wreath_group(group):
    with pytest.raises(ValueError, match="group must be a WreathGroup, got "):
        conjugacy_classes(group)


@pytest.mark.parametrize("group", ["x", None, base_group(3).G], ids=["str", "None", "base"])
def test_parametrized_character_refuses_what_is_not_a_wreath_group(group):
    with pytest.raises(ValueError, match="group must be a WreathGroup, got "):
        parametrized_character(group, ((1,), (), ()))


@pytest.mark.parametrize("other", ["x", None, ((1, 0), (1, 0), (1, 0))],
                         ids=["str", "None", "rows"])
def test_inner_product_refuses_what_is_not_a_class_function(other):
    chi = parametrized_character(wreath_group(3, 1, "G"), ((1,), (), ()))
    for a, b in ((chi, other), (other, chi)):
        with pytest.raises(ValueError, match="inner_product takes two ClassFunctions, got "):
            inner_product(a, b)


def test_trivial_label_gives_trivial_character():
    for p, w in [(3, 2), (5, 1)]:
        gw = wreath_group(p, w, "G")
        label = ((w,),) + ((),) * (p - 1)  # all boxes at the trivial slot
        chi = parametrized_character(gw, label)
        assert all(v == 1 for v in cyclotomic_values(chi))


def test_character_degrees_and_orthogonality():
    for p, w in [(3, 1), (3, 2), (5, 1)]:
        all_pass(character_claims(*suite_groups(p, w)))


def test_character_degree_matches_formula_spot():
    gw = wreath_group(3, 2, "G")
    for label in generate_multipartitions(2, 3):
        chi = parametrized_character(gw, label)
        assert chi.degree() == decomp.degree_G(label, 3)


def test_tilde_agreement_claims():
    for p, w in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]:
        all_pass(tilde_restriction_claims(*suite_groups(p, w)))


def patched_tilde_claims(monkeypatch, p, w, kind, table, number, monomial):
    """The tilde claims on a copy of the base pair whose `kind` group has
    monomial table `table` changed at element `number`."""
    pair = base_group(p)
    base = getattr(pair, kind)
    tables = list(base.monomials)
    tables[table] = tables[table][:number] + (monomial,) + tables[table][number + 1:]
    patched = BaseGroup(kind, base.elements, base.mul_table, base.inv_table, base.value_order,
                        base.generators, tuple(tables))
    monkeypatch.setattr(oracle, "base_group", lambda q: pair._replace(**{kind: patched}))
    try:
        claims = tilde_restriction_claims(*suite_groups(p, w))
    finally:
        oracle._wreath_cached.cache_clear()  # no group on the patched pair outlives the test
    return [(c.claim, c.params.get("slot"), c.status) for c in claims]


def test_characters_induce_from_factors_on_the_group_base(monkeypatch):
    """On a base pair whose G is a copy of the real one, every block factor
    of `parametrized_character` is a wreath product of that copy, the
    one-block factor is the group itself, and the characters are the real
    ones."""
    pair = base_group(3)
    G = pair.G
    copy = BaseGroup("G", G.elements, G.mul_table, G.inv_table, G.value_order, G.generators,
                     G.monomials)
    factors = []
    real_induce = oracle.induce

    def recording(group, blocks):
        factors.extend(factor for _, factor, *_ in blocks)
        return real_induce(group, blocks)

    real = wreath_group(3, 2, "G")
    expected = {label: parametrized_character(real, label).rows
                for label in generate_multipartitions(2, 3)}
    monkeypatch.setattr(oracle, "base_group", lambda q: pair._replace(G=copy))
    monkeypatch.setattr(oracle, "induce", recording)
    try:
        gw = wreath_group(3, 2, "G")
        assert gw.base is copy
        for label, rows in expected.items():
            factors.clear()
            assert parametrized_character(gw, label).rows == rows
            assert factors and all(factor.base is copy for factor in factors)
            assert [factor.w for factor in factors] == [sum(lam) for lam in label if lam]
            assert len(factors) > 1 or factors[0] is gw
    finally:
        oracle._wreath_cached.cache_clear()  # no group on the copy outlives the test


@pytest.mark.parametrize("p,w", [(3, 2), (5, 2), (7, 1)])
def test_a_wrong_complement_value_fails_exactly_its_slot(p, w, monkeypatch):
    """One H-table monomial of slot i, moved by a power of z, fails slot i's
    agreement claim and no other."""
    pair = base_group(p)
    for k, slot in enumerate(pair.islots):
        c, e = pair.H.monomials[k][1]
        got = patched_tilde_claims(monkeypatch, p, w, "H", k, 1, (c, (e + 1) % (p - 1)))
        assert got == [("linear_extension_agrees_on_complement", i, "fail" if i == slot else "pass")
                       for i in pair.islots] + [("heavy_extension_closed_form", None, "pass")]


@pytest.mark.parametrize("p,w", [(3, 2), (5, 2), (7, 1)])
def test_a_wrong_heavy_value_fails_the_closed_form(p, w, monkeypatch):
    """psi_r changed at one H number, the identity or another, fails the
    heavy closed form and leaves every slot's agreement standing."""
    pair = base_group(p)
    psi_r = pair.G.monomials[pair.r - 1]
    for number in (0, 1):
        c, e = psi_r[number]
        got = patched_tilde_claims(monkeypatch, p, w, "G", pair.r - 1, number, (c + 1, e))
        assert got == [("linear_extension_agrees_on_complement", i, "pass")
                       for i in pair.islots] + [("heavy_extension_closed_form", None, "fail")]


@pytest.mark.parametrize("p,w,calls", [(3, 3, 96), (5, 2, 64), (7, 2, 144), (17, 1, 32)])
def test_tilde_claims_take_two_cycle_product_lists_per_element(p, w, calls, monkeypatch):
    """One list through G's table and one through H's per element of the
    small wreath product, shared by every slot and symmetric-group value."""
    groups = suite_groups(p, w)  # built first, so their class checks are not counted
    hw = groups[2]
    count = []
    products = oracle._cycle_product_ids

    def counting(*args):
        count.append(args)
        return products(*args)

    monkeypatch.setattr(oracle, "_cycle_product_ids", counting)
    all_pass(tilde_restriction_claims(*groups))
    assert len(count) == 2 * hw.order == calls


def test_the_class_build_takes_one_class_string_per_distinct_cycle(monkeypatch):
    """Building G at (3, 4) reads no element's cycle products: each distinct
    cycle of S_4 gets one string of base classes over the f-ranks, and there
    are sum over k of C(4, k) (k - 1)! = 24 of them."""
    strings, products = [], []
    cycle_classes, cycle_products = oracle._cycle_classes, oracle._cycle_product_ids

    def counting(base, w, cyc):
        strings.append(cyc)
        return cycle_classes(base, w, cyc)

    monkeypatch.setattr(oracle, "_cycle_classes", counting)
    monkeypatch.setattr(oracle, "_cycle_product_ids",
                        lambda *args: products.append(args) or cycle_products(*args))
    WreathGroup(base_group(3).G, 4)
    assert products == []
    assert len(strings) == len(set(strings)) == 24
    assert len(strings) == sum(comb(4, k) * factorial(k - 1) for k in range(1, 5))


CLASS_DATA_SHA256 = {  # recorded at 2e5beee, whose build keyed every element's label
    (5, 3, "G"): "904779367aa1d906441d119e343756b752eb746c9c7fd416fc1aff196c3c2fe9",
    (5, 3, "H"): "adc3a0421bfc4c33753838339b0f2d25fd519c20780a0ff5ba3fcca5cec38065",
    (7, 3, "G"): "f7faaf1087fc2e46eab9fca9d3d6a4b28000b126ed5a6ae372686311098dba83",
    (7, 3, "H"): "221a2770361d7e1cf213bdb88167c29b593d32335a9d90cf6b7f4435a45224c7",
}


@pytest.mark.parametrize("p,w,kind", list(CLASS_DATA_SHA256))
def test_class_data_is_pinned_past_the_frozen_builds(p, w, kind):
    """The sha256 of the labels, sizes, class of every id and representative
    ids, at sizes the frozen class builds do not reach.  The group is built
    afresh, so the process-wide group cache does not keep it."""
    group = WreathGroup(getattr(base_group(p), kind), w)
    data = (group.class_labels, group.class_sizes, group.class_of_index, group._rep_ids)
    assert hashlib.sha256(repr(data).encode()).hexdigest() == CLASS_DATA_SHA256[p, w, kind]


def misclassed_base(x: int, c: int) -> BaseGroup:
    """A copy of G at p = 3 with element number x put in base class c; its
    multiplication table, and so every conjugation orbit, is G's."""
    G = base_group(3).G
    bad = BaseGroup("G", G.elements, G.mul_table, G.inv_table, G.value_order, G.generators,
                    G.monomials)
    bad.class_of_index = tuple(c if i == x else k for i, k in enumerate(G.class_of_index))
    return bad


@pytest.mark.parametrize("w", [1, 2, 3])
@pytest.mark.parametrize("x,c", [(x, c) for x in range(6) for c in range(3)
                                 if c != base_group(3).G.class_of_index[x]])
def test_a_base_element_in_a_wrong_class_fails_the_label_check(x, c, w):
    """The orbits come from the multiplication table and the labels from the
    base classes, so one element moved to another class gives a label seen
    in two orbits."""
    with pytest.raises(RuntimeError, match="conjugation orbits disagree with cycle structures"):
        WreathGroup(misclassed_base(x, c), w)


def test_a_self_compared_claim_holds_one_string():
    members = [[0, 2], [1]]
    claim = oracle._claim("orbit_classes_match_cycle_structure", {}, members, members)
    assert claim.expected is claim.computed and claim.status == "pass"
    structure = [c for c in class_structure_claims(*suite_groups(3, 4))
                 if c.claim == "orbit_classes_match_cycle_structure"]
    assert len(structure) == 2 and all(c.expected is c.computed for c in structure)


def test_oracle_restriction_weight_one():
    assert oracle_restriction(((1,), (), ()), 3) == {((1,), ()): 1}
    assert oracle_restriction(((), (1,), ()), 3) == {((1,), ()): 1, ((), (1,)): 1}
    assert oracle_restriction(((), (), (1,)), 3) == {((), (1,)): 1}


def test_oracle_restriction_matches_formula_small():
    # p = 7 exercises order-6 cyclotomic values in the inner products
    for p, w in [(3, 1), (3, 2), (5, 1), (7, 1)]:
        for gamma in generate_multipartitions(w, p):
            assert oracle_restriction(gamma, p) == decomp.restrict_G_to_H(gamma, p)


def test_mackey_boundary_cases():
    # j = 0 reduces to a Kronecker delta in (alpha, gamma)
    for alpha in generate_partitions(2):
        for gamma in generate_partitions(2):
            assert verify_mackey_multiplicities(1, 0, alpha, (), gamma, 3, 2) == (
                1 if alpha == gamma else 0
            )
    # j = k reduces to a Kronecker delta in (alpha, beta)
    for alpha in generate_partitions(2):
        for beta in generate_partitions(2):
            assert verify_mackey_multiplicities(1, 2, alpha, beta, (), 3, 2) == (
                1 if alpha == beta else 0
            )


def test_mackey_middle_case():
    assert verify_mackey_multiplicities(1, 1, (2,), (1,), (1,), 3, 2) == 1
    assert verify_mackey_multiplicities(3, 1, (1, 1), (1,), (1,), 3, 2) == 1
    assert verify_mackey_multiplicities(1, 1, (2,), (1,), (1,), 5, 2) == 1


def test_mackey_claims_at_largest_supported_prime():
    claims = mackey_claims(*suite_groups(7, 1))
    assert claims and all(c.status == "pass" for c in claims)


def test_mackey_validates_arguments():
    with pytest.raises(ValueError):
        verify_mackey_multiplicities(2, 1, (2,), (1,), (1,), 3, 2)  # slot r
    with pytest.raises(ValueError):
        verify_mackey_multiplicities(1, 3, (2,), (1,), (1,), 3, 2)
    # sizes follow check_size: the first two returned 1, the third raised TypeError
    for i, j in [(1, 0.0), (True, 0), (1.0, 0)]:
        with pytest.raises(ValueError, match="must be an int"):
            verify_mackey_multiplicities(i, j, (1,), (), (1,), 3, 1)
    with pytest.raises(ValueError, match="k must be an int"):
        verify_mackey_multiplicities(1, 0, (1,), (), (1,), 3, 1.0)


def test_mackey_takes_its_partitions_as_checked_tuples():
    """They enter a character label, which must be a tuple of tuples."""
    assert verify_mackey_multiplicities(1, 1, [2], [1], [1], 3, 2) == 1
    with pytest.raises(ValueError, match="partition parts must be ints"):
        verify_mackey_multiplicities(1, 1, (2,), (True,), (1,), 3, 2)


def test_negative_weight_is_rejected_before_any_work():
    for kind in ("G", "H"):
        with pytest.raises(ValueError, match="w must be nonnegative, got -1"):
            wreath_group(3, -1, kind)
    with pytest.raises(ValueError, match="w must be nonnegative, got -2"):
        verify_suite(3, -2)


def test_inner_product_requires_same_group():
    g1 = wreath_group(3, 1, "G")
    h1 = wreath_group(3, 1, "H")
    with pytest.raises(ValueError):
        inner_product(
            parametrized_character(g1, (((1,), (), ()))),
            parametrized_character(h1, (((1,), ()))),
        )


@pytest.mark.parametrize("p,w,hp,hw", [(3, 2, 5, 2), (3, 2, 3, 1), (5, 1, 3, 1)])
def test_restriction_refuses_a_mismatched_small_group(p, w, hp, hw):
    gw = wreath_group(p, w, "G")
    chi = parametrized_character(gw, ((w,),) + ((),) * (p - 1))
    with pytest.raises(ValueError, match="H-wreath product"):
        restrict_to_h(gw, wreath_group(hp, hw, "H"), chi)


def test_restriction_refuses_a_foreign_character_or_a_big_group_as_small():
    g2, h2 = wreath_group(3, 2, "G"), wreath_group(3, 2, "H")
    chi = parametrized_character(g2, ((2,), (), ()))
    with pytest.raises(ValueError, match="H-wreath product"):
        restrict_to_h(g2, g2, chi)
    with pytest.raises(ValueError, match="H-wreath product"):
        restrict_to_h(WreathGroup(g2.base, 2), h2, chi)


@pytest.mark.parametrize("w", [2.0, "2", True, None])
def test_non_int_weight_is_refused(w):
    for kind in ("G", "H"):
        with pytest.raises(ValueError, match="w must be an int"):
            wreath_group(3, w, kind)
    with pytest.raises(ValueError, match="w must be an int"):
        verify_suite(3, w)


def test_restriction_preserves_degree():
    g2 = wreath_group(3, 2, "G")
    h2 = wreath_group(3, 2, "H")
    for gamma in generate_multipartitions(2, 3):
        chi = parametrized_character(g2, gamma)
        res = restrict_to_h(g2, h2, chi)
        assert res.degree() == chi.degree()


def test_guard():
    with pytest.raises(GuardError):
        wreath_group(3, 3, "G", guard=1000)
    assert wreath_group(3, 1, "G", guard=1000).order == 6


def test_guard_refuses_a_huge_weight_at_once():
    """The guard multiplied the whole order out first, 17 s of factorial at
    w = 10^6.  A child process with a timeout makes a slow guard fail, not
    hang."""
    code = textwrap.dedent(
        """
        import time
        from wreathdec.oracle import verify_suite
        start = time.perf_counter()
        claim = verify_suite(3, 10**9)[-1]
        print(time.perf_counter() - start < 1.0, claim.status, claim.computed, sep="|")
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("True|skip|G-wreath product for p=3, w=1000000000 exceeds the "
                           "element guard of 1000000\n")


@pytest.mark.parametrize("w,guard", [(0, 0), (1, 5), (2, 71), (3, 1295)])
def test_guard_refuses_exactly_the_orders_above_it(w, guard):
    """The guard compares the whole order, |G base|^w * w! = 1, 6, 72 and
    1296 here, though it multiplies only until the product passes."""
    with pytest.raises(GuardError, match=f"w={w} exceeds the element guard of {guard}$"):
        wreath_group(3, w, "G", guard=guard)
    assert wreath_group(3, w, "G", guard=guard + 1).order == guard + 1


def test_verify_suite_small():
    claims = verify_suite(3, 1)
    assert all(c.status == "pass" for c in claims)
    assert any(c.claim == "restriction_matches_formula" for c in claims)


@pytest.mark.parametrize("args,guard,message", [
    ((3.0, 1), None, "p must be an int, got 3.0"),
    ((True, 1), None, "p must be an int, got True"),
    ((19, 1.5), None, "w must be an int, got 1.5"),
    ((19, -1), None, "w must be nonnegative, got -1"),
    ((19, 1), "x", "guard must be None or a nonnegative int, got 'x'"),
])
def test_verify_suite_checks_its_arguments_before_any_work(args, guard, message, monkeypatch):
    """A malformed argument raises, whatever p, before the base-group claims;
    only an int p without a base group gets a skip record."""
    called = []
    monkeypatch.setattr(oracle, "base_group_claims", called.append)
    with pytest.raises(ValueError, match=re.escape(message)):
        verify_suite(*args, guard=guard)
    assert not called


NON_INT_P_CALLS = {
    "base_group": "base_group(p)",
    "wreath_group": "wreath_group(p, 1, 'G')",
    "oracle_restriction": "oracle_restriction(((1,), (), ()), p)",
    "verify_mackey_multiplicities": "verify_mackey_multiplicities(1, 1, (2,), (1,), (1,), p, 2)",
}


@pytest.mark.parametrize("p", [None, "3", ()], ids=["None", "str", "tuple"])
@pytest.mark.parametrize("call", sorted(NON_INT_P_CALLS))
def test_a_non_int_p_is_refused_once_base_group_3_is_cached(call, p):
    """supported_p compared p <= MAX_PRIME before any type check: TypeError."""
    base_group(3)
    with pytest.raises(ValueError, match=re.escape(f"p must be an odd prime <= 17, got {p!r}")):
        eval(NON_INT_P_CALLS[call])


def test_a_non_int_p_is_refused_cold():
    code = textwrap.dedent(
        f"""
        from wreathdec.oracle import *
        from wreathdec.oracle import base_group
        for call in {sorted(NON_INT_P_CALLS.values())!r}:
            for p in (None, "3", ()):
                try:
                    eval(call)
                except Exception as exc:
                    print(type(exc).__name__, exc)
        print(base_group.cache_info().currsize)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    expected = [f"ValueError p must be an odd prime <= 17, got {p!r}" for p in (None, "3", ())]
    assert proc.stdout.splitlines() == expected * len(NON_INT_P_CALLS) + ["0"]


def test_verify_suite_skips_unsupported():
    claims = verify_suite(2, 1)
    assert all(c.status == "skip" for c in claims)
    claims = verify_suite(3, 9, guard=100)
    assert any(c.status == "skip" for c in claims)
    assert not any(c.status == "fail" for c in claims)


def recorded_wreath_group_calls(monkeypatch):
    """Each `oracle.wreath_group` call from here on, as its bound arguments
    (p, w, kind, guard) with the defaults filled in."""
    calls, real = [], oracle.wreath_group

    def recording(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        bound.apply_defaults()
        calls.append(tuple(bound.arguments.values()))
        return real(*args, **kwargs)

    monkeypatch.setattr(oracle, "wreath_group", recording)
    return calls


@pytest.mark.parametrize("p,w", [(3, 3), (5, 2)])
def test_verify_suite_builds_its_two_groups_once(p, w, monkeypatch):
    """The guard is checked once, at `verify_suite`: it builds G and then H,
    and every suite computes on those two."""
    calls = recorded_wreath_group_calls(monkeypatch)
    all_pass(verify_suite(p, w))
    assert calls == [(p, w, "G", None), (p, w, "H", None)]


def test_a_refused_group_is_the_only_build_and_gives_the_skip_record(monkeypatch):
    calls = recorded_wreath_group_calls(monkeypatch)
    claims = verify_suite(3, 9, guard=100)
    assert calls == [(3, 9, "G", 100)]
    assert claims[len(base_group_claims(3)):] == [oracle.ClaimResult(
        "group_within_guard", {"p": 3, "w": 9}, "",
        "G-wreath product for p=3, w=9 exceeds the element guard of 100", "skip")]


LABEL_FORMULAS = {"decomp", "lr_coefficient", "restriction_expansion"}


def test_label_formulas_enter_the_oracle_only_as_the_formula_side_of_claims():
    """The two routes stay independent: `oracle.py` imports the label-level
    engine under these names only, and reads them only inside the `*_claims`
    functions, where they give a claim's formula side."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("lr", "decomp"):
            imported |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {alias.asname or alias.name for alias in node.names
                         if alias.name.rpartition(".")[2] in ("lr", "decomp")}
    assert imported == LABEL_FORMULAS
    seen = set()
    for top in tree.body:
        names = LABEL_FORMULAS & {n.id for n in ast.walk(top) if isinstance(n, ast.Name)}
        if names:
            assert isinstance(top, ast.FunctionDef) and top.name.endswith("_claims"), names
        seen |= names
    assert seen == LABEL_FORMULAS


def test_multiplicities_are_rational_integers():
    # every multiplicity passes through exact rationality
    g1 = wreath_group(5, 1, "G")
    h1 = wreath_group(5, 1, "H")
    gamma = ((), (), (1,), (), ())
    res = restrict_to_h(g1, h1, parametrized_character(g1, gamma))
    for alpha in generate_multipartitions(1, 4):
        value = inner_product(res, parametrized_character(h1, alpha))
        assert isinstance(value, Fraction)
        assert value.denominator == 1 and value >= 0


def test_inner_products_at_weight_two_are_fractions():
    g2 = wreath_group(3, 2, "G")
    chars = [parametrized_character(g2, lab) for lab in generate_multipartitions(2, 3)]
    for a in chars:
        for b in chars:
            value = inner_product(a, b)
            assert type(value) is Fraction and value == (a is b)


def test_norm_check_survives_optimized_mode():
    # asserts vanish under -O; the norm check must raise all the same
    code = textwrap.dedent(
        """
        from wreathdec import oracle
        if __debug__:
            raise SystemExit("not running under -O")
        oracle.inner_product = lambda a, b: 2
        try:
            oracle.parametrized_character(oracle.wreath_group(3, 2, "G"), ((1,), (1,), ()))
        except RuntimeError as exc:
            print(exc)
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert "does not have norm 1" in proc.stdout


def test_orbit_and_label_checks_survive_optimized_mode():
    """Both checks raise under -O: a label seen in two orbits (a misclassed
    base element) and more labels than orbits (an extra map merging them)."""
    code = textwrap.dedent(
        """
        from test_oracle import misclassed_base
        from wreathdec import oracle
        if __debug__:
            raise SystemExit("not running under -O")
        try:
            oracle.WreathGroup(misclassed_base(1, 2), 2)
        except RuntimeError as exc:
            print(exc)
        group = oracle.WreathGroup(oracle.base_group(3).G, 2)
        steps = group._conjugates(group._generators())
        steps[0].append(([(f + 1) % 36 * 2 for f in range(36)], 0))
        group._conjugates = lambda generators: steps
        try:
            group._build_classes(group._generators())
        except RuntimeError as exc:
            print(exc)
        """
    )
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "conjugation orbits disagree with cycle structures\n" * 2


def misstated_factor_block(p):
    """A one-letter block whose factor's base is the cyclic group of order 3
    on the numbers 0, 1 and 2, which in G are the identity, (0, 1) and one
    more element: three elements that do not form a subgroup, so the class
    of (0, 1), of size p, gets |G| / (|K| |c|) = (p - 1) / 3 times an int."""
    mul = [[(a + b) % 3 for b in range(3)] for a in range(3)]
    c3 = BaseGroup("C3", range(3), mul, [0, 2, 1], p - 1, [1])
    return [(0, WreathGroup(c3, 1), [(1, 0)] * 3, (1,))]


@pytest.mark.parametrize("p", [3, 5])
def test_induce_raises_on_a_remainder(p):
    with pytest.raises(RuntimeError, match="not an algebraic integer"):
        induce(wreath_group(p, 1, "G"), misstated_factor_block(p))


def test_exact_division_check_survives_optimized_mode():
    code = textwrap.dedent(
        """
        from test_oracle import misstated_factor_block
        from wreathdec import oracle
        if __debug__:
            raise SystemExit("not running under -O")
        try:
            oracle.induce(oracle.wreath_group(3, 1, "G"), misstated_factor_block(3))
        except RuntimeError as exc:
            print(exc)
        """
    )
    tests = Path(__file__).resolve().parent
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])},
    )
    assert proc.returncode == 0, proc.stderr
    assert "not an algebraic integer" in proc.stdout


def test_class_function_rows_are_ints_and_degree_is_an_int():
    for p, w in [(3, 0), (3, 2), (5, 1), (7, 1)]:
        for kind, t in (("G", p), ("H", p - 1)):
            group = wreath_group(p, w, kind)
            for label in generate_multipartitions(w, t):
                chi = parametrized_character(group, label)
                assert {type(x) for row in chi.rows for x in row} == {int}
                assert type(chi.degree()) is int and chi.degree() > 0


BAD_LABELS = [
    (((True,), (), ()), "partition parts must be ints"),
    (((1.0,), (), ()), "partition parts must be ints"),
    ([(1,), (), ()], "label must be a tuple of partition tuples"),
    (([1], (), ()), "label must be a tuple of partition tuples"),
    (((1,), ()), "label must have 3 components"),
]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("label,message", BAD_LABELS)
def test_labels_are_checked_before_the_character_cache(label, message, warm):
    """A fresh group's cache is empty; with `warm` the label's int tuple is
    cached first, and True or 1.0 would hit that entry."""
    group = WreathGroup(base_group(3).G, 1)
    if warm:
        assert parametrized_character(group, ((1,), (), ())).degree() == 1
    with pytest.raises(ValueError, match=re.escape(message)):
        parametrized_character(group, label)


@pytest.mark.parametrize("label", [[(1,), (), ()], ([1], (), ())])
def test_list_labels_are_refused_by_oracle_restriction(label):
    with pytest.raises(ValueError, match="label must be a tuple of partition tuples"):
        oracle_restriction(label, 3)


@pytest.mark.parametrize("label,message", [
    (((3,), (), (), ()), "label must have 3 components"),
    ([(1,), (1,), (1,)], "label must be a tuple of partition tuples"),
    (([1, 1, 1], (), ()), "label must be a tuple of partition tuples"),
    (((1, 1, 1), (), None), "partition parts must be ints: None"),
])
def test_oracle_restriction_checks_the_label_before_building_a_group(label, message):
    """Each label has weight 3, so a late check would first build and keep the
    w = 3 groups."""
    oracle._wreath_cached.cache_clear()
    with pytest.raises(ValueError, match=re.escape(message)):
        oracle_restriction(label, 3)
    assert oracle._wreath_cached.cache_info().currsize == 0


def test_oracle_restriction_returns_a_copy_of_the_kept_multiplicities():
    oracle._wreath_cached.cache_clear()
    gamma = ((1,), (1,), ())
    cold = oracle_restriction(gamma, 3)
    expected = dict(cold)
    cold[((2,), ())] = 7
    del cold[((1,), (1,))]
    warm = oracle_restriction(gamma, 3)
    assert warm == expected == decomp.restrict_G_to_H(gamma, 3)
    assert warm is not oracle_restriction(gamma, 3)


@pytest.mark.parametrize("guard", ["10", 10.5, 2.0, True, -1])
def test_guard_must_be_none_or_a_nonnegative_int(guard):
    message = "guard must be None or a nonnegative int"
    for kind in ("G", "H"):
        with pytest.raises(ValueError, match=message):
            wreath_group(3, 1, kind, guard=guard)
    with pytest.raises(ValueError, match=message):
        verify_suite(3, 1, guard=guard)
    with pytest.raises(ValueError, match=message):
        oracle_restriction(((1,), (), ()), 3, guard=guard)


def test_group_of_48000_elements_has_its_65_classes():
    g = wreath_group(5, 3, "G")
    assert g.order == len(g.elements) == 48000
    assert sorted(g.class_labels) == sorted(generate_multipartitions(3, 5))
    assert sum(g.class_sizes) == g.order


def test_verify_suite_at_p7_weight_two():
    claims = verify_suite(7, 2)
    assert len(claims) == 163
    all_pass(claims)


def test_verify_suite_at_p3_weight_four():
    claims = verify_suite(3, 4)
    assert len(claims) == 325
    all_pass(claims)


ENUMERATION_3_4_DIGEST = "a12e2079e28a4d5671c28dfd800a753e7ef1674849329b39291445b51d8e5780"


def test_enumeration_bytes_match_the_benchmark_digest(capsys):
    """The benchmark's enumeration case, `enumerate_classes.py 3 4`, run in
    process: its JSON text is pinned to the digest the benchmark gates on."""
    root = Path(__file__).resolve().parents[1] / "benchmarks"
    spec = importlib.util.spec_from_file_location("enumerate_classes", root / "enumerate_classes.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.main(["3", "4"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATION_3_4_DIGEST
    assert json.loads((root / "digests.json").read_text())["enumerate 3 4"] == ENUMERATION_3_4_DIGEST
