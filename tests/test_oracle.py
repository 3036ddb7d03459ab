import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
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
        claims = class_structure_claims(p, w)
        all_pass(claims)


def test_conjugacy_classes_accessor():
    g1 = wreath_group(3, 1, "G")
    data = conjugacy_classes(g1)
    assert sum(c.size for c in data) == 6
    assert len({c.label for c in data}) == 3


def test_trivial_label_gives_trivial_character():
    for p, w in [(3, 2), (5, 1)]:
        gw = wreath_group(p, w, "G")
        label = ((w,),) + ((),) * (p - 1)  # all boxes at the trivial slot
        chi = parametrized_character(gw, label)
        assert all(v == 1 for v in cyclotomic_values(chi))


def test_character_degrees_and_orthogonality():
    for p, w in [(3, 1), (3, 2), (5, 1)]:
        all_pass(character_claims(p, w))


def test_character_degree_matches_formula_spot():
    gw = wreath_group(3, 2, "G")
    for label in generate_multipartitions(2, 3):
        chi = parametrized_character(gw, label)
        assert chi.degree() == decomp.degree_G(label, 3)


def test_tilde_agreement_claims():
    for p, w in [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]:
        all_pass(tilde_restriction_claims(p, w))


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
        claims = tilde_restriction_claims(p, w)
    finally:
        oracle._wreath_cached.cache_clear()  # no group on the patched pair outlives the test
    return [(c.claim, c.params.get("slot"), c.status) for c in claims]


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
    hw = wreath_group(p, w, "H")
    wreath_group(p, w, "G")  # built first, so its class check is not counted
    count = []
    products = oracle._cycle_product_ids

    def counting(*args):
        count.append(args)
        return products(*args)

    monkeypatch.setattr(oracle, "_cycle_product_ids", counting)
    all_pass(tilde_restriction_claims(p, w))
    assert len(count) == 2 * hw.order == calls


def test_a_self_compared_claim_holds_one_string():
    members = [[0, 2], [1]]
    claim = oracle._claim("orbit_classes_match_cycle_structure", {}, members, members)
    assert claim.expected is claim.computed and claim.status == "pass"
    structure = [c for c in class_structure_claims(3, 4)
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
    claims = mackey_claims(7, 1)
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


def test_verify_suite_skips_unsupported():
    claims = verify_suite(2, 1)
    assert all(c.status == "skip" for c in claims)
    claims = verify_suite(3, 9, guard=100)
    assert any(c.status == "skip" for c in claims)
    assert not any(c.status == "fail" for c in claims)


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


def misstated_subgroup_block(p):
    """A one-letter block whose table's domain is the identity and the
    number m = p - 1, the element (1, 0) of order p: two elements that do not
    form a subgroup, so the class of (1, 0) gets |G| / (|K| |c|) = p / 2
    times an int."""
    table = [None] * (p * (p - 1))
    table[0], table[p - 1] = (1, 0), (1, 1)
    return [(0, 1, table, (1,))]


@pytest.mark.parametrize("p", [3, 5])
def test_induce_raises_on_a_remainder(p):
    with pytest.raises(RuntimeError, match="not an algebraic integer"):
        induce(wreath_group(p, 1, "G"), misstated_subgroup_block(p))


def test_exact_division_check_survives_optimized_mode():
    code = textwrap.dedent(
        """
        from test_oracle import misstated_subgroup_block
        from wreathdec import oracle
        if __debug__:
            raise SystemExit("not running under -O")
        try:
            oracle.induce(oracle.wreath_group(3, 1, "G"), misstated_subgroup_block(3))
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
