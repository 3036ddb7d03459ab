import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from wreathdec import decomp
from wreathdec.oracle import (
    GuardError,
    base_group,
    base_group_claims,
    class_structure_claims,
    character_claims,
    conjugacy_classes,
    index_exponents,
    inner_product,
    mackey_claims,
    oracle_restriction,
    parametrized_character,
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
    for slot, i in enumerate(pair.islots):
        for b in pair.H.elements:
            assert pair.G.irr[i - 1][(0, b)] == pair.H.irr[slot][b]


def test_base_group_rejects_bad_p():
    for p in (2, 4, 9, 19):
        with pytest.raises(ValueError):
            base_group(p)


def test_base_group_claims():
    for p in (3, 5, 7):
        all_pass(base_group_claims(p))


def test_group_law_and_inverses():
    g2 = wreath_group(3, 2, "G")
    e = g2.identity
    for x in g2.elements[:50]:
        assert g2.mult(x, g2.inv(x)) == e
        assert g2.mult(e, x) == x
    a, b, c = g2.elements[3], g2.elements[40], g2.elements[57]
    assert g2.mult(g2.mult(a, b), c) == g2.mult(a, g2.mult(b, c))


def test_cycle_products():
    g2 = wreath_group(3, 2, "G")
    x, y = (1, 0), (2, 1)
    ident = ((x, y), (0, 1))
    assert g2.cycle_products(ident) == [x, y]
    swapped = ((x, y), (1, 0))
    assert g2.cycle_products(swapped) == [g2.base.mult(x, y)]


def test_cycle_products_of_conjugates_match_classwise():
    g2 = wreath_group(3, 2, "G")
    for g in g2.elements[::17]:
        lab = g2.class_label(g)
        for x in g2.elements[::23]:
            conj = g2.mult(g2.mult(x, g), g2.inv(x))
            assert g2.class_label(conj) == lab


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
        assert all(v == 1 for v in chi.values)


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


def test_verify_suite_small():
    claims = verify_suite(3, 1)
    assert all(c.status == "pass" for c in claims)
    assert any(c.claim == "restriction_matches_formula" for c in claims)


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
