"""Acceptance suite: one test per criterion, exact arithmetic throughout
(tolerance zero), each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from fractions import Fraction
from math import comb

from bareiss import determinant
from frozen_wreath import frozen_class_label
from suite_groups import suite_groups

from wreathdec import decomp, oracle
from wreathdec.decomp import (
    basic_set,
    degree_G,
    degree_H,
    glabels,
    gram_matrix,
    hlabels,
    induce_H_to_G,
    k_coefficient,
    restrict_G_to_H,
    r_slot,
)
from wreathdec.lr import lr_coefficient, restriction_expansion
from wreathdec.oracle import (
    mackey_claims,
    oracle_restriction,
    wreath_group,
)
from wreathdec.partitions import (
    generate_multipartitions,
    generate_partitions,
    hat,
    hook_lengths,
    p_core_and_quotient,
    reconstruct_from_core_quotient,
)
from wreathdec.sn_char import centralizer_order, degree, mn_value


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, name


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    checked = 0
    for p, w_values in [(3, (1, 2, 3)), (5, (1, 2))]:
        for w in w_values:
            for gamma in glabels(p, w):
                assert oracle_restriction(gamma, p) == restrict_G_to_H(gamma, p), (
                    p,
                    w,
                    gamma,
                )
                checked += 1
    elapsed = time.monotonic() - start
    report(
        "criterion 1: brute-force restriction equals formula "
        "(p=3 w<=3, p=5 w<=2)",
        elapsed < 300,
        f"{checked} labels, {elapsed:.1f}s",
    )


def test_criterion_2_kernel_columns_are_deltas():
    start = time.monotonic()
    checked = 0
    for p in (3, 5, 7):
        mid = r_slot(p)
        for w in range(5):
            for alpha in hlabels(p, w):
                expected_gamma = hat(alpha, p)
                for gamma in glabels(p, w):
                    if gamma[mid]:
                        continue
                    expected = 1 if gamma == expected_gamma else 0
                    assert k_coefficient(alpha, gamma, p) == expected, (p, alpha, gamma)
                    checked += 1
    elapsed = time.monotonic() - start
    report(
        "criterion 2: coefficient is a Kronecker delta on kernel labels "
        "(p in {3,5,7}, w<=4)",
        elapsed < 60,
        f"{checked} pairs, {elapsed:.1f}s",
    )


def test_criterion_3_degree_identities():
    for p in (3, 5, 7):
        for w in range(5):
            for gamma in glabels(p, w):
                total = sum(
                    k * degree_H(alpha, p)
                    for alpha, k in restrict_G_to_H(gamma, p).items()
                )
                assert total == degree_G(gamma, p), (p, w, gamma)
            for alpha in hlabels(p, w):
                total = sum(
                    k * degree_G(gamma, p)
                    for gamma, k in induce_H_to_G(alpha, p).items()
                )
                assert total == p**w * degree_H(alpha, p), (p, w, alpha)
    report(
        "criterion 3: restriction preserves degree and induction scales it "
        "by p^w (p in {3,5,7}, w<=4)",
        True,
    )


def test_criterion_4_binomial_degree_identity():
    for p in (3, 5, 7):
        for k in range(7):
            for alpha in generate_partitions(k):
                total = sum(
                    comb(k, j)
                    * (p - 1) ** j
                    * sum(
                        c * degree(beta) * degree(gamma)
                        for beta, gamma, c in restriction_expansion(alpha, j)
                    )
                    for j in range(k + 1)
                )
                assert total == p**k * degree(alpha), (p, k, alpha)
    report(
        "criterion 4: binomial-weighted coefficient sums give p^k times the "
        "degree (k<=6, p in {3,5,7})",
        True,
    )


def test_criterion_5_mackey_multiplicities():
    start = time.monotonic()
    total = 0
    for p, k_values in [(3, (1, 2, 3)), (5, (1, 2))]:
        for k in k_values:
            claims = mackey_claims(*suite_groups(p, k))
            bad = [c for c in claims if c.status == "fail"]
            assert not bad, bad[:3]
            total += len(claims)
    elapsed = time.monotonic() - start
    report(
        "criterion 5: induced-character multiplicities match LR numbers "
        "(p=3 k<=3, p=5 k<=2)",
        True,
        f"{total} claims, {elapsed:.1f}s",
    )


def test_criterion_6_lr_against_character_oracle():
    def lr_by_characters(alpha, beta, gamma):
        total = Fraction(0)
        for rho1 in generate_partitions(sum(beta)):
            for rho2 in generate_partitions(sum(gamma)):
                combined = tuple(sorted(rho1 + rho2, reverse=True))
                total += Fraction(
                    mn_value(alpha, combined)
                    * mn_value(beta, rho1)
                    * mn_value(gamma, rho2),
                    centralizer_order(rho1) * centralizer_order(rho2),
                )
        assert total.denominator == 1
        return int(total)

    checked = 0
    for k in range(7):
        for alpha in generate_partitions(k):
            for j in range(k + 1):
                for beta in generate_partitions(j):
                    for gamma in generate_partitions(k - j):
                        assert lr_coefficient(alpha, beta, gamma) == lr_by_characters(
                            alpha, beta, gamma
                        ), (alpha, beta, gamma)
                        checked += 1
    report(
        "criterion 6: tableau enumeration equals character inner products "
        "(all alpha |- k<=6)",
        True,
        f"{checked} coefficients",
    )


def test_criterion_7_class_structure_consistency():
    for p, w_values in [(3, (1, 2, 3)), (5, (1, 2))]:
        for w in w_values:
            for kind in ("G", "H"):
                group = wreath_group(p, w, kind)
                s = len(group.base.class_reps)
                # construction cross-checks orbits against cycle structures;
                # recheck the partition agreement explicitly
                by_label = {}
                for i, e in enumerate(group.elements):
                    by_label.setdefault(frozen_class_label(group, e), set()).add(i)
                orbits = {}
                for i, c in enumerate(group.class_of_index):
                    orbits.setdefault(c, set()).add(i)
                assert set(map(frozenset, by_label.values())) == set(
                    map(frozenset, orbits.values())
                )
                assert len(group.class_reps) == len(generate_multipartitions(w, s))
                assert sum(group.class_sizes) == group.order
                t = p if kind == "G" else p - 1
                degrees = [
                    oracle.parametrized_character(group, lab).degree()
                    for lab in generate_multipartitions(w, t)
                ]
                assert sum(d * d for d in degrees) == group.order
    report(
        "criterion 7: orbit classes = cycle-structure classes, class counts "
        "and degree sums correct (all oracle groups)",
        True,
    )


def test_criterion_8_core_quotient_and_counting():
    for n in range(11):
        for lam in generate_partitions(n):
            for p in (3, 5, 7):
                core, quotient, weight = p_core_and_quotient(lam, p)
                assert sum(core) + p * weight == n
                assert all(h % p for h in hook_lengths(core).values())
                assert reconstruct_from_core_quotient(core, quotient, p) == lam
    # Nakayama consistency: blocks group by core
    for n in range(1, 9):
        for p in (3, 5, 7):
            blocks = decomp.block_partition(n, p)
            for (core, weight), members in blocks.items():
                assert all(
                    p_core_and_quotient(lam, p).core == core for lam in members
                )
            assert sum(len(m) for m in blocks.values()) == len(generate_partitions(n))
    for n in range(1, 11):
        for p in (3, 5, 7):
            regular_count = sum(
                1
                for lam in generate_partitions(n)
                if all(part % p for part in lam)
            )
            assert len(basic_set(n, p)) == regular_count, (n, p)
    report(
        "criterion 8: core/quotient round trip, Nakayama grouping, basic-set "
        "counts (n<=10, p in {3,5,7})",
        True,
    )


def test_criterion_9_gram_matrices():
    for p in (3, 5):
        for w in range(4):
            labels = glabels(p, w)
            gram = gram_matrix(p, w)
            n = len(labels)
            assert all(isinstance(gram[i][j], int) for i in range(n) for j in range(n))
            assert all(gram[i][j] == gram[j][i] for i in range(n) for j in range(n))
            mid = r_slot(p)
            kernel = [i for i, g in enumerate(labels) if not g[mid]]
            for a in kernel:
                for b in kernel:
                    assert gram[a][b] == (1 if a == b else 0), (p, w)
    report(
        "criterion 9: Gram matrices symmetric, integral, identity on kernel "
        "labels (p in {3,5}, w<=3)",
        True,
    )


def test_gram_positive_semidefinite_at_desk_scale():
    # supporting invariant for criterion 9's matrices
    for p, w in [(3, 2), (3, 3), (5, 2)]:
        gram = gram_matrix(p, w)
        for k in range(1, len(gram) + 1):
            sub = [row[:k] for row in gram[:k]]
            assert determinant(sub) >= 0, (p, w, k)
    report("supporting: Gram leading principal minors are nonnegative", True)
