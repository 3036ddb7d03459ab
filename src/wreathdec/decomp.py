"""Label-level decomposition engine for the two wreath-product families.

For an odd prime p, the irreducible characters of the large wreath product
(order (p(p-1))^w * w!) are labelled by p-tuples of partitions of total size
w ("G-labels"); those of the small one (order (p-1)^w * w!) by (p-1)-tuples
("H-labels"), the missing slot sitting at position r = (p+1)/2.  Everything
here works purely on labels: the integer coefficient k_coefficient(alpha,
gamma) is the multiplicity of the G-irreducible gamma in the induction of the
H-irreducible alpha, computed from Littlewood-Richardson numbers by one engine
of sparse induction rows, of which every other operation is a view.  No group
is ever constructed.
"""

from __future__ import annotations

from functools import cache
from itertools import compress, product
from math import factorial
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping

from . import sn_char
from .lr import restriction_expansion, schur_product
from .partitions import (
    MultiPartition,
    Partition,
    _require_odd_prime,
    _walk,
    check_label,
    generate_multipartitions,
    generate_partitions,
)


def r_slot(p: int) -> int:
    """0-based index of the distinguished slot r = (p+1)/2 in a G-label."""
    return (p - 1) // 2


def glabels(p: int, w: int) -> tuple[MultiPartition, ...]:
    _require_odd_prime(p)
    return generate_multipartitions(w, p)


def hlabels(p: int, w: int) -> tuple[MultiPartition, ...]:
    _require_odd_prime(p)
    return generate_multipartitions(w, p - 1)


@cache
def _key_row(key: tuple[Partition, ...]) -> Mapping:
    """Read-only induction row {gamma^i in key order + (gamma^r, ()): k} of an orbit
    key, the sorted nonempty components of an H-label; () fills its empty slots.
    Each split of every component a adds prod c^a_{beta, gamma^i} times the Schur
    product of the betas.  Empty slots are inert and permuting the non-r slots of
    alpha and gamma together leaves k unchanged, so the row does not depend on p:
    each key's row is computed once per process and shared by every p.  Unchecked:
    it is reached from checked labels and the enumerated H-labels only."""
    slot_splits = [
        [t for j in range(sum(a) + 1) for t in restriction_expansion(a, j)]
        for a in key
    ]
    row: dict = {}
    for combo in product(*slot_splits):
        coeff = 1
        for _, _, c in combo:
            coeff *= c
        gammas = tuple(g for _, g, _ in combo)
        for gamma_r, cr in schur_product(b for b, _, _ in combo).items():
            entry = (*gammas, gamma_r, ())
            row[entry] = row.get(entry, 0) + coeff * cr
    return MappingProxyType(row)


def _orbit(alpha: MultiPartition):
    """The nonempty slots of alpha sorted by component, and its key's row."""
    slots = sorted(compress(range(len(alpha)), alpha), key=alpha.__getitem__)
    return slots, _key_row(tuple(map(alpha.__getitem__, slots)))


def _coefficient(alpha: MultiPartition, gamma: MultiPartition, p: int) -> int:
    mid = r_slot(p)
    gamma_i, gamma_r = gamma[:mid] + gamma[mid + 1 :], gamma[mid]
    if any(g and not a for a, g in zip(alpha, gamma_i)):
        return 0  # shortcut: the key row has no entry for such a gamma
    slots, row = _orbit(alpha)
    return row.get((*(gamma_i[s] for s in slots), gamma_r, ()), 0)


def k_coefficient(alpha: MultiPartition, gamma: MultiPartition, p: int) -> int:
    """Multiplicity of the G-irreducible gamma in the induced H-irreducible alpha.

    Sums, over tuples of partitions beta^i of size |alpha^i| - |gamma^i|, the
    product of the slot-wise coefficients c^{alpha^i}_{beta^i, gamma^i} times
    the coefficient of gamma^r in the Schur product of the betas.  Zero
    whenever some |gamma^i| exceeds |alpha^i|.
    """
    _require_odd_prime(p)
    alpha, gamma = check_label(alpha, p - 1), check_label(gamma, p)
    if sum(map(sum, alpha)) != sum(map(sum, gamma)):
        raise ValueError("labels have different weights")
    return _coefficient(alpha, gamma, p)


def induce_H_to_G(alpha: MultiPartition, p: int) -> dict[MultiPartition, int]:
    """All G-labels appearing in the induction of alpha, with multiplicities."""
    _require_odd_prime(p)
    return dict(zip(*_scatter(check_label(alpha, p - 1), p)))


def _scatter(alpha: MultiPartition, p: int):
    """The G-labels of alpha's induction and their multiplicities, in key-row
    order: one itemgetter maps each entry's slot r to gamma^r, each nonempty
    slot of alpha to its key component and every other slot to the () filler.
    It takes p >= 3 indices, so it always returns a tuple."""
    slots, row = _orbit(alpha)
    m = len(slots)  # an entry holds m key components, then gamma^r, then ()
    index = [m + 1] * (p - 1)
    for i, s in enumerate(slots):
        index[s] = i
    index.insert(r_slot(p), m)
    return map(itemgetter(*index), row), row.values()


def restrict_G_to_H(gamma: MultiPartition, p: int) -> dict[MultiPartition, int]:
    """All H-labels appearing in the restriction of gamma, with multiplicities,
    ordered by the component sizes of alpha, ascending, then as in hlabels."""
    _require_odd_prime(p)
    gamma = check_label(gamma, p)
    terms = [
        (alpha, k)
        for alpha in hlabels(p, sum(map(sum, gamma)))
        if (k := _coefficient(alpha, gamma, p))
    ]
    terms.sort(key=lambda term: [sum(a) for a in term[0]])
    return dict(terms)


def degree_G(gamma: MultiPartition, p: int) -> int:
    """Degree of the G-irreducible gamma: the r-th base character has degree
    p - 1, all others are linear."""
    _require_odd_prime(p)
    gamma = check_label(gamma, p)
    return _degree(gamma) * (p - 1) ** sum(gamma[r_slot(p)])


def degree_H(alpha: MultiPartition, p: int) -> int:
    """Degree of the H-irreducible alpha (all base characters are linear)."""
    _require_odd_prime(p)
    return _degree(check_label(alpha, p - 1))


def _degree(label: MultiPartition) -> int:
    """The multinomial of the component sizes times their symmetric-group
    degrees: the degree when every base character is linear."""
    w = sum(map(sum, label))
    deg = factorial(w)
    for comp in label:
        deg = deg // factorial(sum(comp)) * sn_char.degree(comp)
    return deg


def k_rows(p: int, w: int):
    """Rows of k_matrix(p, w) as sorted (column, k) lists of the nonzero entries;
    the enumerated H-labels need no check."""
    col = {gamma: j for j, gamma in enumerate(glabels(p, w))}.__getitem__
    for gammas, ks in (_scatter(alpha, p) for alpha in hlabels(p, w)):
        yield sorted(zip(map(col, gammas), ks))


def gram_rows(p: int, w: int):
    """Rows of gram_matrix(p, w) as sorted (column, value) lists of the nonzero
    entries.  Each K-row adds its products with j >= i to the upper half; row i
    is its mirrored lower part, which arrives in order, then its upper part."""
    n = len(glabels(p, w))
    upper: list = [{} for _ in range(n)]
    for row in k_rows(p, w):
        for a, (i, vi) in enumerate(row):
            acc = upper[i]
            for j, vj in row[a:]:
                acc[j] = acc.get(j, 0) + vi * vj
    lower: list = [[] for _ in range(n)]
    for i in range(n):
        part = sorted(upper[i].items())  # a nonempty upper part starts at (i, i)
        for j, v in part[1:]:
            lower[j].append((i, v))
        yield lower[i] + part
        upper[i] = lower[i] = None


def _dense(rows, ncols: int) -> list[list[int]]:
    return [[row.get(j, 0) for j in range(ncols)] for row in map(dict, rows)]


def k_matrix(p: int, w: int) -> list[list[int]]:
    """Dense coefficient matrix: rows over hlabels(p, w), columns over
    glabels(p, w), both in enumeration order."""
    return _dense(k_rows(p, w), len(glabels(p, w)))


def gram_matrix(p: int, w: int) -> list[list[int]]:
    """Inner products of the restrictions of pairs of G-irreducibles:
    entry (i, j) = sum_alpha k(alpha, gamma_i) * k(alpha, gamma_j)."""
    return _dense(gram_rows(p, w), len(glabels(p, w)))


def gram_determinant(p: int, w: int) -> int:
    """Determinant of gram_matrix(p, w), read off the label counts.

    The Gram matrix is K^T K with K = k_matrix(p, w) of shape #H-labels x
    #G-labels, and #H <= #G since hat() embeds the H-labels in the G-labels.
    By Cauchy-Binet, det(K^T K) is the sum of det(K_S)^2 over the #G-row
    subsets S of K: there are none when #H < #G, which holds for every
    w >= 1, so the determinant is 0.  At w = 0 both counts are 1 and
    K = [[1]], so it is 1.
    """
    return int(len(hlabels(p, w)) == len(glabels(p, w)))


def blocks(n: int, p: int) -> dict[tuple[Partition, int], list[tuple[Partition, bool]]]:
    """Partitions of n grouped by block (core, weight), each paired with its
    basic-set flag, a view of _walk; blocks in order of their first member,
    members in generate_partitions order."""
    out: dict[tuple[Partition, int], list[tuple[Partition, bool]]] = {}
    for lam, key, basic in _walk(n, p):
        out.setdefault(key, []).append((lam, basic))
    return out


def basic_set(n: int, p: int) -> list[Partition]:
    """Partitions of n flagged basic as in blocks(), in generate_partitions
    order: a view of _walk.  Their count equals the number of partitions of n
    with no part divisible by p, i.e. the number of classes of the symmetric
    group of order coprime to p."""
    return [lam for lam, _, basic in _walk(n, p) if basic]


def block_partition(n: int, p: int) -> dict[tuple[Partition, int], list[Partition]]:
    """Partitions of n grouped by (core, weight), as in blocks(); two labels
    share a group exactly when their cores agree."""
    return {key: [lam for lam, _ in members] for key, members in blocks(n, p).items()}
