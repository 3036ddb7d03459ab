"""Littlewood-Richardson coefficients, exact and at desk scale.

The basic coefficient counts skew semistandard tableaux whose reverse reading
word is a lattice word; the Schur product folds that rule over a list of
factors, which is how multiplicities of inductions from Young-style subgroups
are obtained.
"""

from __future__ import annotations

from functools import cache
from types import MappingProxyType
from typing import Iterable, Mapping

from .partitions import Partition, check_partition, check_size, checked_cache, generate_partitions


def contains(outer: Partition, inner: Partition) -> bool:
    """Cell-wise containment of Young diagrams."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


@checked_cache(check_partition, check_partition, check_partition)
def lr_coefficient(alpha: Partition, beta: Partition, gamma: Partition) -> int:
    """c^alpha_{beta,gamma}: multiplicity of alpha in the product of beta and gamma.

    Counts fillings of the skew shape alpha/beta with content gamma that are
    semistandard and whose reverse reading word (rows top to bottom, each read
    right to left) is a lattice word.  Zero when the sizes do not match or
    beta is not contained in alpha.
    """
    if sum(alpha) != sum(beta) + sum(gamma) or not contains(alpha, beta):
        return 0
    if not gamma:
        return 1  # alpha == beta is forced by the size check
    inner = beta + (0,) * (len(alpha) - len(beta))
    # cells in reverse reading order, with the cell above when it is skew
    cells: list[tuple[int, int, bool]] = []
    for i in range(len(alpha)):
        for j in range(alpha[i] - 1, inner[i] - 1, -1):
            above = i > 0 and inner[i - 1] <= j < alpha[i - 1]
            cells.append((i, j, above))
    nvals = len(gamma)
    row: list[list[int]] = [[0] * alpha[i] for i in range(len(alpha))]
    counts = [0] * (nvals + 1)

    def fill(pos: int) -> int:
        if pos == len(cells):
            return 1
        i, j, above = cells[pos]
        hi = row[i][j + 1] if j + 1 < alpha[i] and row[i][j + 1] else nvals
        lo = row[i - 1][j] + 1 if above else 1
        total = 0
        for v in range(lo, hi + 1):
            if counts[v] >= gamma[v - 1]:
                continue
            if v > 1 and counts[v] >= counts[v - 1]:
                continue  # lattice word prefix would fail
            counts[v] += 1
            row[i][j] = v
            total += fill(pos + 1)
            row[i][j] = 0
            counts[v] -= 1
        return total

    return fill(0)


def schur_product(factors: Iterable[Partition]) -> Mapping[Partition, int]:
    """Read-only expansion {shape: coeff} of the product of the Schur functions
    of factors.  The factors are checked before the cache lookup of the fold."""
    if not isinstance(factors, Iterable):
        raise ValueError(f"factors must be an iterable of partitions: {factors!r}")
    return _schur_product(tuple(sorted(phi for phi in map(check_partition, factors) if phi)))


@cache
def _schur_product(factors: tuple[Partition, ...]) -> Mapping[Partition, int]:
    """The fold of lr_coefficient over the sorted nonempty factors (empty ones
    are the unit), cached with every prefix of it.  Unchecked."""
    if not factors:
        return MappingProxyType({(): 1})
    state = _schur_product(factors[:-1])
    phi = factors[-1]
    out: dict[Partition, int] = {}
    for mu in generate_partitions(sum(map(sum, factors))):
        m = sum(c * lr_coefficient(mu, nu, phi) for nu, c in state.items())
        if m:
            out[mu] = m
    return MappingProxyType(out)


def iterated_lr(target: Partition, factors: Iterable[Partition]) -> int:
    """Multiplicity of target in the induction of a product of factors; it does
    not depend on the order of the factors.  The target is checked here, the
    factors by schur_product."""
    return schur_product(factors).get(check_partition(target), 0)


def restriction_expansion(
    alpha: Partition, j: int
) -> list[tuple[Partition, Partition, int]]:
    """Nonzero terms (beta, gamma, c^alpha_{beta,gamma}) with |beta| = j.

    These are the multiplicities in the restriction of the character alpha to
    the Young subgroup on j and |alpha| - j letters.
    """
    k = sum(check_partition(alpha))
    if not 0 <= check_size(j, "j") <= k:
        raise ValueError(f"j must be in 0..{k}, got {j}")
    out = []
    for beta in generate_partitions(j):
        for gamma in generate_partitions(k - j):
            c = lr_coefficient(alpha, beta, gamma)
            if c:
                out.append((beta, gamma, c))
    return out
