"""Integer partitions, multipartitions, hooks, cores and quotients.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the unique partition of 0.  Multipartitions are tuples of
partitions.  All enumeration orders are deterministic (lexicographically
decreasing), so every matrix built downstream has a reproducible layout.
"""

from __future__ import annotations

import json
from functools import cache
from typing import Iterator, NamedTuple

Partition = tuple[int, ...]
MultiPartition = tuple[Partition, ...]


def check_partition(parts) -> Partition:
    """Validate and normalize a partition given as any iterable of ints."""
    parts = tuple(int(x) for x in parts)
    for i, x in enumerate(parts):
        if x < 1:
            raise ValueError(f"partition parts must be positive: {parts}")
        if i and parts[i - 1] < x:
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
    return parts


def is_odd_prime(p: int) -> bool:
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    return all(p % d for d in range(3, int(p**0.5) + 1, 2))


def _require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


def _partitions_bounded(n: int, largest: int) -> Iterator[Partition]:
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions_bounded(n - first, first):
            yield (first,) + rest


@cache
def generate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, lexicographically decreasing: (n,) first, (1,)*n last."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return tuple(_partitions_bounded(n, n))


@cache
def generate_multipartitions(w: int, t: int) -> tuple[MultiPartition, ...]:
    """All t-tuples of partitions of total size w.

    Order: the size of the first component runs from w down to 0, partitions
    of each size in generate_partitions order, remaining components recursively.
    Built by the first nonempty slot j: j empty components, a nonempty head,
    then a tail of strictly smaller weight (none when j is the last slot), so
    the recursion is at most w + 1 deep whatever t is.
    """
    if w < 0:
        raise ValueError("w must be nonnegative")
    if t < 1:
        raise ValueError("t must be positive")
    if w == 0:
        return (((),) * t,)
    return tuple(
        ((),) * j + (head,) + tail
        for j in range(t - 1)
        for s in range(w, 0, -1)
        for head in generate_partitions(s)
        for tail in generate_multipartitions(w - s, t - 1 - j)
    ) + tuple(((),) * (t - 1) + (head,) for head in generate_partitions(w))


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    return tuple(sum(1 for x in lam if x > j) for j in range(lam[0]))


def hook_lengths(lam: Partition) -> dict[tuple[int, int], int]:
    """Hook length (arm + leg + 1) of every cell (row, col) of the diagram."""
    conj = conjugate(lam)
    return {
        (i, j): lam[i] - j + conj[j] - i - 1
        for i in range(len(lam))
        for j in range(lam[i])
    }


def beta_numbers(lam: Partition, length: int) -> list[int]:
    """First-column hook lengths of lam padded with zero parts to `length`.

    Returns the strictly decreasing sequence lam[i] + length - 1 - i; requires
    length >= len(lam).
    """
    if length < len(lam):
        raise ValueError("beta-set length must cover every part")
    padded = lam + (0,) * (length - len(lam))
    return [padded[i] + length - 1 - i for i in range(length)]


def partition_from_beta(beta) -> Partition:
    """Inverse of beta_numbers: strip the staircase from a strictly decreasing set."""
    beta = sorted(beta, reverse=True)
    parts = [b - (len(beta) - 1 - i) for i, b in enumerate(beta)]
    if any(x < 0 for x in parts) or any(
        parts[i] < parts[i + 1] for i in range(len(parts) - 1)
    ):
        raise ValueError(f"not a valid beta-set: {beta}")
    return tuple(x for x in parts if x > 0)


class PQuotientResult(NamedTuple):
    core: Partition
    quotient: MultiPartition
    weight: int


def p_core_and_quotient(lam: Partition, p: int) -> PQuotientResult:
    """Core and quotient of lam with respect to an odd prime p, via the abacus.

    Convention: the beta-set has length L = least multiple of p with
    L >= len(lam); runner q in {0..p-1} holds the beads congruent to q mod p,
    and quotient component q+1 is read off runner q.  Satisfies
    |core| + p * weight = |lam|, and the core has no hook divisible by p.
    """
    _require_odd_prime(p)
    length = len(lam) + (-len(lam)) % p
    beta = beta_numbers(lam, length)
    runners: list[list[int]] = [[] for _ in range(p)]
    for b in beta:
        runners[b % p].append(b // p)
    quotient = tuple(partition_from_beta(r) for r in runners)
    # sliding every bead down its runner kills all hooks of length p
    core_beta = [q + p * m for q, r in enumerate(runners) for m in range(len(r))]
    core = partition_from_beta(core_beta)
    weight = sum(sum(comp) for comp in quotient)
    if sum(core) + p * weight != sum(lam):
        raise RuntimeError(f"abacus lost boxes for {lam} at p={p}")
    return PQuotientResult(core, quotient, weight)


def reconstruct_from_core_quotient(
    core: Partition, quotient: MultiPartition, p: int
) -> Partition:
    """The unique partition with the given core and quotient (inverse of
    p_core_and_quotient under the same runner convention)."""
    _require_odd_prime(p)
    if len(quotient) != p:
        raise ValueError(f"quotient must have {p} components")
    if p_core_and_quotient(core, p).weight != 0:
        raise ValueError(f"{core} has a hook divisible by {p}")
    length = len(core) + (-len(core)) % p
    while True:
        runners: list[list[int]] = [[] for _ in range(p)]
        for b in beta_numbers(core, length):
            runners[b % p].append(b // p)
        if all(len(runners[q]) >= len(quotient[q]) for q in range(p)):
            break
        length += p
    beta = []
    for q in range(p):
        comp_beta = beta_numbers(quotient[q], len(runners[q]))
        beta.extend(q + p * m for m in comp_beta)
    return partition_from_beta(beta)


def hat(alpha: MultiPartition, p: int) -> MultiPartition:
    """Insert an empty component at position r = (p+1)/2 of a (p-1)-tuple."""
    _require_odd_prime(p)
    if len(alpha) != p - 1:
        raise ValueError(f"expected {p - 1} components, got {len(alpha)}")
    mid = (p - 1) // 2
    return alpha[:mid] + ((),) + alpha[mid:]


def format_partition(lam: Partition) -> str:
    return "[" + ",".join(str(x) for x in lam) + "]"


def format_multipartition(mp: MultiPartition) -> str:
    return "[" + ",".join(format_partition(c) for c in mp) + "]"


def parse_partition(text: str) -> Partition:
    """Parse "[3,1,1]" (whitespace-insensitive; "[]" is the empty partition)."""
    data = json.loads(text)
    if not isinstance(data, list) or any(not isinstance(x, int) for x in data):
        raise ValueError(f"not a partition: {text!r}")
    return check_partition(data)


def parse_multipartition(text: str) -> MultiPartition:
    """Parse "[[2],[1,1],[]]" into a tuple of partitions."""
    data = json.loads(text)
    if not isinstance(data, list) or any(not isinstance(c, list) for c in data):
        raise ValueError(f"not a multipartition: {text!r}")
    return tuple(check_partition(c) for c in data)
