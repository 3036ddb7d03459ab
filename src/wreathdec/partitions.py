"""Integer partitions, multipartitions, hooks, cores and quotients.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the unique partition of 0.  Multipartitions are tuples of
partitions.  All enumeration orders are deterministic (lexicographically
decreasing), so every matrix built downstream has a reproducible layout.
"""

from __future__ import annotations

import json
from functools import cache, wraps
from typing import NamedTuple

Partition = tuple[int, ...]
MultiPartition = tuple[Partition, ...]


def check_partition(parts) -> Partition:
    """Validate a partition given as any iterable of ints and return it as a
    tuple; a part that is not an int (a bool, float or str) is refused."""
    parts = tuple(parts)
    for i, x in enumerate(parts):
        if type(x) is not int:
            raise ValueError(f"partition parts must be ints: {parts!r}")
        if x < 1:
            raise ValueError(f"partition parts must be positive: {parts}")
        if i and parts[i - 1] < x:
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
    return parts


def check_size(x, name: str) -> int:
    """Validate a size argument by the rule of check_partition: it must be an
    int, not a bool, float or str."""
    if type(x) is not int:
        raise ValueError(f"{name} must be an int, got {x!r}")
    return x


def _cache_sizes(fn):
    """functools.cache over fn, whose arguments are all sizes, each checked
    by check_size before the cache lookup: 2.0 and True hash like 2 and 1, so
    a check on a cache miss only would answer them from the cache.  Keeps
    cache_info, cache_clear and __wrapped__ (fn) as functools.cache does."""
    cached = cache(fn)
    names = fn.__code__.co_varnames[: fn.__code__.co_argcount]

    @wraps(fn)
    def checked(*sizes):
        for x, name in zip(sizes, names):
            check_size(x, name)
        return cached(*sizes)

    checked.cache_info, checked.cache_clear = cached.cache_info, cached.cache_clear
    return checked


def is_odd_prime(p: int) -> bool:
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    return all(p % d for d in range(3, int(p**0.5) + 1, 2))


def _require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


@_cache_sizes
def generate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, lexicographically decreasing: (n,) first, (1,)*n last.

    Iterative successor rule ZS1 (Zoghbi and Stojmenovic, 1998): lower the
    last part above 1 by one and refill the parts after it greedily with parts
    no larger.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return ((),)
    x = [n] + [1] * (n - 1)  # the partition is x[:m]; x[j] == 1 for every j > h
    m, h = 1, 0  # h indexes the last part above 1
    out = [(n,)]
    while x[0] > 1:
        if x[h] == 2:
            x[h] = 1
            m += 1
            h -= 1
        else:
            r = x[h] - 1
            t = m - h  # units to refill: the 1 taken from x[h] and the 1s after it
            x[h] = r
            while t >= r:
                h += 1
                x[h] = r
                t -= r
            if t > 1:
                h += 1
                x[h] = t
                t = 0
            m = h + 1 + t  # t == 1 is a trailing part 1
        out.append(tuple(x[:m]))
    return tuple(out)


@_cache_sizes
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
    lam = check_partition(lam)
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
    """Inverse of beta_numbers: strip the staircase from a set of distinct
    nonnegative ints, in any order."""
    beta = sorted(beta, reverse=True)
    if (beta and beta[-1] < 0) or any(a == b for a, b in zip(beta, beta[1:])):
        raise ValueError(f"not a valid beta-set: {beta}")
    return _strip(beta)


def _strip(beta) -> Partition:
    """The partition of a strictly decreasing beta-set, unchecked: the i-th
    bead's height above staircase position len(beta) - 1 - i, when positive."""
    last = len(beta) - 1
    return tuple([b - last + i for i, b in enumerate(beta) if b > last - i])


class PQuotientResult(NamedTuple):
    core: Partition
    quotient: MultiPartition
    weight: int


def _runners(lam: Partition, p: int) -> list[list[int]]:
    """The abacus of lam at p, unchecked: runner q lists the levels b // p of the
    beads b = q mod p of lam's beta-set, top bead first.  The beta-set has
    length L, the least multiple of p with L >= len(lam): its len(lam) part
    beads lie at lam[i] + L - 1 - i, and its L - len(lam) < p staircase beads
    at 0 .. L - len(lam) - 1, each at level 0 of the runner of its own number."""
    top = len(lam) - 1 + (-len(lam)) % p  # L - 1
    runners: list[list[int]] = [[] for _ in range(p)]
    for i, x in enumerate(lam):
        b = x + top - i
        runners[b % p].append(b // p)
    for q in range(top + 1 - len(lam)):
        runners[q].append(0)
    return runners


def _core_and_weight(runners: list[list[int]], p: int, size: int) -> tuple[Partition, int]:
    """Core and weight of the partition of `size` on these runners.  Sliding a
    bead down one level removes one p-hook, so the core's beta-set holds levels
    0..c-1 of each runner of c beads, and the weight is the sum of the levels
    less the sum of c(c-1)/2.  Both depend only on the bead counts and size."""
    counts = [len(run) for run in runners]
    core = _strip(sorted((q + p * m for q, c in enumerate(counts) for m in range(c)),
                         reverse=True))
    weight = sum(map(sum, runners)) - sum(c * (c - 1) // 2 for c in counts)
    if sum(core) + p * weight != size:
        raise RuntimeError(f"abacus lost boxes: core {core}, weight {weight}, "
                           f"size {size} at p={p}")
    return core, weight


def p_core_and_quotient(lam: Partition, p: int) -> PQuotientResult:
    """Core and quotient of lam with respect to an odd prime p, via the abacus.

    Convention: the beta-set has length L = least multiple of p with
    L >= len(lam); runner q in {0..p-1} holds the beads congruent to q mod p,
    and quotient component q+1 is read off runner q.  The beads are placed
    once (_runners); the core and weight are read off the bead counts per
    runner and the sum of the levels (_core_and_weight), and each runner,
    a beta-set by construction, is stripped without a check.  Satisfies
    |core| + p * weight = |lam|, and the core has no hook divisible by p.
    """
    _require_odd_prime(p)
    lam = check_partition(lam)
    runners = _runners(lam, p)
    core, weight = _core_and_weight(runners, p, sum(lam))
    return PQuotientResult(core, tuple(map(_strip, runners)), weight)


def reconstruct_from_core_quotient(
    core: Partition, quotient: MultiPartition, p: int
) -> Partition:
    """The unique partition with the given core and quotient (inverse of
    p_core_and_quotient under the same runner convention)."""
    _require_odd_prime(p)
    core = check_partition(core)
    quotient = tuple(map(check_partition, quotient))
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
