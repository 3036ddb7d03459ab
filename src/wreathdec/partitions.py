"""Integer partitions, multipartitions, hooks, cores and quotients.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the unique partition of 0.  Multipartitions are tuples of
partitions.  All enumeration orders are deterministic (lexicographically
decreasing), so every matrix built downstream has a reproducible layout.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from functools import cache, partial, wraps
from typing import NamedTuple

Partition = tuple[int, ...]
MultiPartition = tuple[Partition, ...]


def check_partition(parts) -> Partition:
    """Validate a partition given as any iterable of ints but a str and return
    it as a tuple; a part that is not an int (a bool, float or str) is refused.
    A tuple skips the iterable test, an ABC check that would add half again
    to the cost of the three checks in front of each lr_coefficient lookup."""
    if type(parts) is not tuple:
        if isinstance(parts, str) or not isinstance(parts, Iterable):
            raise ValueError(f"partition parts must be ints: {parts!r}")
        parts = tuple(parts)
    for i, x in enumerate(parts):
        if type(x) is not int:
            raise ValueError(f"partition parts must be ints: {parts!r}")
        if x < 1:
            raise ValueError(f"partition parts must be positive: {parts}")
        if i and parts[i - 1] < x:
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
    return parts


def check_label(label, length: int) -> MultiPartition:
    """Validate a label, `length` partitions given as any iterable, and return
    it as a tuple of partition tuples, so a list label is answered as its tuple."""
    if not isinstance(label, Iterable):
        raise ValueError(f"a label must be an iterable of partitions: {label!r}")
    label = tuple(map(check_partition, label))
    if len(label) != length:
        raise ValueError(f"expected {length} components, got {len(label)}")
    return label


def check_size(x, name: str) -> int:
    """Validate a size argument by the rule of check_partition: it must be an
    int, not a bool, float or str."""
    if type(x) is not int:
        raise ValueError(f"{name} must be an int, got {x!r}")
    return x


def checked_cache(*checks):
    """functools.cache over a function of len(checks) arguments, keyed on the
    checked arguments: checks[i] validates argument i and returns the form to
    cache.  A check after the lookup would answer 2.0 and True from the
    entries of 2 and 1, which they hash like.  Keeps cache_info, cache_clear
    and __wrapped__ as functools.cache does."""
    def decorate(fn):
        cached = cache(fn)

        @wraps(fn)
        def checked(*args):
            if len(args) != len(checks):
                raise TypeError(f"{fn.__name__}() takes {len(checks)} argument(s), got {len(args)}")
            return cached(*[check(x) for check, x in zip(checks, args)])

        checked.cache_info, checked.cache_clear = cached.cache_info, cached.cache_clear
        return checked

    return decorate


def is_odd_prime(p: int) -> bool:
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    return all(p % d for d in range(3, int(p**0.5) + 1, 2))


def _require_odd_prime(p: int) -> None:
    if not is_odd_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


@checked_cache(partial(check_size, name="n"))
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


@checked_cache(partial(check_size, name="w"), partial(check_size, name="t"))
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
    p_core_and_quotient under the same runner convention).  Runner q of the
    core holds levels 0..c_q-1; each runner gets the same number of extra
    levels, enough for every quotient component, and component q's beta-set
    of that length is read back onto runner q."""
    _require_odd_prime(p)
    core = check_partition(core)
    quotient = check_label(quotient, p)
    runners = _runners(core, p)
    if _core_and_weight(runners, p, sum(core))[1]:
        raise ValueError(f"{core} has a hook divisible by {p}")
    extra = max(0, *(len(mu) - len(run) for mu, run in zip(quotient, runners)))
    return _strip(sorted(
        (q + p * m for q, (mu, run) in enumerate(zip(quotient, runners))
         for m in beta_numbers(mu, len(run) + extra)),
        reverse=True,
    ))


def hat(alpha: MultiPartition, p: int) -> MultiPartition:
    """Insert an empty component at position r = (p+1)/2 of a (p-1)-tuple."""
    _require_odd_prime(p)
    alpha = check_label(alpha, p - 1)
    mid = (p - 1) // 2
    return alpha[:mid] + ((),) + alpha[mid:]


def format_partition(lam: Partition) -> str:
    """The text "[3,1,1]" of (3, 1, 1); refuses what check_partition refuses."""
    return "[" + ",".join(map(str, check_partition(lam))) + "]"


def format_multipartition(mp: MultiPartition) -> str:
    """The text "[[2],[1,1],[]]" of ((2,), (1, 1), ()), each part checked."""
    if isinstance(mp, str) or not isinstance(mp, Iterable):
        raise ValueError(f"a multipartition must be an iterable of partitions: {mp!r}")
    return "[" + ",".join(map(format_partition, mp)) + "]"


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
