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
from operator import getitem
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


def _beads(lam: Partition, length: int) -> list[int]:
    """The beta-set of lam on `length` >= len(lam) beads, top bead first,
    unchecked: part bead i at lam[i] + length - 1 - i, then the staircase
    length - len(lam) - 1 .. 0 of the zero parts."""
    top = length - 1
    return [x + top - i for i, x in enumerate(lam)] + list(range(length - len(lam) - 1, -1, -1))


def _strip(beta) -> Partition:
    """The partition of a strictly decreasing beta-set, unchecked: the i-th
    bead's height above staircase position len(beta) - 1 - i, when positive."""
    last = len(beta) - 1
    return tuple([b - last + i for i, b in enumerate(beta) if b > last - i])


def rim_hooks(lam: Partition, t: int) -> list[tuple[int, Partition]]:
    """(sign, mu) for each rim t-hook of lam removed, top bead first,
    unchecked.  On len(lam) beads a removal is a bead b sliding to a free
    b - t >= 0; the sign is -1 to the number of beads it passes, the hook's
    leg length, and mu is read back with _strip."""
    beta = _beads(lam, len(lam))
    occupied = set(beta)
    out = []
    for i, b in enumerate(beta):
        if b - t < 0 or b - t in occupied:
            continue
        j = i + 1 + sum(1 for c in beta[i + 1:] if c > b - t)  # where b - t lands
        out.append(((-1) ** (j - i - 1), _strip(beta[:i] + beta[i + 1:j] + [b - t] + beta[j:])))
    return out


class PQuotientResult(NamedTuple):
    core: Partition
    quotient: MultiPartition
    weight: int


def _runners(lam: Partition, p: int) -> list[list[int]]:
    """The abacus of lam at p, unchecked: runner q lists the levels b // p of the
    beads b = q mod p of lam's beta-set, top bead first.  The beta-set has
    length L, the least multiple of p with L >= len(lam), so its L - len(lam)
    < p staircase beads each sit at level 0 of the runner of its own number."""
    runners: list[list[int]] = [[] for _ in range(p)]
    for b in _beads(lam, len(lam) + (-len(lam)) % p):
        runners[b % p].append(b // p)
    return runners


def _from_runners(runners, p: int) -> Partition:
    """The partition on these runners, the inverse of _runners, unchecked:
    level m of runner q is bead q + p*m."""
    return _strip(sorted((q + p * m for q, run in enumerate(runners) for m in run), reverse=True))


def _core_and_weight(runners: list[list[int]], p: int, size: int) -> tuple[Partition, int]:
    """Core and weight of the partition of `size` on these runners.  Sliding a
    bead down one level removes one p-hook, so the core's beta-set holds levels
    0..c-1 of each runner of c beads, and the weight is the sum of the levels
    less the sum of c(c-1)/2.  Both depend only on the bead counts and size."""
    counts = [len(run) for run in runners]
    core = _from_runners([range(c) for c in counts], p)
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
    return _from_runners([_beads(mu, len(run) + extra) for mu, run in zip(quotient, runners)], p)


def _bead_table(n: int, p: int):
    """(steps, base, width): the partitions of n on L0 beads, L0 the least
    multiple of p >= n, bead j at lam[j] + L0 - 1 - j.  A packed state holds,
    in fields of `width` bits, the level sum S_r of runner r = (p-1)/2 and then
    the bead count of each runner; lam's is base, the empty partition's, plus
    steps[j][lam[j]], the change as bead j moves up, over its parts.  Each
    partial sum places distinct beads, every field a sum of nonnegative
    per-bead terms below 2^width, so no field borrows from its neighbour."""
    top, mid = n - 1 + (-n) % p, (p - 1) // 2  # L0 - 1
    m = (top + n) // p + 1  # positions per runner: at most m beads, S_r < m^2 / 2
    width = (m * m).bit_length()
    bead = [(1 << width * (b % p + 1)) + (b // p if b % p == mid else 0)
            for b in range(top + n + 1)]  # one bead at b
    steps = [[bead[top - j + x] - bead[top - j] for x in range(n // (j + 1) + 1)] for j in range(n)]
    return steps, sum(bead[: top + 1]), width


def _walk(n: int, p: int):
    """(lam, (core, weight), basic) for each partition of n, in order.  A p
    above lam's first hook lam[0] + len(lam) - 1 leaves lam its own basic core
    of weight 0, and p > n builds no table.  Otherwise the block depends only
    on the bead counts, one memo key per block, and basic, an empty slot-r
    quotient, is S_r == c_r(c_r-1)/2, which p more beads leave unchanged.
    Each miss checks the counts, less (L0 - L)/p, and the flag against the
    L beads of _runners, and raises if they differ."""
    _require_odd_prime(p)
    parts = generate_partitions(n)
    if p > n:
        yield from ((lam, (lam, 0), True) for lam in parts)
        return
    steps, base, width = _bead_table(n, p)
    beads, mid, mask, seen = n + (-n) % p, (p - 1) // 2, (1 << width) - 1, {}
    for lam in parts:
        if p > lam[0] + len(lam) - 1:
            yield lam, (lam, 0), True
            continue
        state = sum(map(getitem, steps, lam), base)
        entry = seen.get(state >> width)
        if entry is None:
            runners, c = _runners(lam, p), state >> width * (mid + 1) & mask
            extra, run = (beads - sum(map(len, runners))) // p, runners[mid]
            if (state >> width != sum(len(r) + extra << width * q for q, r in enumerate(runners))
                    or (state & mask == c * (c - 1) // 2) != (not run or run[0] == len(run) - 1)):
                raise RuntimeError(f"bead table disagrees with the abacus of {lam} at p={p}")
            entry = seen[state >> width] = _core_and_weight(runners, p, n), c * (c - 1) // 2
        key, target = entry
        yield lam, key, state & mask == target


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
    """Parse "[3,1,1]" (whitespace-insensitive; "[]" is the empty partition);
    text that is not a str, bytes too, is refused."""
    data = json.loads(text) if isinstance(text, str) else None
    if not isinstance(data, list) or any(not isinstance(x, int) for x in data):
        raise ValueError(f"not a partition: {text!r}")
    return check_partition(data)


def parse_multipartition(text: str) -> MultiPartition:
    """Parse "[[2],[1,1],[]]" into a tuple of partitions."""
    data = json.loads(text) if isinstance(text, str) else None
    if not isinstance(data, list) or any(not isinstance(c, list) for c in data):
        raise ValueError(f"not a multipartition: {text!r}")
    return tuple(check_partition(c) for c in data)
