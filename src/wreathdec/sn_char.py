"""Exact irreducible character values of symmetric groups.

Character values are computed by the recursive rim-hook expansion over
partitions.rim_hooks, degrees by the hook length formula; all exact ints.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from math import factorial
from operator import mul

from .partitions import (
    Partition,
    check_partition,
    check_size,
    generate_partitions,
    hook_lengths,
    rim_hooks,
)

TABLE_GUARD = 12


@lru_cache(maxsize=None)
def _mn(lam: Partition, rho: Partition) -> int:
    """Unchecked: mn_value validates before the cache lookup."""
    if not rho:
        return 1
    t, rest = rho[0], rho[1:]
    return sum(sign * _mn(mu, rest) for sign, mu in rim_hooks(lam, t))


def mn_value(lam: Partition, rho: Partition) -> int:
    """Character value of the irreducible labelled by lam at cycle type rho.
    Both are checked before the cache lookup, where (1, 1.0) would hit the
    entry of (1, 1)."""
    lam, rho = check_partition(lam), check_partition(rho)
    if sum(lam) != sum(rho):
        raise ValueError(f"|{lam}| != |{rho}|")
    return _mn(lam, rho)


def degree(lam: Partition) -> int:
    """Dimension of the irreducible labelled by lam (hook length formula)."""
    hooks = hook_lengths(lam)
    return factorial(sum(lam)) // reduce(mul, hooks.values(), 1)


def centralizer_order(rho: Partition) -> int:
    """z_rho = prod_m m^(a_m) * a_m! over the part multiplicities a_m of rho."""
    z = 1
    mult = 1
    for i, m in enumerate(rho):
        mult = mult + 1 if i and rho[i - 1] == m else 1
        z *= m * mult
    return z


def character_table_sn(k: int) -> list[list[int]]:
    """Full character table of the symmetric group on k letters.

    Rows are partitions of k in generate_partitions order (labels), columns
    the cycle types in the same order.
    """
    if not 1 <= check_size(k, "k") <= TABLE_GUARD:
        raise ValueError(f"k must be in 1..{TABLE_GUARD}, got {k}")
    types = generate_partitions(k)
    return [[mn_value(lam, rho) for rho in types] for lam in types]
