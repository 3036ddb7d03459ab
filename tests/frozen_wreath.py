"""The tuple-level forms the oracle once kept beside its int ids and tables.

The oracle keeps one form of each object: a base element is a number, a
wreath element is an int id and a base character is a monomial table listed
by element number.  The tests hold those forms against the original ones,
kept here: the base groups' law on element names, (a, b) in the big group and
b in its complement, with identity, inverse, generators and the index of each
name; element tuples (f, sigma) with their multiplication, inverse, encoding
to ids, cycle products, cycle labels and the coordinate-wise embedding of the
small wreath product; the base character tables as exact cyclotomics
keyed by base element, built from the original root-of-unity formulas; and
class-function values as exact cyclotomics, where the oracle keeps each as a
row of power-basis coordinates.
"""

from functools import cache, reduce
from itertools import permutations
from math import factorial
from typing import NamedTuple

from wreathdec.cyclotomic import Cyclotomic, root_of_unity
from wreathdec.oracle import ClassFunction, index_exponents, perm_cycles, primitive_root


class FrozenLaw(NamedTuple):
    identity: object
    mult: object
    inv: object
    generators: tuple
    index: dict


@cache
def _frozen_law(name, p):
    m = p - 1
    if name == "H":
        return FrozenLaw(0, lambda x, y: (x + y) % m, lambda x: (-x) % m, (1,),
                         {b: b for b in range(m)})
    powg = [pow(primitive_root(p), b, p) for b in range(m)]

    def mult(x, y):
        return ((x[0] + powg[x[1]] * y[0]) % p, (x[1] + y[1]) % m)

    def inv(x):
        b = (-x[1]) % m
        return ((-x[0] * powg[b]) % p, b)

    elements = [(a, b) for a in range(p) for b in range(m)]
    return FrozenLaw((0, 0), mult, inv, ((1, 0), (0, 1)),
                     {e: i for i, e in enumerate(elements)})


def frozen_law(base):
    """The original law of a base group on its element names: the big group's
    pairs (a, b) with (a1,b1)(a2,b2) = (a1 + g^b1 * a2, b1 + b2), g the
    smallest primitive root, numbered in the order a, then b; the
    complement's b mod p - 1 under addition."""
    return _frozen_law(base.name, base.value_order + 1)


def _inv_perm(sigma):
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v] = i
    return tuple(inv)


def frozen_identity(group):
    return ((frozen_law(group.base).identity,) * group.w, tuple(range(group.w)))


def frozen_mult(group, x, y):
    f, s = x
    f2, t = y
    sinv = _inv_perm(s)
    bm = frozen_law(group.base).mult
    return (
        tuple(bm(f[i], f2[sinv[i]]) for i in range(group.w)),
        tuple(s[t[i]] for i in range(group.w)),
    )


def frozen_inv(group, x):
    f, s = x
    bi = frozen_law(group.base).inv
    return (tuple(bi(f[s[j]]) for j in range(group.w)), _inv_perm(s))


@cache
def _perm_ranks(w):
    return {s: i for i, s in enumerate(permutations(range(w)))}


def frozen_encode(group, elem):
    """The id of (f, sigma): f_rank * w! + perm_rank, f_rank the base numbers
    of f as mixed-radix digits (coordinate 0 first), perm_rank the
    lexicographic rank of sigma."""
    f, sigma = elem
    if len(f) != group.w:
        raise KeyError(elem)
    n, index = len(group.base.elements), frozen_law(group.base).index
    rank = 0
    for x in f:
        rank = rank * n + index[x]
    return rank * factorial(group.w) + _perm_ranks(group.w)[sigma]


def frozen_cycle_products(base, f, sigma):
    """One base-group element per cycle of sigma, each the product of the
    coordinates of f along the cycle in product order."""
    cycles, _ = perm_cycles(sigma)
    return [reduce(frozen_law(base).mult, (f[i] for i in cyc)) for cyc in cycles]


def frozen_class_label(group, elem):
    """Cycle structure: one partition per base class, collecting the lengths
    of the cycles whose product lands in that class."""
    f, sigma = elem
    base = group.base
    class_of = dict(zip(base.elements, base.class_of_index))
    cycles, _ = perm_cycles(sigma)
    parts = [[] for _ in base.class_reps]
    for cyc, x in zip(cycles, frozen_cycle_products(base, f, sigma)):
        parts[class_of[x]].append(len(cyc))
    return tuple(tuple(sorted(ps, reverse=True)) for ps in parts)


def frozen_embed_h(elem):
    """The small wreath product inside the big one, coordinate-wise."""
    f, sigma = elem
    return (tuple((0, b) for b in f), sigma)


def frozen_base_tables(p):
    """(G tables, H tables): every irreducible character of the two base
    groups, in slot order, as a dict from base element to exact cyclotomic."""
    m, r = p - 1, (p + 1) // 2
    exps = index_exponents(p)
    g_elements = [(a, b) for a in range(p) for b in range(m)]
    zeta = [root_of_unity(m, k) for k in range(m)]
    g_irr = []
    for i in range(1, p + 1):
        if i == r:
            g_irr.append({
                (a, b): Cyclotomic.from_rational(
                    m, p - 1 if (a, b) == (0, 0) else (-1 if b == 0 else 0))
                for (a, b) in g_elements
            })
        else:
            g_irr.append({(a, b): zeta[exps[i] * b % m] for (a, b) in g_elements})
    h_irr = [{b: zeta[exps[i] * b % m] for b in range(m)} for i in sorted(exps)]
    return g_irr, h_irr


def frozen_irr(base):
    """The frozen cyclotomic tables of one of the two base groups."""
    g_irr, h_irr = frozen_base_tables(base.value_order + 1)
    return g_irr if base.name == "G" else h_irr


def cyclotomic_values(chi):
    """The values of a class function, one exact cyclotomic per class."""
    m = chi.group.base.value_order
    return tuple(Cyclotomic(m, row) for row in chi.rows)


def cyclotomic_class_function(group, values):
    """The class function taking the given cyclotomic values, one per class."""
    return ClassFunction(group, [v.coeffs for v in values])
