"""Brute-force verification from first principles.

Everything the label-level engine computes by formula is recomputed here the
hard way: the base groups are materialized as explicit element tables, the
wreath products as explicit element sets numbered by int ids, conjugacy
classes are conjugation orbits closed under a generating set (checked against
cycle labels), induced characters are class sums over y in c ∩ K, taken one
class of the inducing subgroup K at a time (K is a direct product of wreath
products built the same way), and every multiplicity is an exact inner
product of class functions.  Every character value is a monomial
c * z^k, so class sums and inner products are taken in the group ring of the
cyclic group of order p - 1 and reduced once, to one row of ints per class:
the value's coordinates in the power basis of the cyclotomic field.
Agreement between the two routes is the whole point of this module.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from functools import cache
from itertools import chain, combinations, permutations, repeat
from typing import NamedTuple, Optional

from . import decomp
from .cyclotomic import Cyclotomic
from .lr import lr_coefficient, restriction_expansion
from .partitions import (
    MultiPartition,
    Partition,
    check_partition,
    check_size,
    generate_multipartitions,
    generate_partitions,
    is_odd_prime,
)
from .sn_char import _mn, centralizer_order

DEFAULT_GUARD = 10**6
MAX_PRIME = 17


class GuardError(RuntimeError):
    """Raised when a requested group exceeds the enumeration guard."""


def primitive_root(p: int) -> int:
    """Smallest positive primitive root modulo the odd prime p."""
    for g in range(2, p):
        acc, order = g, 1
        while acc != 1:
            acc = acc * g % p
            order += 1
        if order == p - 1:
            return g
    raise ValueError(f"no primitive root mod {p}")


def index_exponents(p: int) -> dict[int, int]:
    """Bijection from the linear-character slots I = {1..p} minus r onto the
    exponents 0..p-2, fixing slot 1 as the trivial character."""
    r = (p + 1) // 2
    out = {}
    for i in range(1, p + 1):
        if i == r:
            continue
        out[i] = 0 if i == 1 else (i - 1 if i < r else i - 2)
    return out


class BaseGroup:
    """A small concrete group on the element numbers 0..n-1, number 0 the
    identity: int multiplication and inverse tables on those numbers, a
    generating set of numbers, and the full set of irreducible characters (in
    slot order), each a monomial table: c * z^k as the pair (c, k), with z a
    primitive `value_order`-th root of unity, listed by element number.
    `elements` holds the display name of each number."""

    def __init__(self, name, elements, mul_table, inv_table, value_order, generators,
                 monomials=()):
        self.name = name
        self.elements = tuple(elements)
        self.mul_table = mul = mul_table
        self.inv_table = inv_table
        self.monomials = monomials
        self.value_order = value_order
        self.generators = tuple(generators)
        conj = [[mul[mul[s][j]][inv_table[s]] for j in range(len(mul))] for s in self.generators]
        reps, sizes, assigned = _orbits(len(mul), [[(c, 0) for c in conj]])
        self.class_reps = tuple(self.elements[i] for i in reps)
        self.class_sizes = tuple(sizes)
        self.class_of_index = tuple(assigned)


def _orbits(size, steps):
    """Conjugacy classes of the elements 0..size-1 as orbits closed
    breadth-first under a generating set's int maps: element f * len(steps)
    + s goes to f_map[f] + t for each pair (f_map, t) in steps[s].  Elements
    are scanned in order and each unassigned one represents a new class, so
    classes are numbered by their smallest element.  Returns the
    representatives, the class sizes and the class of every element.  The
    generators must generate the group: at w = 1 the wreath check compares
    this routine with itself, so only the tests catch a wrong generating set."""
    nperms, assigned = len(steps), [-1] * size
    reps, sizes = [], []
    for i in range(size):
        if assigned[i] >= 0:
            continue
        assigned[i] = c = len(reps)
        orbit = [i]
        for j in orbit:  # the list grows while it is walked
            f, s = divmod(j, nperms)
            for f_map, t in steps[s]:
                k = f_map[f] + t
                if assigned[k] < 0:
                    assigned[k] = c
                    orbit.append(k)
        reps.append(i)
        sizes.append(len(orbit))
    return reps, sizes, assigned


def _outer_sum(columns) -> list[int]:
    """Sum of columns[t][d_t] over t for every digit tuple d, in product order."""
    acc = [0]
    for col in columns:
        acc = [a + v for a in acc for v in col]
    return acc


class BasePair(NamedTuple):
    p: int
    r: int
    islots: tuple[int, ...]
    G: BaseGroup
    H: BaseGroup


def supported_p(p: int) -> bool:
    """Whether base_group(p) exists: an int p, not a bool, bound before primality."""
    return type(p) is int and p <= MAX_PRIME and is_odd_prime(p)


@cache
def base_group(p: int) -> BasePair:
    """The order-p(p-1) base group G (a cyclic normal subgroup of order p
    acted on faithfully by a cyclic group of order m = p-1) and its order-m
    complement H, with every irreducible character as a monomial table.

    G's element (a, b), with a mod p and b mod m, has the number a*m + b, and
    (a1,b1)(a2,b2) = (a1 + g^b1 * a2, b1 + b2) for the smallest primitive
    root g.  H is the subset a = 0: its element b is G's number b, so H's
    tables are G's restricted to the numbers below m and no embedding map is
    needed.  G is generated by (1, 0) and (0, 1), the numbers m and 1; H by 1.
    """
    if not supported_p(p):
        raise ValueError(f"p must be an odd prime <= {MAX_PRIME}, got {p!r}")
    m = p - 1
    g = primitive_root(p)
    r = (p + 1) // 2
    exps = index_exponents(p)
    islots = tuple(sorted(exps))
    powg = [pow(g, b, p) for b in range(m)]
    g_elements = [(a, b) for a in range(p) for b in range(m)]  # in number order
    mul = [[(a1 + powg[b1] * a2) % p * m + (b1 + b2) % m for a2, b2 in g_elements]
           for a1, b1 in g_elements]
    inv = [-a * powg[-b % m] % p * m + -b % m for a, b in g_elements]
    g_mono = []
    for i in range(1, p + 1):
        if i == r:
            g_mono.append(tuple((p - 1 if a == b == 0 else (-1 if b == 0 else 0), 0)
                                for (a, b) in g_elements))
        else:
            g_mono.append(tuple((1, exps[i] * b % m) for (a, b) in g_elements))
    G = BaseGroup("G", g_elements, mul, inv, m, [m, 1], tuple(g_mono))
    h_mono = tuple(tuple((1, exps[i] * b % m) for b in range(m)) for i in islots)
    H = BaseGroup("H", range(m), [row[:m] for row in mul[:m]], inv[:m], m, [1], h_mono)
    return BasePair(p, r, islots, G, H)


@cache
def _inv_perm(sigma: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(sigma)
    for i, v in enumerate(sigma):
        inv[v] = i
    return tuple(inv)


@cache
def perm_cycles(sigma: tuple[int, ...]):
    """Cycles of a permutation, each listed in cycle-product order (the start
    index followed by its successive preimages), plus the cycle type."""
    inv = _inv_perm(sigma)
    seen = [False] * len(sigma)
    cycles = []
    for j in range(len(sigma)):
        if seen[j]:
            continue
        cyc = [j]
        seen[j] = True
        pos = inv[j]
        while pos != j:
            cyc.append(pos)
            seen[pos] = True
            pos = inv[pos]
        cycles.append(tuple(cyc))
    ctype = tuple(sorted((len(c) for c in cycles), reverse=True))
    return tuple(cycles), ctype


def _cycle_product_ids(mul, f, cycles) -> list[int]:
    """One base-element number per cycle, the product of the coordinates of f
    along the cycle in product order: f holds base-element numbers and mul is
    the base group's multiplication table."""
    out = []
    for cyc in cycles:
        x = f[cyc[0]]
        for i in cyc[1:]:
            x = mul[x][f[i]]
        out.append(x)
    return out


def _monomial(table, coef: int, prods) -> tuple[int, int]:
    """The value c * z^k, as (c, k), at (f, sigma) of a base character tensored
    with a symmetric-group character: `coef`, that character's value at sigma,
    times the base values at `prods`, the products of f along sigma's cycles,
    which the caller computes once (`_cycle_product_ids`).  `table` lists the
    base character's monomials by element number."""
    exp = 0
    for x in prods:
        c, e = table[x]
        coef *= c
        exp += e
    return coef, exp


def _cyclotomic(m: int, coef: int, exp: int) -> Cyclotomic:
    """The monomial coef * z_m^exp as a canonical cyclotomic."""
    return Cyclotomic(m, [0] * exp + [coef])


class ClassData(NamedTuple):
    label: MultiPartition
    representative: tuple
    size: int


class _Elements(Sequence):
    """The elements of a wreath group in id order, decoded on demand."""

    def __init__(self, group: "WreathGroup"):
        self._group = group

    def __len__(self):
        return self._group.order

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        return self._group._decode(range(len(self))[i])


class WreathGroup:
    """A wreath product of a concrete base group with a symmetric group,
    fully enumerated.  Elements are pairs (f, sigma) with f a w-tuple of base
    elements and sigma a permutation acting on coordinates.

    Element (f, sigma) has the id f_rank * w! + perm_rank, where f_rank reads
    the base-element numbers of f as mixed-radix digits (coordinate 0 most
    significant) and perm_rank is the lexicographic rank of sigma, so ids
    follow the order of `elements`, which decodes them on demand.  Id 0 is the
    identity, so it represents class 0.  Classes are built on ids."""

    def __init__(self, base: BaseGroup, w: int):
        self.base = base
        self.w = w
        self._perms = tuple(permutations(range(w)))
        self._perm_rank = {s: i for i, s in enumerate(self._perms)}
        self.order = len(base.elements) ** w * len(self._perms)
        self.elements = _Elements(self)
        self._char_cache: dict[MultiPartition, "ClassFunction"] = {}
        self._induced_cache: dict[tuple[int, Partition], "ClassFunction"] = {}
        self._restriction_cache: dict[MultiPartition, dict[MultiPartition, int]] = {}
        self._build_classes(self._generators())

    def _split(self, j: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Base-element numbers and permutation of the element with id j."""
        n = len(self.base.elements)
        f, s = divmod(j, len(self._perms))
        digits = []
        for _ in range(self.w):
            f, d = divmod(f, n)
            digits.append(d)
        return tuple(reversed(digits)), self._perms[s]

    def _decode(self, j: int):
        digits, sigma = self._split(j)
        return tuple(self.base.elements[d] for d in digits), sigma

    def _generators(self) -> tuple[list[int], list[tuple[int, ...]]]:
        """(base generator numbers, permutations): the base generators in
        coordinate 0, the transposition (0 1) and the w-cycle together
        generate the wreath product.  At w = 2 the two permutations agree."""
        w, ident = self.w, tuple(range(self.w))
        perms = [(1, 0) + ident[2:], ident[1:] + (0,)] if w >= 2 else []
        return list(self.base.generators) if w else [], list(dict.fromkeys(perms))

    def _conjugates(self, generators):
        """Conjugation by each generator, given as (base generator numbers,
        permutations), as `_orbits` steps on ids.  An f-map sends digit x of
        coordinate t to digit dmap_t[x] of coordinate pos[t]: an outer sum
        over the coordinates, pre-multiplied by w!.  Conjugating (f, sigma) by
        a permutation pi gives (f o pi^-1, pi sigma pi^-1): pos = pi with the
        identity digit maps, and a map on perm ranks.  Conjugating by b in
        coordinate 0 multiplies coordinate 0 by b on the left and coordinate
        sigma(0) by b^-1 on the right: one f-map per value of sigma(0)."""
        base_gens, perms = generators
        w, nperms = self.w, len(self._perms)
        n, mul, inv = len(self.base.elements), self.base.mul_table, self.base.inv_table

        def f_map(pos, dmaps):
            return _outer_sum([[x * n ** (w - 1 - pos[t]) * nperms for x in dmaps[t]]
                               for t in range(w)])

        steps = [[] for _ in self._perms]
        for pi in perms:
            fm, pinv = f_map(pi, [range(n)] * w), _inv_perm(pi)
            for step, sigma in zip(steps, self._perms):
                step.append((fm, self._perm_rank[tuple(pi[sigma[i]] for i in pinv)]))
        for b in base_gens:
            left, right = mul[b], [row[inv[b]] for row in mul]
            by_first = []  # by c = sigma(0)
            for c in range(w):
                dmaps = [range(n)] * w
                dmaps[c] = right
                dmaps[0] = [right[x] for x in left] if c == 0 else left
                by_first.append(f_map(range(w), dmaps))
            for s, (step, sigma) in enumerate(zip(steps, self._perms)):
                step.append((by_first[sigma[0]], s))
        return steps

    def _build_classes(self, generators):
        reps, sizes, assigned = _orbits(self.order, self._conjugates(generators))
        # the orbits must be the classes of cycle labels: each label (keyed by
        # its sorted (cycle length, base class) pairs) lies in one orbit, and
        # there are as many labels as orbits.  Each distinct cycle has one
        # string of base classes over the f-ranks; a permutation's elements
        # zip its cycles' strings with their orbits, and each distinct tuple
        # is keyed once
        nperms, cycle_strings = len(self._perms), {}
        label_class: dict[tuple, int] = {}
        for s, sigma in enumerate(self._perms):
            cycles = perm_cycles(sigma)[0]
            for cyc in cycles:
                if cyc not in cycle_strings:
                    cycle_strings[cyc] = _cycle_classes(self.base, self.w, cyc)
            lengths = [len(cyc) for cyc in cycles]
            for *classes, c in set(zip(*map(cycle_strings.get, cycles), assigned[s::nperms])):
                if label_class.setdefault(tuple(sorted(zip(lengths, classes))), c) != c:
                    raise RuntimeError("conjugation orbits disagree with cycle structures")
        if len(label_class) != len(reps):
            raise RuntimeError("conjugation orbits disagree with cycle structures")
        labels = [None] * len(reps)
        for key, c in label_class.items():  # keys are sorted: each class's lengths ascend
            labels[c] = tuple(tuple(length for length, x in reversed(key) if x == b)
                              for b in range(len(self.base.class_reps)))
        self.class_reps = tuple(self._decode(i) for i in reps)
        self.class_sizes = tuple(sizes)
        self.class_labels = tuple(labels)
        self.class_of_index = tuple(assigned)
        self._rep_ids = tuple(reps)


def _cycle_classes(base: BaseGroup, w: int, cyc: tuple[int, ...]) -> bytes:
    """The base class of f's product along one cycle, for every f-rank on w
    coordinates, one byte each (a base group has at most 17 classes):
    products over the cycle's own digits, in cycle order, read through an
    outer sum of those digits' weights."""
    n, mul = len(base.elements), base.mul_table
    vals = range(n)
    for _ in cyc[1:]:
        vals = [mul[x][y] for x in vals for y in range(n)]
    table = [base.class_of_index[x] for x in vals]
    weight = {t: n ** (len(cyc) - 1 - i) for i, t in enumerate(cyc)}
    return bytes([table[i] for i in _outer_sum([[x * weight.get(t, 0) for x in range(n)]
                                                for t in range(w)])])


@cache
def _wreath_cached(base: BaseGroup, w: int) -> WreathGroup:
    """The wreath product of `base` on w letters, built once per base object:
    `wreath_group` and the block factors of `induce` share it."""
    return WreathGroup(base, w)


def _check_weight_and_guard(w, guard) -> None:
    if check_size(w, "w") < 0:
        raise ValueError(f"w must be nonnegative, got {w}")
    if guard is not None and (type(guard) is not int or guard < 0):
        raise ValueError(f"guard must be None or a nonnegative int, got {guard!r}")


def wreath_group(
    p: int, w: int, kind: str = "G", guard: Optional[int] = None
) -> WreathGroup:
    """Enumerated wreath product; refuses to build more than `guard` elements
    (default 10^6).  The order |base|^w * w! is multiplied out factor by
    factor only until it passes the guard, so a huge w is refused at once."""
    if kind not in ("G", "H"):
        raise ValueError("kind must be 'G' or 'H'")
    _check_weight_and_guard(w, guard)
    base = getattr(base_group(p), kind)  # validates p
    limit = DEFAULT_GUARD if guard is None else guard
    order = 1
    for factor in chain(repeat(len(base.elements), w), range(2, w + 1)):
        if order > limit:
            break
        order *= factor
    if order > limit:
        raise GuardError(f"{kind}-wreath product for p={p}, w={w} exceeds the element "
                         f"guard of {limit}")
    return _wreath_cached(base, w)


def conjugacy_classes(group: WreathGroup) -> list[ClassData]:
    if not isinstance(group, WreathGroup):
        raise ValueError(f"group must be a WreathGroup, got {group!r}")
    return [ClassData(*c) for c in zip(group.class_labels, group.class_reps, group.class_sizes)]


class ClassFunction:
    """A class function on a concretely built group, stored as one row per
    conjugacy class: the value's coordinates in the power basis 1, z, ...,
    z^(d-1) of the field of the (p-1)-th roots of unity, d = phi(p - 1)."""

    def __init__(self, group: WreathGroup, rows):
        self.group = group
        self.rows = tuple(rows)

    def degree(self) -> int:
        return self.rows[0][0]  # class 0 holds id 0, the identity


def inner_product(a: ClassFunction, b: ClassFunction) -> Fraction:
    """Exact inner product: the class-size-weighted sum of a * conj(b) over
    classes, divided by the group order.  Must come out rational.  The sum is
    taken in the group ring of the order-m cyclic group, one coefficient per
    power of the root z (z^i times conj(z^j) is z^(i-j)), and reduced to the
    field once."""
    for x in (a, b):
        if not isinstance(x, ClassFunction):
            raise ValueError(f"inner_product takes two ClassFunctions, got {x!r}")
    if a.group is not b.group:
        raise ValueError("class functions live on different groups")
    return _inner(a.group.class_sizes, a.group.order, a.group.base.value_order, a.rows, b.rows)


def _inner(weights, order: int, m: int, x_rows, y_rows) -> Fraction:
    """The weighted sum of x * conj(y) over paired rows, divided by `order`:
    each row lists a value's coefficients at the powers of the order-m root
    z, so z^i times conj(z^j) adds to the coefficient of z^(i-j), and the
    group-ring total is reduced to the field once.  Must come out rational."""
    total = [0] * m
    for weight, x, y in zip(weights, x_rows, y_rows):
        ys = [(j, v) for j, v in enumerate(y) if v]
        for i, u in enumerate(x):
            if u:
                u *= weight
                for j, v in ys:
                    total[(i - j) % m] += u * v
    return Cyclotomic(m, total).as_rational() / order


def _block_entries(group: WreathGroup, start: int, factor: WreathGroup, table,
                   lam: Partition) -> list:
    """One (id part, class size * coef, exp) per class of one block's factor
    of the block subgroup K, at the class's representative.  The factor is
    the wreath product on the letters start..start+factor.w-1, its base
    numbered as the group's base (H's element b is G's number b), and `table`
    lists its base character by those numbers.  Both the f-rank and the perm
    rank of an element of K are sums over its blocks (a block's Lehmer digits
    count only its own letters), so the id of an element of K is the sum of
    its blocks' id parts, its value the product of their monomials and the
    size of its K-class the product of their class sizes.  A block's perm
    part is the rank of its permutation, which fixes every letter outside
    the block.  lam was checked with its label and the cycle types come from
    `perm_cycles`, so the symmetric-group values are read unchecked (`_mn`)."""
    w, nperms, n = group.w, len(group._perms), len(group.base.elements)
    m, mul = group.base.value_order, factor.base.mul_table
    head, tail = tuple(range(start)), tuple(range(start + factor.w, w))
    entries = []
    for j, size in zip(factor._rep_ids, factor.class_sizes):
        f, sigma = factor._split(j)
        cycles, ctype = perm_cycles(sigma)
        value = size * _mn(lam, ctype)
        c, e = _monomial(table, value, _cycle_product_ids(mul, f, cycles)) if value else (0, 0)
        f_part = sum(x * n ** (w - 1 - start - t) for t, x in enumerate(f)) * nperms
        perm_part = group._perm_rank[head + tuple(start + s for s in sigma) + tail]
        entries.append((f_part + perm_part, c, e % m))
    return entries


def induce(group: WreathGroup, blocks) -> ClassFunction:
    """Induction of the block character from the block subgroup K by class
    sums: the value on a class c is |G| / (|K| |c|) times the sum of the
    block character over c ∩ K, since conjugating by all of G hits each
    member of c |G| / |c| times.  K is the direct product of the factors of
    the blocks (start, factor, monomial table, lam), so c ∩ K is a union of
    K-classes and its sum is taken one K-class at a time: the class size
    times the value at its representative (James and Kerber, 1981, ch. 4).
    With no blocks K is trivial.  The class sums are taken in the group ring
    of the order-m cyclic group, one int per power of the root, and reduced
    to the field once per class.  Induced values are algebraic integers, so
    a remainder in the scaling means a factor or its classes were misstated."""
    m = group.base.value_order
    sub_order, partial = 1, [(0, 1, 0)]
    for start, factor, table, lam in blocks:
        entries = [entry for entry in _block_entries(group, start, factor, table, lam) if entry[1]]
        partial = [(i + j, c * d, (e + k) % m) for i, c, e in partial for j, d, k in entries]
        sub_order *= factor.order
    cls = group.class_of_index
    sums = [[0] * m for _ in group.class_reps]
    for i, c, e in partial:
        sums[cls[i]][e] += c
    rows = [[divmod(x * group.order, sub_order * size) for x in Cyclotomic(m, row).coeffs]
            for row, size in zip(sums, group.class_sizes)]
    if any(r for row in rows for _, r in row):
        raise RuntimeError("an induced value is not an algebraic integer")
    return ClassFunction(group, [tuple(q for q, _ in row) for row in rows])


def _check_label(label, slots: int) -> None:
    """A tuple of `slots` partition tuples, checked before any cache lookup or
    group build: True would hit the entry of 1, and a list would not hash.
    `check_partition` returns a tuple as it stands and copies anything else."""
    if type(label) is not tuple or any(check_partition(lam) is not lam for lam in label):
        raise ValueError(f"label must be a tuple of partition tuples, got {label!r}")
    if len(label) != slots:
        raise ValueError(f"label must have {slots} components")


def parametrized_character(group: WreathGroup, label: MultiPartition) -> ClassFunction:
    """Irreducible character attached to a tuple of partitions, one per base
    character slot: the block-wise extension tensored with symmetric-group
    characters, induced up from the block subgroup: one block per nonempty
    slot, its factor the wreath product of the group's base on the slot's
    letters.  With one block the factor is the whole group, and at w = 0
    there is none.  The norm is checked here, once: it must be 1."""
    if not isinstance(group, WreathGroup):
        raise ValueError(f"group must be a WreathGroup, got {group!r}")
    _check_label(label, len(group.base.monomials))
    if sum(map(sum, label)) != group.w:
        raise ValueError(f"label size must be {group.w}")
    if label in group._char_cache:
        return group._char_cache[label]
    blocks, start = [], 0
    for slot, lam in enumerate(label):
        if lam:
            factor = _wreath_cached(group.base, sum(lam))
            blocks.append((start, factor, group.base.monomials[slot], lam))
            start += factor.w
    chi = induce(group, blocks)
    if inner_product(chi, chi) != 1:
        raise RuntimeError(f"character {label} does not have norm 1")
    group._char_cache[label] = chi
    return chi


def restrict_to_h(gw: WreathGroup, hw: WreathGroup, chi: ClassFunction) -> ClassFunction:
    """View a class function of the big wreath product as one of the small
    wreath product sitting inside it coordinate-wise.  H's element numbers
    are G's numbers below m, so the base digits of an H id read as G digits
    as they stand, and the permutation rank stays."""
    pair = base_group(gw.base.value_order + 1)
    if gw.base is not pair.G or hw.base is not pair.H or hw.w != gw.w or chi.group is not gw:
        raise ValueError("restrict_to_h takes a class function of gw and gw's H-wreath product")
    n, nperms = len(gw.base.elements), len(gw._perms)
    rows = []
    for j in hw._rep_ids:
        f = 0
        for d in hw._split(j)[0]:
            f = f * n + d
        rows.append(chi.rows[gw.class_of_index[f * nperms + j % nperms]])
    return ClassFunction(hw, rows)


def _as_multiplicity(q: Fraction) -> int:
    if q.denominator != 1 or q < 0:
        raise ValueError(f"multiplicity {q} is not a nonnegative integer")
    return int(q)


def oracle_restriction(
    gamma: MultiPartition, p: int, guard: Optional[int] = None
) -> dict[MultiPartition, int]:
    """Restriction multiplicities of the big-wreath irreducible gamma by exact
    inner products, kept on the G group (each call returns a copy)."""
    _check_label(gamma, len(base_group(p).G.monomials))
    w = sum(map(sum, gamma))
    return dict(_restriction(wreath_group(p, w, "G", guard), wreath_group(p, w, "H", guard), gamma))


def _restriction(gw: WreathGroup, hw: WreathGroup, gamma: MultiPartition):
    """Unchecked `oracle_restriction` on built groups: the kept dict itself."""
    if gamma not in gw._restriction_cache:
        res = restrict_to_h(gw, hw, parametrized_character(gw, gamma))
        gw._restriction_cache[gamma] = {
            alpha: mult for alpha in generate_multipartitions(hw.w, len(hw.base.monomials))
            if (mult := _as_multiplicity(inner_product(res, parametrized_character(hw, alpha))))
        }
    return gw._restriction_cache[gamma]


def _linear_induced(gw: WreathGroup, pair: BasePair, i: int, alpha: Partition):
    """Induction of (i-th linear extension) x (alpha) from the small wreath
    product, embedded coordinate-wise, up to the big one on the same letters:
    one block, whose factor is the small wreath product and whose table is
    the i-th linear complement character on H's numbers, which are G's first
    m.  Kept on the group, so each is built once while the group lives."""
    if (i, alpha) not in gw._induced_cache:
        block = (0, _wreath_cached(pair.H, gw.w), pair.H.monomials[pair.islots.index(i)], alpha)
        gw._induced_cache[i, alpha] = induce(gw, [block])
    return gw._induced_cache[i, alpha]


def _split_label(pair: BasePair, i: int, beta: Partition, gamma: Partition):
    """The G-label with beta in the heavy slot r and gamma in the linear slot
    i, all other slots empty.  Its irreducible is the induction from the
    block subgroup of (degree-(p-1) extension) x (beta) boxed with (i-th
    linear extension) x (gamma)."""
    label = [()] * pair.p
    label[pair.r - 1] = beta
    label[i - 1] = gamma
    return tuple(label)


def verify_mackey_multiplicities(
    i: int,
    j: int,
    alpha: Partition,
    beta: Partition,
    gamma: Partition,
    p: int,
    k: int,
    guard: Optional[int] = None,
) -> int:
    """Inner product, on the big wreath product on k letters, of the
    induction of (i-th linear extension) x (alpha) from the small wreath
    product against the irreducible of the split label: beta in the heavy
    slot r, gamma in slot i.  Equals the Littlewood-Richardson number
    c^alpha_{beta,gamma}."""
    i, j, k = check_size(i, "i"), check_size(j, "j"), check_size(k, "k")
    pair = base_group(p)
    if i not in pair.islots:
        raise ValueError(f"i must avoid the distinguished slot, got {i}")
    alpha, beta, gamma = map(check_partition, (alpha, beta, gamma))
    if not 0 <= j <= k or sum(beta) != j or sum(gamma) != k - j or sum(alpha) != k:
        raise ValueError("sizes must satisfy |beta| = j, |gamma| = k - j, |alpha| = k")
    return _mackey(wreath_group(p, k, "G", guard), pair, i, alpha, beta, gamma)


def _mackey(gw: WreathGroup, pair: BasePair, i: int, alpha, beta, gamma) -> int:
    """Unchecked `verify_mackey_multiplicities` on the built big wreath product."""
    rhs = parametrized_character(gw, _split_label(pair, i, beta, gamma))
    return _as_multiplicity(inner_product(_linear_induced(gw, pair, i, alpha), rhs))


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


class ClaimResult(NamedTuple):
    """One verified claim: what was checked, for which parameters, and the
    expected and computed sides."""

    claim: str
    params: dict
    expected: str
    computed: str
    status: str  # "pass", "fail" or "skip"


def _claim(name, params, expected, computed) -> ClaimResult:
    """Each distinct side is written once: a claim that compares an object
    with itself holds one string for both."""
    text = repr(expected)
    status = "pass" if expected == computed else "fail"
    return ClaimResult(name, params, text, text if computed is expected else repr(computed), status)


def base_group_claims(p: int) -> list[ClaimResult]:
    pair = base_group(p)
    G, H = pair.G, pair.H
    m = p - 1
    out = []
    # the degree-(p-1) character vanishes off the normal subgroup and its
    # restriction to the complement is (p-1) at the identity, 0 elsewhere
    psi_r = G.monomials[pair.r - 1]
    res = tuple(_cyclotomic(m, *psi_r[b]) for b in H.elements)
    expected = tuple(
        Cyclotomic.from_rational(m, p - 1 if b == 0 else 0) for b in H.elements
    )
    out.append(_claim("restriction_of_heavy_character_is_delta", {"p": p}, expected, res))
    # second orthogonality at the identity column of the complement
    sums = tuple(
        sum((_cyclotomic(m, *table[x]) for table in H.monomials), Cyclotomic(m))
        for x in range(len(H.elements))
    )
    out.append(_claim("complement_second_orthogonality", {"p": p}, expected, sums))
    # row orthogonality of the full base character table: c * z^e is the
    # group-ring row (0,) * e + (c,), and every element weighs 1
    rows = [[(0,) * e + (c,) for c, e in table] for table in G.monomials]
    ones = [1] * len(G.elements)
    ok = all(_inner(ones, len(G.elements), m, x, y) == (1 if a == b else 0)
             for a, x in enumerate(rows) for b, y in enumerate(rows))
    out.append(_claim("base_table_row_orthogonality", {"p": p}, True, ok))
    return out


def class_structure_claims(pair: BasePair, gw: WreathGroup, hw: WreathGroup) -> list[ClaimResult]:
    p, w, out = pair.p, gw.w, []
    for kind, group in (("G", gw), ("H", hw)):
        params = {"p": p, "w": w, "group": kind}
        # _build_classes has already checked these orbits against the cycle
        # structures and raises on a mismatch, so the claim reports its result
        # (classes are numbered by their smallest id, so the lists come sorted)
        members = [[] for _ in group.class_reps]
        for j, c in enumerate(group.class_of_index):
            members[c].append(j)
        out.append(_claim("orbit_classes_match_cycle_structure", params, members, members))
        out.append(_claim("class_count_is_multipartition_count", params,
                          len(generate_multipartitions(w, len(group.base.class_reps))),
                          len(group.class_reps)))
        out.append(_claim("class_sizes_sum_to_order", params, group.order, sum(group.class_sizes)))
        # centralizer-order cross-check: per class, the product over base
        # classes and part sizes of (part * base centralizer)^mult * mult!
        ok = True
        base_cent = [len(group.base.elements) // s for s in group.base.class_sizes]
        for label, size in zip(group.class_labels, group.class_sizes):
            cent = 1
            for part, bc in zip(label, base_cent):
                cent *= centralizer_order(part) * bc ** len(part)
            ok = ok and size == group.order // cent
        out.append(_claim("class_sizes_match_centralizer_formula", params, True, ok))
    return out


def character_claims(pair: BasePair, gw: WreathGroup, hw: WreathGroup) -> list[ClaimResult]:
    p, w, out = pair.p, gw.w, []
    for kind, group in (("G", gw), ("H", hw)):
        params = {"p": p, "w": w, "group": kind}
        t = p if kind == "G" else p - 1
        chars = [parametrized_character(group, lab) for lab in generate_multipartitions(w, t)]
        # parametrized_character has raised on any norm other than 1
        out.append(_claim("characters_have_norm_one", params, True, True))
        orth_ok = all(inner_product(a, b) == 0 for a, b in combinations(chars, 2))
        out.append(_claim("characters_pairwise_orthogonal", params, True, orth_ok))
        out.append(_claim("squared_degrees_sum_to_order", params, group.order,
                          sum(c.degree() ** 2 for c in chars)))
        degfn = decomp.degree_G if kind == "G" else decomp.degree_H
        degs_ok = all(c.degree() == degfn(lab, p)
                      for c, lab in zip(chars, generate_multipartitions(w, t)))
        out.append(_claim("degrees_match_formula", params, True, degs_ok))
    return out


def tilde_restriction_claims(pair: BasePair, gw: WreathGroup, hw: WreathGroup) -> list[ClaimResult]:
    """Value-by-value agreement, on the embedded small wreath product, of the
    big-group extension characters with the small-group ones, and the closed
    form for the heavy slot, in one walk over the small wreath product: each
    element's cycle products through G's table and through H's.  A
    symmetric-group value v scales both sides alike, and v = 1 (the trivial
    character) occurs at every cycle type, so monomials compare at v = 1."""
    p, w, m = pair.p, gw.w, pair.p - 1
    slots = [(pair.G.monomials[i - 1], small) for i, small in zip(pair.islots, pair.H.monomials)]
    psi_r = pair.G.monomials[pair.r - 1]
    agree, heavy_ok = [True] * len(slots), True
    for j in range(hw.order):
        f, sigma = hw._split(j)
        cycles = perm_cycles(sigma)[0]
        prods_g = _cycle_product_ids(pair.G.mul_table, f, cycles)
        prods_h = _cycle_product_ids(pair.H.mul_table, f, cycles)
        for s, (big_table, small_table) in enumerate(slots):
            big, small = _monomial(big_table, 1, prods_g), _monomial(small_table, 1, prods_h)
            # c z^k = -c z^(k + m/2), so monomials compare as cyclotomics
            agree[s] = agree[s] and (big == small or _cyclotomic(m, *big) == _cyclotomic(m, *small))
        expected = (p - 1) ** len(prods_g) if not any(prods_g) else 0
        heavy_ok = heavy_ok and _cyclotomic(m, *_monomial(psi_r, 1, prods_g)) == expected
    out = [_claim("linear_extension_agrees_on_complement", {"p": p, "w": w, "slot": i}, True, ok)
           for i, ok in zip(pair.islots, agree)]
    out.append(_claim("heavy_extension_closed_form", {"p": p, "w": w}, True, heavy_ok))
    return out


def restriction_claims(pair: BasePair, gw: WreathGroup, hw: WreathGroup) -> list[ClaimResult]:
    """The main check: brute-force restriction multiplicities equal the
    label-level coefficients, for every big-group label."""
    p, w = pair.p, gw.w
    return [_claim("restriction_matches_formula", {"p": p, "w": w, "gamma": gamma},
                   decomp.restrict_G_to_H(gamma, p), _restriction(gw, hw, gamma))
            for gamma in generate_multipartitions(w, p)]


def mackey_claims(pair: BasePair, gw: WreathGroup, hw: WreathGroup) -> list[ClaimResult]:
    """Multiplicity identities for the inductions between the two wreath
    products on k letters, against Littlewood-Richardson numbers: the
    restriction of psi_r~ x beta (`_restriction`), read at the small-group
    labels theta_i~ x alpha, and the double inductions (`_mackey`)."""
    p, k, out = pair.p, gw.w, []
    heavy = {  # psi_r~ x beta restricted: the split label with gamma empty
        beta: _restriction(gw, hw, _split_label(pair, 1, beta, ()))
        for beta in generate_partitions(k)
    }

    def theta(i, alpha):  # the label of theta_i~ x alpha on the small wreath product
        return tuple(alpha if s == i else () for s in pair.islots)

    trivial = (k,) if k else ()
    for i in pair.islots:
        out.append(
            _claim(
                "heavy_restriction_contains_each_linear_once",
                {"p": p, "k": k, "i": i},
                1,
                heavy[trivial].get(theta(i, trivial), 0),
            )
        )
    for beta in generate_partitions(k):
        for i in pair.islots:
            for alpha in generate_partitions(k):
                out.append(
                    _claim(
                        "heavy_tensor_restriction_multiplicity",
                        {"p": p, "k": k, "i": i, "alpha": alpha, "beta": beta},
                        1 if alpha == beta else 0,
                        heavy[beta].get(theta(i, alpha), 0),
                    )
                )
    for i in pair.islots:
        for j in range(k + 1):
            for alpha in generate_partitions(k):
                for beta in generate_partitions(j):
                    for gamma in generate_partitions(k - j):
                        out.append(
                            _claim(
                                "double_induction_multiplicity_is_lr",
                                {
                                    "p": p,
                                    "k": k,
                                    "i": i,
                                    "j": j,
                                    "alpha": alpha,
                                    "beta": beta,
                                    "gamma": gamma,
                                },
                                lr_coefficient(alpha, beta, gamma),
                                _mackey(gw, pair, i, alpha, beta, gamma),
                            )
                        )
    return out


def reconstruction_claims(pair: BasePair, gw: WreathGroup, hw: WreathGroup) -> list[ClaimResult]:
    """The induced linear-extension characters decompose, as class functions,
    as the LR-weighted sum of the irreducibles of the split labels."""
    p, k, out = pair.p, gw.w, []
    for i in pair.islots:
        for alpha in generate_partitions(k):
            lhs = _linear_induced(gw, pair, i, alpha).rows
            rhs = [[0] * len(row) for row in lhs]
            for j in range(k + 1):
                for beta, gamma, c in restriction_expansion(alpha, j):
                    term = parametrized_character(gw, _split_label(pair, i, beta, gamma)).rows
                    rhs = [[a + c * v for a, v in zip(acc, row)] for acc, row in zip(rhs, term)]
            out.append(
                _claim(
                    "induced_linear_extension_reconstruction",
                    {"p": p, "k": k, "i": i, "alpha": alpha},
                    tuple(Cyclotomic(p - 1, row) for row in lhs),
                    tuple(Cyclotomic(p - 1, row) for row in rhs),
                )
            )
    return out


def verify_suite(p: int, w: int, guard: Optional[int] = None) -> list[ClaimResult]:
    """All claims for the given parameters: the Mackey suite when w >= 1, the
    reconstruction suite when 1 <= w <= 2.  Groups that would exceed the
    element guard produce 'skip' records instead of failures, as does an
    int p with no base group; malformed arguments raise before any work.
    The arguments and the guard are checked here, once: every suite after
    the base-group claims computes on the two groups built here."""
    check_size(p, "p")
    _check_weight_and_guard(w, guard)
    try:
        pair = base_group(p)
    except ValueError as exc:
        return [ClaimResult("base_group_supported", {"p": p, "w": w}, "", str(exc), "skip")]
    out = base_group_claims(p)
    try:
        groups = pair, wreath_group(p, w, "G", guard), wreath_group(p, w, "H", guard)
    except GuardError as exc:
        out.append(ClaimResult("group_within_guard", {"p": p, "w": w}, "", str(exc), "skip"))
        return out
    out += class_structure_claims(*groups)
    out += character_claims(*groups)
    out += tilde_restriction_claims(*groups)
    out += restriction_claims(*groups)
    if w >= 1:
        out += mackey_claims(*groups)
    if 1 <= w <= 2:
        out += reconstruction_claims(*groups)
    return out
