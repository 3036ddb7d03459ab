"""The oracle's class finder and induction against a frozen reference.

The reference below is the original formulation, kept here on purpose: each
class is found by conjugating its representative by every group element,
which also gives one conjugation row per class, and induction averages the
zero-extended subgroup character (None off the subgroup K, whose order is
passed by hand) over each whole row.  The oracle now closes orbits under a
generating set and induces by summing over each class's members in K one
K-class at a time, K the direct product of the blocks' factor groups, so the
two must agree exactly.

The Mackey claims once induced their right-hand sides block by block, the
heavy block (slot r) first; they now read the irreducible of the split
label from `parametrized_character`, which orders blocks by slot.  The
frozen two-block inductions pin that label's slots.

The oracle now also numbers elements by int ids, closes orbits under int
conjugation maps, and sums values as monomials in the group ring of the
cyclic group of order p - 1.  The tuple-level class build and the
cyclotomic inner product it replaced are frozen here too.  The oracle keeps
only ids, base element numbers, monomial tables listed by element number
and class functions as int rows of power-basis coordinates; the base
groups' law on element names, the element tuples, their group law and
encoding, the cyclotomic base tables and the cyclotomic class-function
values come from `frozen_wreath`.  The blocks below carry each base table
in both forms: the cyclotomic one, keyed by G's elements, for the frozen
references, and the monomial one, by the numbers of the factor's base, for
the oracle.
"""

import gc
import weakref
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from math import factorial, prod

import pytest
from frozen_wreath import (
    cyclotomic_class_function,
    cyclotomic_values,
    frozen_class_label,
    frozen_cycle_products,
    frozen_embed_h,
    frozen_encode,
    frozen_identity,
    frozen_inv,
    frozen_irr,
    frozen_law,
    frozen_mult,
)

from wreathdec import oracle
from wreathdec.cyclotomic import Cyclotomic, root_of_unity
from wreathdec.oracle import (
    BaseGroup,
    ClassFunction,
    WreathGroup,
    _block_entries,
    _cyclotomic,
    _wreath_cached,
    _split_label,
    base_group,
    induce,
    inner_product,
    parametrized_character,
    perm_cycles,
    restrict_to_h,
    verify_mackey_multiplicities,
    verify_suite,
    wreath_group,
)
from wreathdec.partitions import generate_multipartitions, generate_partitions
from wreathdec.sn_char import _mn, mn_value

CASES = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2)]


def frozen_orbits(elements, index, mult, inv, generators):
    """Orbits closed breadth-first under conjugation by the generators, on
    element tuples: (reps, member index lists, class of every element)."""
    conj = [(s, inv(s)) for s in generators]
    assigned = [-1] * len(elements)
    reps, members = [], []
    for i, g in enumerate(elements):
        if assigned[i] >= 0:
            continue
        assigned[i] = c = len(reps)
        orbit = [i]
        for j in orbit:
            for s, si in conj:
                k = index[mult(mult(s, elements[j]), si)]
                if assigned[k] < 0:
                    assigned[k] = c
                    orbit.append(k)
        reps.append(g)
        members.append(orbit)
    return reps, members, assigned


def frozen_build_classes(group):
    """The tuple-level class build: (reps, sizes, labels, class_of_index)."""
    base, w = group.base, group.w
    elements = tuple(
        (f, s) for f in product(base.elements, repeat=w) for s in permutations(range(w))
    )
    index = {e: i for i, e in enumerate(elements)}
    law, ident = frozen_law(base), tuple(range(w))
    e = law.identity
    gens = [((b,) + (e,) * (w - 1), ident) for b in law.generators] if w else []
    if w >= 2:
        gens += [((e,) * w, (1, 0) + ident[2:]), ((e,) * w, ident[1:] + (0,))]
    reps, members, assigned = frozen_orbits(
        elements, index, lambda x, y: frozen_mult(group, x, y),
        lambda x: frozen_inv(group, x), list(dict.fromkeys(gens)),
    )
    labels = [frozen_class_label(group, x) for x in elements]
    label_partition = {}
    for i, lab in enumerate(labels):
        label_partition.setdefault(lab, set()).add(i)
    if set(map(frozenset, members)) != set(map(frozenset, label_partition.values())):
        raise RuntimeError("conjugation orbits disagree with cycle structures")
    return (tuple(reps), tuple(map(len, members)),
            tuple(labels[index[rep]] for rep in reps), tuple(assigned))


def frozen_inner_product(a, b):
    total = Cyclotomic(a.group.base.value_order)
    for size, x, y in zip(a.group.class_sizes, cyclotomic_values(a), cyclotomic_values(b)):
        total = total + x * y.conjugate() * size
    return total.as_rational() / a.group.order


def frozen_classes(group):
    """Full conjugation: (reps, sizes, labels, class_of_index, rows)."""
    labels = [frozen_class_label(group, e) for e in group.elements]
    invs = [frozen_inv(group, e) for e in group.elements]
    assigned = [-1] * len(group.elements)
    reps, sizes, rows = [], [], []
    for i, g in enumerate(group.elements):
        if assigned[i] >= 0:
            continue
        row = [
            frozen_encode(group, frozen_mult(group, frozen_mult(group, x, g), xi))
            for x, xi in zip(group.elements, invs)
        ]
        members = set(row)
        for j in members:
            assigned[j] = len(reps)
        reps.append(g)
        sizes.append(len(members))
        rows.append(row)
    class_labels = tuple(labels[frozen_encode(group, rep)] for rep in reps)
    return tuple(reps), tuple(sizes), class_labels, tuple(assigned), rows


def frozen_tilde_value(base, base_values, lam, f, sigma):
    """The extension-style character value, or None when some coordinate
    leaves the table's domain (cycle products of outside elements can still
    land inside)."""
    for x in f:
        if x not in base_values:
            return None
    val = 1
    for prod in frozen_cycle_products(base, f, sigma):
        val = val * base_values[prod]
    return val * mn_value(lam, perm_cycles(sigma)[1])


def oracle_blocks(blocks):
    """The blocks as the oracle takes them: the factor group on the block's
    letters over the block's base, and the base's monomial table."""
    return [(start, _wreath_cached(base, size), mono, lam)
            for start, size, _, base, mono, lam in blocks]


def frozen_block_chi0(group, blocks):
    """Pointwise values of an outer tensor product over consecutive blocks,
    zero (None) off the block-product subgroup."""

    def chi0(elem):
        f, sigma = elem
        val = 1
        for start, size, base_values, *_, lam in blocks:
            if any(not start <= sigma[start + i] < start + size for i in range(size)):
                return None
            sub_sigma = tuple(sigma[start + i] - start for i in range(size))
            v = frozen_tilde_value(group.base, base_values, lam, f[start : start + size], sub_sigma)
            if v is None:
                return None
            val = val * v
        return val

    return chi0


def frozen_induce(group, rows, chi0, subgroup_order):
    cached = [chi0(e) for e in group.elements]
    values = []
    for row in rows:
        acc = Cyclotomic(group.base.value_order)
        for xi in row:
            if cached[xi] is not None:
                acc = acc + cached[xi]
        values.append(acc * Fraction(1, subgroup_order))
    return tuple(values)


@pytest.mark.parametrize("kind", ["G", "H"])
@pytest.mark.parametrize("p,w", CASES)
def test_classes_match_full_conjugation(p, w, kind):
    group = wreath_group(p, w, kind)
    reps, sizes, labels, class_of_index, _ = frozen_classes(group)
    assert group.class_reps == reps
    assert group.class_sizes == sizes
    assert group.class_labels == labels
    assert group.class_of_index == class_of_index


def frozen_base_classes(base):
    """Full conjugation of each unassigned element: (reps, sizes, class_of)."""
    law = frozen_law(base)
    class_of, reps, sizes = {}, [], []
    for g in base.elements:
        if g in class_of:
            continue
        orbit = {law.mult(law.mult(x, g), law.inv(x)) for x in base.elements}
        for y in orbit:
            class_of[y] = len(reps)
        reps.append(g)
        sizes.append(len(orbit))
    return tuple(reps), tuple(sizes), class_of


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_base_classes_match_full_conjugation(p):
    for base in (base_group(p).G, base_group(p).H):
        reps, sizes, class_of = frozen_base_classes(base)
        assert base.class_reps == reps
        assert base.class_sizes == sizes
        assert dict(zip(base.elements, base.class_of_index)) == class_of


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 17])
def test_base_tables_are_the_frozen_law_on_numbers(p):
    """G's element (a, b) is the number a*m + b, m = p - 1, so H's element b
    is G's number b: G's tables are the frozen law on those numbers, H's are
    G's restricted to the numbers below m and the frozen H law, and number 0
    is the identity of both."""
    pair = base_group(p)
    G, H, m = pair.G, pair.H, p - 1
    g_law, h_law = frozen_law(G), frozen_law(H)

    def number(x):
        return x[0] * m + x[1]

    assert [number(x) for x in G.elements] == [g_law.index[x] for x in G.elements]
    assert number(g_law.identity) == h_law.identity == 0
    for x in G.elements:
        assert G.inv_table[number(x)] == number(g_law.inv(x))
        assert G.mul_table[number(x)] == [number(g_law.mult(x, y)) for y in G.elements]
    assert H.mul_table == [row[:m] for row in G.mul_table[:m]]
    assert H.inv_table == G.inv_table[:m]
    assert H.mul_table == [[h_law.mult(x, y) for y in range(m)] for x in range(m)]
    assert H.inv_table == [h_law.inv(x) for x in range(m)]
    assert G.generators == tuple(map(number, g_law.generators)) == (m, 1)
    assert H.generators == h_law.generators == (1,)


@pytest.mark.parametrize("kept", [0, 1])
def test_wrong_base_classes_fail_the_orbit_check(kept, monkeypatch):
    pair = base_group(3)
    G = pair.G
    bad = BaseGroup("G", G.elements, G.mul_table, G.inv_table, G.value_order,
                    G.generators[kept : kept + 1])
    assert bad.class_sizes != G.class_sizes
    monkeypatch.setattr(oracle, "base_group", lambda p: pair._replace(G=bad))
    oracle._wreath_cached.cache_clear()
    try:
        with pytest.raises(RuntimeError, match="disagree"):
            wreath_group(3, 2, "G")
    finally:
        oracle._wreath_cached.cache_clear()


def label_characters(group):
    """(label, blocks, subgroup order) of every label, built as
    `parametrized_character` builds them: one block per nonempty slot."""
    base = group.base
    irr = frozen_irr(base)
    for label in generate_multipartitions(group.w, len(base.monomials)):
        blocks, start = [], 0
        for slot, lam in enumerate(label):
            if lam:
                blocks.append((start, sum(lam), irr[slot], base, base.monomials[slot], lam))
                start += sum(lam)
        order = len(group.base.elements) ** group.w
        for _, size, *_ in blocks:
            order *= factorial(size)
        yield label, blocks, order


def multi_block_characters(group):
    """(blocks, subgroup order) of every label with two or more nonempty slots."""
    for _, blocks, order in label_characters(group):
        if len(blocks) >= 2:
            yield blocks, order


def linear_induction(p, k, i, alpha):
    """(blocks, subgroup order) of the induction of (i-th linear extension) x
    (alpha) from the small wreath product on k letters: the frozen values
    keyed by G's elements (0, b), off the complement absent, and the factor
    on H with H's own monomial table."""
    pair = base_group(p)
    slot = pair.islots.index(i)
    theta = {(0, b): v for b, v in frozen_irr(pair.H)[slot].items()}
    return [(0, k, theta, pair.H, pair.H.monomials[slot], alpha)], (p - 1) ** k * factorial(k)


def split_blocks(p, k, j_range=None):
    """(i, j, beta, gamma, blocks, subgroup order) of the block induction of
    (degree-(p-1) extension) x (beta) boxed with (i-th linear extension) x
    (gamma) on the big wreath product on k letters, the heavy block first,
    for 0 < j = |beta| < k unless `j_range` says otherwise."""
    pair = base_group(p)
    irr = frozen_irr(pair.G)
    psi_r = (irr[pair.r - 1], pair.G, pair.G.monomials[pair.r - 1])
    for i in pair.islots:
        psi_i = (irr[i - 1], pair.G, pair.G.monomials[i - 1])
        for j in j_range or range(1, k):
            order = len(pair.G.elements) ** k * factorial(j) * factorial(k - j)
            for beta in generate_partitions(j):
                for gamma in generate_partitions(k - j):
                    blocks = [(0, j, *psi_r, beta), (j, k - j, *psi_i, gamma)]
                    blocks = [b for b in blocks if b[1]]
                    yield i, j, beta, gamma, blocks, order


def mackey_characters(p, k):
    """(blocks, subgroup order) of every induction `verify_mackey_multiplicities`
    made on the big wreath product on k letters before it read its right
    side from `parametrized_character`."""
    for i in base_group(p).islots:
        for alpha in generate_partitions(k):
            yield linear_induction(p, k, i, alpha)
    for *_, blocks, order in split_blocks(p, k):
        yield blocks, order


def frozen_block_induce(group, rows, blocks, order):
    return frozen_induce(group, rows, frozen_block_chi0(group, blocks), order)


@pytest.mark.parametrize("p", [3, 5])
def test_class_sum_induction_matches_whole_group_average(p):
    groups = [wreath_group(p, 2, kind) for kind in ("G", "H")]
    cases = [(g, c) for g in groups for c in multi_block_characters(g)]
    cases += [(groups[0], c) for c in mackey_characters(p, 2)]
    rows = {id(g): frozen_classes(g)[4] for g in groups}
    assert len(cases) == {3: 10, 5: 28}[p]
    for group, (blocks, order) in cases:
        got = cyclotomic_values(induce(group, oracle_blocks(blocks)))
        assert got == frozen_block_induce(group, rows[id(group)], blocks, order)


@pytest.mark.parametrize("p,w", [(3, 0), (3, 1), (3, 2), (5, 0), (5, 2)])
def test_every_label_is_the_frozen_block_induction(p, w):
    """One-block labels and the empty label at w = 0 go through `induce`
    too: the factor is the group itself, or K is trivial."""
    for kind in ("G", "H"):
        group = wreath_group(p, w, kind)
        rows = frozen_classes(group)[4]
        sizes = set()
        for label, blocks, order in label_characters(group):
            sizes.add(len(blocks))
            got = cyclotomic_values(parametrized_character(group, label))
            assert got == frozen_block_induce(group, rows, blocks, order), (kind, label)
        assert sizes == {0: {0}, 1: {1}, 2: {1, 2}}[w]


@pytest.mark.parametrize("kind", ["G", "H"])
def test_every_generator_is_needed_for_the_orbit_check(kind):
    group = WreathGroup(getattr(base_group(3), kind), 3)
    base_gens, perms = group._generators()
    assert base_gens == list(group.base.generators) and len(perms) == 2
    short = [(base_gens[:i] + base_gens[i + 1 :], perms) for i in range(len(base_gens))]
    short += [(base_gens, perms[:i] + perms[i + 1 :]) for i in range(len(perms))]
    for gens in short:
        with pytest.raises(RuntimeError, match="disagree"):
            group._build_classes(gens)


def test_orbits_coarser_than_the_labels_fail_the_orbit_check(monkeypatch):
    """A map that is not a conjugation merges classes, so one orbit holds
    several cycle labels; the check must see that too.  The extra map sends
    (f, sigma) to (f + 1, sigma), one more step at every perm rank."""
    group = WreathGroup(base_group(3).G, 2)
    conjugates = group._conjugates
    nperms = len(group._perms)
    nf = group.order // nperms
    shift = [(f + 1) % nf * nperms for f in range(nf)]

    def merged(generators):
        return [step + [(shift, s)] for s, step in enumerate(conjugates(generators))]

    monkeypatch.setattr(group, "_conjugates", merged)
    with pytest.raises(RuntimeError, match="disagree"):
        group._build_classes(group._generators())


@pytest.mark.parametrize("p,k", [(3, 2), (3, 3), (5, 2)])
def test_split_label_is_the_frozen_two_block_induction(p, k):
    pair = base_group(p)
    gw = wreath_group(p, k, "G")
    rows = frozen_classes(gw)[4]
    cases = list(split_blocks(p, k))
    assert {i < pair.r for i, *_ in cases} == {True, False}
    for i, _, beta, gamma, blocks, order in cases:
        frozen = frozen_block_induce(gw, rows, blocks, order)
        assert cyclotomic_values(induce(gw, oracle_blocks(blocks))) == frozen, (i, beta, gamma)
        got = cyclotomic_values(parametrized_character(gw, _split_label(pair, i, beta, gamma)))
        assert got == frozen, (i, beta, gamma)


def test_mackey_multiplicities_match_the_frozen_block_inductions():
    p, k = 3, 2
    gw = wreath_group(p, k, "G")
    rows = frozen_classes(gw)[4]
    count = 0
    for i, j, beta, gamma, blocks, order in split_blocks(p, k, range(k + 1)):
        rhs = cyclotomic_class_function(gw, frozen_block_induce(gw, rows, blocks, order))
        for alpha in generate_partitions(k):
            lin_blocks, lin_order = linear_induction(p, k, i, alpha)
            lhs = frozen_block_induce(gw, rows, lin_blocks, lin_order)
            assert cyclotomic_values(induce(gw, oracle_blocks(lin_blocks))) == lhs, (i, alpha)
            expected = inner_product(cyclotomic_class_function(gw, lhs), rhs)
            got = verify_mackey_multiplicities(i, j, alpha, beta, gamma, p, k)
            assert got == expected, (i, j, alpha, beta, gamma)
            count += 1
    assert count == 2 * 2 * (2 + 1 + 2)


@pytest.mark.parametrize("p,k", [(3, 3), (5, 2)])
def test_induction_class_entries_cover_the_subgroup(p, k):
    """Summing one id part per block gives one representative per K-class.
    Weighted by their K-class sizes, the representatives in each G-class c
    count the frozen |c ∩ K|, and each entry is the class size times the
    frozen pointwise value at its representative."""
    gw = wreath_group(p, k, "G")
    m = gw.base.value_order
    for blocks, order in [
        next(multi_block_characters(gw)),
        linear_induction(p, k, base_group(p).islots[0], (k,)),
    ]:
        chi0 = frozen_block_chi0(gw, blocks)
        in_k = [0] * len(gw.class_reps)
        for i, x in enumerate(gw.elements):
            if chi0(x) is not None:
                in_k[gw.class_of_index[i]] += 1
        blocks_k = oracle_blocks(blocks)
        factors = [factor for _, factor, *_ in blocks_k]
        assert prod(factor.order for factor in factors) == order
        per_block = [list(zip(_block_entries(gw, *block), factor.class_sizes))
                     for block, factor in zip(blocks_k, factors)]
        covered, ids = [0] * len(gw.class_reps), set()
        for parts in product(*per_block):
            i = sum(entry[0] for entry, _ in parts)
            size = prod(s for _, s in parts)
            ids.add(i)
            covered[gw.class_of_index[i]] += size
            value = chi0(gw.elements[i])
            assert value is not None, gw.elements[i]
            coef, exp = prod(entry[1] for entry, _ in parts), sum(entry[2] for entry, _ in parts)
            assert _cyclotomic(m, coef, exp) == value * size, gw.elements[i]
        assert len(ids) == prod(len(factor.class_reps) for factor in factors)
        assert covered == in_k and sum(in_k) == order
    assert order == wreath_group(p, k, "H").order


def test_verify_suite_releases_its_groups():
    """No process-wide cache outside `_wreath_cached` keeps a group alive,
    the factor groups of the inductions included."""
    oracle._wreath_cached.cache_clear()  # the groups below are built afresh
    verify_suite(3, 2)
    built = oracle._wreath_cached.cache_info().currsize
    pair = base_group(3)
    refs = [weakref.ref(_wreath_cached(base, w)) for base in (pair.G, pair.H) for w in (1, 2)]
    assert oracle._wreath_cached.cache_info().currsize == built  # all four were kept
    oracle._wreath_cached.cache_clear()
    gc.collect()
    assert [ref() for ref in refs] == [None] * 4


def test_verify_suite_induces_each_character_once(monkeypatch):
    """The reconstruction suite reuses the linear inductions the Mackey
    suite kept on the group, so no induction is built twice."""
    oracle._wreath_cached.cache_clear()  # fresh groups, with empty caches
    calls = []
    induce = oracle.induce

    def recording(group, blocks):
        calls.append((group, repr(blocks)))
        return induce(group, blocks)

    monkeypatch.setattr(oracle, "induce", recording)
    verify_suite(5, 2)
    assert calls and len(set(calls)) == len(calls)


def test_verify_suite_takes_each_norm_and_restriction_once(monkeypatch):
    """Each norm is taken once, when `parametrized_character` builds the
    character, and each G-label is restricted once: the Mackey claims read
    the restrictions that the restriction claims have kept."""
    oracle._wreath_cached.cache_clear()  # fresh groups, with empty caches
    norms, restricted = [], []
    inner, restrict = oracle.inner_product, oracle.restrict_to_h

    def recording_inner(a, b):
        if a is b:
            norms.append(a)
        return inner(a, b)

    def recording_restrict(gw, hw, chi):
        restricted.append(chi)
        return restrict(gw, hw, chi)

    monkeypatch.setattr(oracle, "inner_product", recording_inner)
    monkeypatch.setattr(oracle, "restrict_to_h", recording_restrict)
    verify_suite(5, 2)
    built = [chi for kind in "GH" for chi in wreath_group(5, 2, kind)._char_cache.values()]
    assert sorted(map(id, norms)) == sorted(map(id, built))
    assert len(restricted) == len(set(map(id, restricted))) == len(generate_multipartitions(2, 5))


@pytest.mark.parametrize("p,k", [(3, 3), (5, 2)])
def test_induction_takes_at_most_one_symmetric_group_value_per_factor_class(p, k, monkeypatch):
    """Each block's symmetric-group values are taken at its factor's class
    representatives, once each."""
    gw = wreath_group(p, k, "G")
    calls = []

    def recording(lam, rho):
        calls.append((lam, rho))
        return _mn(lam, rho)

    cases = [oracle_blocks(blocks) for blocks, _ in multi_block_characters(gw)]
    cases += [oracle_blocks(linear_induction(p, k, i, (k,))[0]) for i in base_group(p).islots]
    monkeypatch.setattr(oracle, "_mn", recording)  # the factor groups are built
    for blocks in cases:
        calls.clear()
        induce(gw, blocks)
        assert calls and len(calls) <= sum(len(factor.class_reps) for _, factor, *_ in blocks)
    assert cases


@pytest.mark.parametrize("p,w,kind", [(3, 4, "G"), (3, 4, "H"), (5, 3, "G")])
def test_id_class_build_matches_the_frozen_tuple_build(p, w, kind):
    group = wreath_group(p, w, kind)
    reps, sizes, labels, class_of_index = frozen_build_classes(group)
    assert group.class_reps == reps
    assert group.class_sizes == sizes
    assert group.class_labels == labels
    assert group.class_of_index == class_of_index


@pytest.mark.parametrize("kind", ["G", "H"])
def test_index_inverts_elements(kind):
    """The frozen encoder inverts the library's decoding, and the frozen group
    law lands on the library's ids: x x^-1 is id 0 and x y is what the
    library decodes at that id."""
    group = wreath_group(3, 3, kind)
    assert len(group.elements) == group.order
    for i in range(group.order):
        assert frozen_encode(group, group.elements[i]) == i
    for i in (0, 17, group.order - 1):
        x, y = group.elements[i], group.elements[(5 * i + 3) % group.order]
        assert frozen_mult(group, x, frozen_inv(group, x)) == frozen_identity(group)
        assert frozen_encode(group, frozen_mult(group, x, frozen_inv(group, x))) == 0
        xy = frozen_mult(group, x, y)
        assert group.elements[frozen_encode(group, xy)] == xy


@pytest.mark.parametrize("p,w", [(3, 0), (3, 1), (3, 2), (3, 3), (5, 2)])
def test_id_embedding_matches_the_frozen_tuple_embedding(p, w):
    """`restrict_to_h` reads each H class at the G class of its representative
    embedded coordinate-wise, found here through the frozen encoder.  The
    class function restricted takes each G class's number as its value."""
    gw, hw = wreath_group(p, w, "G"), wreath_group(p, w, "H")
    classes = [gw.class_of_index[frozen_encode(gw, frozen_embed_h(rep))] for rep in hw.class_reps]
    named = ClassFunction(gw, [(c,) for c in range(len(gw.class_reps))])
    assert restrict_to_h(gw, hw, named).rows == tuple((c,) for c in classes)


def rational_or_irrational(ip, a, b):
    """The inner product, or the error naming the irrational sum."""
    try:
        return ip(a, b)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("p,w", [(3, 3), (5, 2)])
def test_inner_product_matches_the_frozen_cyclotomic_sum(p, w):
    for kind, t in (("G", p), ("H", p - 1)):
        group = wreath_group(p, w, kind)
        chars = [parametrized_character(group, lab) for lab in generate_multipartitions(w, t)]
        for a, b in combinations_with_replacement(chars, 2):
            for x, y in ((a, b), (b, a)):
                got = inner_product(x, y)
                assert type(got) is Fraction
                assert got == frozen_inner_product(x, y) == (x is y)
        # a class function with a different root of unity on each class
        m = group.base.value_order
        twist = cyclotomic_class_function(
            group, [root_of_unity(m, c) * (c + 1) for c in range(len(chars))]
        )
        for chi in chars + [twist]:
            for x, y in ((twist, chi), (chi, twist)):
                got = rational_or_irrational(inner_product, x, y)
                assert got == rational_or_irrational(frozen_inner_product, x, y)


def test_irrational_inner_product_raises():
    h1 = wreath_group(5, 1, "H")
    trivial = parametrized_character(h1, ((1,), (), (), ()))
    zeta = cyclotomic_class_function(h1, [root_of_unity(4, 1)] * len(h1.class_reps))
    with pytest.raises(ValueError, match="irrational"):
        frozen_inner_product(zeta, trivial)
    with pytest.raises(ValueError, match="irrational"):
        inner_product(zeta, trivial)


def test_inner_product_of_rational_class_functions_is_a_fraction():
    g2 = wreath_group(3, 2, "G")
    half = ClassFunction(g2, [(Fraction(1, 2),)] * len(g2.class_reps))
    got = inner_product(half, half)
    assert type(got) is Fraction and got == frozen_inner_product(half, half) == Fraction(1, 4)
