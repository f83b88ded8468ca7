"""Permutation groups on root indices and arrangement machinery.

Permutations compose left to right as functions: (p * q)(i) = p(q(i)).
An arrangement is an ordering of the root indices; the group action on
arrangements is (p . a)(i) = a(p^-1(i)), a left action, so acting by p
and then by q equals acting by q * p.  Blocks of the arrangement
array record the coset representative used to build them, which is the
conjugator relating the block's substitution group back to the subgroup.

The subgroup lattice is enumerated on element indices: one
multiplication table of the group, and each subgroup an int bitmask,
turned into ``PermGroup`` objects only at the end.
"""

from __future__ import annotations

from functools import cache, lru_cache

from .record import Frozen, Record


class Permutation:
    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a permutation of 0..{len(images) - 1}: {images}")
        self.images = images

    @classmethod
    def _trusted(cls, images: tuple) -> "Permutation":
        """Unvalidated constructor for images known to be a permutation,
        such as those of a product or an inverse."""
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, n):
        return cls._trusted(tuple(range(n)))

    @property
    def n(self):
        return len(self.images)

    def __call__(self, i):
        return self.images[i]

    def __mul__(self, other):
        if self.n != other.n:
            raise ValueError("degree mismatch")
        images = self.images
        return Permutation._trusted(tuple([images[j] for j in other.images]))

    def inverse(self):
        inv = [0] * self.n
        for i, j in enumerate(self.images):
            inv[j] = i
        return Permutation._trusted(tuple(inv))

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

    def cycles(self):
        seen = [False] * self.n
        out = []
        for i in range(self.n):
            if seen[i]:
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self, labels=None):
        cyc = self.cycles()
        if not cyc:
            return "id"
        if labels is None:
            return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cyc)
        return "".join("(" + "".join(labels[i] for i in c) + ")" for c in cyc)

    def __repr__(self):
        return f"Permutation{self.images}"


class PermGroup:
    """Canonical sorted set of permutations; validated to be a group.

    ``generators`` is a generating set carried along for certificates that
    only need one (a fixed space is cut out by generators alone); it stays
    outside ``==`` and ``hash``.  It is all the elements unless the group
    was built from fewer, by ``closure`` or as a join in ``all_subgroups``.
    """

    __slots__ = ("elements", "generators")

    def __init__(self, elements):
        elems = sorted(set(elements))
        if not elems:
            raise ValueError("a group needs at least the identity")
        n = elems[0].n
        if any(p.n != n for p in elems):
            raise ValueError("mixed degrees")
        eset = set(elems)
        if Permutation.identity(n) not in eset:
            raise ValueError("identity missing")
        for p in elems:
            if p.inverse() not in eset:
                raise ValueError(f"inverse of {p} missing")
            for q in elems:
                if p * q not in eset:
                    raise ValueError(f"not closed: {p} * {q} outside the set")
        self.elements = self.generators = tuple(elems)

    @classmethod
    def _trusted(cls, elements, generators=None) -> "PermGroup":
        """Unvalidated constructor for a set of permutations known to be a
        group, such as a product fixpoint, and known to be generated by
        ``generators`` (default: all of them)."""
        g = object.__new__(cls)
        g.elements = tuple(sorted(elements))
        g.generators = g.elements if generators is None else tuple(generators)
        return g

    @property
    def n(self):
        return self.elements[0].n

    @property
    def order(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p):
        return p in self.elements

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return isinstance(other, PermGroup) and self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return all(p in other.elements for p in self.elements)

    def sort_key(self):
        return (self.order, tuple(p.images for p in self.elements))

    def __repr__(self):
        return f"PermGroup(order={self.order}, {[p.cycle_string() for p in self.elements]})"


def closure(generators, n=None) -> PermGroup:
    """Smallest group containing the generators (product fixpoint)."""
    gens = list(generators)
    if not gens:
        if n is None:
            raise ValueError("empty generator set needs an explicit degree")
        return PermGroup._trusted([Permutation.identity(n)])
    deg = gens[0].n
    if any(g.n != deg for g in gens):
        raise ValueError("mixed degrees")
    if n is not None and n != deg:
        raise ValueError("degree mismatch")
    elems = {Permutation.identity(deg)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = p * g
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    # a nonempty finite set closed under products is a group
    return PermGroup._trusted(elems, gens)


@lru_cache(maxsize=None)
def symmetric_group(n: int) -> PermGroup:
    """S_n as the closure of its ``generators``, the transposition (0 1)
    and the n-cycle (0 1 ... n-1): only the transposition for n = 2, where
    the two coincide, and neither for n = 1."""
    gens = [Permutation((1, 0, *range(2, n))), Permutation((*range(1, n), 0))] if n > 1 else []
    return closure(gens[: n - 1], n=n)


def all_subgroups(g: PermGroup):
    """Every subgroup of g, each once, sorted by order then element list,
    in a new list on each call.

    Found by iterated joins: starting from the trivial group, every
    subgroup found is joined with one more element of g, carrying its
    generators.  This reaches every subgroup K of a finite group: with
    K = <k1, ..., km>, each link of the chain 1 <= <k1> <= <k1, k2> <= ...
    is the join of the one before with one element.  Since <H, x> equals
    <H, h * x> for every h in H, one element per coset H * x suffices.
    The joins run on indices into g's elements: products come from one
    |g| x |g| multiplication table and a subgroup is an int bitmask.
    Each subgroup carries the join's elements as its ``generators``.
    """
    return list(_subgroup_table(g)[0])


def subgroup_inclusions(g: PermGroup):
    """(pairs, outside) for the list ``all_subgroups(g)`` returns: the
    index pairs (i, j), i != j, with subgroup i inside subgroup j, and for
    each subgroup the elements of g outside it, in g's order."""
    return _subgroup_table(g)[1:]


@cache
def _subgroup_table(g: PermGroup):
    """(subgroups, pairs, outside), worked out once per group (groups are
    equal when their elements are) on bitmasks: i inside j when
    mask_i & mask_j == mask_i, and the elements outside a subgroup are
    the bits of its mask's complement."""
    if g.order > 24:
        raise ValueError(f"group order {g.order} exceeds the cap of 24")
    elems = g.elements
    index = {p: i for i, p in enumerate(elems)}
    table = [[index[p * q] for q in elems] for p in elems]
    one = index[Permutation.identity(g.n)]

    def closure_mask(gens):
        # the product fixpoint of ``closure``, on indices
        mask, frontier = 1 << one, [one]
        while frontier:
            nxt = []
            for p in frontier:
                row = table[p]
                for x in gens:
                    q = row[x]
                    if not mask >> q & 1:
                        mask |= 1 << q
                        nxt.append(q)
            frontier = nxt
        return mask

    def picked(mask):
        return [p for i, p in enumerate(elems) if mask >> i & 1]

    trivial = 1 << one
    seen = {trivial}
    queue = [(trivial, ())]
    for h, gens in queue:
        members = [i for i in range(len(elems)) if h >> i & 1]
        covered = h
        for x in range(len(elems)):
            if covered >> x & 1:
                continue
            for p in members:
                covered |= 1 << table[p][x]
            sub = closure_mask(gens + (x,))
            if sub not in seen:
                seen.add(sub)
                queue.append((sub, gens + (x,)))
    subs = sorted((PermGroup._trusted(picked(h), [elems[x] for x in gens]) for h, gens in queue),
                  key=PermGroup.sort_key)
    masks = [sum(1 << index[p] for p in h) for h in subs]
    full = (1 << len(elems)) - 1
    pairs = tuple((i, j) for i, a in enumerate(masks) for j, b in enumerate(masks)
                  if i != j and a & b == a)
    return tuple(subs), pairs, tuple(tuple(picked(full ^ a)) for a in masks)


class Arrangement(Frozen):
    """One ordering of the n root indices (a row of the array); immutable."""

    __slots__ = ("order",)

    def __init__(self, order: tuple):
        if sorted(order) != list(range(len(order))):
            raise ValueError(f"not an arrangement: {order}")
        Record.__init__(self, order)

    @property
    def n(self):
        return len(self.order)

    def act(self, p: Permutation) -> "Arrangement":
        inv = p.inverse()
        return Arrangement(tuple(self.order[inv(i)] for i in range(self.n)))

    def labels(self, alphabet="abcdefgh"):
        return "".join(alphabet[i] for i in self.order)

    def __lt__(self, other):
        return self.order < other.order


def transition(a: Arrangement, b: Arrangement) -> Permutation:
    """The substitution carrying arrangement a to arrangement b."""
    pos_b = {v: i for i, v in enumerate(b.order)}
    # s(j) = position in b of the entry a has at position j; then s . a == b
    return Permutation(tuple(pos_b[a.order[j]] for j in range(a.n)))


class ArrangementGroup(Frozen):
    """A set of arrangements closed under its own transition substitutions;
    immutable.  ``rep``, the coset representative that built the block, is
    left out of equality and hashing.

    Transitions from the first row a suffice.  Arrangements of n letters
    form one free S_n-orbit, so each row b is g_b . a for one g_b, and the
    transition from b to c is g_c * g_b^-1.  T = {g_b}, the transitions
    from a, maps every row into the set iff T is closed under products, so
    iff T is a group, which then holds every g_c * g_b^-1.  So a set that is
    not closed has a witness from a, which the sweep over all triples tries
    first, and a closed set's substitutions are T."""

    __slots__ = ("rows", "rep")
    _compared = ("rows",)

    def __init__(self, rows: tuple, rep: Permutation | None = None):
        Record.__init__(self, tuple(sorted(rows)), rep)
        witness = self._closure_witness()
        if witness is not None:
            a, b, c = witness
            raise ValueError(
                "not closed: the substitution taking "
                f"{a.order} to {b.order} moves {c.order} outside the set"
            )

    def _closure_witness(self):
        row_set = set(self.rows)
        for a in self.rows[:1]:
            for b in self.rows:
                s = transition(a, b)
                for c in self.rows:
                    if c.act(s) not in row_set:
                        return (a, b, c)
        return None

    def __len__(self):
        return len(self.rows)


def substitution_group(ag: ArrangementGroup) -> PermGroup:
    """All transitions between rows: for a closed set, those from its first."""
    return PermGroup({transition(a, b) for a in ag.rows[:1] for b in ag.rows})


def arrangement_array(g: PermGroup, h: PermGroup, base: Arrangement):
    """The |g| arrangements {p . base} split into [g:h] coset blocks.

    Each block is {(rep * t) . base : t in h} for the lexicographically
    smallest representative rep of a left coset of h; blocks are sorted
    by representative, rows within a block lexicographically.
    """
    if not h.is_subgroup_of(g):
        raise ValueError("second group is not a subgroup of the first")
    if base.n != g.n:
        raise ValueError("arrangement degree mismatch")
    remaining = set(g.elements)
    blocks = []
    while remaining:
        rep = min(remaining)
        coset = [rep * t for t in h]
        for p in coset:
            remaining.remove(p)
        rows = tuple(base.act(p) for p in coset)
        blocks.append(ArrangementGroup(rows, rep=rep))
    return blocks
