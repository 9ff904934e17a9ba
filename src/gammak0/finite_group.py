"""Finite groups given by multiplication tables, subgroups, and coset spaces.

Elements are integer indices 0..order-1.  Groups are stored extensionally
(full multiplication table), which keeps every question exhaustive and
decidable at the intended scale (order up to a few dozen).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import NoIdentity, NoInverse, NotAssociative


@dataclass(frozen=True)
class FiniteGroup:
    order: int
    mul: tuple[tuple[int, ...], ...]
    identity: int
    inv: tuple[int, ...]
    names: tuple[str, ...] | None = field(default=None, compare=False)

    def elements(self) -> range:
        return range(self.order)

    def conjugate(self, g: int, h: int) -> int:
        """g h g^{-1}."""
        return self.mul[self.mul[g][h]][self.inv[g]]

    def name_of(self, g: int) -> str:
        if self.names is not None:
            return self.names[g]
        return str(g)

    def is_abelian(self) -> bool:
        return all(
            self.mul[a][b] == self.mul[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


@dataclass(frozen=True)
class Subgroup:
    parent: FiniteGroup
    members: tuple[int, ...]  # sorted

    def __contains__(self, g: int) -> bool:
        return g in self.members

    @property
    def order(self) -> int:
        return len(self.members)

    def is_normal(self) -> bool:
        G = self.parent
        mem = set(self.members)
        return all(G.conjugate(g, h) in mem for g in G.elements() for h in self.members)

    def __repr__(self) -> str:
        return f"Subgroup({list(self.members)})"


@dataclass(frozen=True)
class CosetSpace:
    """Left cosets of a subgroup, with canonical representatives.

    Coset 0 is the subgroup itself with the identity as representative; the
    other cosets are ordered (and represented) by their smallest element, so
    every downstream construction is reproducible.  ``action[g][c]`` is the
    index of g * (coset c); over the trivial subgroup it is the group's own
    ``mul`` table.  It is derived from the other fields and so takes no part
    in equality or hashing.
    """

    parent: FiniteGroup
    sub: Subgroup
    reps: tuple[int, ...]
    elt_to_coset: tuple[int, ...]
    is_normal: bool
    action: tuple[tuple[int, ...], ...] = field(compare=False)

    @property
    def num_cosets(self) -> int:
        return len(self.reps)

    def act(self, g: int, coset: int) -> int:
        """Index of g * (coset)."""
        return self.action[g][coset]

    def __repr__(self) -> str:
        return f"CosetSpace(|G|={self.parent.order}, |D|={self.sub.order}, cosets={self.num_cosets})"


def _is_int(x) -> bool:
    """JSON integer check; ``bool`` is a subclass of ``int`` but not an integer here."""
    return isinstance(x, int) and not isinstance(x, bool)


def _all_ints(xs) -> bool:
    """``_is_int`` for every item, by one type-set test: ``type(True)`` is ``bool``."""
    return set(map(type, xs)) <= {int}


def _passes_light_test(mul: tuple[tuple[int, ...], ...], identity: int) -> bool:
    """Light's associativity test (Clifford and Preston, *The Algebraic Theory
    of Semigroups* I, 1961, section 1.2).

    The elements ``a`` with (x*a)*y == x*(a*y) for all x, y contain the
    identity and are closed under products, so the table is associative exactly
    when every element of a generating set passes.  Generators are chosen
    greedily: the smallest element that the identity cannot yet reach by right
    multiplication with the chosen ones.  On a group each one at least doubles
    the reached subgroup, so at most log2(n) generators are checked, each by n
    row comparisons.
    """
    n = len(mul)
    reached = [False] * n
    reached[identity] = True
    gens: list[int] = []
    while not all(reached):
        a = reached.index(False)
        through_a = itemgetter(*mul[a])  # row x -> the row of x*(a*y) over y
        for row in mul:
            if mul[row[a]] != through_a(row):
                return False
        gens.append(a)
        frontier = [x for x in range(n) if reached[x]]
        while frontier:
            row = mul[frontier.pop()]
            for b in gens:
                y = row[b]
                if not reached[y]:
                    reached[y] = True
                    frontier.append(y)
    return True


def group_from_table(
    table: Sequence[Sequence[int]], names: Sequence[str] | None = None
) -> FiniteGroup:
    """Validate a multiplication table and build the group.

    Raises NotAssociative / NoIdentity / NoInverse when the table fails the
    corresponding group axiom.  Associativity is decided by Light's test, in
    O(n^2 log n) on a group; only a table that fails it is scanned triple by
    triple, so the error names the lexicographically first bad triple.
    """
    n = len(table)
    if n == 0:
        raise ValueError("empty table")
    rows = []
    for row in table:
        if len(row) != n:
            raise ValueError("table is not square")
        r = tuple(row)
        if not _all_ints(r) or min(r) < 0 or max(r) >= n:
            for x in row:
                if not _is_int(x) or x < 0 or x >= n:
                    raise ValueError(f"table entry {x!r} out of range")
            r = tuple(int(x) for x in row)
        rows.append(r)
    mul = tuple(rows)
    identity_row = tuple(range(n))
    identity = None
    for e in range(n):
        if mul[e] == identity_row and all(row[e] == g for g, row in enumerate(mul)):
            identity = e
            break
    if identity is None:
        raise NoIdentity("table has no two-sided identity")
    inv = []
    for g in range(n):
        # the first right inverse is the answer whenever it is also a left one
        gi = mul[g].index(identity) if identity in mul[g] else None
        if gi is None or mul[gi][g] != identity:
            gi = next(
                (h for h in range(n) if mul[g][h] == identity and mul[h][g] == identity),
                None,
            )
        if gi is None:
            raise NoInverse(f"element {g} has no inverse")
        inv.append(gi)
    if not _passes_light_test(mul, identity):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
                        raise NotAssociative(f"({a}*{b})*{c} != {a}*({b}*{c})")
    name_tuple = tuple(str(s) for s in names) if names is not None else None
    if name_tuple is not None and len(name_tuple) != n:
        raise ValueError("names length does not match order")
    return FiniteGroup(order=n, mul=mul, identity=identity, inv=tuple(inv), names=name_tuple)


def subgroup_closure(group: FiniteGroup, gens: Iterable[int]) -> Subgroup:
    """Smallest subgroup containing ``gens``."""
    gen_list = list(gens)
    for g in gen_list:
        if g < 0 or g >= group.order:
            raise ValueError(f"generator {g} out of range")
    members = {group.identity}
    frontier = list(gen_list)
    members.update(frontier)
    while frontier:
        g = frontier.pop()
        for h in list(members):
            for prod in (group.mul[g][h], group.mul[h][g]):
                if prod not in members:
                    members.add(prod)
                    frontier.append(prod)
        gi = group.inv[g]
        if gi not in members:
            members.add(gi)
            frontier.append(gi)
    return Subgroup(parent=group, members=tuple(sorted(members)))


def coset_space(group: FiniteGroup, sub: Subgroup) -> CosetSpace:
    """Enumerate the left cosets of ``sub`` in ``group``."""
    if sub.parent != group:
        raise ValueError("subgroup belongs to a different group")
    mem = list(sub.members)
    elt_to_coset = [-1] * group.order
    reps = []

    def mark(rep: int) -> None:
        idx = len(reps)
        reps.append(rep)
        for h in mem:
            elt_to_coset[group.mul[rep][h]] = idx

    mark(group.identity)
    for g in range(group.order):
        if elt_to_coset[g] == -1:
            mark(g)  # g is the smallest unassigned element, hence the coset minimum
    assert len(reps) * sub.order == group.order, "Lagrange violated; subgroup not closed?"
    # D is normal iff each h in D fixes every coset: h*g lies in the coset of g
    coset_of = elt_to_coset.__getitem__
    normal = all(list(map(coset_of, group.mul[h])) == elt_to_coset for h in mem)
    if sub.order == 1 and group.identity == 0:  # coset c is element c: g acts by its row
        action = group.mul
    else:
        action = tuple(tuple([elt_to_coset[row[r]] for r in reps]) for row in group.mul)
    return CosetSpace(
        parent=group,
        sub=sub,
        reps=tuple(reps),
        elt_to_coset=tuple(elt_to_coset),
        is_normal=normal,
        action=action,
    )


def normal_closure(group: FiniteGroup, sub: Subgroup) -> Subgroup:
    """Smallest normal subgroup of ``group`` containing ``sub``."""
    conjugates = {
        group.conjugate(g, h) for g in group.elements() for h in sub.members
    }
    # a set closed under conjugation generates a normal subgroup
    return subgroup_closure(group, conjugates)


def trivial_subgroup(group: FiniteGroup) -> Subgroup:
    return Subgroup(parent=group, members=(group.identity,))


# -- standard small groups ---------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    """Cyclic group of order n, generator x, element i = x^i."""
    if n <= 0:
        raise ValueError("order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    names = ["1"] + [("x" if i == 1 else f"x{i}") for i in range(1, n)]
    return group_from_table(table, names=names)


def dihedral_group(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: a^i b^j with ba = a^{-1} b, index i + n*j."""
    if n <= 0:
        raise ValueError("n must be positive")

    def idx(i: int, j: int) -> int:
        return i % n + n * (j % 2)

    table = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(2):
            for k in range(n):
                for l in range(2):
                    sign = -1 if j == 1 else 1
                    table[idx(i, j)][idx(k, l)] = idx(i + sign * k, j + l)
    names = []
    for j in range(2):
        for i in range(n):
            rot = "" if i == 0 else ("a" if i == 1 else f"a{i}")
            ref = "b" if j == 1 else ""
            names.append((rot + ref) or "1")
    return group_from_table(table, names=names)


def direct_product(g1: FiniteGroup, g2: FiniteGroup) -> FiniteGroup:
    """Direct product with element (a, b) at index a * |G2| + b."""
    n1, n2 = g1.order, g2.order

    def idx(a: int, b: int) -> int:
        return a * n2 + b

    table = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1 in range(n1):
        for b1 in range(n2):
            for a2 in range(n1):
                for b2 in range(n2):
                    table[idx(a1, b1)][idx(a2, b2)] = idx(g1.mul[a1][a2], g2.mul[b1][b2])
    names = [
        f"({g1.name_of(a)},{g2.name_of(b)})" for a in range(n1) for b in range(n2)
    ]
    return group_from_table(table, names=names)


def klein_four_group() -> FiniteGroup:
    return direct_product(cyclic_group(2), cyclic_group(2))
