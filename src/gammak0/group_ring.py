"""Integral group rings and the projection onto a coset permutation module.

``GroupRingElt`` is a sparse integer combination of group elements.  An
element of the coset module Z[G/H] is a plain tuple of integers indexed by
the left cosets of H; as a module it is the rank-1 ``SimplicialGroup`` over
the coset space, which carries its arithmetic and group-ring action.
The projection pi: Z[G] -> Z[G/H] sums coefficients coset-wise; it is the
left module map that everything else in the engine is built on, and
``lift_vector`` is its canonical section.  The engine only ever projects
products, so ``_add_projected_product`` adds pi(a*b) into a coset list term
by term without building a*b.  All coefficients are exact Python ints.

``serialize.ring_elt_from_json`` validates input from outside the engine;
it and the engine's own arithmetic build through the trusted
``GroupRingElt._of``, which only drops zero coefficients.  The public
``GroupRingElt(group, coeffs)`` takes a mapping and checks its element
indices.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from .errors import GroupMismatch
from .finite_group import CosetSpace, FiniteGroup


class GroupRingElt:
    """Sparse element of the integral group ring of a finite group."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteGroup, coeffs: Mapping[int, int]):
        for g in coeffs:
            if g < 0 or g >= group.order:
                raise ValueError(f"element index {g} out of range")
        self.group = group
        self.coeffs = {g: int(k) for g, k in coeffs.items() if int(k)}

    @classmethod
    def _of(cls, group: FiniteGroup, data: dict[int, int]) -> "GroupRingElt":
        """Trusted constructor for the engine's own results: ``data`` maps
        element indices in range to ints; zero coefficients are dropped and
        nothing else is checked."""
        self = object.__new__(cls)
        self.group = group
        self.coeffs = {g: k for g, k in data.items() if k}
        return self

    # -- construction helpers --

    @staticmethod
    def zero(group: FiniteGroup) -> "GroupRingElt":
        return GroupRingElt._of(group, {})

    @staticmethod
    def one(group: FiniteGroup) -> "GroupRingElt":
        return GroupRingElt._of(group, {group.identity: 1})

    @staticmethod
    def basis(group: FiniteGroup, g: int) -> "GroupRingElt":
        return GroupRingElt._of(group, {g: 1})

    # -- queries --

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.coeffs.items())

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_positive(self) -> bool:
        return all(k >= 0 for k in self.coeffs.values())

    def max_abs_coeff(self) -> int:
        return max((abs(k) for k in self.coeffs.values()), default=0)

    # -- arithmetic --

    def _check(self, other: "GroupRingElt") -> None:
        if self.group != other.group:
            raise GroupMismatch("elements of different group rings")

    def __add__(self, other: "GroupRingElt") -> "GroupRingElt":
        self._check(other)
        data = dict(self.coeffs)
        for g, k in other.coeffs.items():
            data[g] = data.get(g, 0) + k
        return GroupRingElt._of(self.group, data)

    def __sub__(self, other: "GroupRingElt") -> "GroupRingElt":
        self._check(other)
        data = dict(self.coeffs)
        for g, k in other.coeffs.items():
            data[g] = data.get(g, 0) - k
        return GroupRingElt._of(self.group, data)

    def __neg__(self) -> "GroupRingElt":
        return GroupRingElt._of(self.group, {g: -k for g, k in self.coeffs.items()})

    def scale(self, k: int) -> "GroupRingElt":
        return GroupRingElt._of(self.group, {g: k * v for g, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, GroupRingElt):
            self._check(other)
            mul = self.group.mul
            data: dict[int, int] = {}
            for g, kg in self.coeffs.items():
                row = mul[g]
                for h, kh in other.coeffs.items():
                    p = row[h]
                    data[p] = data.get(p, 0) + kg * kh
            return GroupRingElt._of(self.group, data)
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupRingElt)
            and self.group == other.group
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.group.order, tuple(self.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for g, k in self.items():
            name = self.group.name_of(g)
            if k == 1:
                terms.append(name)
            elif k == -1:
                terms.append(f"-{name}")
            else:
                terms.append(f"{k}*{name}")
        return " + ".join(terms).replace("+ -", "- ")


def _add_projected_product(out: list[int], a: GroupRingElt, b: GroupRingElt, space: CosetSpace) -> None:
    """out += pi(a*b), the coset-wise sums of a*b, without building a*b."""
    if a.group != space.parent or b.group != space.parent:
        raise GroupMismatch("elements and coset space over different groups")
    mul = space.parent.mul
    elt_to_coset = space.elt_to_coset
    b_terms = b.coeffs.items()
    for g, kg in a.coeffs.items():
        row = mul[g]
        for h, kh in b_terms:
            out[elt_to_coset[row[h]]] += kg * kh


def lift_vector(space: CosetSpace, coeffs: Sequence[int]) -> GroupRingElt:
    """Canonical lift: each coset coefficient placed on the canonical representative."""
    return GroupRingElt._of(space.parent, dict(zip(space.reps, coeffs)))
