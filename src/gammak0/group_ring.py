"""Integral group rings, coset permutation modules, and the projection between them.

``GroupRingElt`` is a sparse integer combination of group elements;
``CosetVector`` is a dense integer vector indexed by the left cosets of a
fixed subgroup.  ``project_pi`` sums coefficients coset-wise; it is the left
module map that everything else in the engine is built on.  All coefficients
are exact Python ints.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import GroupMismatch
from .finite_group import CosetSpace, FiniteGroup


class GroupRingElt:
    """Sparse element of the integral group ring of a finite group."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: FiniteGroup, coeffs: Mapping[int, int] | Iterable[tuple[int, int]]):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        data: dict[int, int] = {}
        for g, k in items:
            if g < 0 or g >= group.order:
                raise ValueError(f"element index {g} out of range")
            k = int(k)
            if k:
                data[g] = data.get(g, 0) + k
                if data[g] == 0:
                    del data[g]
        self.group = group
        self.coeffs = data

    # -- construction helpers --

    @staticmethod
    def zero(group: FiniteGroup) -> "GroupRingElt":
        return GroupRingElt(group, {})

    @staticmethod
    def one(group: FiniteGroup) -> "GroupRingElt":
        return GroupRingElt(group, {group.identity: 1})

    @staticmethod
    def basis(group: FiniteGroup, g: int) -> "GroupRingElt":
        return GroupRingElt(group, {g: 1})

    # -- queries --

    def coeff(self, g: int) -> int:
        return self.coeffs.get(g, 0)

    def items(self) -> list[tuple[int, int]]:
        return sorted(self.coeffs.items())

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_positive(self) -> bool:
        return all(k >= 0 for k in self.coeffs.values())

    def mass(self) -> int:
        return sum(self.coeffs.values())

    def max_abs_coeff(self) -> int:
        return max((abs(k) for k in self.coeffs.values()), default=0)

    def positive_part(self) -> "GroupRingElt":
        return GroupRingElt(self.group, {g: k for g, k in self.coeffs.items() if k > 0})

    def negative_part(self) -> "GroupRingElt":
        return GroupRingElt(self.group, {g: -k for g, k in self.coeffs.items() if k < 0})

    # -- arithmetic --

    def _check(self, other: "GroupRingElt") -> None:
        if self.group != other.group:
            raise GroupMismatch("elements of different group rings")

    def __add__(self, other: "GroupRingElt") -> "GroupRingElt":
        self._check(other)
        data = dict(self.coeffs)
        for g, k in other.coeffs.items():
            data[g] = data.get(g, 0) + k
        return GroupRingElt(self.group, data)

    def __sub__(self, other: "GroupRingElt") -> "GroupRingElt":
        self._check(other)
        data = dict(self.coeffs)
        for g, k in other.coeffs.items():
            data[g] = data.get(g, 0) - k
        return GroupRingElt(self.group, data)

    def __neg__(self) -> "GroupRingElt":
        return GroupRingElt(self.group, {g: -k for g, k in self.coeffs.items()})

    def scale(self, k: int) -> "GroupRingElt":
        return GroupRingElt(self.group, {g: k * v for g, v in self.coeffs.items()})

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
            return GroupRingElt(self.group, data)
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


class CosetVector:
    """Integer vector indexed by the left cosets of a coset space."""

    __slots__ = ("space", "coeffs")

    def __init__(self, space: CosetSpace, coeffs: Iterable[int]):
        vals = tuple(int(c) for c in coeffs)
        if len(vals) != space.num_cosets:
            raise ValueError("coefficient length does not match number of cosets")
        self.space = space
        self.coeffs = vals

    @staticmethod
    def zero(space: CosetSpace) -> "CosetVector":
        return CosetVector(space, (0,) * space.num_cosets)

    @staticmethod
    def basis(space: CosetSpace, coset: int) -> "CosetVector":
        if coset < 0 or coset >= space.num_cosets:
            raise ValueError("coset index out of range")
        return CosetVector(space, tuple(1 if c == coset else 0 for c in range(space.num_cosets)))

    def _check(self, other: "CosetVector") -> None:
        if self.space != other.space:
            raise GroupMismatch("vectors over different coset spaces")

    def __add__(self, other: "CosetVector") -> "CosetVector":
        self._check(other)
        return CosetVector(self.space, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CosetVector") -> "CosetVector":
        self._check(other)
        return CosetVector(self.space, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CosetVector":
        return CosetVector(self.space, tuple(-a for a in self.coeffs))

    def scale(self, k: int) -> "CosetVector":
        return CosetVector(self.space, tuple(k * a for a in self.coeffs))

    def translate(self, g: int) -> "CosetVector":
        """Image under the action of the single group element g."""
        out = [0] * self.space.num_cosets
        row = self.space.action[g]
        for c, k in enumerate(self.coeffs):
            if k:
                out[row[c]] += k
        return CosetVector(self.space, out)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        if isinstance(other, GroupRingElt):
            return act(other, self)
        return NotImplemented

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coeffs)

    def is_positive(self) -> bool:
        return all(a >= 0 for a in self.coeffs)

    def mass(self) -> int:
        return sum(self.coeffs)

    def max_abs_coeff(self) -> int:
        return max((abs(a) for a in self.coeffs), default=0)

    def positive_part(self) -> "CosetVector":
        return CosetVector(self.space, tuple(max(a, 0) for a in self.coeffs))

    def negative_part(self) -> "CosetVector":
        return CosetVector(self.space, tuple(max(-a, 0) for a in self.coeffs))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CosetVector)
            and self.space == other.space
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"CosetVector{self.coeffs}"


def project_pi(a: GroupRingElt, space: CosetSpace) -> CosetVector:
    """Coset-wise coefficient sums; the natural left module projection."""
    if a.group != space.parent:
        raise GroupMismatch("element and coset space over different groups")
    out = [0] * space.num_cosets
    for g, k in a.coeffs.items():
        out[space.elt_to_coset[g]] += k
    return CosetVector(space, out)


def act(a: GroupRingElt, v: CosetVector) -> CosetVector:
    """Left action of a group-ring element on a coset vector."""
    if a.group != v.space.parent:
        raise GroupMismatch("element and vector over different groups")
    out = [0] * v.space.num_cosets
    for g, k in a.coeffs.items():
        row = v.space.action[g]
        for c, vc in enumerate(v.coeffs):
            if vc:
                out[row[c]] += k * vc
    return CosetVector(v.space, out)


def lift_vector(v: CosetVector) -> GroupRingElt:
    """Canonical lift: each coset coefficient placed on the canonical representative."""
    space = v.space
    return GroupRingElt(
        space.parent, {space.reps[c]: k for c, k in enumerate(v.coeffs) if k}
    )
