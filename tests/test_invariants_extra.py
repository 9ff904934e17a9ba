"""Cross-cutting invariants that tie the layers together."""

import random
from dataclasses import replace

from gammak0 import (
    CopyEmbedding,
    HomSpec,
    Verdict,
    coset_space,
    cyclic_group,
    dihedral_group,
    hom_realizable,
    is_order_unit,
    k0_of_matricial,
    map_new,
    matricial_ring,
    realize_simplicial,
    subgroup_closure,
    verify_hom_spec,
)
from conftest import simplicial_over, small_groups


def test_sum_of_basis_is_order_unit():
    rng = random.Random(131)
    for g in small_groups():
        G = simplicial_over(g, [rng.randrange(g.order)], rng.randint(1, 4))
        u = G.zero()
        for e in G.basis():
            u = u + e
        assert is_order_unit(G, u)
        realized = realize_simplicial(G, u)
        assert all(c.size == 1 for c in realized.ring.components)


def test_single_shift_class_is_inverted_coset():
    d3 = dihedral_group(3)
    space = coset_space(d3, subgroup_closure(d3, [3]))
    for gamma in d3.elements():
        ring = matricial_ring(space, [(1, [gamma])])
        k0 = k0_of_matricial(ring)
        expected = [0] * space.num_cosets
        expected[space.elt_to_coset[d3.inv[gamma]]] = 1
        assert k0 == k0.group.element([expected])


def test_verify_hom_spec_rejects_tampering():
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    R = realize_simplicial(G, G.element([[1, 0]])).ring
    S = realize_simplicial(G, G.element([[2, 1]])).ring
    B = map_new(G, G, [G.element([[2, 1]])])
    spec = hom_realizable(R, S, B, unital=True)
    assert verify_hom_spec(spec) == Verdict(True)

    # send a copy to a slot of the wrong class
    bad_cert = list(spec.certificate)
    first = bad_cert[0]
    bad_cert[0] = CopyEmbedding(
        target_component=first.target_component,
        source_component=first.source_component,
        twist_coset=first.twist_coset,
        slot_map=(2,),  # the x-class slot, but the copy needs the identity class
    )
    tampered = HomSpec(
        source=spec.source,
        target=spec.target,
        matrix=spec.matrix,
        unital=spec.unital,
        certificate=tuple(bad_cert),
    )
    assert verify_hom_spec(tampered) == Verdict(False, "class_mismatch")

    # drop a copy: the matrix coverage check fails
    dropped = HomSpec(
        source=spec.source,
        target=spec.target,
        matrix=spec.matrix,
        unital=False,
        certificate=spec.certificate[1:],
    )
    assert verify_hom_spec(dropped) == Verdict(False, "matrix_coverage")

    # duplicate a slot: injectivity fails
    doubled = HomSpec(
        source=spec.source,
        target=spec.target,
        matrix=spec.matrix,
        unital=spec.unital,
        certificate=(spec.certificate[0],) + spec.certificate[:2],
    )
    assert verify_hom_spec(doubled) == Verdict(False, "reused_slot")

    # give a copy one slot too many for its component
    widened = HomSpec(
        source=spec.source,
        target=spec.target,
        matrix=spec.matrix,
        unital=spec.unital,
        certificate=(replace(first, slot_map=first.slot_map + (1,)),) + spec.certificate[1:],
    )
    assert verify_hom_spec(widened) == Verdict(False, "slot_count")

    # claim unitality for a map that leaves a slot of the target uncovered
    partial = hom_realizable(R, S, map_new(G, G, [G.element([[1, 1]])]), unital=False)
    assert verify_hom_spec(partial)
    overclaimed = replace(partial, unital=True)
    assert verify_hom_spec(overclaimed) == Verdict(False, "unital_coverage")


def test_class_group_rank_ignores_matrix_sizes():
    # class data depends on components and shift cosets, never on entry counts
    Z2 = cyclic_group(2)
    space = coset_space(Z2, subgroup_closure(Z2, []))
    small = matricial_ring(space, [(1, [0]), (1, [1])])
    big = matricial_ring(space, [(4, [0, 0, 0, 0]), (2, [1, 1])])
    assert k0_of_matricial(small).group == k0_of_matricial(big).group
    assert k0_of_matricial(small).group.basis() == k0_of_matricial(big).group.basis()
