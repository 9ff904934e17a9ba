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
        slot_map=(range(2, 3),),  # the x-class slot, but the copy needs the identity class
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
        certificate=(replace(first, slot_map=first.slot_map + (range(1, 2),)),) + spec.certificate[1:],
    )
    assert verify_hom_spec(widened) == Verdict(False, "slot_count")

    # claim unitality for a map that leaves a slot of the target uncovered
    partial = hom_realizable(R, S, map_new(G, G, [G.element([[1, 1]])]), unital=False)
    assert verify_hom_spec(partial)
    overclaimed = replace(partial, unital=True)
    assert verify_hom_spec(overclaimed) == Verdict(False, "unital_coverage")


def test_verify_hom_spec_rejects_slots_outside_the_component():
    # a one-slot copy into the 3-slot component M3(1, 1, x): slot -3 would
    # alias slot 0 by negative indexing, and slot 7 would index past the end
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    R = realize_simplicial(G, G.element([[1, 0]])).ring
    S = realize_simplicial(G, G.element([[2, 1]])).ring
    spec = hom_realizable(R, S, map_new(G, G, [G.element([[1, 0]])]), unital=False)
    assert spec.certificate[0].slot_map == (range(0, 1),)
    assert verify_hom_spec(spec)
    for slot_map in [(range(-3, -2),), (range(7, 8),), (range(3, 4),), (range(0, 2, 2),), (range(0, 1), range(2, 2))]:
        moved = replace(spec, certificate=(replace(spec.certificate[0], slot_map=slot_map),))
        assert verify_hom_spec(moved) == Verdict(False, "slot_range"), slot_map


def test_verify_hom_spec_rejects_indices_out_of_range():
    # one copy of M1(1) into M3(1, 1, x) over Z/2: one source component, one
    # target component and two twist cosets; a negative index would be read
    # from the end of its list, and one past the end would raise
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    R = realize_simplicial(G, G.element([[1, 0]])).ring
    S = realize_simplicial(G, G.element([[2, 1]])).ring
    spec = hom_realizable(R, S, map_new(G, G, [G.element([[1, 0]])]), unital=False)
    assert verify_hom_spec(spec)
    for field, value in [
        ("twist_coset", 5),
        ("source_component", 3),
        ("target_component", 4),
        ("target_component", -1),
        ("twist_coset", -1),
    ]:
        moved = replace(spec, certificate=(replace(spec.certificate[0], **{field: value}),))
        assert verify_hom_spec(moved) == Verdict(False, "index_range"), (field, value)


def test_verify_hom_spec_checks_each_range():
    # M2(1, 1) into M4(1, 1, 1, 1) and into M3(1, 1, x) along the identity class map
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    R = realize_simplicial(G, G.element([[2, 0]])).ring
    one = map_new(G, G, [G.element([[1, 0]])])
    wide = hom_realizable(R, realize_simplicial(G, G.element([[4, 0]])).ring, one, unital=False)
    assert wide.certificate[0].slot_map == (range(0, 2),)

    def with_slots(spec, *slot_map):
        return replace(spec, certificate=(replace(spec.certificate[0], slot_map=slot_map),))

    assert verify_hom_spec(with_slots(wide, range(3, 4), range(0, 1)))
    # one slot short of the source component
    assert verify_hom_spec(with_slots(wide, range(0, 1))) == Verdict(False, "slot_count")
    # two slots, but every other one: a range must have step 1
    assert verify_hom_spec(with_slots(wide, range(0, 4, 2))) == Verdict(False, "slot_range")
    # two ranges of one copy that overlap
    assert verify_hom_spec(with_slots(wide, range(1, 2), range(1, 2))) == Verdict(False, "reused_slot")
    narrow = hom_realizable(R, realize_simplicial(G, G.element([[2, 1]])).ring, one, unital=False)
    assert verify_hom_spec(narrow)
    # a range that runs from the identity-class slots into the x-class slot
    assert verify_hom_spec(with_slots(narrow, range(1, 3))) == Verdict(False, "class_mismatch")


def test_class_group_rank_ignores_matrix_sizes():
    # class data depends on components and shift cosets, never on entry counts
    Z2 = cyclic_group(2)
    space = coset_space(Z2, subgroup_closure(Z2, []))
    small = matricial_ring(space, [(1, [0]), (1, [1])])
    big = matricial_ring(space, [(4, [0, 0, 0, 0]), (2, [1, 1])])
    assert k0_of_matricial(small).group == k0_of_matricial(big).group
    assert k0_of_matricial(small).group.basis() == k0_of_matricial(big).group.basis()


def test_verify_hom_spec_reads_a_range_across_runs_of_one_class():
    # over D3 with D = <s>, the shifts 1 and s give slots of one class, so
    # one range may cover the runs of both
    d3 = dihedral_group(3)
    space = coset_space(d3, subgroup_closure(d3, [3]))
    R = matricial_ring(space, [(2, [0, 0])])
    S = matricial_ring(space, [(2, [0, 3])])
    G = k0_of_matricial(R).group
    assert k0_of_matricial(S) == k0_of_matricial(R)
    spec = hom_realizable(R, S, map_new(G, G, [G.basis_vector(0)]), unital=True)
    assert verify_hom_spec(spec)
    spanning = replace(spec, certificate=(replace(spec.certificate[0], slot_map=(range(0, 2),)),))
    assert verify_hom_spec(spanning)


def test_verify_hom_spec_reads_a_range_across_runs_of_two_classes():
    # M2(1, x) into itself over Z/2: one range may cover source runs of two
    # classes when the target slots it names carry the same two classes
    Z2 = cyclic_group(2)
    G = simplicial_over(Z2, [], 1)
    R = realize_simplicial(G, G.element([[1, 1]])).ring
    spec = hom_realizable(R, R, map_new(G, G, [G.basis_vector(0)]), unital=True)
    assert spec.certificate[0].slot_map == (range(0, 1), range(1, 2))
    spanning = replace(spec, certificate=(replace(spec.certificate[0], slot_map=(range(0, 2),)),))
    assert verify_hom_spec(spanning)
    swapped = replace(spec, certificate=(replace(spec.certificate[0], slot_map=(range(1, 2), range(0, 1))),))
    assert verify_hom_spec(swapped) == Verdict(False, "class_mismatch")
    # into M3(1, 1, x), the range 0..2 names two slots of the identity class
    wider = realize_simplicial(G, G.element([[2, 1]])).ring
    into = hom_realizable(R, wider, map_new(G, G, [G.basis_vector(0)]), unital=False)
    assert into.certificate[0].slot_map == (range(0, 1), range(2, 3))
    both = replace(into, certificate=(replace(into.certificate[0], slot_map=(range(0, 2),)),))
    assert verify_hom_spec(both) == Verdict(False, "class_mismatch")
