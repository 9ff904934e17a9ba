"""Plain-integer group theory for the benchmark's generator and oracle.

Nothing here imports ``gammak0``: groups are multiplication tables (lists of
lists of ints, identity at index 0), group-ring elements are ``{element:
coefficient}`` dicts, coset vectors are lists of ints in the engine's
canonical coset order, and module elements are lists of coset vectors.
Expected answers are computed with these, so a defect in the engine cannot
hide by agreeing with itself.
"""

from __future__ import annotations


class Group:
    """A finite group by its table; element 0 is the identity."""

    def __init__(self, name: str, mul: list[list[int]]):
        n = len(mul)
        self.name = name
        self.order = n
        self.mul = mul
        self.inv = [next(h for h in range(n) if mul[g][h] == 0) for g in range(n)]

    def table_json(self) -> dict:
        return {"order": self.order, "mul": self.mul}


def cyclic(n: int) -> Group:
    return Group(f"C{n}", [[(i + j) % n for j in range(n)] for i in range(n)])


def dihedral(n: int) -> Group:
    """Order 2n: element i + n*j is a^i b^j with b a = a^-1 b."""
    mul = [[0] * (2 * n) for _ in range(2 * n)]
    for i in range(n):
        for j in range(2):
            for k in range(n):
                for l in range(2):
                    sign = -1 if j else 1
                    mul[i + n * j][k + n * l] = (i + sign * k) % n + n * ((j + l) % 2)
    return Group(f"D{n}", mul)


def product(a: Group, b: Group) -> Group:
    n2 = b.order
    size = a.order * n2
    mul = [[0] * size for _ in range(size)]
    for x1 in range(a.order):
        for y1 in range(n2):
            row = mul[x1 * n2 + y1]
            for x2 in range(a.order):
                for y2 in range(n2):
                    row[x2 * n2 + y2] = a.mul[x1][x2] * n2 + b.mul[y1][y2]
    return Group(f"{a.name}x{b.name}", mul)


def permutation_group(name: str, degree: int, gens: list[tuple[int, ...]]) -> Group:
    """Group generated by permutations, elements sorted with the identity first."""
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    while frontier:
        p = frontier.pop()
        for s in gens:
            q = tuple(p[s[i]] for i in range(degree))
            if q not in elems:
                elems.add(q)
                frontier.append(q)
    ordered = sorted(elems)  # the identity is the smallest tuple
    index = {p: i for i, p in enumerate(ordered)}
    mul = [[index[tuple(p[q[i]] for i in range(degree))] for q in ordered] for p in ordered]
    return Group(name, mul)


def symmetric(n: int) -> Group:
    swap = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    return permutation_group(f"S{n}", n, [swap, cycle])


def alternating4() -> Group:
    return permutation_group("A4", 4, [(1, 2, 0, 3), (0, 2, 3, 1)])


def quaternion() -> Group:
    """Q8 as 2x2 matrices over Z/3 generated by i and j, identity first."""
    def mm(x, y):
        return tuple(
            tuple(sum(x[r][k] * y[k][c] for k in range(2)) % 3 for c in range(2))
            for r in range(2)
        )

    one = ((1, 0), (0, 1))
    gi = ((0, 2), (1, 0))
    gj = ((1, 1), (1, 2))
    elems = [one]
    frontier = [one]
    while frontier:
        p = frontier.pop()
        for s in (gi, gj):
            q = mm(p, s)
            if q not in elems:
                elems.append(q)
                frontier.append(q)
    index = {p: i for i, p in enumerate(elems)}
    return Group("Q8", [[index[mm(p, q)] for q in elems] for p in elems])


# -- subgroups and cosets --------------------------------------------------------


def closure(G: Group, gens) -> list[int]:
    """Sorted members of the subgroup generated by ``gens``."""
    members = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        g = frontier.pop()
        for s in gens:
            h = G.mul[g][s]
            if h not in members:
                members.add(h)
                frontier.append(h)
    return sorted(members)


def is_normal(G: Group, members: list[int]) -> bool:
    mem = set(members)
    return all(G.mul[G.mul[g][h]][G.inv[g]] in mem for g in range(G.order) for h in members)


def normal_closure(G: Group, gens) -> list[int]:
    conj = {G.mul[G.mul[g][h]][G.inv[g]] for g in range(G.order) for h in gens}
    return closure(G, conj)


def normal_subgroups(G: Group) -> list[list[int]]:
    """Normal subgroups generated by at most two conjugacy classes, sorted."""
    singles = {tuple(normal_closure(G, [g])) for g in range(G.order)}
    found = set(singles)
    single_list = sorted(singles)
    for i, a in enumerate(single_list):
        for b in single_list[i + 1:]:
            found.add(tuple(closure(G, set(a) | set(b))))
    return [list(s) for s in sorted(found, key=lambda s: (len(s), s))]


class Cosets:
    """Left cosets gD in the engine's canonical order.

    Coset 0 is D itself; the others are numbered by increasing smallest
    element, which is also their representative.
    """

    def __init__(self, G: Group, sub: list[int]):
        self.G = G
        self.sub = list(sub)
        of = [-1] * G.order
        reps: list[int] = []
        for g in [0] + list(range(G.order)):
            if of[g] == -1:
                for h in self.sub:
                    of[G.mul[g][h]] = len(reps)
                reps.append(g)
        self.reps = reps
        self.of = of
        self.n = len(reps)
        # act[g][c]: index of the coset g * rep_c
        self.act = [[of[G.mul[g][r]] for r in reps] for g in range(G.order)]


def translate(C: Cosets, g: int, v: list[int]) -> list[int]:
    out = [0] * C.n
    row = C.act[g]
    for c, k in enumerate(v):
        if k:
            out[row[c]] += k
    return out


def ring_act(C: Cosets, a: dict[int, int], v: list[int]) -> list[int]:
    """Left action of a group-ring element on a coset vector."""
    out = [0] * C.n
    for g, k in a.items():
        row = C.act[g]
        for c, vc in enumerate(v):
            if vc:
                out[row[c]] += k * vc
    return out


def ring_mul(G: Group, a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for g, x in a.items():
        row = G.mul[g]
        for h, y in b.items():
            p = row[h]
            out[p] = out.get(p, 0) + x * y
    return {g: k for g, k in out.items() if k}


def project(C: Cosets, a: dict[int, int]) -> list[int]:
    out = [0] * C.n
    for g, k in a.items():
        out[C.of[g]] += k
    return out


def lift(C: Cosets, v: list[int]) -> dict[int, int]:
    return {C.reps[c]: k for c, k in enumerate(v) if k}


def vec_add(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    return [[a + b for a, b in zip(r, s)] for r, s in zip(x, y)]


def vec_sub(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    return [[a - b for a, b in zip(r, s)] for r, s in zip(x, y)]


def ring_act_vec(C: Cosets, a: dict[int, int], x: list[list[int]]) -> list[list[int]]:
    return [ring_act(C, a, r) for r in x]


def is_nonneg(x) -> bool:
    return all(k >= 0 for row in x for k in row)


def flatten(x: list[list[int]]) -> list[int]:
    return [k for row in x for k in row]


def zero_vec(rank: int, n: int) -> list[list[int]]:
    return [[0] * n for _ in range(rank)]


# -- equivariant maps as integer matrices -------------------------------------------


def map_matrix(C: Cosets, columns: list[list[list[int]]], tgt_rank: int) -> list[list[int]]:
    """Flattened matrix (target dim x source dim) of the map with these columns."""
    cols = []
    for col in columns:
        for r in C.reps:
            cols.append(flatten([translate(C, r, row) for row in col]))
    height = tgt_rank * C.n
    return [[c[i] for c in cols] for i in range(height)]


def mat_vec(m: list[list[int]], v: list[int]) -> list[int]:
    return [sum(a * b for a, b in zip(row, v) if a) for row in m]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    bt = list(zip(*b)) if b else []
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def unflatten(flat: list[int], n: int) -> list[list[int]]:
    return [list(flat[i:i + n]) for i in range(0, len(flat), n)]


def rank_q(m: list[list[int]]) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in m if any(r)]
    if not a:
        return 0
    rows, cols = len(a), len(a[0])
    r = 0
    prev = 1
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        for i in range(r + 1, rows):
            f = a[i][c]
            a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], a[r])]
        prev = p
        r += 1
        if r == rows:
            break
    return r
