"""Every brute-force reference the test suite compares the library against.

An oracle recomputes a result the slow, obvious way.  It reads only the
public API, the group's ``_mul``/``_inv`` tables and the F2 matrix helpers
below (bit tuples, entry by entry), never the kernel it checks.  The one
exception is ``coset_marking_walk``: its test compares the sequence of
``_extend`` calls, so it extends through ``_extend``, which
``test_coset_walk_matches_squaring_oracle`` checks on its own against
``squaring_closure``.
"""

from itertools import product


# -- groups ---------------------------------------------------------------


def _mat_mul(a, b):
    size = len(a)
    return tuple(
        tuple(sum(a[i][t] & b[t][j] for t in range(size)) & 1 for j in range(size))
        for i in range(size)
    )


def _mat_identity(size):
    return tuple(tuple(1 if i == j else 0 for j in range(size)) for i in range(size))


def _mat_apply(mat, vec):
    return tuple(sum(row[c] & vec[c] for c in range(len(vec))) & 1 for row in mat)


def tuple_oracle(group):
    """The group from its spec on bit tuples: coordinates, their index, Phi_q.

    Element i is the i-th bit string (n, q) in lexicographic order, and
    Phi_q is the product of the action matrices that q selects.
    """
    spec = group.spec
    k, m = spec.n_rank, spec.q_rank
    coords = [(bits[:k], bits[k:]) for bits in product((0, 1), repeat=k + m)]
    index = {c: i for i, c in enumerate(coords)}
    phi = {}
    for qvec in product((0, 1), repeat=m):
        mat = _mat_identity(k)
        for j, bit in enumerate(qvec):
            if bit:
                mat = _mat_mul(mat, spec.action[j])
        phi[qvec] = mat
    return coords, index, phi


def first_spec_refusal(action):
    """The refusal a spec with these bit-tuple action matrices must raise,
    or None: the first matrix that is not an involution, else the first pair
    (i, j), i < j in row-major order, whose matrix products differ."""
    k = len(action[0])
    for j, mat in enumerate(action):
        if _mat_mul(mat, mat) != _mat_identity(k):
            return f"action matrix {j} is not an involution"
    for i, a in enumerate(action):
        for j in range(i + 1, len(action)):
            if _mat_mul(a, action[j]) != _mat_mul(action[j], a):
                return f"action matrices {i} and {j} do not commute"
    return None


def index_bits_word(group, i):
    """The word of index i built from its bits: the names of the basis
    elements (the later of two names wins), or (n-bits|q-bits) when one of
    them has no name."""
    k, m = group.spec.n_rank, group.spec.q_rank
    bits = format(i, f"0{k + m}b")
    by_coord = {coord: name for name, coord in group.spec.generator_names}
    names = [by_coord.get((u[:k], u[k:])) for u in _mat_identity(k + m)]
    if i == 0:
        return "1"
    if None in names:
        return f"({bits[:k]}|{bits[k:]})"
    return "*".join(name for name, bit in zip(names, bits) if bit == "1")


def conjugacy_partition(group):
    """The conjugacy classes as index sets: {g x g^-1 : g in G} for each x."""
    elements = group.elements
    return {frozenset((g * x * g.inverse()).index for g in elements) for x in elements}


def squaring_closure(group, seed):
    """Reference closure: multiply the set by itself until it is stable."""
    s = {0} | set(seed)
    while True:
        new = {group._mul[a][b] for a in s for b in s}
        if new <= s:
            return frozenset(s)
        s |= new


def squaring_walk(group, steps):
    """Subgroup -> labels of the steps that first reach it, breadth first.

    From the trivial subgroup, each subgroup s is closed up with the set of
    each (label, set) step in turn by ``squaring_closure``.
    """
    witness = {frozenset({0}): ()}
    frontier = list(witness)
    while frontier:
        nxt = []
        for s in frontier:
            for label, step in steps:
                c = squaring_closure(group, s | step)
                if c not in witness:
                    witness[c] = witness[s] + (label,)
                    nxt.append(c)
        frontier = nxt
    return witness


def coset_marking_walk(group):
    """The lattice walk of ``_lattice``, finding least coset elements by marking.

    Each s is offered every x in index order; x is least in its right coset
    s*x iff no earlier x marked it, and then the whole coset is marked.
    """
    mul = group._mul
    trivial = frozenset({0})
    witness = {trivial: ()}
    frontier = [trivial]
    while frontier:
        nxt = []
        for s in frontier:
            base = witness[s]
            rows = [mul[h] for h in s]
            tried = set(s)
            for x in range(1, group.order):
                if x in tried:
                    continue
                tried.update([r[x] for r in rows])
                if not base or x > base[-1]:
                    c = group._extend(s, rows, base + (x,))
                    if c not in witness:
                        witness[c] = base + (x,)
                        nxt.append(c)
        frontier = nxt
    return sorted(witness.items(), key=lambda p: (len(p[0]), sorted(p[0])))


# -- characters -----------------------------------------------------------


def abelianization_order(group):
    """|G:G'| with G' closed from all commutators a^-1 b^-1 a b."""
    elems = group.elements
    commutators = {a.inverse() * b.inverse() * a * b for a in elems for b in elems}
    return group.order // group.subgroup_closure(commutators).order


def gram_oracle(vectors, weights, diagonal):
    """Reference: every Gram entry summed on its own."""
    return all(
        sum(map(lambda w, a, b: w * a * b, weights, u, v)) == (d if i == j else 0)
        for i, (u, d) in enumerate(zip(vectors, diagonal))
        for j, v in enumerate(vectors)
    )


def orthogonality_oracle(rows, sizes, order):
    """Reference: both orthogonality relations of a table with a row per
    character and a column per class, each Gram entry summed on its own."""
    columns = [[row[c] for row in rows] for c in range(len(sizes))]
    return gram_oracle(rows, sizes, [order] * len(rows)) and gram_oracle(
        columns, [1] * len(rows), [order // s for s in sizes]
    )


# -- ramification ---------------------------------------------------------


def right_coset_sets(group, sub_elements):
    """The right cosets Hx of the subgroup H with elements ``sub_elements``,
    each a set of elements."""
    return {frozenset(h * x for h in sub_elements) for x in group.elements}


def _cyclic(group, t):
    return group.subgroup_closure([t]).elements


def _act(point, h):
    return frozenset(y * h for y in point)


def fixed_point_oracle(system):
    """The fixed points of each element, by index: the right cosets <t_i>x,
    over every entry t_i, that right multiplication by it maps onto themselves."""
    group = system.group
    points = [p for t in system.entries for p in right_coset_sets(group, _cyclic(group, t))]
    return [sum(_act(p, g) == p for p in points) for g in group.elements]


def quotient_genus_oracle(system, sub):
    """g(C/H) by Riemann-Hurwitz for the cover C/H -> C/G of the projective line.

    The cover has degree [G:H].  Over the i-th branch point its points are
    the orbits of <t_i> acting by right multiplication on the right cosets
    Hx, held as element sets, and an orbit of length l ramifies with index
    l, so 2g - 2 = -2[G:H] + sum over i of ([G:H] - number of orbits).
    """
    points = right_coset_sets(system.group, sub.elements)
    degree = len(points)
    ramification = 0
    for t in system.entries:
        orbits, seen = 0, set()
        for point in points:
            orbits += point not in seen
            while point not in seen:
                seen.add(point)
                point = _act(point, t)
        ramification += degree - orbits
    genus, odd = divmod(2 - 2 * degree + ramification, 2)
    assert not odd
    return genus


def fiber_orbits_oracle(system, branch_index, sub):
    """(fiber size, sorted (orbit size, stabilizer order)) on coset objects.

    Fiber points are the right cosets <t>x as sets of group elements; H
    acts by right multiplication, and a stabilizer is counted directly as
    the elements of H mapping the coset onto itself.
    """
    group = system.group
    points = right_coset_sets(group, _cyclic(group, system.entries[branch_index - 1]))
    hs = sub.elements
    orbits = []
    remaining = set(points)
    while remaining:
        start = remaining.pop()
        orbit = {start}
        frontier = [start]
        while frontier:
            point = frontier.pop()
            for h in hs:
                image = _act(point, h)
                if image not in orbit:
                    orbit.add(image)
                    frontier.append(image)
        remaining -= orbit
        stab = sum(1 for h in hs if _act(start, h) == start)
        orbits.append((len(orbit), stab))
    return len(points), tuple(sorted(orbits))


# -- twist search on the reference grid -------------------------------------
#
# Plain integer arithmetic straight from the fixture matrix, sharing no
# scalar or class-function code with the library.


def _fixture_grid(ref):
    rows = [list(map(int, row)) for row in ref.matrix]
    return rows, list(ref.class_sizes)


def _ip(f, h, sizes):
    order = sum(sizes)
    total = sum(sz * a * b for sz, a, b in zip(sizes, f, h))
    assert total % order == 0
    return total // order


def _add(*fs):
    return [sum(vals) for vals in zip(*fs)]


def _mul(f, h):
    return [a * b for a, b in zip(f, h)]


def _oracle_search(ref, kc_rows, kd_rows):
    """(a, b) -> (admissible twists, Euler characteristics, dimensions).

    Rows are numbered from 1 in the fixture's order; ``kc_rows`` and
    ``kd_rows`` are the rows of the two canonical characters.
    """
    rows, sizes = _fixture_grid(ref)
    triv = rows[0]
    deg1 = [r for r in range(len(rows)) if rows[r][0] == 1]
    deg2 = [r for r in range(len(rows)) if rows[r][0] == 2]
    kc = _add(*(rows[r - 1] for r in kc_rows))
    kd = _add(*(rows[r - 1] for r in kd_rows))
    kd_linear = [0] * len(rows)
    for r in deg1:
        m = _ip(kd, rows[r], sizes)
        kd_linear = _add(kd_linear, [m * v for v in rows[r]])
    results = {}
    for a in deg2:
        for b in deg2:
            d0 = _add(triv, rows[a])
            d1 = _add(kd_linear, rows[b])
            admissible = set()
            eulers = {}
            dims = {}
            for t in deg1:
                twist = rows[t]
                h0 = _ip(_mul(_mul(triv, d0), twist), triv, sizes)
                h1 = _ip(_mul(_add(_mul(triv, d1), _mul(kc, d0)), twist), triv, sizes)
                h2 = _ip(_mul(_mul(kc, d1), twist), triv, sizes)
                if h0 == 0 and h2 == 0:
                    admissible.add(t + 1)
                eulers[t + 1] = h0 - h1 + h2
                dims[t + 1] = (h0, h1, h2)
            results[(a + 1, b + 1)] = (admissible, eulers, dims)
    return results
