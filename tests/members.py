"""Every family member the test suite builds, and the pieces they are built from.

A member N x| Q (N = F2^k, Q = F2^m) has one action matrix per basis vector
of Q, each B (I + sum E_rc) B^-1 for a basis change B of N.  Tests pin the
generator names too: goldens and lattice witnesses spell words in them.
"""

import random
from functools import partial, reduce
from operator import mul
from string import ascii_lowercase

from qslab.groups import GroupSpec, build_group
from qslab.ramification import validate_spherical

from oracles import _mat_identity, _mat_mul


def unit_plus(k, cells):
    """I + the sum of E_rc over the (r, c) in ``cells``, a k x k matrix over F2."""
    return tuple(tuple(int(r == c or (r, c) in cells) for c in range(k)) for r in range(k))


def unit_coords(k, m):
    """The (n, q) coordinates of the basis elements (e_i, 0), then (0, f_j)."""
    return [(row[:k], row[k:]) for row in _mat_identity(k + m)]


def bidiagonal_basis(k):
    """B with ones on the diagonal and just above it, and B^-1 (ones on and above it)."""
    basis = tuple(tuple(int(c in (r, r + 1)) for c in range(k)) for r in range(k))
    return basis, tuple(tuple(int(c >= r) for c in range(k)) for r in range(k))


def random_basis_change(rng, k):
    """A random product of 3k transvections of F2^k, and its inverse."""
    basis, basis_inv = _mat_identity(k), _mat_identity(k)
    for _ in range(3 * k if k > 1 else 0):
        t = unit_plus(k, {tuple(rng.sample(range(k), 2))})
        basis, basis_inv = _mat_mul(basis, t), _mat_mul(t, basis_inv)
    return basis, basis_inv


def member(k, m, cells, basis=None, names=()):
    """Phi_j = B (I + sum of E_rc over cells[j]) B^-1, with ``basis`` = (B, B^-1) or I."""
    b, b_inv = basis or (_mat_identity(k),) * 2
    action = tuple(_mat_mul(_mat_mul(b, unit_plus(k, c)), b_inv) for c in cells)
    return build_group(GroupSpec(k, m, action, tuple(names)))


def twisted_member(k, m, basis=None, first=0):
    """Phi_j = I + E_{(j + m) mod k, j}, conjugated by ``basis`` when given.

    The basis is named n<first>, n<first + 1>, ..., q<first>, ..., or not at
    all when ``first`` is None.
    """
    names = ()
    if first is not None:
        labels = [f"n{first + i}" for i in range(k)] + [f"q{first + j}" for j in range(m)]
        names = zip(labels, unit_coords(k, m))
    return member(k, m, [{((j + m) % k, j)} for j in range(m)], basis, names)


def family_shape(k, m, twisted, seed):
    """A shape of the benchmark's ``family`` workload, in a seeded basis of N.

    Phi_j is I + E_{(j + m) mod k, j} when ``twisted``, else I.
    """
    basis = random_basis_change(random.Random(f"family:{k}:{m}:{seed}"), k)
    return twisted_member(k, m, basis, first=None) if twisted else member(k, m, [()] * m, basis)


def seeded_member(k, m, naming, seed):
    """A member of order 2^(k+m) with a seeded random action.

    Phi_j = I + N_j, with N_j supported on rows R and columns C of a random
    split of the coordinates, so every N_j N_l is 0: each Phi_j is an
    involution and any two commute.  All are then conjugated by a random
    basis change.  ``naming`` is "all" (coordinate 0 under two names),
    "partial" (one basis name missing, one non-basis element named) or "none".
    """
    rng = random.Random(f"member:{k}:{m}:{seed}")
    coords = list(range(k))
    rng.shuffle(coords)
    cut = rng.randrange(1, k) if k > 1 else k
    rows, cols = coords[:cut], coords[cut:]
    basis = random_basis_change(rng, k)
    cells = [{(r, c) for r in rows for c in cols if rng.randrange(2)} for _ in range(m)]
    unit = unit_coords(k, m)
    names = [(f"x{p}", coord) for p, coord in enumerate(unit)]
    if naming == "all":
        names.insert(0, ("alias", unit[0]))
    elif naming == "partial":
        del names[rng.randrange(len(names))]
        both = tuple(tuple(x ^ y for x, y in zip(u, v)) for u, v in zip(*unit[:2]))
        names.append(("y", both))
    else:
        names = []
    return member(k, m, cells, basis, names)


def elementary_abelian(k):
    """(C2)^k with its basis named a, b, c, ...; C2 itself is k = 1."""
    return build_group(GroupSpec(k, 0, (), tuple(zip(ascii_lowercase, unit_coords(k, 0)))))


def d4():
    """The dihedral group of order 8: Z2^2 twisted by the swap matrix."""
    swap, names = ((0, 1), (1, 0)), (("r", ((1, 0), (0,))), ("s", ((0, 0), (1,))))
    return build_group(GroupSpec(2, 1, (swap,), names))


# N5/Q1 with action I + E_{1,0}: unnamed, named as golden/n5q1.alg, and (like
# N4/Q1) conjugated by a basis change, which makes the action non-triangular
# in the index bits, so a square may have a larger index.
n5q1 = partial(twisted_member, 5, 1, first=None)
n5q1_named = partial(twisted_member, 5, 1, first=1)
n5q1_conjugated = partial(twisted_member, 5, 1, bidiagonal_basis(5), first=None)
n4q1_conjugated = partial(twisted_member, 4, 1, bidiagonal_basis(4), first=None)
# N rank 4, Q rank 2, Phi_j = I + E_{j + 2, j}: 16 linear rows, 8 of degree 2.
n4q2 = partial(twisted_member, 4, 2, first=None)
# The product of the deviations is E_{3,0}: not every square is central, and
# x^-1 C x can differ from x C x^-1.
class3 = partial(member, 4, 2, [{(2, 0), (3, 1)}, {(1, 0), (3, 2)}])
# N4/Q2, unnamed: with element 13 leading the basis system, a transversal
# that conjugates the wrong way (t^-1 g t) miscounts fixed points.
transversal_witness = partial(build_group, GroupSpec(4, 2, (
    ((1, 1, 1, 0), (0, 0, 1, 0), (0, 1, 0, 0), (1, 1, 0, 1)),
    ((1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 0)),
), ()))


def basis_system(group, *lead):
    """``lead``, then the basis generators, closed up by the inverse of their product."""
    entries = lead + group.basis_generators()
    return validate_spherical(group, entries + (reduce(mul, entries).inverse(),))
