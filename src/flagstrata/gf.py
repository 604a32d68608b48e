"""Dense linear algebra and the subspace lattice over a small prime field F_q.

Vectors are tuples of ints in range(q); matrices are tuples of row vectors.
The subspace lattice works on vector indices instead: the base-q digits of
index x are the entries of its vector, first entry most significant.  Sums
and multiples are lookups in tables built one digit at a time, a matrix acts
as the list of the indices of its images, and a subspace is the frozenset of
its vector indices, which is canonical without any echelon form.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def rref(rows, q: int) -> Matrix:
    """Reduced row echelon form with zero rows dropped; canonical per subspace."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivot_row = 0
    for col in range(ncols):
        src = next((r for r in range(pivot_row, len(mat)) if mat[r][col] % q), None)
        if src is None:
            continue
        mat[pivot_row], mat[src] = mat[src], mat[pivot_row]
        inv = pow(mat[pivot_row][col], q - 2, q) if q > 2 else 1
        mat[pivot_row] = [(x * inv) % q for x in mat[pivot_row]]
        for r in range(len(mat)):
            if r != pivot_row and mat[r][col] % q:
                f = mat[r][col] % q
                mat[r] = [(x - f * y) % q for x, y in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return tuple(tuple(row) for row in mat[:pivot_row] if any(row))


def in_span(rows: Matrix, v: Vector, q: int) -> bool:
    """Whether v lies in the row space of an RREF matrix."""
    vec = list(v)
    for row in rows:
        col = next(j for j, x in enumerate(row) if x)
        if vec[col] % q:
            f = vec[col] % q
            vec = [(x - f * y) % q for x, y in zip(vec, row)]
    return not any(x % q for x in vec)


def primitive_root(q: int) -> int:
    """The smallest generator of the unit group of the prime field F_q."""
    return next(g for g in range(1, q) if len({pow(g, k, q) for k in range(1, q)}) == q - 1)


def vector_index(v: Vector, q: int) -> int:
    """The index of v: its entries as base-q digits, first entry most significant."""
    index = 0
    for x in v:
        index = index * q + x
    return index


def vector_map(matrix: Matrix, n: int, q: int) -> tuple[int, ...]:
    """A linear map on vector indices: entry i is the index of matrix times vector i."""
    lattice = subspace_lattice(n, q)
    image = [0]
    for j in range(n):  # M.v = sum of v_j col_j, so index x q + c maps to the image of x plus c col_j
        line = lattice.multiples[vector_index([row[j] % q for row in matrix], q)]
        image = [lattice.translate[y][z] for y in image for z in line]
    return tuple(image)


class SubspaceLattice(namedtuple("SubspaceLattice", "spaces ids covers translate multiples")):
    """Every subspace of F_q^n, ids in breadth-first order from the zero space.

    spaces[s] is the frozenset of vector indices of subspace s, ids inverts
    it, and covers[s] lists the ids of the subspaces one dimension above s
    (empty only for the whole space).  translate[w][x] is the index of
    vector x + vector w, and multiples[x][c] that of c times vector x.
    """

    __slots__ = ()

    def image(self, vmap: tuple[int, ...]) -> tuple[int, ...]:
        """The id of the image of every subspace under an invertible vector_map."""
        return tuple(self.ids[frozenset(map(vmap.__getitem__, space))] for space in self.spaces)


def _digit_tables(n: int, q: int):
    """The translate and multiples tables of SubspaceLattice, built one base-q digit at a time."""
    translate, multiples = ((0,),), ((0,) * q,)
    for _ in range(n):  # one more trailing digit: index x' q + a from index x' of one digit fewer
        translate = tuple(
            tuple([t * q + (a + b) % q for t in row for b in range(q)]) for row in translate for a in range(q)
        )
        multiples = tuple(
            tuple([m * q + c * a % q for c, m in enumerate(row)]) for row in multiples for a in range(q)
        )
    return translate, multiples


@lru_cache(maxsize=None)
def subspace_lattice(n: int, q: int) -> SubspaceLattice:
    """The subspace lattice of F_q^n, built once per (n, q) on first use.

    The covers of s are listed in order of their smallest vector index
    outside s, so a depth-first walk meets the chains in the order of a scan
    of the vector indices at each step.
    """
    translate, multiples = _digit_tables(n, q)
    spaces = [frozenset({0})]
    ids = {spaces[0]: 0}
    covers = []
    for space in spaces:  # spaces grows as new subspaces are met
        seen = set(space)
        up = []
        for x, line in enumerate(multiples):
            if x in seen:
                continue
            cover = space.union(*[map(translate[w].__getitem__, space) for w in line[1:]])
            if len(cover) != q * len(space):  # a wrong translate or multiples table
                raise ValueError(
                    f"cover of a {len(space)}-vector space has {len(cover)} vectors, not {q * len(space)}"
                )
            seen |= cover
            if cover not in ids:
                ids[cover] = len(spaces)
                spaces.append(cover)
            up.append(ids[cover])
            if len(seen) == len(multiples):  # every vector lies in s or a cover met
                break
        covers.append(tuple(up))
    return SubspaceLattice(tuple(spaces), ids, tuple(covers), translate, multiples)


def nullspace_basis(rows, q: int) -> list[Vector]:
    """Basis of the right nullspace of a matrix given as a list of rows."""
    if not rows:
        return []
    ncols = len(rows[0])
    red = rref(rows, q)
    pivots = [next(j for j, x in enumerate(row) if x) for row in red]
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = 1
        for row, p in zip(red, pivots):
            vec[p] = (-row[f]) % q
        basis.append(tuple(vec))
    return basis


def commutant_basis(t: Matrix, q: int) -> list[Matrix]:
    """Basis of the algebra of n x n matrices commuting with t over F_q."""
    n = len(t)
    system = []
    # linear conditions on M flattened row-major: (M t - t M)[i][j] = 0
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[i * n + k] = (row[i * n + k] + t[k][j]) % q
                row[k * n + j] = (row[k * n + j] - t[i][k]) % q
            system.append(tuple(row))
    flat = nullspace_basis(system, q)
    return [tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n)) for v in flat]
