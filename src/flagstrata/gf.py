"""Dense linear algebra and the subspace lattice over a small prime field F_q.

Vectors are tuples of ints in range(q); matrices are tuples of row vectors.
Everything is tiny (dimension <= 5), so plain Python arithmetic is used.

The subspace lattice indexes the q^n vectors of F_q^n in `all_vectors` order
and holds each subspace as the frozenset of its vector indices, which is
canonical without any echelon form.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import NamedTuple

Vector = tuple[int, ...]
Matrix = tuple[Vector, ...]


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(m: Matrix, v: Vector, q: int) -> Vector:
    return tuple(sum(row[j] * v[j] for j in range(len(v))) % q for row in m)


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


def all_vectors(n: int, q: int):
    return product(range(q), repeat=n)


def primitive_root(q: int) -> int:
    """The smallest generator of the unit group of the prime field F_q."""
    return next(g for g in range(1, q) if len({pow(g, k, q) for k in range(1, q)}) == q - 1)


def vector_index(v: Vector, q: int) -> int:
    """Position of v in `all_vectors` order: its entries as base-q digits."""
    index = 0
    for x in v:
        index = index * q + x
    return index


def vector_map(matrix: Matrix, n: int, q: int) -> tuple[int, ...]:
    """A linear map on vector indices: entry i is the index of matrix times vector i."""
    return tuple(vector_index(mat_vec(matrix, v, q), q) for v in all_vectors(n, q))


class SubspaceLattice(NamedTuple):
    """Every subspace of F_q^n, ids in breadth-first order from the zero space.

    spaces[s] is the frozenset of vector indices of subspace s, ids inverts
    it, and covers[s] lists the ids of the subspaces one dimension above s
    (empty only for the whole space).  translate[w][x] is the index of
    vector x + vector w.
    """

    spaces: tuple[frozenset[int], ...]
    ids: dict[frozenset[int], int]
    covers: tuple[tuple[int, ...], ...]
    translate: tuple[tuple[int, ...], ...]

    def image(self, vmap: tuple[int, ...]) -> tuple[int, ...]:
        """The id of the image of every subspace under an invertible vector_map."""
        return tuple(self.ids[frozenset(vmap[x] for x in space)] for space in self.spaces)


@lru_cache(maxsize=None)
def subspace_lattice(n: int, q: int) -> SubspaceLattice:
    """The subspace lattice of F_q^n, built once per (n, q) on first use.

    The covers of s are listed in order of their smallest vector index
    outside s, so a depth-first walk meets the chains in the order of a scan
    of `all_vectors` at each step.
    """
    vectors = list(all_vectors(n, q))
    translate = tuple(
        tuple(vector_index(tuple((a + b) % q for a, b in zip(u, w)), q) for u in vectors)
        for w in vectors
    )
    spaces = [frozenset({0})]
    ids = {spaces[0]: 0}
    covers = []
    for space in spaces:  # spaces grows as new subspaces are met
        seen = set(space)
        up = []
        for x, v in enumerate(vectors):
            if x in seen:
                continue
            line = [vector_index(tuple(c * a % q for a in v), q) for c in range(q)]
            cover = frozenset(translate[w][y] for w in line for y in space)
            seen |= cover
            if cover not in ids:
                ids[cover] = len(spaces)
                spaces.append(cover)
            up.append(ids[cover])
        covers.append(tuple(up))
    return SubspaceLattice(tuple(spaces), ids, tuple(covers), translate)


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
