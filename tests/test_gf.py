"""The subspace lattice and vector maps on indices versus tuple arithmetic over F_q."""

import random
from itertools import product

import pytest

from flagstrata import flagcount as fc
from flagstrata import gf
from flagstrata import orbits as ob
from flagstrata.coweights import partitions

# (q, largest n) where the lattice is checked against the slow oracles
CAPS = ((2, 5), (3, 4), (5, 3))


# -- slow oracles: vectors as tuples, indices read off their digits -------------

def all_vectors(n, q):
    """F_q^n as tuples, in index order."""
    return product(range(q), repeat=n)


def mat_vec(m, v, q):
    return tuple(sum(row[j] * v[j] for j in range(len(v))) % q for row in m)


def _index(v, q):
    return sum(x * q ** (len(v) - 1 - i) for i, x in enumerate(v))


def tuple_vector_map(matrix, n, q):
    """matrix times every vector, one tuple product per vector."""
    return tuple(_index(mat_vec(matrix, v, q), q) for v in all_vectors(n, q))


def tuple_lattice(n, q):
    """(spaces, ids, covers, translate) by the same breadth-first walk, with every sum and multiple taken on tuples."""
    vectors = list(all_vectors(n, q))
    translate = tuple(
        tuple(_index(tuple((a + b) % q for a, b in zip(u, w)), q) for u in vectors) for w in vectors
    )
    spaces = [frozenset({0})]
    ids = {spaces[0]: 0}
    covers = []
    for space in spaces:
        seen = set(space)
        up = []
        for x, v in enumerate(vectors):
            if x in seen:
                continue
            line = [_index(tuple(c * a % q for a in v), q) for c in range(q)]
            cover = frozenset(translate[w][y] for w in line for y in space)
            seen |= cover
            if cover not in ids:
                ids[cover] = len(spaces)
                spaces.append(cover)
            up.append(ids[cover])
        covers.append(tuple(up))
    return tuple(spaces), ids, tuple(covers), translate


def _cells():
    for q, cap in CAPS:
        for n in range(cap + 1):
            yield n, q


# -- the lattice ---------------------------------------------------------------

def test_lattice_matches_tuple_oracle():
    for n, q in _cells():
        lattice = gf.subspace_lattice(n, q)
        spaces, ids, covers, translate = tuple_lattice(n, q)
        assert lattice.spaces == spaces, (n, q)
        assert lattice.ids == ids, (n, q)
        assert lattice.covers == covers, (n, q)
        assert lattice.translate == translate, (n, q)
        vectors = list(all_vectors(n, q))
        assert lattice.multiples == tuple(
            tuple(_index(tuple(c * a % q for a in v), q) for c in range(q)) for v in vectors
        ), (n, q)


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _dimension(size, q):
    k = 0
    while q**k < size:
        k += 1
    assert q**k == size
    return k


def test_lattice_closed_form_counts():
    """The Galois number of subspaces, and (q^(n-k) - 1)/(q - 1) covers above each k-dimensional one."""
    for n, q in list(_cells()) + [(6, 2)]:
        lattice = gf.subspace_lattice(n, q)
        assert len(lattice.spaces) == sum(gaussian_binomial(n, k, q) for k in range(n + 1)), (n, q)
        for space, up in zip(lattice.spaces, lattice.covers):
            k = _dimension(len(space), q)
            assert len(up) == (q ** (n - k) - 1) // (q - 1), (n, q, k)
            assert all(space < lattice.spaces[c] and len(lattice.spaces[c]) == q * len(space) for c in up)


def test_lattice_build_refuses_a_cover_that_is_not_one_dimension_up(monkeypatch):
    # test_lattice_closed_form_counts checks every cover of the correct lattices, (4, 2) and (3, 3) among them
    tables = gf._digit_tables

    def off_by_one(n, q):  # multiples[x][c] the index of (c + 1) times vector x
        translate, multiples = tables(n, q)
        return translate, tuple(row[1:] + row[:1] for row in multiples)

    # unguarded, this table lists 2,464 "subspaces" of F_3^3 and exhausts memory at (4, 3)
    monkeypatch.setattr(gf, "_digit_tables", off_by_one)
    for n, q in ((4, 2), (3, 3), (4, 3)):
        with pytest.raises(ValueError, match=r"-vector space has \d+ vectors, not \d+$"):
            gf.subspace_lattice.__wrapped__(n, q)


# -- vector maps ---------------------------------------------------------------

def test_vector_map_matches_tuple_oracle_on_random_matrices():
    rng = random.Random(27)
    outside = 0
    for n, q in _cells():
        for _ in range(6):
            # entries outside range(q), negative ones too, act through their residues
            matrix = tuple(tuple(rng.randrange(-2 * q, 2 * q) for _ in range(n)) for _ in range(n))
            assert gf.vector_map(matrix, n, q) == tuple_vector_map(matrix, n, q), (matrix, q)
            outside += any(not 0 <= x < q for row in matrix for x in row)
    assert outside > 50


def test_vector_map_matches_tuple_oracle_on_program_matrices():
    checked = 0
    for n, q in _cells():
        matrices = [fc.jordan_matrix(mu) for mu in partitions(n)]
        matrices += [g for d in range(n + 1) for g in ob.block_group_generators(d, n - d, q)]
        for matrix in matrices:
            assert gf.vector_map(matrix, n, q) == tuple_vector_map(matrix, n, q), (matrix, q)
            checked += 1
    assert checked == 290
