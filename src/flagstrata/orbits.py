"""Orbit counts of a block subgroup on complete flags over a small finite field.

The classifying pairs (w, J) with high points inside J and low points outside
index the orbits of GL_d x GL_{d'} on complete flags in d + d' dimensions;
the brute-force side computes orbits purely by generator closure, never by
invariants, so the two counts are genuinely independent.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import combinations

from . import gf
from .strata import Involution, enumerate_pairings

ORBIT_LIMIT = {2: 5, 3: 4}


def enumerate_involutions(n: int, max_pairs: int | None = None) -> list[Involution]:
    """All involutions of {1..n} with at most max_pairs two-cycles."""
    cap = n // 2 if max_pairs is None else min(max_pairs, n // 2)
    return sorted(w for k in range(cap + 1) for w in enumerate_pairings(k, n - k))


def classifying_pairs(d: int, dp: int) -> list[tuple[Involution, tuple[int, ...]]]:
    """All (w, J) with |J| = d, Hi(w) inside J and Lo(w) disjoint from J."""
    return _pairs_with_inside(d, dp, hi_inside=True)


def dual_classifying_pairs(d: int, dp: int) -> list[tuple[Involution, tuple[int, ...]]]:
    """All (w, J) with |J| = d, Lo(w) inside J and Hi(w) disjoint from J."""
    return _pairs_with_inside(d, dp, hi_inside=False)


def _pairs_with_inside(d: int, dp: int, hi_inside: bool) -> list[tuple[Involution, tuple[int, ...]]]:
    n = d + dp
    out = []
    for w in enumerate_involutions(n, max_pairs=min(d, dp)):
        inside, outside = (w.hi, w.lo) if hi_inside else (w.lo, w.hi)
        if len(inside) > d:
            continue
        room = sorted(set(range(1, n + 1)) - inside - outside)
        for extra in combinations(room, d - len(inside)):
            out.append((w, tuple(sorted(inside | set(extra)))))
    return sorted(out, key=lambda p: (p[0].mapping, p[1]))


# ---------------------------------------------------------------------------
# flags over F_q


def all_flags(n: int, q: int) -> list[tuple[int, ...]]:
    """Every complete flag in F_q^n as the lattice ids of its subspaces of dimension 1..n."""
    lattice = gf.subspace_lattice(n, q)
    chains: list[tuple[int, ...]] = []

    def extend(chain: tuple[int, ...], top: int):
        if not lattice.covers[top]:
            chains.append(chain)
        for cover in lattice.covers[top]:
            extend(chain + (cover,), cover)

    extend((), 0)
    return chains


def flag_total(n: int, q: int) -> int:
    """Number of complete flags, the q-factorial [n]_q!."""
    total = 1
    for i in range(1, n + 1):
        total *= (q**i - 1) // (q - 1)
    return total


def block_group_generators(d: int, dp: int, q: int) -> list[gf.Matrix]:
    """Generators of GL_d x GL_{d'} inside GL_{d+d'}(F_q).

    Transvections within each block generate the special linear parts; one
    diagonal element per block with a single primitive-root entry fills in
    the determinants.
    """
    n = d + dp
    blocks = [range(d), range(d, n)]
    gens: list[gf.Matrix] = []
    for block in blocks:
        for a in block:
            for b in block:
                if a == b:
                    continue
                mat = [list(row) for row in gf.identity(n)]
                mat[a][b] = 1
                gens.append(tuple(tuple(r) for r in mat))
        if q > 2 and len(block) > 0:
            mat = [list(row) for row in gf.identity(n)]
            mat[block[0]][block[0]] = gf.primitive_root(q)
            gens.append(tuple(tuple(r) for r in mat))
    return gens


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra

    def groups(self) -> dict[int, list[int]]:
        out: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            out.setdefault(self.find(x), []).append(x)
        return out


# The action of a generator on the flags depends only on the matrix and q, so
# it is built once per process: the flags and their positions per (n, q), and
# per (matrix, q) the edges that join each cycle of its flag permutation.
@lru_cache(maxsize=None)
def _flag_index(n: int, q: int) -> tuple[tuple[tuple[int, ...], ...], dict[tuple[int, ...], int]]:
    """The complete flags of F_q^n in `all_flags` order, and the position of each."""
    chains = tuple(all_flags(n, q))
    return chains, {chain: i for i, chain in enumerate(chains)}


@lru_cache(maxsize=None)
def _cycle_edges(g: gf.Matrix, q: int) -> array:
    """Flat (i, g.i) pairs along each cycle of g on the flags, the step back to the start left out.

    The cycles are walked from their smallest flag, so a fixed flag gives no
    edge and a cycle of k flags gives k - 1.  A map that is not a bijection
    on the flags raises ValueError.
    """
    n = len(g)
    chains, index = _flag_index(n, q)
    image = gf.subspace_lattice(n, q).image(gf.vector_map(g, n, q))
    perm = [index.get(tuple([image[s] for s in chain])) for chain in chains]
    if None in perm or len(set(perm)) != len(perm):
        raise ValueError(f"generator {g} does not permute the complete flags of F_{q}^{n}")
    pairs: list[int] = []
    seen = bytearray(len(perm))
    for start, j in enumerate(perm):
        if seen[start] or j == start:
            continue
        i = start
        while j != start:
            pairs += (i, j)
            seen[j] = 1
            i, j = j, perm[j]
    return array("i", pairs)


def orbit_decomposition(d: int, dp: int, q: int) -> list[list[tuple[int, ...]]]:
    """Orbits of the block subgroup on complete flags, by union-find closure.

    Flags are joined along the cycles of each generator's flag permutation;
    the orbits come ordered by their smallest flag, members ascending.
    """
    if q not in ORBIT_LIMIT:
        raise ValueError("only q = 2 and q = 3 are supported")
    n = d + dp
    if n > ORBIT_LIMIT[q]:
        raise ValueError(f"orbit enumeration capped at dimension {ORBIT_LIMIT[q]} for q={q}")
    chains, _ = _flag_index(n, q)
    uf = UnionFind(len(chains))
    for g in block_group_generators(d, dp, q):
        pairs = iter(_cycle_edges(g, q))
        for a, b in zip(pairs, pairs):
            uf.union(a, b)
    return [[chains[i] for i in members] for members in uf.groups().values()]


def verify_counts(d: int, dp: int, q: int) -> tuple[list, list, int, bool]:
    """(orbits, pairs, dual pair count, ok): the counts agree and the orbits hold all [n]_q! flags."""
    orbits = orbit_decomposition(d, dp, q)
    pairs = classifying_pairs(d, dp)
    dual = len(dual_classifying_pairs(d, dp))
    ok = len(orbits) == len(pairs) == dual and sum(map(len, orbits)) == flag_total(d + dp, q)
    return orbits, pairs, dual, ok
