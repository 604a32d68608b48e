"""Classifying pairs versus union-find orbit counts over F_2 and F_3."""

from math import comb, prod

import pytest
from test_gf import all_vectors, mat_vec

from flagstrata import checks, cli, gf
from flagstrata import orbits as ob


def test_classifying_pairs_examples():
    pairs = ob.classifying_pairs(1, 1)
    labels = {(w.cycle_notation(), j) for w, j in pairs}
    assert labels == {("()", (1,)), ("()", (2,)), ("(1 2)", (2,))}
    assert len(ob.classifying_pairs(1, 2)) == 6
    assert len(ob.classifying_pairs(0, 4)) == 1


def test_classifying_pair_membership():
    for d, dp in [(1, 2), (2, 2), (2, 3)]:
        for w, j in ob.classifying_pairs(d, dp):
            assert w.hi <= set(j) and not (w.lo & set(j)) and len(j) == d
        for w, j in ob.dual_classifying_pairs(d, dp):
            assert w.lo <= set(j) and not (w.hi & set(j)) and len(j) == d


def test_pair_counts_match_dual():
    for total in range(7):
        for d in range(total + 1):
            dp = total - d
            assert len(ob.classifying_pairs(d, dp)) == len(ob.dual_classifying_pairs(d, dp))


def test_free_singleton_count_per_involution():
    for d, dp in [(2, 2), (2, 3), (1, 4)]:
        n = d + dp
        by_w = {}
        for w, j in ob.classifying_pairs(d, dp):
            by_w.setdefault(w, []).append(j)
        for w, js in by_w.items():
            free = n - len(w.hi) - len(w.lo)
            assert len(js) == comb(free, d - len(w.hi))


def test_flag_enumeration_counts():
    assert len(ob.all_flags(3, 2)) == ob.flag_total(3, 2) == 21
    assert len(ob.all_flags(4, 2)) == 315
    assert len(ob.all_flags(3, 3)) == 52
    assert len(ob.all_flags(5, 2)) == ob.flag_total(5, 2) == 9765
    assert len(ob.all_flags(4, 3)) == ob.flag_total(4, 3) == 2080


# The slow oracle: flags grown by scanning every vector and echelonizing each
# step, and a generator moving a flag by echelonizing the image of every subspace.

def _echelon_flags(n, q):
    flags = []

    def extend(chain):
        if len(chain) == n:
            flags.append(chain)
            return
        current = chain[-1] if chain else ()
        seen = set()
        for v in all_vectors(n, q):
            if not any(v) or gf.in_span(current, v, q):
                continue
            bigger = gf.rref(current + (v,), q)
            if bigger not in seen:
                seen.add(bigger)
                extend(chain + (bigger,))

    extend(())
    return flags


def _echelon_move(g, flag, q):
    return tuple(gf.rref(tuple(mat_vec(g, row, q) for row in sub), q) for sub in flag)


def _echelon_orbits(d, dp, q):
    flags = _echelon_flags(d + dp, q)
    index = {flag: i for i, flag in enumerate(flags)}
    uf = ob.UnionFind(len(flags))
    for flag, i in index.items():
        for g in ob.block_group_generators(d, dp, q):
            uf.union(i, index[_echelon_move(g, flag, q)])
    return [[flags[i] for i in members] for members in uf.groups().values()]


def _echelon_decoder(n, q):
    """Each chain of lattice ids as the tuple of RREF matrices of its subspaces."""
    vectors = list(all_vectors(n, q))
    spaces = gf.subspace_lattice(n, q).spaces
    echelon = [gf.rref([vectors[x] for x in space], q) for space in spaces]
    return lambda chain: tuple(echelon[s] for s in chain)


def test_lattice_flags_match_echelon_oracle():
    for q, cap in ((2, 4), (3, 3)):
        for n in range(cap + 1):
            decode = _echelon_decoder(n, q)
            assert [decode(chain) for chain in ob.all_flags(n, q)] == _echelon_flags(n, q), (n, q)
        for total in range(cap + 1):
            decode = _echelon_decoder(total, q)
            for d in range(total + 1):
                orbits = ob.orbit_decomposition(d, total - d, q)
                got = {frozenset(map(decode, orbit)) for orbit in orbits}
                want = {frozenset(orbit) for orbit in _echelon_orbits(d, total - d, q)}
                assert got == want, (d, total - d, q)


# The per-call closure: every generator's image of every flag, built afresh on
# each call and all unioned, with no cache and no cycle reduction.

def _per_call_orbits(d, dp, q):
    n = d + dp
    lattice = gf.subspace_lattice(n, q)
    chains = ob.all_flags(n, q)
    index = {chain: i for i, chain in enumerate(chains)}
    uf = ob.UnionFind(len(chains))
    for g in ob.block_group_generators(d, dp, q):
        image = lattice.image(gf.vector_map(g, n, q))
        for chain, i in index.items():
            uf.union(i, index[tuple(image[s] for s in chain)])
    return [[chains[i] for i in members] for members in uf.groups().values()]


def _cells_q3_first():
    """Every (d, dp, q) inside ORBIT_LIMIT, q = 3 before q = 2 at each dimension."""
    for n in range(max(ob.ORBIT_LIMIT.values()) + 1):
        for q in (3, 2):
            if n <= ob.ORBIT_LIMIT[q]:
                for d in range(n + 1):
                    yield d, n - d, q


def test_cached_closure_matches_per_call_oracle():
    # one process over both q: a flag action cached without q would be reused
    # across fields, where the same matrix moves other flags
    cells = list(_cells_q3_first())
    assert len(cells) == 36
    for d, dp, q in cells:
        assert ob.orbit_decomposition(d, dp, q) == _per_call_orbits(d, dp, q), (d, dp, q)


def test_closure_follows_rebound_generators(monkeypatch):
    real = ob.block_group_generators
    counts = {(d, n - d): len(ob.orbit_decomposition(d, n - d, 3)) for n in range(5) for d in range(n + 1)}

    def without_diagonals(d, dp, q):
        n = d + dp
        return [g for g in real(d, dp, q) if any(g[a][b] for a in range(n) for b in range(n) if a != b)]

    monkeypatch.setattr(ob, "block_group_generators", without_diagonals)
    changed = 0
    for (d, dp), count in counts.items():
        orbits = ob.orbit_decomposition(d, dp, 3)
        assert orbits == _per_call_orbits(d, dp, 3), (d, dp)
        changed += len(orbits) != count
    # SL_d x SL_d' has more orbits than GL_d x GL_d' wherever a block has size 1
    assert changed > 0


def test_cycle_edges_skip_each_closing_step():
    """The edges of a generator are (i, g.i) for every flag i not mapped to its cycle's smallest flag."""
    for d, dp, q in [(1, 2, 2), (2, 2, 2), (1, 3, 2), (1, 2, 3)]:
        n = d + dp
        chains = ob.all_flags(n, q)
        decode = _echelon_decoder(n, q)
        position = {decode(chain): i for i, chain in enumerate(chains)}
        for g in ob.block_group_generators(d, dp, q):
            perm = [position[_echelon_move(g, decode(chain), q)] for chain in chains]
            lowest = []
            for i in range(len(perm)):
                cycle = [i]
                while perm[cycle[-1]] != i:
                    cycle.append(perm[cycle[-1]])
                lowest.append(min(cycle))
            want = sorted((i, j) for i, j in enumerate(perm) if j != lowest[i])
            edges = ob._cycle_edges(g, q)
            assert sorted(zip(edges[::2], edges[1::2])) == want, (d, dp, q, g)


def test_flags_walked_once_per_dimension_and_field(monkeypatch):
    cells = [(1, 3), (2, 2), (2, 2)]
    want = [_per_call_orbits(d, dp, 2) for d, dp in cells]
    real, calls = ob.all_flags, []

    def counted(n, q):
        calls.append((n, q))
        return real(n, q)

    monkeypatch.setattr(ob, "all_flags", counted)
    assert [ob.orbit_decomposition(d, dp, 2) for d, dp in cells] == want
    # all three cells have n = 4 at q = 2; an earlier test may already have walked it
    assert len(calls) <= 1, calls


def test_generator_that_does_not_permute_flags_raises(monkeypatch, capsys):
    singular = ((1, 0), (0, 0))
    monkeypatch.setattr(ob, "block_group_generators", lambda d, dp, q: [singular])
    # a cache does not keep a raise, so the check runs again on every call
    for _ in range(2):
        with pytest.raises(ValueError):
            ob.orbit_decomposition(1, 1, 2)
    # raised inside a verification, so the command exits 1
    assert cli.main(["orbits", "1", "1", "2"]) == 1
    assert "does not permute" in capsys.readouterr().err


def test_orbit_criterion_checks_flag_total(monkeypatch):
    real = ob.flag_total
    (check,) = [c for c in checks.CHECKS if c.name == "orbit-counts-vs-classifying-pairs"]
    assert check.run(checks.DEFAULT_BOUNDS) is None
    monkeypatch.setattr(ob, "flag_total", lambda n, q: real(n, q) + 1)
    assert check.run(checks.DEFAULT_BOUNDS) == (0, 0, 2)


def test_flags_are_strict_chains():
    spaces = gf.subspace_lattice(3, 2).spaces
    for flag in ob.all_flags(3, 2):
        assert [len(spaces[s]) for s in flag] == [2, 4, 8]
        for small, large in zip(flag, flag[1:]):
            assert spaces[small] < spaces[large]


def test_generators_are_invertible():
    for d, dp, q in [(1, 1, 2), (2, 2, 2), (1, 2, 3)]:
        n = d + dp
        for g in ob.block_group_generators(d, dp, q):
            assert len(gf.rref(g, q)) == n


def test_primitive_roots():
    # q - 1 for q = 2, 3, so their generators are unchanged; 4 has order 2 mod 5
    assert [gf.primitive_root(q) for q in (2, 3, 5, 7, 11, 13)] == [1, 2, 2, 3, 2, 2]


def mat_mul(a, b, q):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)) for row in a)


def test_generators_generate_block_group():
    def gl_order(n, q):
        return prod(q**n - q**i for i in range(n))

    for d, dp, q in [
        (1, 2, 2), (2, 2, 2), (0, 3, 2), (1, 3, 2), (1, 2, 3), (2, 1, 3), (0, 3, 3),
        (1, 1, 5), (0, 2, 5), (2, 1, 5),
    ]:
        gens = ob.block_group_generators(d, dp, q)
        group = frontier = {gf.identity(d + dp)}
        while frontier:
            frontier = {mat_mul(g, m, q) for m in frontier for g in gens} - group
            group = group | frontier
        assert len(group) == gl_order(d, q) * gl_order(dp, q), (d, dp, q)


def test_k_orbit_examples():
    assert len(ob.orbit_decomposition(1, 1, 2)) == 3
    assert len(ob.orbit_decomposition(1, 2, 2)) == 6
    assert len(ob.orbit_decomposition(2, 2, 2)) == len(ob.classifying_pairs(2, 2)) == 21


def test_orbits_partition_flag_set():
    for d, dp, q in [(2, 2, 2), (1, 3, 2), (1, 2, 3), (0, 3, 3)]:
        orbits = ob.orbit_decomposition(d, dp, q)
        flags = ob.all_flags(d + dp, q)
        seen = [flag for orbit in orbits for flag in orbit]
        assert len(seen) == len(set(seen)) == len(flags) == ob.flag_total(d + dp, q)


def test_verify_counts_all_feasible():
    for q, cap in ((2, 5), (3, 4)):
        for total in range(cap + 1):
            for d in range(total + 1):
                assert ob.verify_counts(d, total - d, q)[-1], (d, total - d, q)


def test_orbit_counts_are_q_independent():
    for total in range(5):
        for d in range(total + 1):
            assert len(ob.orbit_decomposition(d, total - d, 2)) == len(ob.orbit_decomposition(d, total - d, 3))


def test_size_caps():
    with pytest.raises(ValueError):
        ob.orbit_decomposition(3, 3, 2)
    with pytest.raises(ValueError):
        ob.orbit_decomposition(2, 3, 3)
    with pytest.raises(ValueError):
        ob.orbit_decomposition(1, 1, 5)
