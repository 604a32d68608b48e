"""Schur calculus: branching characters, Pieri strips, the multiplicity-free index.

schur_poly builds each character from chains of horizontal strips, and
product_char counts multigraphs by their degrees.  The slow oracles live here
and share no code with those paths: semistandard tableau enumeration for the
Schur character; every multiset of d pairs for the Sym^d(wedge^2) character
and every monomial for h_k, multiplied monomial by monomial; and the Weyl
product formula for dimensions.
"""

from collections import defaultdict
from itertools import combinations, combinations_with_replacement, permutations
from math import comb, factorial

import pytest

from flagstrata import schur as sc
from flagstrata.coweights import pad, partitions, weakly_decreasing


def _ssyt_weights(shape, nvars):
    """Yield the content vector of every semistandard tableau of the shape."""
    rows = len(shape)
    weight = [0] * nvars

    def fill(r, c, tableau):
        if r == rows:
            yield tuple(weight)
            return
        nr, nc = (r, c + 1) if c + 1 < shape[r] else (r + 1, 0)
        low = tableau[r][c - 1] if c > 0 else 0
        if r > 0:
            low = max(low, tableau[r - 1][c] + 1)
        for val in range(low, nvars):
            tableau[r][c] = val
            weight[val] += 1
            yield from fill(nr, nc, tableau)
            weight[val] -= 1

    if rows == 0:
        yield (0,) * nvars
        return
    tableau = [[0] * width for width in shape]
    yield from fill(0, 0, tableau)


def _tableau_character(lam, nvars):
    """Dominant part of s_lam: tableaux counted by content, non-dominant ones dropped."""
    acc = defaultdict(int)
    for weight in _ssyt_weights(lam, nvars):
        if weakly_decreasing(weight):
            acc[weight] += 1
    return dict(acc)


def _full_product(a, b):
    """Dominant part of a * b, multiplying every monomial of a by every monomial of b."""
    full_a = {perm: c for key, c in a.terms.items() for perm in set(permutations(key))}
    full_b = {perm: c for key, c in b.terms.items() for perm in set(permutations(key))}
    acc = defaultdict(int)
    for ea, ca in full_a.items():
        for eb, cb in full_b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if weakly_decreasing(e):
                acc[e] += ca * cb
    return {e: c for e, c in acc.items() if c}


def _wedge2_power(d, nvars):
    """Dominant part of Sym^d(wedge^2): h_d at the x_i x_j, i < j, one multiset of pairs at a time."""
    acc = defaultdict(int)
    for combo in combinations_with_replacement(combinations(range(nvars), 2), d):
        e = [0] * nvars
        for i, j in combo:
            e[i] += 1
            e[j] += 1
        if weakly_decreasing(e):
            acc[tuple(e)] += 1
    return sc.SymPoly(nvars, acc)


def _complete_homogeneous(k, nvars):
    """h_k(x_1..x_N): every dominant exponent of degree k, coefficient 1."""
    return sc.SymPoly(nvars, {pad(p, nvars): 1 for p in partitions(k, max_parts=nvars)})


def _weyl_dim(lam, nvars):
    """Dimension of the GL_N representation with highest weight lam (Weyl formula)."""
    lam = pad(lam, nvars)
    num = den = 1
    for i in range(nvars):
        for j in range(i + 1, nvars):
            num *= lam[i] - lam[j] + j - i
            den *= j - i
    dim, rest = divmod(num, den)
    if rest:
        raise ArithmeticError(f"Weyl product {num}/{den} is not an integer")
    return dim


def _eval_ones(p):
    """Value of p at x_1 = ... = x_N = 1, counting each orbit with its size."""
    total = 0
    for key, coeff in p.terms.items():
        orbit = factorial(p.nvars)
        for value in set(key):
            orbit //= factorial(key.count(value))
        total += coeff * orbit
    return total


def test_schur_poly_small():
    assert sc.schur_poly((1,), 2).terms == {(1, 0): 1}
    assert sc.schur_poly((1, 1), 2).terms == {(1, 1): 1}
    assert sc.schur_poly((2, 1), 2).terms == {(2, 1): 1}
    assert sc.schur_poly((), 3).terms == {(0, 0, 0): 1}


def test_schur_poly_too_many_parts():
    with pytest.raises(ValueError):
        sc.schur_poly((1, 1, 1), 2)


def test_schur_poly_matches_tableau_oracle():
    cells = 0
    for nvars in range(1, 7):
        for size in range(8):
            for lam in partitions(size, max_parts=nvars):
                assert sc.schur_poly(lam, nvars).terms == _tableau_character(lam, nvars), (lam, nvars)
                cells += 1
    assert cells == 183


def test_schur_dimensions_match_weyl():
    for nvars in (2, 3, 4, 5):
        for size in range(6):
            for lam in partitions(size, max_parts=nvars):
                assert _eval_ones(sc.schur_poly(lam, nvars)) == _weyl_dim(lam, nvars)


def test_wedge2_char_examples():
    assert sc.decompose_schur(_wedge2_power(1, 4)) == {(1, 1): 1}
    for d in range(4):
        expected = {(d, d): 1} if d else {(): 1}
        assert sc.decompose_schur(_wedge2_power(d, 2)) == expected
    assert sc.decompose_schur(_wedge2_power(2, 4)) == {(2, 2): 1, (1, 1, 1, 1): 1}


def test_decompose_identity_and_classics():
    s = sc.schur_poly((3, 1), 4)
    assert sc.decompose_schur(s) == {(3, 1): 1}
    v = sc.schur_poly((1,), 2)
    assert sc.decompose_schur(sc.SymPoly(2, _full_product(v, v))) == {(2,): 1, (1, 1): 1}


def _schur_combination(mults, nvars):
    """sum of mult * s_lam over mults = {lam: mult}, added term dict by term dict."""
    acc = defaultdict(int)
    for lam, mult in mults.items():
        for key, coeff in sc.schur_poly(lam, nvars).terms.items():
            acc[key] += mult * coeff
    return sc.SymPoly(nvars, acc)


def test_decompose_rejects_non_characters():
    with pytest.raises(ValueError):
        sc.decompose_schur(_schur_combination({(2,): 1, (1, 1): -2}, 2))


def test_decompose_round_trip():
    for nvars, shapes in ((2, [(2,), (1, 1)]), (3, [(2, 1), (1, 1, 1), (3,)])):
        decomposition = {lam: mult for mult, lam in enumerate(shapes, start=1)}
        assert sc.decompose_schur(_schur_combination(decomposition, nvars)) == decomposition


def test_pieri_examples():
    assert sc.pieri((1,), 1, 2) == {(2,), (1, 1)}
    assert sc.pieri((1, 1), 2, 4) == {(3, 1), (2, 1, 1)}
    assert sc.pieri((1, 1), 1, 2) == {(2, 1)}
    assert sc.pieri((2, 1), 0, 3) == {(2, 1)}


def test_pieri_matches_character_product():
    for nvars in range(1, 6):
        for size in range(6):
            for lam in partitions(size, max_parts=nvars):
                for k in range(4):
                    product = sc.SymPoly(
                        nvars, _full_product(sc.schur_poly(lam, nvars), _complete_homogeneous(k, nvars))
                    )
                    dec = sc.decompose_schur(product)
                    assert set(dec) == sc.pieri(lam, k, nvars)
                    assert all(mult == 1 for mult in dec.values())


def test_dominant_index_examples():
    assert sc.dominant_index(1, 1, 2) == {(2, 1)}
    assert sc.dominant_index(2, 2, 2) == {(2, 2), (1, 1, 1, 1)}
    assert sc.dominant_index(2, 1, 3) == {(3, 1), (2, 1, 1)}
    assert sc.dominant_index(2, 1, 3) == sc.pieri((1, 1), 2, 4)
    with pytest.raises(ValueError):
        sc.dominant_index(1, 2, 1)


def test_verify_multiplicity_free_examples():
    assert sc.verify_multiplicity_free(1, 1, 1)[-1]
    assert sc.verify_multiplicity_free(2, 2, 2)[-1]
    dec, index, ok = sc.verify_multiplicity_free(2, 1, 3)
    assert ok and dec == sc.decompose_schur(sc.product_char(2, 1, 3)) and index == sc.dominant_index(2, 1, 3)


def test_product_char_matches_direct_expansion():
    # the multigraph count against every multiset of d pairs times every monomial of h_{d'-d}
    cells = 0
    for n, top in ((1, 6), (2, 6), (3, 6), (4, 4)):
        for d in range(top + 1):
            for dp in range(d, top + 1):
                want = _full_product(_wedge2_power(d, 2 * n), _complete_homogeneous(dp - d, 2 * n))
                assert sc.product_char(n, d, dp).terms == want, (n, d, dp)
                cells += 1
    assert cells == 99


def test_index_dimension_identity():
    # both sides at x = 1: the product character and the index-set Weyl dims
    for n in (1, 2, 3):
        for d in range(3):
            for dp in range(d, 4):
                p = sc.product_char(n, d, dp)
                closed = comb(comb(2 * n, 2) + d - 1, d) * comb(2 * n + dp - d - 1, dp - d)
                assert _eval_ones(p) == closed
                by_weyl = sum(_weyl_dim(lam, 2 * n) for lam in sc.dominant_index(n, d, dp))
                assert by_weyl == closed


def test_pieri_source_examples():
    assert sc.pieri_source((2, 1), 1, 1, 2) == (1, 1)
    assert sc.pieri_source((2, 2), 2, 2, 2) == (2, 2)
    assert sc.pieri_source((2, 1, 1), 2, 1, 3) == (1, 1)
    with pytest.raises(ValueError):
        sc.pieri_source((3,), 1, 1, 2)


def test_pieri_source_fibers_partition_index():
    # the strip map must send the (d, d) index onto fibers that tile the index set
    for n in (1, 2):
        for d in range(3):
            for dp in range(d, 4):
                index = sc.dominant_index(n, d, dp)
                square = sc.dominant_index(n, d, d)
                fibers = {}
                for lam in index:
                    fibers.setdefault(sc.pieri_source(lam, n, d, dp), set()).add(lam)
                assert set(fibers) <= square
                for mu, fiber in fibers.items():
                    strip = sc.pieri(mu, dp - d, 2 * n)
                    assert fiber == strip & index


def test_antidominant_index_examples():
    assert sc.antidominant_index(1, 1, 2) == {(1, 2)}
    assert sc.antidominant_index(1, 0, 3) == {(0, 3)}
    assert sc.antidominant_index(2, 2, 2) == {(0, 0, 2, 2), (1, 1, 1, 1)}


def test_decomposition_json_shape():
    import json

    dec = sc.decompose_schur(_wedge2_power(2, 4))
    payload = json.dumps(
        [{"lambda": list(lam), "mult": mult} for lam, mult in sorted(dec.items(), reverse=True)]
    )
    assert json.loads(payload) == [
        {"lambda": [2, 2], "mult": 1},
        {"lambda": [1, 1, 1, 1], "mult": 1},
    ]
