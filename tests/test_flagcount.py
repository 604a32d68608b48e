"""Exact q-polynomial counts versus brute force over F_2 and F_3."""

import inspect
import itertools
import os
import random
import subprocess
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from functools import cache
from operator import mul

import pytest
from test_coweights import flag_mass_margin, is_interleaved
from test_gf import all_vectors, mat_vec

from flagstrata import coweights as cw
from flagstrata import flagcount as fc
from flagstrata import gf
from flagstrata.coweights import as_partition, automorphism_dim, complete_flag_dim, partitions
from flagstrata.strata import pairing_count

Q = fc.QPoly((0, 1))
ONE = fc.ONE


# -- polynomial plumbing -------------------------------------------------------

def geometric(m):
    """1 + q + ... + q^{m-1}, i.e. (q^m - 1)/(q - 1)."""
    return fc.QPoly((1,) * m)


def test_qpoly_arithmetic():
    p = fc.QPoly((1, 2, 3))
    assert (p + fc.QPoly((0, -2))).coeffs == (1, 0, 3)
    assert (p - p).is_zero()
    assert (Q * Q).coeffs == (0, 0, 1)
    assert fc.QPoly((1, 1))(4) == 5
    assert fc.QPoly((0, 0)).is_zero()
    assert geometric(3).coeffs == (1, 1, 1)


def test_qpoly_eval_is_ring_hom():
    a, b = fc.QPoly((2, 0, 1)), fc.QPoly((-1, 3))
    for q in (2, 3, 5):
        assert (a * b)(q) == a(q) * b(q)
        assert (a + b)(q) == a(q) + b(q)


def test_qrat_reduction_and_degree():
    r = fc.QRat(fc.QPoly((2, 2)), fc.QPoly((4,)))
    assert r.num.coeffs == (1, 1) and r.den.coeffs == (2,)
    assert r.degree == 1
    assert fc.QRat(Q + ONE, (Q - ONE) * (Q - ONE)).degree == -1
    with pytest.raises(ZeroDivisionError):
        fc.QRat(ONE, fc.QPoly())


def test_qrat_is_an_immutable_value():
    r = fc.QRat(fc.QPoly((-2, -2)), fc.QPoly((0, -4)))
    # the sign goes to the numerator and the integer content is divided out
    assert (r.num.coeffs, r.den.coeffs) == ((1, 1), (0, 2))
    with pytest.raises(AttributeError):
        r.num = ONE
    with pytest.raises(AttributeError):
        del r.den
    same = fc.QRat(fc.QPoly((3, 3)), fc.QPoly((0, 6)))
    assert same == r and hash(same) == hash(r)
    assert r != fc.QRat(ONE, ONE) and r != (r.num, r.den)
    assert repr(r) == "QRat(QPoly(1, 1), QPoly(0, 2))"
    # perfbench/layers.py counts calls of flagcount.QRat.__add__, which the tracer wraps in the class body
    assert inspect.isfunction(vars(fc.QRat)["__add__"])


def test_qrat_laurent_expansion():
    r = fc.QRat(Q + ONE, (Q - ONE) * (Q - ONE))
    # (q+1)/(q-1)^2 = q^-1 + 3 q^-2 + 5 q^-3 + ...
    assert r.leading == Fraction(1)


def test_qrat_sum():
    # 1/(q(q-1)) + 1/(q(q-1)^2) collapses to 1/(q-1)^2
    a = fc.QRat(ONE, Q * (Q - ONE))
    b = fc.QRat(ONE, Q * (Q - ONE) * (Q - ONE))
    total = a + b
    assert total.degree == -2
    assert total.leading == Fraction(1)
    for q in (2, 3, 5):
        assert Fraction(total.num(q), total.den(q)) == Fraction(1, (q - 1) ** 2)


# -- the module model -----------------------------------------------------------

def mat_mul(a, b, q):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) % q for col in zip(*b)) for row in a)


def test_jordan_matrix_type():
    mu = (3, 1)
    t = fc.jordan_matrix(mu)
    assert len(t) == 4
    power = t
    for _ in range(mu[0] - 2):
        power = mat_mul(power, t, 5)
    assert any(any(row) for row in power)  # t^(mu_1 - 1) != 0
    power = mat_mul(power, t, 5)
    assert not any(any(row) for row in power)  # t^(mu_1) = 0


def test_jordan_rank_sequence_recovers_type():
    # rank(t^k) = sum over parts of max(part - k, 0) pins down the Jordan type
    for mu in [(2,), (1, 1), (2, 1), (3, 2), (2, 2, 1)]:
        t = fc.jordan_matrix(mu)
        n = sum(mu)
        power = gf.identity(n)
        for k in range(1, (mu[0] if mu else 0) + 1):
            power = mat_mul(power, t, 2)
            rank = len(gf.rref(power, 2))
            assert rank == sum(max(part - k, 0) for part in mu)


def test_finite_module_validation():
    # a residue field outside the modeled ones is refused before the size cap
    with pytest.raises(ValueError, match="residue fields of size 2 and 3"):
        fc.count_flags_brute((9,), 5)
    with pytest.raises(ValueError, match="residue fields of size 2 and 3"):
        fc.count_commutant_units_brute((9,), 5)


# -- flag counts -----------------------------------------------------------------

def test_count_flags_brute_examples():
    assert fc.count_flags_brute((2,), 2) == 1
    assert fc.count_flags_brute((1, 1), 2) == 3
    assert fc.count_flags_brute((2, 1), 2) == 5
    with pytest.raises(ValueError):
        fc.count_flags_brute((3, 2, 1), 2)


def _flags_by_echelon_chains(mu, q):
    # the slow oracle: covers found by scanning every vector, subspaces keyed by RREF
    n = sum(mu)
    t = fc.jordan_matrix(mu)
    vectors = [v for v in all_vectors(n, q) if any(v)]
    memo = {}

    def chains_from(sub):
        if len(sub) == n:
            return 1
        if sub not in memo:
            covers = {gf.rref(sub + (v,), q) for v in vectors if not gf.in_span(sub, v, q)}
            memo[sub] = sum(
                chains_from(cover)
                for cover in covers
                if all(gf.in_span(cover, mat_vec(t, row, q), q) for row in cover)
            )
        return memo[sub]

    return chains_from(())


def test_count_flags_brute_vs_echelon_chains():
    for q, top in ((2, 4), (3, 3)):
        for size in range(top + 1):
            for mu in partitions(size):
                assert fc.count_flags_brute(mu, q) == _flags_by_echelon_chains(mu, q), (mu, q)


def test_count_flags_poly_examples():
    assert fc.count_flags_poly((2, 1)) == fc.QPoly((1, 2))
    assert fc.count_flags_poly((2,)) == ONE
    assert fc.count_flags_poly((1, 1, 1)) == (Q + ONE) * (Q * Q + Q + ONE)


def test_count_flags_poly_vs_brute():
    for size in range(6):
        for mu in partitions(size):
            expected = fc.count_flags_brute(mu, 2)
            assert fc.count_flags_poly(mu)(2) == expected
    for size in range(5):
        for mu in partitions(size):
            assert fc.count_flags_poly(mu)(3) == fc.count_flags_brute(mu, 3)


def test_count_flags_poly_degree():
    for size in range(8):
        for mu in partitions(size):
            poly = fc.count_flags_poly(mu)
            if mu:
                assert poly.degree == complete_flag_dim(mu)


def corner_weights(mu):
    """The per-corner counting polynomials; they sum to geometric(#parts)."""
    out = []
    prefix = 0
    for _, mult in fc._value_groups(as_partition(mu)):
        out.append(fc.QPoly.q_power(prefix) * geometric(mult))
        prefix += mult
    return out


@cache
def flags_by_corner_products(mu):
    """The slow oracle for count_flags_poly: the same corner recursion in QPoly products.

    Each corner peels the last part of its run, re-sorts, and multiplies the
    peeled type's count by the corner weight q^prefix * geometric(mult).
    """
    mu = as_partition(mu)
    if not mu:
        return ONE
    total = fc.QPoly()
    for (value, mult), weight in zip(fc._value_groups(mu), corner_weights(mu)):
        peeled = list(mu)
        peeled[peeled.index(value) + mult - 1] -= 1
        child = as_partition(sorted(peeled, reverse=True))
        total = total + weight * flags_by_corner_products(child)
    return total


def test_corner_weights_sum():
    for size in range(1, 8):
        for mu in partitions(size):
            total = fc.QPoly()
            for w in corner_weights(mu):
                total = total + w
            assert total == geometric(len(mu))


def test_count_flags_poly_matches_corner_products():
    for size in range(13):
        for mu in partitions(size):
            assert fc.count_flags_poly(mu) == flags_by_corner_products(mu), mu


def test_count_flags_poly_reads_no_dimension_formula(monkeypatch):
    # the degree cell checks count_flags_poly against complete_flag_dim, so the
    # polynomial must be built, list size included, without that closed form
    def refuse(eta):
        raise AssertionError(f"complete_flag_dim read for {eta}")

    for module in (cw, fc):
        for name in ("complete_flag_dim", "_complete_flag_dim"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    fc.count_flags_poly.cache_clear()
    try:
        for size in range(10):
            for mu in partitions(size):
                assert fc.count_flags_poly(mu) == flags_by_corner_products(mu), mu
    finally:
        fc.count_flags_poly.cache_clear()


def test_aut_order_poly_examples():
    assert fc.aut_order_poly((1, 1)) == (Q * Q - ONE) * (Q * Q - Q)
    assert fc.aut_order_poly((2,)) == Q * (Q - ONE)
    assert fc.aut_order_poly((1,)) == Q - ONE


def test_aut_order_poly_degree():
    for size in range(8):
        for mu in partitions(size):
            if mu:
                assert fc.aut_order_poly(mu).degree == automorphism_dim(mu)


def test_aut_order_poly_vs_brute():
    for q, top in ((2, 5), (3, 4)):
        for size in range(top + 1):
            for mu in partitions(size):
                assert fc.aut_order_poly(mu)(q) == fc.count_commutant_units_brute(mu, q)


def _units_by_walk(mu, q):
    """Walk every coefficient vector of the commutant; invertible iff full rank."""
    n = sum(mu)
    basis = gf.commutant_basis(fc.jordan_matrix(mu), q)
    count = 0
    for coeffs in itertools.product(range(q), repeat=len(basis)):
        m = [
            [sum(c * b[i][j] for c, b in zip(coeffs, basis)) % q for j in range(n)]
            for i in range(n)
        ]
        count += len(gf.rref(m, q)) == n
    return count


def test_units_brute_vs_plain_walk():
    checked = 0
    for q, top in ((2, 5), (3, 4)):
        for size in range(1, top + 1):
            for mu in partitions(size):
                dim = len(gf.commutant_basis(fc.jordan_matrix(mu), q))
                if q**dim <= 3**9:
                    assert fc.count_commutant_units_brute(mu, q) == _units_by_walk(mu, q), (mu, q)
                    checked += 1
    assert checked == 24


def test_units_brute_general_linear_group():
    for q, top in ((2, 5), (3, 4)):
        for n in range(top + 1):
            order = 1
            for i in range(n):
                order *= q**n - q**i
            assert fc.count_commutant_units_brute((1,) * n, q) == order


def test_units_brute_cap():
    with pytest.raises(ValueError):
        fc.count_commutant_units_brute((1,) * 5, 3)
    with pytest.raises(ValueError):
        fc.count_commutant_units_brute((1,) * 6, 2)


def _units_by_laplace(mu, q):
    """Meet in the middle over the generalised Laplace expansion along the top rows.

    det M is the signed sum over r-subsets S of columns, r = ceil(n/2), of
    det(top rows, S) * det(bottom rows, complement of S).  The commutant C
    splits as W + K, where K holds the elements of C whose top rows are zero,
    so each element of C is w + k with the top rows of w.  The top-minor
    vectors of W are binned by the bottom rows of w; for each such bottom
    offset the bottom-minor vectors of offset + K are binned too, and the count
    adds the product of the bin sizes over every bin pair whose Laplace sum is
    nonzero mod q.
    """
    n = sum(mu)
    if n == 0:
        return 1
    r = (n + 1) // 2
    split = r * n
    # row-major flattening puts the top r rows first, so the RREF rows with a
    # pivot past `split` are a basis of K and the others span a complement W
    basis = gf.rref([sum(b, ()) for b in gf.commutant_basis(fc.jordan_matrix(mu), q)], q)
    complement = [v for v in basis if any(v[:split])]
    kernel = [v[split:] for v in basis if not any(v[:split])]
    minors = _minor_table(n, q)
    laplace = _laplace_terms(n, r)
    top_bins = defaultdict(Counter)
    for v in _span((0,) * (n * n), complement, q):
        top_bins[v[split:]][minors(_rows(v[:split], n))] += 1
    count = 0
    for offset, tops in top_bins.items():
        bottoms = Counter(minors(_rows(v, n)) for v in _span(offset, kernel, q))
        aligned = [(tuple(sign * m[i] for i, sign in laplace), c) for m, c in bottoms.items()]
        for t, a in tops.items():
            for b, c in aligned:
                if sum(map(mul, t, b)) % q:
                    count += a * c
    return count


def _laplace_terms(n, r):
    """The generalised Laplace expansion of an n x n determinant along its top r rows.

    One term per r-subset S of columns, in lexicographic order: the index of
    the complement of S among the (n-r)-subsets, and the sign (-1)^(sum of S).
    det M = (-1)^(r(r-1)/2) times the sum over S of sign * top minor(S) *
    bottom minor(complement of S); the shared factor is left out.
    """
    bottom_index = {s: i for i, s in enumerate(itertools.combinations(range(n), n - r))}
    return [
        (bottom_index[tuple(j for j in range(n) if j not in s)], (-1) ** sum(s))
        for s in itertools.combinations(range(n), r)
    ]


def _rows(flat, n):
    return tuple(flat[i:i + n] for i in range(0, len(flat), n))


def _span(start, vectors, q):
    """start plus every F_q-combination of linearly independent vectors, once each."""
    out = [start]
    for v in vectors:
        out += [tuple((x + c * y) % q for x, y in zip(e, v)) for c in range(1, q) for e in out]
    return out


def _minor_table(n, q):
    """Memoized map from a k x n block (a tuple of rows) to its k x k minors mod q.

    The minors are listed by column subset in lexicographic order.  Each is
    expanded along the block's first row, so the minors of the rows below are
    looked up, not recomputed, when blocks share them.
    """
    expansions = [[]]
    for k in range(1, n + 1):
        lower = {s: i for i, s in enumerate(itertools.combinations(range(n), k - 1))}
        expansions.append(
            [
                [(j, lower[s[:i] + s[i + 1:]], (-1) ** i) for i, j in enumerate(s)]
                for s in itertools.combinations(range(n), k)
            ]
        )
    memo = {(): (1,)}

    def minors(rows):
        if rows not in memo:
            first, below = rows[0], minors(rows[1:])
            memo[rows] = tuple(
                sum(sign * first[j] * below[t] for j, t, sign in terms) % q
                for terms in expansions[len(rows)]
            )
        return memo[rows]

    return minors


def test_units_walk_matches_laplace_oracle():
    for q, top in ((2, 5), (3, 4)):
        for size in range(top + 1):
            for mu in partitions(size):
                assert fc.count_commutant_units_brute(mu, q) == _units_by_laplace(mu, q), (mu, q)


def _det(m):
    """Determinant by plain cofactor expansion along the first row."""
    if not m:
        return 1
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1:] for row in m[1:]])
        for j in range(len(m))
    )


def _laplace_sums(m, q):
    """(signed, unsigned) sum over top column subsets of top minor * bottom minor, mod q."""
    n = len(m)
    r = (n + 1) // 2
    minors = _minor_table(n, q)
    top, bottom = minors(tuple(m[:r])), minors(tuple(m[r:]))
    terms = [(top[s], bottom[i], sign) for s, (i, sign) in enumerate(_laplace_terms(n, r))]
    signed = sum(sign * t * b for t, b, sign in terms) % q
    unsigned = sum(t * b for t, b, _ in terms) % q
    return signed, unsigned


def test_laplace_signs_give_determinant():
    rng = random.Random(7)
    for q in (3, 5):
        # all ones: det 0, but the unsigned sum of top * bottom minors is 2 mod q
        assert _laplace_sums(((1, 1), (1, 1)), q) == (0, 2)
        for n in range(1, 6):
            r = (n + 1) // 2
            for _ in range(20):
                m = tuple(tuple(rng.randrange(q) for _ in range(n)) for _ in range(n))
                signed, _ = _laplace_sums(m, q)
                assert signed == (-1) ** (r * (r - 1) // 2) * _det(m) % q, (m, q)


def _run_python(code, *flags):
    src = os.path.dirname(os.path.dirname(fc.__file__))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )


def test_units_brute_without_numpy():
    done = _run_python(
        "import sys; sys.modules['numpy'] = None\n"
        "from flagstrata import flagcount as fc\n"
        "print(fc.count_commutant_units_brute((1, 1, 1, 1), 3))\n"
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["24261120"]


# -- masses ----------------------------------------------------------------------

def test_fiber_mass_examples():
    m = fc.fiber_mass((1,), (2,))
    assert m.degree == -2 and is_interleaved((1,), (2,))
    m = fc.fiber_mass((1, 1), (2,))
    assert m.degree == -3 and not is_interleaved((1, 1), (2,))
    m = fc.fiber_mass((1,), (1,))
    assert m.degree == -1 and m.num == Q + ONE


def test_fiber_mass_degree_bound():
    for d in range(6):
        for dp in range(6):
            for mu in partitions(d):
                for mup in partitions(dp):
                    mass = fc.fiber_mass(mu, mup)
                    assert mass.degree <= -dp
                    assert (mass.degree == -dp) == is_interleaved(mu, mup)


def test_collided_fiber_mass_examples():
    _, deg, lead = fc.collided_fiber_mass(1, 1)
    assert (deg, lead) == (-1, 1)
    _, deg, lead = fc.collided_fiber_mass(1, 2)
    assert (deg, lead) == (-2, 3)
    _, deg, lead = fc.collided_fiber_mass(0, 2)
    assert (deg, lead) == (-2, 1)


def test_collided_fiber_mass_leading_counts_interleaved_pairs():
    for d in range(4):
        for dp in range(d, 4):
            _, deg, lead = fc.collided_fiber_mass(d, dp)
            assert deg == -dp
            assert lead == pairing_count(d, dp)


def test_non_integral_leading_fails_under_optimize():
    # a mass with leading term 3/2 would truncate to the one pairing of (0, 0);
    # both the per-term tops and the QRat sum read the patched polynomials: 6 / (2 * 2)
    done = _run_python(
        "from flagstrata import checks, cli, flagcount as fc\n"
        "fc.count_flags_poly = lambda mu: fc.QPoly((6,))\n"
        "fc.aut_order_poly = lambda mu: fc.QPoly((2,))\n"
        "print(repr(fc.collided_fiber_mass(0, 0)[2]))\n"
        "print(cli.main(['fibermass', '0', '0']))\n"
        "run = {check.name: check.run for check in checks.CHECKS}\n"
        "print(run['collided-mass-degree-and-leading'](dict(checks.DEFAULT_BOUNDS, mass_d=0)))\n",
        "-O",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "Fraction(3, 2)"
    assert lines[2].split("\t") == ["0", "0", "0", "3/2", "1", "False"]
    assert lines[3:] == ["1", "(0, 0)"]


def collided_mass_top_by_qrat(d, dp):
    """The slow oracle for collided_mass_top: each term's degree and top read from its QRat."""
    degree, leading = None, Fraction(0)
    for mu in partitions(d):
        for mup in partitions(dp):
            term = fc.fiber_mass(mu, mup)
            top = Fraction(0) if term.is_zero() else term.leading
            if top <= 0:
                raise fc.MassPremiseError(mu, mup, top)
            if degree is None or term.degree > degree:
                degree, leading = term.degree, top
            elif term.degree == degree:
                leading += top
    return degree, leading.numerator if leading.denominator == 1 else leading


def _mass_outcome(top, d, dp):
    try:
        return top(d, dp)
    except fc.MassPremiseError as exc:
        return "premise", exc.mu, exc.mup, exc.leading


def test_collided_mass_top_matches_per_term_qrat():
    for dp in range(9):
        for d in range(dp + 1):
            assert fc.collided_mass_top(d, dp) == collided_mass_top_by_qrat(d, dp), (d, dp)


@pytest.mark.parametrize(
    "name, shape, scale",
    [
        ("aut_order_poly", (1,), 2),  # Aut leading 2: tops 1/2, totals off the pairing count
        ("aut_order_poly", (2, 1), -1),  # negative Aut leading: a premise failure
        ("count_flags_poly", (2, 1, 1), -1),  # negative flag leading
        ("count_flags_poly", (2, 1, 1), 0),  # a zero term
    ],
)
def test_collided_mass_top_matches_per_term_qrat_on_patched_polynomials(monkeypatch, name, shape, scale):
    # both readings see the patch, as both read the two polynomial functions by name
    exact, flags = getattr(fc, name), fc.count_flags_poly
    factor = fc.QPoly((scale,))
    monkeypatch.setattr(fc, name, lambda mu: exact(mu) * factor if mu == shape else exact(mu))
    cells = [(d, dp) for dp in range(5) for d in range(dp + 1)]
    try:
        fast = [_mass_outcome(fc.collided_mass_top, d, dp) for d, dp in cells]
        slow = [_mass_outcome(collided_mass_top_by_qrat, d, dp) for d, dp in cells]
    finally:
        # count_flags_poly recurses through the patched name, so its cache may hold patched values
        flags.cache_clear()
    assert fast == slow
    assert any(out[0] == "premise" for out in fast) == (scale <= 0)
    assert any(out != (-dp, pairing_count(d, dp)) for out, (d, dp) in zip(fast, cells))


def test_collided_mass_top_matches_exact_sum():
    # the exact pairwise QRat sum is the slow oracle for the per-term tops
    for dp in range(7):
        for d in range(dp + 1):
            assert fc.collided_mass_top(d, dp) == fc.collided_fiber_mass(d, dp)[1:], (d, dp)
    for d, dp in [(6, 8), (8, 8), (6, 10), (10, 10)]:
        assert fc.collided_mass_top(d, dp) == (-dp, pairing_count(d, dp))


def test_collided_mass_top_is_int_when_integral(monkeypatch):
    for dp in range(5):
        for d in range(dp + 1):
            assert type(fc.collided_mass_top(d, dp)[1]) is int
    # an Aut leading of 2 for the type (1,) halves the one term of (0, 1)
    exact, flags = fc.aut_order_poly, fc.count_flags_poly
    monkeypatch.setattr(fc, "aut_order_poly", lambda mu: exact(mu) * fc.QPoly((2,)) if mu == (1,) else exact(mu))
    try:
        leading = fc.collided_mass_top(0, 1)[1]
    finally:
        flags.cache_clear()
    assert type(leading) is Fraction and leading == Fraction(1, 2)


@pytest.mark.parametrize("bad_flags, leading", [(fc.QPoly((0, -1)), -1), (fc.QPoly(), 0)])
def test_mass_premise_error_message_and_leading(monkeypatch, bad_flags, leading):
    exact = fc.count_flags_poly
    monkeypatch.setattr(fc, "count_flags_poly", lambda mu: bad_flags if mu == (1, 1) else exact(mu))
    with pytest.raises(fc.MassPremiseError) as caught:
        fc.collided_mass_top(1, 1)
    assert str(caught.value) == (
        f"fiber mass of ((1,), (1,)) has leading coefficient {leading}, so terms could cancel at q -> infinity"
    )
    assert (caught.value.mu, caught.value.mup) == ((1,), (1,))
    assert type(caught.value.leading) is Fraction and caught.value.leading == leading


@pytest.mark.parametrize(
    "bad_flags",
    [
        "fc.QPoly((0, -1))",  # the mass -q / (q - 1)^2 has leading -1 at degree -1
        "fc.QPoly()",  # the zero mass
    ],
    ids=["negative-leading", "zero-term"],
)
def test_mass_premise_failure_under_optimize(bad_flags):
    # (1, 1) is the merged type of the one pair ((1,), (1,)) of every cell with d' <= 1
    done = _run_python(
        "from flagstrata import checks, cli, flagcount as fc\n"
        "exact = fc.count_flags_poly\n"
        f"fc.count_flags_poly = lambda mu: {bad_flags} if mu == (1, 1) else exact(mu)\n"
        "print(cli.main(['fibermass', '1', '1']))\n"
        "run = {check.name: check.run for check in checks.CHECKS}\n"
        "print(run['collided-mass-degree-and-leading'](dict(checks.DEFAULT_BOUNDS, mass_d=1)))\n",
        "-O",
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[1].split("\t") == ["1", "1", "-", "-", "1", "False"]
    assert lines[2].split("\t")[:3] == ["mass-premise-failed", "(1,)", "(1,)"]
    assert lines[3:] == ["1", "(1, 1, (1,), (1,))"]


def test_negative_aut_exponent_raises_under_optimize():
    done = _run_python(
        "from flagstrata import cli, flagcount as fc\n"
        "fc.conjugate = lambda mu: ()\n"
        "fc.aut_order_poly.cache_clear()\n"
        "try:\n"
        "    print(fc.aut_order_poly((1, 1)))\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "print(cli.main(['fibermass', '1', '1']))\n",
        "-O",
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["Aut order of type (1, 1) has negative q-exponent -3", "1"]
    # a formula fault inside a verification fails it (exit 1); it is not bad config
    assert done.stderr == "error: Aut order of type (1,) has negative q-exponent -1\n"


def test_fiber_mass_table_shape():
    rows = fc.fiber_mass_table(2)
    assert ((1,), (2,), -2, 0, True, True) in rows
    assert ((1, 1), (2,), -3, -1, False, True) in rows


def test_fiber_mass_degree_matches_qrat_degree():
    # the table's degree column, read from the polynomials, against the QRat degree
    table = fc.fiber_mass_table(6)
    assert len(table) == sum(1 for size in range(7) for _ in partitions(size)) ** 2
    for mu, mup, deg, *_ in table:
        assert deg == fc.fiber_mass(mu, mup).degree, (mu, mup)
    assert ((1, 1), (2,), -3) in [row[:3] for row in table]
    assert fc.fiber_mass([1, 1, 0], [2]).degree == -3


def test_fiber_mass_table_matches_per_pair_rebuild():
    # the table in row order, rebuilt with the QRat degree of each pair
    rebuilt = [
        (mu, mup, fc.fiber_mass(mu, mup).degree, flag_mass_margin(mu, mup), is_interleaved(mu, mup))
        for d in range(5)
        for dp in range(5)
        for mu in partitions(d)
        for mup in partitions(dp)
    ]
    table = fc.fiber_mass_table(4)
    assert [row[:5] for row in table] == rebuilt and all(row[5] for row in table)
