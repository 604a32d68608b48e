"""Partitions, interleavings and the closed-form dimension identities.

Oracles used here, independent of the implementation under test:
    - the swap-gap equals a direct inner product with the staircase vector
    - the flag dimension in literal (binomial) and telescoped forms agree
    - the even-rank closed form of the flag bundle dimension
"""

from fractions import Fraction
from itertools import product

import pytest

from flagstrata import coweights as cw


def test_exact_is_int_when_integral():
    for num in range(-12, 13):
        for den in [d for d in range(-6, 7) if d]:
            value = cw._exact(num, den)
            assert value == Fraction(num, den), (num, den)
            assert type(value) is (int if num % den == 0 else Fraction), (num, den)


def test_serialization_round_trip():
    assert cw.format_coweight((2, -1, 0)) == "2,-1,0"


# -- predicates and partitions: slow oracles -----------------------------------
# the index-comprehension predicates and the check-everything as_partition;
# the fast forms in coweights must agree on values, result types and messages


def oracle_weakly_decreasing(v):
    return all(v[i] >= v[i + 1] for i in range(len(v) - 1))


def oracle_weakly_increasing(v):
    return all(v[i] <= v[i + 1] for i in range(len(v) - 1))


def oracle_as_partition(seq):
    parts = tuple(seq)
    if any(x < 0 for x in parts):
        raise ValueError(f"negative part in {parts}")
    if not oracle_weakly_decreasing(parts):
        raise ValueError(f"not weakly decreasing: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def _outcome(fn, arg):
    try:
        result = fn(arg)
    except ValueError as exc:
        return "raises", str(exc)
    return type(result), result


def test_predicates_and_as_partition_match_slow_oracles():
    vectors = [v for length in range(6) for v in product(range(-2, 4), repeat=length)]
    for v in vectors:
        for arg in (v, list(v)):
            assert cw.weakly_decreasing(arg) == oracle_weakly_decreasing(arg), arg
            assert cw.weakly_increasing(arg) == oracle_weakly_increasing(arg), arg
            assert _outcome(cw.as_partition, arg) == _outcome(oracle_as_partition, arg), arg
    # with both faults the negative part is reported first
    with pytest.raises(ValueError, match=r"^negative part in \(-1, 2\)$"):
        cw.as_partition((-1, 2))
    assert cw.as_partition([2, 1, 0]) == (2, 1)
    canonical = (3, 1, 1)
    assert cw.as_partition(canonical) is canonical


# -- splits and interleavings -------------------------------------------------

def test_odd_even_split():
    assert cw.odd_even_split((2, 1, 0, 0)) == ((2, 0), (1, 0))
    assert cw.odd_even_split((1, 1, 1, 1)) == ((1, 1), (1, 1))
    assert cw.odd_even_split((3, 1, 0, 0)) == ((3, 0), (1, 0))
    with pytest.raises(ValueError):
        cw.odd_even_split((1, 2, 3))


def test_split_reinterleaves():
    lam = (5, 3, 3, 1, 0, 0)
    odd, even = cw.odd_even_split(lam)
    rebuilt = [x for pair in zip(odd, even) for x in pair]
    assert tuple(rebuilt) == lam


def test_interleave():
    assert cw.interleave((1,), (1,), 1) == (1, 1)
    assert cw.interleave((1, 1), (2, 0), 2) == (2, 1, 0, 1)
    assert cw.interleave((1, 1), (2, 1), 2) == (2, 1, 1, 1)


def test_special_transposition_chain():
    assert cw.special_transposition_chain((1, 2)) == ((2, 1), [(1, 1)], 1)
    eta, _, gap = cw.special_transposition_chain((2, 1, 0, 1))
    assert eta == (2, 1, 1, 0) and gap == 1
    assert cw.special_transposition_chain((2, 2)) == ((2, 2), [], 0)
    with pytest.raises(ValueError):
        cw.special_transposition_chain((1, -1))


def test_swap_gap_matches_staircase_pairing():
    # direct oracle: gap = <theta - eta, (0, 1, ..., len-1)>
    vectors = [
        (0,), (1, 2), (2, 2, 0, 3), (0, 1, 2, 3), (3, 2, 1, 0),
        (1, 0, 2, 0, 1, 3), (4, 0, 0, 4), (2, 3, 2, 3),
    ]
    for theta in vectors:
        eta, steps, gap = cw.special_transposition_chain(theta)
        tau = tuple(range(len(theta)))
        direct = sum((t - e) * w for t, e, w in zip(theta, eta, tau))
        assert eta == tuple(sorted(theta, reverse=True))
        assert gap == direct
        assert (gap == 0) == (theta == eta)
        assert all(a > 0 for _, a in steps)


# -- dimension formulas --------------------------------------------------------

def test_flag_bundle_dim():
    assert cw.flag_bundle_dim(2, 1, 0) == 3
    assert cw.flag_bundle_dim(4, 3, 1) == 12
    assert cw.flag_bundle_dim(4, 2, 0) == 22  # 8 + (1+4+9)


def test_flag_bundle_dim_even_closed_form():
    for n in (2, 4, 6, 8):
        for r in range(6):
            for g in range(4):
                even = cw.flag_bundle_dim_even(n, r, g)
                assert type(even) is int and even == cw.flag_bundle_dim(n, r, g)
    with pytest.raises(ValueError):
        cw.flag_bundle_dim_even(3, 1, 0)


def test_fibration_dim_identity_examples():
    assert cw.fibration_dim_identity(1, 0, 0, 0) == (0, 0, True)
    assert cw.fibration_dim_identity(2, 1, 1, 0) == (20, 20, True)
    assert cw.fibration_dim_identity(1, 2, 3, 1) == (10, 10, True)
    # n(n-1)(4n+1) is divisible by 6, so the relative dimension is an exact int
    for n in range(1, 9):
        for g in range(4):
            assert type(cw._relative_dim(n, 3, g)) is int


def test_flag_dim_forms_agree():
    # literal binomial form vs telescoped form
    for size in range(7):
        for eta in cw.partitions(size):
            padded = eta + (0,)
            literal = sum(
                (padded[i] - padded[i + 1]) * (i + 1) * i // 2
                for i in range(len(eta))
            )
            assert literal == cw.complete_flag_dim(eta)


def test_aut_dim_forms_agree():
    for size in range(7):
        for mu in cw.partitions(size):
            padded = mu + (0,)
            literal = sum(
                (padded[i] - padded[i + 1]) * (i + 1) ** 2 for i in range(len(mu))
            )
            assert literal == cw.automorphism_dim(mu)


def test_dim_examples():
    assert cw.complete_flag_dim((2, 1)) == 1
    assert cw.automorphism_dim((1, 1)) == 4
    assert cw.complete_flag_dim((2,)) == 0
    assert cw.automorphism_dim((2,)) == 2


# -- margins -------------------------------------------------------------------
# The per-pair margin and interleaving predicates: the slow oracles for
# flagcount.fiber_mass_table, which reads both from one interleave per pair.

def flag_mass_margin(mu, mup):
    """complete_flag_dim(sorted merge) - both Aut dimensions + |mup|; <= 0, zero iff interleaved."""
    mu, mup = cw.as_partition(mu), cw.as_partition(mup)
    return (
        cw.complete_flag_dim(sorted(mu + mup, reverse=True))
        - cw.automorphism_dim(mu)
        - cw.automorphism_dim(mup)
        + sum(mup)
    )


def is_interleaved(mu, mup):
    """True iff mup_1 >= mu_1 >= mup_2 >= mu_2 >= ... after common padding."""
    mu, mup = cw.as_partition(mu), cw.as_partition(mup)
    m = max(len(mu), len(mup))
    a, b = cw.pad(mu, m), cw.pad(mup, m)
    return all(b[i] >= a[i] for i in range(m)) and all(a[i] >= b[i + 1] for i in range(m - 1))


def test_margin_examples():
    assert flag_mass_margin((2,), (2,)) == 0
    assert flag_mass_margin((1, 1), (2,)) == -1
    assert flag_mass_margin((1, 1), (2, 1)) == 0


def test_is_interleaved_examples():
    assert is_interleaved((1, 1), (2, 1))
    assert not is_interleaved((2,), (1,))
    assert is_interleaved((), (3,))


def test_margin_exhaustive_small():
    # sizes up to 6 with at most 4 parts; margin <= 0, zero exactly when interleaved,
    # and equal to minus the total drop of the sorting chain
    shapes = [mu for size in range(7) for mu in cw.partitions(size, max_parts=4)]
    for mu in shapes:
        for mup in shapes:
            margin = flag_mass_margin(mu, mup)
            equal = margin == 0
            assert margin <= 0
            assert equal == is_interleaved(mu, mup)
            m = max(len(mu), len(mup), 1)
            _, _, gap = cw.special_transposition_chain(cw.interleave(mu, mup, m))
            assert equal == (gap == 0)
            assert margin == -gap
