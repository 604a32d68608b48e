"""Pairings, condition-C strata, and the signed induced representation."""

from collections import Counter
from itertools import combinations, permutations, product
from math import comb, factorial

import pytest

from flagstrata import checks
from flagstrata import strata as st
from flagstrata.coweights import partitions


def fixed(w):
    """The fixed points of an involution."""
    return frozenset(i for i in range(1, w.n + 1) if w(i) == i)


def test_involution_basics():
    w = st.Involution((2, 1, 3, 5, 4))
    assert w.pairs == [(1, 2), (4, 5)]
    assert w.lo == {1, 4} and w.hi == {2, 5} and fixed(w) == {3}
    assert w.cycle_notation() == "(1 2)(4 5)"
    assert w.blocks == [(1, 2), (3,), (4, 5)]
    assert st.Involution.from_pairs(5, [(4, 5), (1, 2)]) == w
    assert st.Involution((1, 2)).cycle_notation() == "()"
    with pytest.raises(ValueError):
        st.Involution((2, 3, 1))


def test_condition_c_examples():
    assert st.condition_c({1}, {2}, 2)
    assert not st.condition_c({2}, {1}, 2)
    assert st.condition_c({1, 3}, {2, 4}, 4)
    with pytest.raises(ValueError):
        st.condition_c({1}, {1, 2}, 2)


def test_condition_c_pairs_lie_between_min_j_and_max_jp():
    # with |J| = |J'|, the prefix condition puts every point of J and J'
    # between min(J) and max(J')
    for n in range(9):
        for d in range(n // 2 + 1):
            for j, jp, _ in st.enumerate_c_pairs(d, n - d):
                if j:
                    assert all(min(j) <= x <= max(jp) for x in j + jp), (j, jp)


def _brute_involutions(n):
    """Slow oracle: every involution of {1..n}, by filtering all of S_n."""
    return [
        st.Involution(p)
        for p in st.all_perms(n)
        if all(p[p[i] - 1] == i + 1 for i in range(n))
    ]


def test_enumerate_pairings_counts():
    assert len(st.enumerate_pairings(1, 1)) == 1
    assert len(st.enumerate_pairings(2, 2)) == 3
    assert len(st.enumerate_pairings(1, 2)) == 3
    for d in range(6):
        for dp in range(d, 6):
            pairings = st.enumerate_pairings(d, dp)
            assert len(pairings) == st.pairing_count(d, dp)
            assert len(set(pairings)) == len(pairings)
            for w in pairings:
                assert w.n == d + dp
                assert len(w.pairs) == d and len(fixed(w)) == dp - d


def test_enumerate_pairings_vs_filtered_perms():
    for n in range(8):
        involutions = _brute_involutions(n)
        for d in range(n // 2 + 1):
            want = sorted(w for w in involutions if len(w.pairs) == d)
            assert list(st.enumerate_pairings(d, n - d)) == want, (d, n - d)


def test_strata_involutions_known_vectors():
    assert [w.cycle_notation() for w in st.strata_involutions({1, 3}, {2, 4})] == [
        "(1 2)(3 4)"
    ]
    assert sorted(
        w.cycle_notation() for w in st.strata_involutions({1, 2}, {3, 4})
    ) == ["(1 3)(2 4)", "(1 4)(2 3)"]
    assert [w.cycle_notation() for w in st.strata_involutions({1}, {2})] == ["(1 2)"]


def test_strata_involutions_structure():
    for j, jp in [({1, 3}, {2, 4}), ({1, 2}, {3, 4}), ({1, 2}, {4, 5})]:
        n = max(j | jp)
        for w in st.strata_involutions(j, jp, n):
            assert w.lo == set(j) and w.hi == set(jp)
            assert all(i < w(i) for i in j)
            assert fixed(w) == set(range(1, n + 1)) - j - jp


def test_strata_involutions_vs_filtered_perms():
    for n in range(7):
        involutions = _brute_involutions(n)
        for d in range(n // 2 + 1):
            for j, jp, disjoint in st.enumerate_c_pairs(d, n - d):
                if disjoint:
                    want = [w for w in involutions if w.lo == set(j) and w.hi == set(jp)]
                    assert st.strata_involutions(j, jp, n) == sorted(want), (j, jp)


def test_strata_involutions_preconditions():
    with pytest.raises(ValueError):
        st.strata_involutions({1, 2}, {2, 3})
    with pytest.raises(ValueError):
        st.strata_involutions({2}, {1})


def test_enumerate_c_pairs():
    pairs = st.enumerate_c_pairs(1, 1)
    assert [(j, jp) for j, jp, _ in pairs] == [((1,), (1,)), ((1,), (2,)), ((2,), (2,))]
    assert [flag for *_, flag in pairs] == [False, True, False]
    assert st.enumerate_c_pairs(0, 3) == [((), (), True)]


def _c_pairs_by_filter(d, dp):
    """Slow oracle: every ordered pair of d-subsets, filtered by condition_c."""
    n = d + dp
    subsets = list(combinations(range(1, n + 1), d))
    return [
        (j, jp, not set(j) & set(jp))
        for j in subsets
        for jp in subsets
        if st.condition_c(j, jp, n)
    ]


def test_enumerate_c_pairs_vs_all_pairs_filter():
    for total in range(9):
        for d in range(total // 2 + 1):
            assert st.enumerate_c_pairs(d, total - d) == _c_pairs_by_filter(d, total - d), (d, total - d)


def test_every_pairing_comes_from_one_stratum():
    for d in range(5):
        for dp in range(d, 5):
            n = d + dp
            covered = 0
            for j, jp, disjoint in st.enumerate_c_pairs(d, dp):
                if not disjoint:
                    continue
                covered += len(st.strata_involutions(j, jp, n))
            assert covered == len(st.enumerate_pairings(d, dp))


def identity_perm(n):
    return tuple(range(1, n + 1))


def test_ind_character_examples():
    assert st.ind_character(identity_perm(2), 1, 1) == 1
    assert st.ind_character((2, 1), 1, 1) == -1
    assert st.ind_character((2, 3, 1), 1, 2) == 0
    for d in range(4):
        for dp in range(d, 4):
            assert st.ind_character(identity_perm(d + dp), d, dp) == st.pairing_count(d, dp)


def _ind_character_by_lists(sigma, d, dp):
    """Slow oracle: sigma fixes a pairing iff sigma . partner == partner . sigma as lists."""
    s = [x - 1 for x in sigma]
    total = 0
    for w in st.enumerate_pairings(d, dp):
        partner = [j - 1 for j in w.mapping]
        if [s[p] for p in partner] != [partner[x] for x in s]:
            continue
        flips = sum(s[i - 1] > s[j - 1] for i, j in w.pairs)
        total += -1 if flips % 2 else 1
    return total


def test_ind_character_matches_list_oracle():
    for total in range(7):
        for d in range(total // 2 + 1):
            dp = total - d
            for sigma in st.all_perms(total):
                assert st.ind_character(sigma, d, dp) == _ind_character_by_lists(sigma, d, dp), sigma


def test_ind_character_is_class_function():
    for d, dp in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]:
        st.character_table(d, dp)  # raises ClassFunctionError otherwise


def test_character_table_values():
    assert st.character_table(1, 2) == {(1, 1, 1): 3, (2, 1): -1, (3,): 0}
    assert st.character_table(0, 2) == {(1, 1): 1, (2,): 1}


def test_character_table_above_sweep_cap(monkeypatch):
    # above the cap the table is the trace at one permutation per cycle type
    def no_sweep(n):
        raise AssertionError(f"swept all of S_{n}")

    monkeypatch.setattr(st, "all_perms", no_sweep)
    assert st.PERM_SWEEP_MAX_DEGREE == 7
    for d in range(5):
        assert st.character_table(d, 8 - d) == st._character_by_type(d, 8 - d)
    with pytest.raises(AssertionError):
        st.character_table(3, 4)


def test_induced_realization():
    for total in range(st.PERM_SWEEP_MAX_DEGREE + 1):
        for d in range(total // 2 + 1):
            *_, induced, _, ok = st.verify_strata(d, total - d)
            assert induced is True and ok


def test_induced_match_above_the_sweep_cap(monkeypatch):
    # above the per-permutation cap the per-type table is still matched against the induced model
    monkeypatch.setattr(st, "PERM_SWEEP_MAX_DEGREE", 1)
    assert st.verify_strata(0, 2)[4:] == (True, 1, True)
    run = {check.name: check.run for check in checks.CHECKS}
    bounds = dict(checks.DEFAULT_BOUNDS, induced_total=2, invariants_r=1)
    assert run["induced-character-and-invariants"](bounds) is None
    # one class sum doubled above the patched cap fails the match there
    real = st._stabilizer_class_sums
    doubled = lambda d, dp: real(d, dp) if d + dp < 2 else {**real(d, dp), (2,): 2 * real(d, dp)[(2,)]}
    monkeypatch.setattr(st, "_stabilizer_class_sums", doubled)
    assert st.verify_strata(0, 2)[4:] == (False, 1, False)
    assert run["induced-character-and-invariants"](bounds) == (0, 2)


def test_induced_realization_rejects_wrong_traces(monkeypatch):
    real = st.ind_character
    # a class function one off on the transpositions alone
    monkeypatch.setattr(
        st, "ind_character", lambda sigma, d, dp: real(sigma, d, dp) + (st.cycle_type(sigma)[:2] == (2, 1))
    )
    assert st.character_table(1, 2) == {(1, 1, 1): 3, (2, 1): 0, (3,): 0}
    assert not st.matches_induced(st.character_table(1, 2), 1, 2)
    assert st.verify_strata(1, 2)[4:] == (False, 3, False)
    # a trace that is not a class function
    monkeypatch.setattr(st, "ind_character", lambda sigma, d, dp: sigma[0])
    with pytest.raises(st.ClassFunctionError):
        st.character_table(1, 2)
    _, _, _, characters, induced, _, ok = st.verify_strata(1, 2)
    assert isinstance(characters, st.ClassFunctionError) and induced is False and not ok
    # a table missing a cycle type matches nothing
    assert not st.matches_induced({}, 0, 0)


def test_invariants_dim_examples():
    assert st.invariants_dim(1, 1, 2) == 1
    assert st.invariants_dim(1, 1, 3) == 3
    assert st.invariants_dim(1, 2, 2) == 2


def _invariants_dim_by_permutation(d, dp, r_values):
    """Slow oracle: average the trace times r^(cycles) over all of S_{d+d'}."""
    totals = dict.fromkeys(r_values, 0)
    for sigma in st.all_perms(d + dp):
        value = st.ind_character(sigma, d, dp)
        cycles = len(st.cycle_type(sigma))
        for r in r_values:
            totals[r] += value * r**cycles
    order = factorial(d + dp)
    assert all(total % order == 0 for total in totals.values())
    return {r: total // order for r, total in totals.items()}


def test_invariants_dim_vs_permutation_sum():
    for total in range(7):
        for d in range(total // 2 + 1):
            slow = _invariants_dim_by_permutation(d, total - d, range(1, 5))
            assert {r: st.invariants_dim(d, total - d, r) for r in slow} == slow


def test_invariants_dim_closed_form():
    # class sums reach d + d' = 10, where S_10 has 3.6 million permutations
    for r in range(1, 5):
        for total in range(11):
            for d in range(total // 2 + 1):
                dp = total - d
                expected = (comb(comb(r, 2) + d - 1, d) if d else 1) * (
                    comb(r + dp - d - 1, dp - d) if dp > d else 1
                )
                assert st.invariants_dim(d, dp, r) == expected


def test_perm_of_cycle_type():
    sigma = st.perm_of_cycle_type((3, 2, 1))
    assert st.cycle_type(sigma) == (3, 2, 1)
    assert len(sigma) == 6


def test_stabilizer_order_divides():
    # the induced character at the identity is the index of the stabilizer
    for d, dp in [(1, 1), (2, 2), (1, 3)]:
        n = d + dp
        index = factorial(n) // (2**d * factorial(d) * factorial(dp - d))
        assert st._induced_character_by_type(st.cycle_type(identity_perm(n)), d, dp) == index


def _stabilizer_class_sums_by_enumeration(d, dp):
    """Slow oracle: sign x triv summed over every element of H = (Z/2 wr S_d) x S_{d'-d}."""
    sums = Counter()
    image = [0] * (d + dp)
    for order in permutations(range(d)):
        for flips in product((0, 1), repeat=d):
            for k, (target, flip) in enumerate(zip(order, flips)):
                image[2 * k] = 2 * target + 1 + flip
                image[2 * k + 1] = 2 * target + 2 - flip
            sign = -1 if sum(flips) % 2 else 1
            for rest in permutations(range(2 * d + 1, d + dp + 1)):
                image[2 * d :] = rest
                sums[st.cycle_type(image)] += sign
    return sums


def test_stabilizer_class_sums_vs_enumeration():
    # the wreath factor walked, S_{d'-d} added by class size, against a walk of all of H
    for n in range(9):
        for d in range(n // 2 + 1):
            fast = {lam: v for lam, v in st._stabilizer_class_sums(d, n - d).items() if v}
            slow = {lam: v for lam, v in _stabilizer_class_sums_by_enumeration(d, n - d).items() if v}
            assert fast == slow, (d, n - d)


def _sign_of_relabeling(images):
    """Sign of the permutation sending position k to the rank of images[k]."""
    order = sorted(range(len(images)), key=lambda k: images[k])
    sign = 1
    seen = [False] * len(order)
    for start in range(len(order)):
        length = 0
        k = start
        while not seen[k]:
            seen[k] = True
            k = order[k]
            length += 1
        if length and length % 2 == 0:
            sign = -sign
    return sign


def _induced_character_by_conjugation(ctype, d, dp):
    """Slow oracle: (1/|H|) times the sum over g in S_n of sign x triv at g^-1 sigma g.

    H is the stabilizer of the base pairing {1,2}, ..., {2d-1,2d}; the term is
    zero unless the conjugate stabilizes it, that is unless it commutes with
    the base involution, and then it is the sign of the conjugate on the
    paired points.
    """
    n = d + dp
    base = [i + 1 if i % 2 else i - 1 for i in range(1, 2 * d + 1)] + list(range(2 * d + 1, n + 1))
    sigma = st.perm_of_cycle_type(ctype)
    total = 0
    for g in st.all_perms(n):
        ginv = [0] * n
        for i in range(1, n + 1):
            ginv[g[i - 1] - 1] = i
        conj = tuple(ginv[sigma[g[i - 1] - 1] - 1] for i in range(1, n + 1))
        if all(conj[base[i] - 1] == base[conj[i] - 1] for i in range(n)):
            total += _sign_of_relabeling([conj[i - 1] for i in range(1, 2 * d + 1)])
    stab_order = 2**d * factorial(d) * factorial(dp - d)
    assert total % stab_order == 0
    return total // stab_order


def test_induced_character_vs_conjugation_sum():
    for n in range(8):
        for d in range(n // 2 + 1):
            for ctype in partitions(n):
                fast = st._induced_character_by_type(st.cycle_type(st.perm_of_cycle_type(ctype)), d, n - d)
                assert fast == _induced_character_by_conjugation(ctype, d, n - d), (ctype, d)
