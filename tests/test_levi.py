"""Block Levis: dominance orders, the squeeze set, and the pairing-gap bound."""

import pickle
import random
from itertools import permutations, product

import pytest

from flagstrata import levi as lv


def full_levi(n):
    return lv.BlockLevi(n, [tuple(range(1, n + 1))])


def torus_levi(n):
    return lv.BlockLevi(n, [(i,) for i in range(1, n + 1)])


def weyl_orbit_m(lam, levi):
    """All blockwise permutations of lam (the Levi Weyl orbit)."""
    per_block = [sorted(set(permutations([lam[p - 1] for p in block]))) for block in levi.blocks]
    for combo in product(*per_block):
        yield lv._place(levi, combo)


INTER4 = lv.BlockLevi(4, [(1, 3), (2, 4)])
STD4 = lv.BlockLevi(4, [(1, 2), (3, 4)])
TORUS2 = torus_levi(2)
# every block Levi of rank <= 4, one per set partition (1 + 2 + 5 + 15)
BLOCK_LEVIS = [
    lv.BlockLevi(n, [tuple(b) for b in part])
    for n in range(1, 5)
    for part in lv._set_partitions(list(range(1, n + 1)))
]


# ---------------------------------------------------------------------------
# slow oracles: the squeeze set and the bound computed one (lam, nu) at a time,
# from whole decreasing boxes and with no caches; the sweep kernel in levi.py
# must agree with them on every report and witness


def decreasing_tuples(length, lo, hi):
    if length == 0:
        yield ()
        return
    for first in range(hi, lo - 1, -1):
        for rest in decreasing_tuples(length - 1, lo, first):
            yield (first,) + rest


def dom_m(lam, levi):
    """Levi-dominant representative: sort weakly decreasing inside each block."""
    if len(lam) != levi.n:
        raise ValueError(f"expected length {levi.n}")
    return lv._place(levi, (sorted((lam[p - 1] for p in block), reverse=True) for block in levi.blocks))


def leq_m(lam, mu, levi):
    """Blockwise version of leq_g along each block's induced order."""
    if len(lam) != len(mu) or len(lam) != levi.n:
        raise ValueError("length mismatch")
    for block in levi.blocks:
        run = 0
        for p in block:
            run += mu[p - 1] - lam[p - 1]
            if run < 0:
                return False
        if run != 0:
            return False
    return True


def oracle_j_set(lam, nu, levi):
    if len(lam) != levi.n or len(nu) != levi.n:
        raise ValueError(f"expected length {levi.n}")
    if not lv.weakly_decreasing(nu):
        raise ValueError(f"nu must be dominant, got {nu}")
    if sum(lam) != sum(nu):
        return []
    lo, hi = min(nu), max(nu)
    lam_dom = dom_m(lam, levi)
    per_block = []
    for block in levi.blocks:
        target = sum(lam[p - 1] for p in block)
        choices = [c for c in decreasing_tuples(len(block), lo, hi) if sum(c) == target]
        if not choices:
            return []
        per_block.append(choices)
    out = []
    for combo in product(*per_block):
        mu = lv._place(levi, combo)
        if leq_m(lam_dom, mu, levi) and lv.leq_g(lv.dom_g(mu), nu):
            out.append(mu)
    return sorted(out)


def oracle_verify_inequality(lam, nu, levi):
    rho_gap = tuple(a - b for a, b in zip(lv.two_rho(levi.n), lv.two_rho_levi(levi)))
    rhs = lv.pairing(lam, rho_gap)
    rho_m = lv.two_rho_levi(levi)
    rho = lv.two_rho(levi.n)
    antistandard = lv.is_antistandard(levi)
    mu_star = lv.w0_m(lam, levi) if antistandard and lv.weakly_increasing(lam) else None
    holds = True
    witnesses = []
    for mu in oracle_j_set(lam, nu, levi):
        value = lv.f_val(mu, levi)
        mu_dom = lv.dom_g(mu)
        first = value <= rhs
        second = lv.pairing(
            tuple(a + b for a, b in zip(lam, mu)), rho_m
        ) <= lv.pairing(tuple(a + b for a, b in zip(lam, mu_dom)), rho)
        if not (first and second):
            holds = False
            witnesses.append(
                {
                    "mu": mu,
                    "mu_dom": mu_dom,
                    "f": value,
                    "rhs": rhs,
                    "kind": "mismatch" if first != second else "violation",
                }
            )
            continue
        if mu == mu_star and value != rhs:
            holds = False
            witnesses.append(
                {"mu": mu, "mu_dom": mu_dom, "f": value, "rhs": rhs, "kind": "converse"}
            )
            continue
        if value == rhs:
            expected = (
                lv.weakly_increasing(lam)
                and mu == lv.w0_m(lam, levi)
                and mu_dom == lv.w0_g(lam)
            )
            witnesses.append(
                {
                    "mu": mu,
                    "mu_dom": mu_dom,
                    "f": value,
                    "rhs": rhs,
                    "kind": "equality",
                    "expected_configuration": expected,
                    "lam_antidominant_g": lv.weakly_increasing(lam),
                    "lam_antidominant_m": lv.is_dominant_m(tuple(-x for x in lam), levi),
                }
            )
            if antistandard and not expected:
                holds = False
    return {"holds": holds, "antistandard": antistandard, "witnesses": witnesses}


def oracle_sweep(levi, lam_bound, nu_bound):
    nus = list(decreasing_tuples(levi.n, -nu_bound, nu_bound))
    total = 0
    equalities = []
    failures = []
    for lam in product(range(-lam_bound, lam_bound + 1), repeat=levi.n):
        for nu in nus:
            if sum(nu) != sum(lam):
                continue
            report = oracle_verify_inequality(lam, nu, levi)
            total += 1
            for w in report["witnesses"]:
                if w["kind"] == "equality":
                    equalities.append((lam, nu, w["mu"], w["mu_dom"], w["f"], w["rhs"]))
            if not report["holds"]:
                failures.append((lam, nu, report))
    failures.sort(key=lambda item: (item[0], item[1]))
    return {
        "levi": str(levi),
        "antistandard": lv.is_antistandard(levi),
        "pairs_checked": total,
        "equalities": sorted(equalities),
        "failures": failures,
        "holds": not failures,
    }


def lam_major_sweep(levi, lam_bound, nu_bound):
    """The sweep one lam at a time, as it ran before the class loop: a second slow oracle.

    Each lam looks up the rows of its dom_m class (cached on the block-sorted
    lam, in sorted mu order), pays three pairings for its two sides of the
    bound, and walks every row; each report copies its witness dicts.  It
    reaches sizes where oracle_sweep, one (lam, nu) at a time, is too slow.
    """
    n = levi.n
    rho, rho_m = lv.two_rho(n), lv.two_rho_levi(levi)
    rho_gap = tuple(a - b for a, b in zip(rho, rho_m))
    antistandard = lv.is_antistandard(levi)
    lo, hi = -nu_bound, nu_bound
    class_rows, mu_rows = {}, {}

    def rows(lam):
        if min(lam) < lo or hi < max(lam):
            return []
        tops = tuple(tuple(sorted((lam[p - 1] for p in block), reverse=True)) for block in levi.blocks)
        if tops not in class_rows:
            per_block = [
                [c for c in lv._fixed_sum_tuples(len(top), lo, hi, sum(top)) if lv.leq_g(top, c)] for top in tops
            ]
            found = []
            for mu in sorted(lv._place(levi, combo) for combo in product(*per_block)):
                if mu not in mu_rows:
                    mu_dom = lv.dom_g(mu)
                    g = lv.pairing(mu, rho_m) - lv.pairing(mu_dom, rho)
                    mu_rows[mu] = (mu, mu_dom, lv.f_val(mu, levi), g)
                found.append(mu_rows[mu])
            class_rows[tops] = found
        return class_rows[tops]

    def kept(lam):
        found_rows = rows(lam)
        if not found_rows:
            return []
        rhs = lv.pairing(lam, rho_gap)
        r2 = lv.pairing(lam, rho) - lv.pairing(lam, rho_m)
        antidominant = lv.weakly_increasing(lam)
        reversed_m, reversed_g = (lv.w0_m(lam, levi), lv.w0_g(lam)) if antidominant else (None, None)
        mu_star = reversed_m if antistandard else None
        out = []
        for mu, mu_dom, value, g in found_rows:
            if value < rhs and g <= r2 and mu != mu_star:
                continue
            first, second = value <= rhs, g <= r2
            found = {"mu": mu, "mu_dom": mu_dom, "f": value, "rhs": rhs}
            if not (first and second):
                found["kind"] = "mismatch" if first != second else "violation"
                out.append((found, False))
            elif mu == mu_star and value != rhs:
                found["kind"] = "converse"
                out.append((found, False))
            else:
                expected = antidominant and mu == reversed_m and mu_dom == reversed_g
                found["kind"] = "equality"
                found["expected_configuration"] = expected
                found["lam_antidominant_g"] = antidominant
                found["lam_antidominant_m"] = lv.is_dominant_m(tuple(-x for x in lam), levi)
                out.append((found, expected or not antistandard))
        return out

    total = 0
    equalities = []
    failures = []
    for lam in product(range(-lam_bound, lam_bound + 1), repeat=n):
        nus = list(lv._fixed_sum_tuples(n, lo, hi, sum(lam)))
        total += len(nus)
        witnesses = kept(lam)
        for nu in nus if witnesses else ():
            below = [(found, ok) for found, ok in witnesses if lv.leq_g(found["mu_dom"], nu)]
            report = {
                "holds": all(ok for _, ok in below),
                "antistandard": antistandard,
                "witnesses": [dict(found) for found, _ in below],
            }
            for w in report["witnesses"]:
                if w["kind"] == "equality":
                    equalities.append((lam, nu, w["mu"], w["mu_dom"], w["f"], w["rhs"]))
            if not report["holds"]:
                failures.append((lam, nu, report))
    failures.sort(key=lambda item: (item[0], item[1]))
    return {
        "levi": str(levi),
        "antistandard": antistandard,
        "pairs_checked": total,
        "equalities": sorted(equalities),
        "failures": failures,
        "holds": not failures,
    }


def test_block_levi_validation():
    with pytest.raises(ValueError):
        lv.BlockLevi(3, [(1, 2)])
    with pytest.raises(ValueError):
        lv.BlockLevi(3, [(1, 2), (2, 3)])
    assert lv.parse_blocks(4, "[[1,3],[2,4]]") == INTER4
    assert str(INTER4) == "[[1,3],[2,4]]"


def test_block_levi_is_an_immutable_value():
    with pytest.raises(AttributeError):
        INTER4.n = 5
    with pytest.raises(AttributeError):
        INTER4.blocks = ((1, 2, 3, 4),)
    # blocks in any order, each in any order, give one Levi
    for blocks in permutations([(3, 1), (4, 2)]):
        for levi in (lv.BlockLevi(4, blocks), lv.BlockLevi(4, [b[::-1] for b in blocks])):
            assert levi == INTER4 and hash(levi) == hash(INTER4)
            assert levi.blocks == ((1, 3), (2, 4))
    assert INTER4 != STD4
    assert repr(INTER4) == "BlockLevi(n=4, blocks=((1, 3), (2, 4)))"  # the frozen dataclass repr
    assert pickle.loads(pickle.dumps(INTER4)) == INTER4


def test_two_rho():
    assert lv.two_rho(4) == (3, 1, -1, -3)
    assert sum(lv.two_rho(7)) == 0
    assert lv.two_rho_levi(INTER4) == (1, 1, -1, -1)
    assert lv.two_rho_levi(full_levi(3)) == lv.two_rho(3)
    assert lv.two_rho_levi(torus_levi(5)) == (0, 0, 0, 0, 0)


def test_antistandard_examples():
    assert lv.is_antistandard(INTER4)
    assert not lv.is_antistandard(STD4)
    assert lv.is_antistandard(TORUS2)
    assert not lv.is_antistandard(full_levi(3))


def test_interleaved_levi_antistandard_up_to_rank_eight():
    # the odd/even Levi of GL_{2n}; every simple block coroot pairs to exactly 2
    for n in range(1, 5):
        blocks = [tuple(range(1, 2 * n, 2)), tuple(range(2, 2 * n + 1, 2))]
        levi = lv.BlockLevi(2 * n, blocks)
        assert lv.is_antistandard(levi)
        gap = [a - b for a, b in zip(lv.two_rho(2 * n), lv.two_rho_levi(levi))]
        for block in levi.blocks:
            for a, b in zip(block, block[1:]):
                assert gap[a - 1] - gap[b - 1] == 2


def test_dominant_representatives():
    assert lv.dom_g((0, 1, -2)) == (1, 0, -2)
    assert dom_m((3, 0, 1, 2), INTER4) == (3, 2, 1, 0)
    assert dom_m((1, 2), TORUS2) == (1, 2)


def test_dom_m_is_orbit_maximum():
    for levi in (INTER4, STD4, lv.BlockLevi(4, [(1, 2, 4), (3,)])):
        for lam in product(range(-1, 2), repeat=4):
            top = dom_m(lam, levi)
            assert lv.is_dominant_m(top, levi)
            for w_lam in weyl_orbit_m(lam, levi):
                assert leq_m(w_lam, top, levi)


def test_leq_orders():
    assert lv.leq_g((0, 0), (1, -1))
    assert not lv.leq_g((1, -1), (0, 0)) or lv.leq_g((0, 0), (1, -1))
    assert leq_m((1, 0, -1, 0), (1, 0, -1, 0), INTER4)
    assert lv.leq_g((1, 1), (1, 1))
    assert not lv.leq_g((1, 0), (2, 0))
    # inside a block of the interleaved Levi: e_1 - e_3 is a positive coroot
    assert leq_m((0, 0, 0, 0), (1, 0, -1, 0), INTER4)
    assert not leq_m((0, 0, 0, 0), (1, -1, 0, 0), INTER4)


def test_j_set_examples():
    assert lv.j_set((0, 0), (0, 0), TORUS2) == [(0, 0)]
    assert lv.j_set((-1, 0), (0, -1), TORUS2) == [(-1, 0)]
    assert lv.j_set((-1, 0), (1, 0), TORUS2) == []
    with pytest.raises(ValueError):
        lv.j_set((0, 0), (0, 1), TORUS2)


def test_j_set_matches_literal_definition():
    # oracle: scan the whole box and apply the quantifier-free order tests
    levi = INTER4
    for lam in [(0, 0, 0, 0), (1, -1, 0, 0), (-1, 1, 1, -1), (2, 0, -1, -1)]:
        for nu in [(0, 0, 0, 0), (1, 0, 0, -1), (2, 1, -1, -2), (1, 1, -1, -1)]:
            expected = []
            lo, hi = min(nu), max(nu)
            for mu in product(range(lo, hi + 1), repeat=4):
                if sum(mu) != sum(nu):
                    continue
                if not lv.is_dominant_m(mu, levi):
                    continue
                if not all(
                    leq_m(w_lam, mu, levi) for w_lam in weyl_orbit_m(lam, levi)
                ):
                    continue
                if not all(
                    lv.leq_g(tuple(perm), nu) for perm in set(permutations(mu))
                ):
                    continue
                expected.append(mu)
            assert lv.j_set(lam, nu, levi) == sorted(expected)


def test_j_set_monotone_in_nu():
    levi = INTER4
    for lam in [(0, 0, 0, 0), (1, 0, 0, -1), (1, 1, -1, -1)]:
        for nu in [(1, 0, 0, -1), (1, 1, -1, -1)]:
            for nu2 in [(2, 0, 0, -2), (2, 1, -1, -2)]:
                if lv.leq_g(nu, nu2):
                    smaller = set(lv.j_set(lam, nu, levi))
                    bigger = set(lv.j_set(lam, nu2, levi))
                    assert smaller <= bigger


def test_f_val_examples():
    assert lv.f_val((0, 0), TORUS2) == 0
    assert lv.f_val((-1, 0), TORUS2) == -1
    assert lv.f_val((1, 0), full_levi(2)) == 0
    with pytest.raises(ValueError):
        lv.f_val((0, 0, 1, 0), INTER4)


def test_f_val_nonpositive_at_desk_scale():
    for levi in (INTER4, STD4, torus_levi(4), full_levi(4)):
        for mu in product(range(-2, 3), repeat=4):
            if lv.is_dominant_m(mu, levi):
                assert lv.f_val(mu, levi) <= 0, (mu, str(levi))


def test_verify_inequality_examples():
    report = lv.verify_inequality((0, 0), (0, 0), TORUS2)
    assert report["holds"]
    eqs = [w for w in report["witnesses"] if w["kind"] == "equality"]
    assert len(eqs) == 1 and eqs[0]["mu"] == (0, 0)

    report = lv.verify_inequality((-1, 0), (0, -1), TORUS2)
    assert report["holds"]
    eqs = [w for w in report["witnesses"] if w["kind"] == "equality"]
    assert len(eqs) == 1
    assert eqs[0]["mu"] == (-1, 0) and eqs[0]["mu_dom"] == (0, -1)
    assert eqs[0]["expected_configuration"]


def test_equality_configuration_fields():
    report = lv.verify_inequality((-1, -1, 0, 0), (0, 0, -1, -1), INTER4)
    for w in report["witnesses"]:
        assert {"mu", "mu_dom", "f", "rhs", "kind"} <= set(w)


def test_antistandard_enumeration_gl4():
    levis = lv.antistandard_levis(4)
    assert INTER4 in levis
    assert STD4 not in levis
    assert torus_levi(4) in levis
    assert len(levis) == 5


def test_antistandard_levis_are_counted_by_bell_numbers():
    # a block Levi is antistandard exactly when no block holds both i and i + 1,
    # so the antistandard Levis of GL_n are counted by Bell(n - 1)
    assert [len(lv.antistandard_levis(n)) for n in range(1, 8)] == [1, 1, 2, 5, 15, 52, 203]
    for n in range(1, 8):
        for part in lv._set_partitions(list(range(1, n + 1))):
            apart = not any(i in block and i + 1 in block for block in part for i in range(1, n))
            assert lv.is_antistandard(lv.BlockLevi(n, [tuple(b) for b in part])) == apart, part


def test_sweep_holds_small():
    res = lv.sweep_inequality(INTER4, 1, 1)
    assert res["holds"] and res["pairs_checked"] > 0 and not res["failures"]


def test_levi_criterion_stops_at_the_first_failing_levi(monkeypatch):
    from flagstrata import checks

    swept = []
    real_sweep = lv.sweep_inequality
    monkeypatch.setattr(lv, "sweep_inequality", lambda levi, *box: swept.append(str(levi)) or real_sweep(levi, *box))
    run = {check.name: check.run for check in checks.CHECKS}["levi-pairing-gap-bound"]
    levis = [str(levi) for n in range(1, 5) for levi in lv.antistandard_levis(n)]
    real_f = lv.f_val
    for f, verdict, levis_swept in [
        # all nine antistandard Levis of rank <= 4, in order
        (real_f, None, levis),
        # one below its value: no bound is attained, so the first Levi fails its converse
        (lambda mu, levi: real_f(mu, levi) - 1, ("[[1]]", (-2,), (-2,)), ["[[1]]"]),
    ]:
        monkeypatch.setattr(lv, "f_val", f)
        swept.clear()
        assert run(checks.DEFAULT_BOUNDS) == verdict and swept == levis_swept


def test_rearrangement_mismatch_fails_with_witness(monkeypatch):
    monkeypatch.setattr(lv, "f_val", lambda mu, levi: 10**6)
    report = lv.verify_inequality((-1, 0), (0, -1), TORUS2)
    assert not report["holds"]
    assert [w["kind"] for w in report["witnesses"]] == ["mismatch"]
    assert report["witnesses"][0]["mu"] == (-1, 0)


def test_fixed_sum_tuples_match_filtered_box():
    for length in range(6):
        for lo in range(-3, 4):
            for hi in range(lo, 4):
                box = list(decreasing_tuples(length, lo, hi))
                for total in range(length * lo - 2, length * hi + 3):
                    expected = [t for t in box if sum(t) == total]
                    assert list(lv._fixed_sum_tuples(length, lo, hi, total)) == expected


def test_sweep_matches_slow_oracle():
    cases = [(levi, bound, bound) for levi in BLOCK_LEVIS for bound in (0, 1)]
    cases += [(levi, 2, 2) for levi in BLOCK_LEVIS if lv.is_antistandard(levi)]
    # rank 5: every antistandard Levi, one that is not, and the oracle-scale call
    cases += [(levi, 1, 1) for levi in lv.antistandard_levis(5)]
    cases += [(lv.parse_blocks(5, "[[1,2],[3,4],[5]]"), 1, 1), (lv.parse_blocks(5, "[[1,3,5],[2,4]]"), 1, 2)]
    # lam beyond the nu range, where a lam with an entry outside it has no candidate
    cases += [(levi, 2, 1) for levi in BLOCK_LEVIS]
    # Levis that are not antistandard, where one dom_m class holds up to 24 lams
    cases += [(lv.parse_blocks(4, blocks), 2, 2) for blocks in ("[[1,2,3],[4]]", "[[1,2,3,4]]", "[[1,2,4],[3]]")]
    for levi, lam_bound, nu_bound in cases:
        assert lv.sweep_inequality(levi, lam_bound, nu_bound) == oracle_sweep(levi, lam_bound, nu_bound), (
            str(levi), lam_bound, nu_bound,
        )


def test_entry_points_match_slow_oracle():
    rng = random.Random(6)
    for levi in BLOCK_LEVIS:
        n = levi.n
        for _ in range(25):
            lam = tuple(rng.randint(-2, 2) for _ in range(n))
            same_sum = [nu for nu in decreasing_tuples(n, -3, 3) if sum(nu) == sum(lam)]
            for nu in (rng.choice(same_sum), tuple(sorted(lam, reverse=True)), (n,) + (0,) * (n - 1)):
                assert lv.j_set(lam, nu, levi) == oracle_j_set(lam, nu, levi)
                assert lv.verify_inequality(lam, nu, levi) == oracle_verify_inequality(lam, nu, levi)
    # the same errors, raised in the same order
    for lam, nu in [((0,), (0, 0)), ((0, 0, 0), (0, 0)), ((0, 0), (0,)), ((0, 0), (0, 1))]:
        for new, old in ((lv.j_set, oracle_j_set), (lv.verify_inequality, oracle_verify_inequality)):
            with pytest.raises(ValueError) as fast:
                new(lam, nu, TORUS2)
            with pytest.raises(ValueError) as slow:
                old(lam, nu, TORUS2)
            assert str(fast.value) == str(slow.value)


def test_sweep_sees_rebound_f_val(monkeypatch):
    # the kernel's caches live for one sweep, so the next sweep reads the new f_val
    real_f = lv.f_val
    kinds = set()
    for levi in (INTER4, STD4):
        before = lv.sweep_inequality(levi, 1, 1)
        assert before["holds"]
        for shift in (-1, 1):
            monkeypatch.setattr(lv, "f_val", lambda mu, levi, shift=shift: real_f(mu, levi) + shift)
            after = lv.sweep_inequality(levi, 1, 1)
            assert after != before
            assert after == oracle_sweep(levi, 1, 1)
            kinds |= {w["kind"] for _, _, report in after["failures"] for w in report["witnesses"]}
            monkeypatch.setattr(lv, "f_val", real_f)
    # f one below misses the converse; one above breaks only the first
    # arrangement of the bound
    assert kinds == {"converse", "mismatch"}


def test_sweep_calls_f_val_once_per_candidate_mu(monkeypatch):
    # a sweep keeps one row per mu, so f_val runs once for each Levi-dominant mu
    # in the nu box, however many classes hold that mu among their candidates
    real_f = lv.f_val
    for levi, calls in [(torus_levi(4), 625), (INTER4, 225), (lv.parse_blocks(5, "[[1,3,5],[2,4]]"), 525)]:
        seen = []
        monkeypatch.setattr(lv, "f_val", lambda mu, lev: seen.append(mu) or real_f(mu, lev))
        lv.sweep_inequality(levi, 2, 2)
        assert len(seen) == len(set(seen)) == calls, str(levi)
        candidates = [mu for mu in product(range(-2, 3), repeat=levi.n) if lv.is_dominant_m(mu, levi)]
        assert sorted(seen) == candidates


def test_shared_caches_keep_no_hook_value(monkeypatch):
    # the integer enumerations outlive a sweep; warmed by every antistandard Levi
    # of rank <= 4, they must still give the oracle's sweep under a rebound
    # pairing and f_val, so no cache holds a value that a hook computed
    levis = [levi for n in range(1, 5) for levi in lv.antistandard_levis(n)]
    boxes = ((1, 1), (2, 1), (1, 2))
    for levi in levis:
        for box in boxes:
            lv.sweep_inequality(levi, *box)

    def weighted(a, b):
        if len(a) != len(b):
            raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
        return sum((i + 1) * x * y for i, (x, y) in enumerate(zip(a, b)))

    real_f = lv.f_val
    monkeypatch.setattr(lv, "pairing", weighted)
    monkeypatch.setattr(lv, "f_val", lambda mu, levi: real_f(mu, levi) + (not any(mu)))
    hits = lv._block_choices.cache_info().hits
    for levi in levis:
        for box in boxes:
            assert lv.sweep_inequality(levi, *box) == oracle_sweep(levi, *box), (str(levi), box)
    assert lv._block_choices.cache_info().hits > hits


def test_class_split_matches_literal_arrangement(monkeypatch):
    # the sweep splits <lam + mu, 2rho_M> <= <lam + dom_g(mu), 2rho> into a mu side
    # per class and a lam side per lam; under a weighted inner product, still
    # bilinear, it must agree with the literal sums of the slow oracle
    def weighted(a, b):
        if len(a) != len(b):
            raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
        return sum((i + 1) * x * y for i, (x, y) in enumerate(zip(a, b)))

    monkeypatch.setattr(lv, "pairing", weighted)
    kinds = set()
    for levi in (INTER4, STD4, lv.parse_blocks(4, "[[1,2,3],[4]]"), torus_levi(3)):
        res = lv.sweep_inequality(levi, 1, 1)
        assert res == oracle_sweep(levi, 1, 1), str(levi)
        kinds |= {w["kind"] for _, _, report in res["failures"] for w in report["witnesses"]}
    assert kinds == {"violation", "converse"}


def test_sweep_matches_lam_major_oracle():
    # every antistandard Levi of rank <= 5 at three (lam_bound, nu_bound), where
    # the literal oracle would take minutes
    levis = [levi for n in range(1, 6) for levi in lv.antistandard_levis(n)]
    cases = [(levi, lb, nb) for levi in levis for lb, nb in ((1, 1), (2, 1), (1, 2))]
    # Levis that are not antistandard, where one dom_m class holds up to 24 lams
    cases += [(lv.parse_blocks(4, blocks), 2, 2) for blocks in ("[[1,2,3,4]]", "[[1,2,3],[4]]", "[[1,2,4],[3]]")]
    for levi, lam_bound, nu_bound in cases:
        assert lv.sweep_inequality(levi, lam_bound, nu_bound) == lam_major_sweep(levi, lam_bound, nu_bound), (
            str(levi), lam_bound, nu_bound,
        )


def class_members(lam, levi):
    return set(weyl_orbit_m(lam, levi))


def test_class_shortcuts_keep_a_raised_f_val(monkeypatch):
    # f far above the bound at one mu whose dom_m class holds several lams: every
    # lam with that mu among its candidates, the whole class of mu included, fails
    real_f = lv.f_val
    for levi, mu in [(INTER4, (1, 0, -1, 0)), (lv.parse_blocks(4, "[[1,2,3],[4]]"), (1, 0, -1, 0))]:
        assert len(class_members(mu, levi)) > 1
        monkeypatch.setattr(lv, "f_val", lambda m, lev, mu=mu: real_f(m, lev) + (100 if m == mu else 0))
        res = lv.sweep_inequality(levi, 1, 1)
        assert res == oracle_sweep(levi, 1, 1), str(levi)
        failing = {lam for lam, _, _ in res["failures"]}
        assert class_members(mu, levi) <= failing
        kinds = {w["kind"] for _, _, report in res["failures"] for w in report["witnesses"]}
        assert kinds - {"equality"} == {"mismatch"}
        monkeypatch.setattr(lv, "f_val", real_f)


def test_class_shortcuts_keep_the_converse(monkeypatch):
    # f one below: no bound is attained, so the only failures are converses at
    # antidominant lams; each of them sits in a class whose every lam clears the
    # largest f and g of its rows, so only the class's antidominant lam is judged
    real_f = lv.f_val
    monkeypatch.setattr(lv, "f_val", lambda mu, levi: real_f(mu, levi) - 1)
    for levi in (INTER4, lv.parse_blocks(5, "[[1,3,5],[2,4]]")):
        res = lv.sweep_inequality(levi, 1, 1)
        assert res == oracle_sweep(levi, 1, 1), str(levi)
        assert res["failures"] and not res["equalities"]
        kinds = {w["kind"] for _, _, report in res["failures"] for w in report["witnesses"]}
        assert kinds == {"converse"}
        rho, rho_m = lv.two_rho(levi.n), lv.two_rho_levi(levi)
        skipped = 0
        for lam in {lam for lam, _, _ in res["failures"]}:
            assert lv.weakly_increasing(lam)
            members = class_members(lam, levi)
            nus = [nu for nu in decreasing_tuples(levi.n, -1, 1) if sum(nu) == sum(lam)]
            rows = {mu for nu in nus for mu in oracle_j_set(lam, nu, levi)}
            max_f = max(lv.f_val(mu, levi) for mu in rows)
            max_g = max(lv.pairing(mu, rho_m) - lv.pairing(lv.dom_g(mu), rho) for mu in rows)
            gap = [a - b for a, b in zip(rho, rho_m)]
            sides = [(lv.pairing(m, gap), lv.pairing(m, rho) - lv.pairing(m, rho_m)) for m in members]
            if all(rhs > max_f and r2 >= max_g for rhs, r2 in sides):
                skipped += len(members) > 1
        assert skipped


def test_levi_criterion_counts_antistandard_levis(monkeypatch):
    from flagstrata import checks

    run = {check.name: check.run for check in checks.CHECKS}["levi-pairing-gap-bound"]
    assert run(checks.DEFAULT_BOUNDS) is None
    # admit the full Levi of GL_3, which holds 1, 2 and 3 in one block
    real = lv.is_antistandard
    monkeypatch.setattr(lv, "is_antistandard", lambda levi: real(levi) or levi == full_levi(3))
    assert run(checks.DEFAULT_BOUNDS) == ("antistandard-count", 3, 3, 2)
