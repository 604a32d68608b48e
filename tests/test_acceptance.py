"""Acceptance battery: every entry of flagstrata.checks at its default bounds.

Each test runs one registry entry, prints one ACCEPTANCE line (visible under
pytest -s), and asserts that no cell fails and that the run stays inside the
entry's budget.  `flagstrata selftest` iterates the same registry.
"""

import time

from flagstrata import checks

# One test per registry entry, in registry order.  The ids predate the registry
# and are kept, not replaced by parametrize ids, so that pass/fail records keyed
# by test id carry over.  The strict zip makes a new entry fail collection until
# it is named here, so no entry runs untested.
TEST_NAMES = (
    "test_criterion_1_multiplicity_free_decomposition",
    "test_criterion_2_margin_exhaustive",
    "test_criterion_3_count_recursions_vs_brute",
    "test_criterion_4_collided_mass_shadow",
    "test_criterion_5_strata_test_vectors",
    "test_criterion_6_induced_structure",
    "test_criterion_7_orbit_counts",
    "test_criterion_8_levi_inequality_exhaustive",
    "test_criterion_9_identity_audits",
)


def _acceptance_test(number, check):
    def test():
        started = time.perf_counter()
        witness = check.run(checks.DEFAULT_BOUNDS)
        elapsed = time.perf_counter() - started
        status = "PASS" if witness is None and elapsed < check.budget else "FAIL"
        print(f"ACCEPTANCE {number} {check.name}: {status} ({elapsed:.1f}s, budget {check.budget}s)")
        assert witness is None, f"{check.name} fails at {witness}"
        assert elapsed < check.budget, f"{check.name} over budget: {elapsed:.1f}s"

    return test


for _number, (_name, _check) in enumerate(zip(TEST_NAMES, checks.CHECKS, strict=True), 1):
    globals()[_name] = _acceptance_test(_number, _check)


def test_degree_and_pieri_cells_catch_patched_formulas(monkeypatch):
    # each closed form that a criterion replays must fail it when it is off by one
    run = {check.name: check.run for check in checks.CHECKS}
    real_flag, real_aut, real_pieri = checks.cw.complete_flag_dim, checks.cw.automorphism_dim, checks.sc.pieri
    monkeypatch.setattr(checks.cw, "complete_flag_dim", lambda mu: real_flag(mu) + (mu == (2, 1)))
    assert run["flag-count-recursion-vs-brute"](checks.DEFAULT_BOUNDS) == ("flags-degree", (2, 1))
    monkeypatch.setattr(checks.cw, "complete_flag_dim", real_flag)
    monkeypatch.setattr(checks.cw, "automorphism_dim", lambda mu: real_aut(mu) + (mu == (1, 1)))
    assert run["flag-count-recursion-vs-brute"](checks.DEFAULT_BOUNDS) == ("units-degree", (1, 1))
    # a strip allowed one row past the 2n variables
    monkeypatch.setattr(checks.sc, "pieri", lambda lam, k, nvars: real_pieri(lam, k, nvars + 1))
    assert run["dimension-identity-audits"](checks.DEFAULT_BOUNDS) == ("pieri-tiling", 1, 1, 2)
