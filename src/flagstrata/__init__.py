"""Exact combinatorics of flags, Schur decompositions, involution strata and
orbit counts for block pairs inside GL_N.

Every closed-form count in this package is cross-checked against an
independent brute-force oracle at small scale; the CLI subcommand
``flagstrata selftest`` runs the whole battery.
"""

from .coweights import (
    classify,
    complete_flag_dim,
    automorphism_dim,
    fibration_dim_identity,
    fibration_rank,
    flag_bundle_dim,
    flag_mass_margin,
    flag_groupoid_dim,
    interleave,
    is_interleaved,
    odd_even_split,
    special_transposition_chain,
    staircase_pairing,
)
from .schur import (
    SymPoly,
    decompose_schur,
    dominant_index,
    antidominant_index,
    pieri,
    schur_poly,
    verify_multiplicity_free,
)
from .strata import (
    Involution,
    condition_c,
    enumerate_pairings,
    ind_character,
    invariants_dim,
    strata_involutions,
    verify_induced_realization,
)
from .flagcount import (
    QPoly,
    QRat,
    aut_order_poly,
    collided_fiber_mass,
    collided_mass_top,
    count_flags_brute,
    count_flags_poly,
    fiber_mass,
    merge_type,
)
from .orbits import classifying_pairs, dual_classifying_pairs, k_orbits, verify_counts
from .levi import BlockLevi, is_antistandard, j_set, f_val, verify_inequality

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
