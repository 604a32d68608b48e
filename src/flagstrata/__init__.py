"""Exact combinatorics of flags, Schur decompositions, involution strata and
orbit counts for block pairs inside GL_N.

Every closed-form count in this package is cross-checked against an
independent brute-force oracle at small scale; the CLI subcommand
``flagstrata selftest`` runs the whole battery.
"""

__version__ = "0.1.0"
