"""The per-layer metrics read from a traced repetition.

Each metric names the span it reads.  When the span does not exist (the
function was renamed or removed) or its result no longer has the expected
shape, the metric's value is ``None`` and it is reported absent.
"""

from __future__ import annotations

LAYERS = ("cli", "coweights", "schur", "strata", "flagcount", "orbits", "levi", "gf")

# Values kept from every return of these spans.
RESULT_HOOKS = {
    "orbits.all_flags": len,
    "levi.j_set": len,
    "flagcount.collided_fiber_mass": lambda result: result[0].den.degree,
}

# Spans whose call count is a metric.
CALLS = {
    "gf.rref.calls": "gf.rref",
    "gf.in_span.calls": "gf.in_span",
    "orbits.union.calls": "orbits.UnionFind.union",
    "flagcount.qpoly_mul.calls": "flagcount.QPoly.__mul__",
    "flagcount.qrat_add.calls": "flagcount.QRat.__add__",
    "strata.ind_character.calls": "strata.ind_character",
    "levi.verify_inequality.calls": "levi.verify_inequality",
    "levi.j_set.calls": "levi.j_set",
    "schur.schur_poly.calls": "schur.schur_poly",
}

# Spans whose inclusive time is a metric.
INCLUSIVE = {
    "flagcount.units_brute.s": "flagcount.count_commutant_units_brute",
    "flagcount.flags_brute.s": "flagcount.count_flags_brute",
    "schur.decompose.s": "schur.decompose_schur",
}

# lru caches whose hit ratio is a metric, reported with its hits + misses base.
CACHES = {
    "schur.schur_poly": "schur.schur_poly",
    "flagcount.flags_poly": "flagcount.count_flags_poly",
    "flagcount.aut_poly": "flagcount.aut_order_poly",
    "strata.pairings": "strata.enumerate_pairings",
}

# name -> (unit, better), in report order.
PER_LAYER = {f"{layer}.self_s": ("s", "lower") for layer in LAYERS}
PER_LAYER.update({name: ("s", "lower") for name in INCLUSIVE})
PER_LAYER.update({name: ("count", "lower") for name in CALLS})
PER_LAYER.update(
    {
        "orbits.flags": ("count", "lower"),
        "levi.j_set.mu": ("count", "lower"),
        "flagcount.mass_den_degree": ("degree", "lower"),
        "coweights.calls": ("count", "lower"),
    }
)
for _prefix in CACHES:
    PER_LAYER[f"{_prefix}.hit_ratio"] = ("ratio", "higher")
    PER_LAYER[f"{_prefix}.lookups"] = ("count", "lower")
PER_LAYER["trace.overhead_s"] = ("s", "lower")


def install_hooks(tracer) -> None:
    for key, hook in RESULT_HOOKS.items():
        tracer.on_result(key, hook)


def collect(tracer) -> dict[str, float | None]:
    """Every per-layer metric except ``trace.overhead_s``, which needs two runs."""
    out: dict[str, float | None] = {}
    self_s = tracer.layer_self()
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer)
    for name, key in INCLUSIVE.items():
        stat = tracer.stats.get(key)
        out[name] = stat.total_s if stat else None
    for name, key in CALLS.items():
        stat = tracer.stats.get(key)
        out[name] = stat.calls if stat else None
    out["orbits.flags"] = _hooked(tracer, "orbits.all_flags", sum)
    out["levi.j_set.mu"] = _hooked(tracer, "levi.j_set", sum)
    out["flagcount.mass_den_degree"] = _hooked(
        tracer, "flagcount.collided_fiber_mass", lambda v: max(v, default=0)
    )
    out["coweights.calls"] = tracer.layer_calls().get("coweights")
    for prefix, key in CACHES.items():
        info = tracer.cache_info(key)
        if info is None:
            out[f"{prefix}.hit_ratio"] = out[f"{prefix}.lookups"] = None
            continue
        lookups = info.hits + info.misses
        out[f"{prefix}.hit_ratio"] = info.hits / lookups if lookups else 0.0
        out[f"{prefix}.lookups"] = lookups
    return out


def _hooked(tracer, key: str, combine):
    values = tracer.results.get(key, [])
    if key not in tracer.stats or None in values:
        return None
    return combine(values)
