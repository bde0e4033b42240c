"""Exact truncated q-series engine and congruence verification harness
for biregular overpartitions."""

__version__ = "0.1.0"

from .etaq import (
    BiregularSpec,
    EtaQuotient,
    biregular_gf,
    materialize_eta,
    overpartition_gf,
    pochhammer,
    pochhammer_product,
    regular_overpartition_gf,
)
from .series import QSeries, Ring, RingMismatchError, ZZ, congruent_upto, mod_ring

__all__ = [
    "BiregularSpec",
    "EtaQuotient",
    "QSeries",
    "Ring",
    "RingMismatchError",
    "ZZ",
    "biregular_gf",
    "congruent_upto",
    "materialize_eta",
    "mod_ring",
    "overpartition_gf",
    "pochhammer",
    "pochhammer_product",
    "regular_overpartition_gf",
    "__version__",
]
