"""Largeness certificates and periodic quotients of free groups.

The package covers five connected pipelines over a free group F of finite
rank: truncated series images of words (a_i -> 1 + x_i), finite quotients
with Schreier data and Reidemeister-Schreier rewriting, iterated verbal
quotients gamma_d = [H,H]H^{q_d}, largeness certificates for power quotients
F/<<g^q>>, and the iterative driver that stacks such relators into a
periodic quotient trace.
"""

from .config import Config, load_config
from .errors import BelowBoundError, CapExceeded, NotMaterializedError
from .largeness import (
    LemmaFiBound,
    bp_certify,
    certify_power_quotient,
    find_avoiding_quotient,
    lemma_fi_bound,
    verify_certificate,
)
from .periodic import (
    ConstructionState,
    check_pigraded_properties,
    format_factors,
    format_order,
    next_step,
    parse_order,
    replay_matches,
    run_construction,
    trace_to_jsonl,
)
from .quotients import (
    FiniteQuotient,
    ModVector,
    SubgroupPresentation,
    build_quotient,
    lemma0_conjugates,
    reidemeister_schreier,
)
from .series import (
    TruncSeries,
    embed,
    unit_image_quotient,
    unit_order,
)
from .verbal import (
    ORDER_EXPONENT_CAP,
    LayeredCoset,
    PrimeSeq,
    VerbalLevel,
    build_series,
    levi_bound,
    quotient_order,
    quotient_order_factors,
)
from .words import (
    Word,
    parse_word,
    random_reduced_word,
    shortlex_words,
)

__version__ = "0.1.0"

__all__ = [
    "BelowBoundError",
    "CapExceeded",
    "Config",
    "ConstructionState",
    "FiniteQuotient",
    "LayeredCoset",
    "LemmaFiBound",
    "ModVector",
    "NotMaterializedError",
    "ORDER_EXPONENT_CAP",
    "PrimeSeq",
    "SubgroupPresentation",
    "TruncSeries",
    "VerbalLevel",
    "Word",
    "bp_certify",
    "build_quotient",
    "build_series",
    "certify_power_quotient",
    "check_pigraded_properties",
    "embed",
    "find_avoiding_quotient",
    "format_factors",
    "format_order",
    "lemma0_conjugates",
    "lemma_fi_bound",
    "levi_bound",
    "load_config",
    "next_step",
    "parse_order",
    "parse_word",
    "quotient_order",
    "quotient_order_factors",
    "random_reduced_word",
    "reidemeister_schreier",
    "replay_matches",
    "run_construction",
    "shortlex_words",
    "trace_to_jsonl",
    "unit_image_quotient",
    "unit_order",
    "verify_certificate",
]
