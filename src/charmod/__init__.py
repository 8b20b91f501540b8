"""Characteristic and cocharacteristic modules of graded quotient rings.

Given a graded quotient R = Q/I of a polynomial ring over a prime field,
this package computes minimal free resolutions, Hilbert series, depth,
type and related invariants; the quasi-canonical module E of R; the
characteristic module T_M and cocharacteristic module E_M of an R-module
M by two independent routes; and runs mechanical checkers for the
structural theorems relating them.
"""

from .ring import PolyRing, Polynomial, PrimeField
from .groebner import Ideal, QuotientRing, intersect_ideals, quotient
from .freemod import GradedFreeModule, GradedMatrix
from .resolution import BettiTable, FreeResolution, PresentedModule, resolve
from .homology import (
    IsoProbeResult,
    ModuleMap,
    hilbert_function_basis,
    hom_module,
    iso_probe,
    tensor_module,
)
from .invariants import (
    HilbertSeries,
    annihilator,
    depth_module,
    dimension,
    is_cohen_macaulay,
    is_gorenstein_ring,
    module_report,
    nu,
    ring_report,
    type_of,
)
from .characteristic import (
    CanonicalData,
    CheckReport,
    alpha_map,
    beta_map,
    char_module,
    char_via_hom,
    check_cor_artinian,
    check_cor_id,
    check_faithful,
    check_gorenstein,
    check_thm8,
    check_type_formula,
    check_type_formula_depth,
    cochar_module,
    cochar_via_tensor,
    iso_probe_shifted,
    quasi_canonical,
    split_identity_check,
    tor_modules,
)
from .cmr import CmrError, InputDocument, load, parse, render
from .corpus import corpus_battery, generate_corpus, hunt_counterexample
from .kernel import HAVE_FAST, backend_name

__version__ = "1.0.0"

__all__ = [
    "PolyRing", "Polynomial", "PrimeField",
    "Ideal", "QuotientRing", "intersect_ideals", "quotient",
    "GradedFreeModule", "GradedMatrix",
    "BettiTable", "FreeResolution", "PresentedModule", "resolve",
    "IsoProbeResult", "ModuleMap", "hilbert_function_basis",
    "hom_module", "iso_probe", "tensor_module",
    "HilbertSeries", "annihilator", "depth_module", "dimension",
    "is_cohen_macaulay", "is_gorenstein_ring",
    "module_report", "nu", "ring_report", "type_of",
    "CanonicalData", "CheckReport", "alpha_map", "beta_map",
    "char_module", "char_via_hom", "check_cor_artinian", "check_cor_id",
    "check_faithful", "check_gorenstein", "check_thm8",
    "check_type_formula", "check_type_formula_depth",
    "cochar_module", "cochar_via_tensor", "iso_probe_shifted",
    "quasi_canonical", "split_identity_check", "tor_modules",
    "CmrError", "InputDocument", "load", "parse", "render",
    "corpus_battery", "generate_corpus", "hunt_counterexample",
    "HAVE_FAST", "backend_name",
    "__version__",
]
