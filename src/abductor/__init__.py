"""Propositional abduction workbench: exact solvers over Boolean constraint
languages, model-enumeration engines, reduction constructions, and brute-force
oracles for cross-validation."""

from .core import (AbductionInstance, Assignment, Constraint, Explanation,
                   Formula, FragmentError, PreprocessResult, Relation,
                   StructureError, evaluate, formula, is_explanation,
                   preprocess)
from .langlib import (ConstraintLanguage, SparsityCertificate,
                      branching_closure, check_sparsity, derive_inequality,
                      invariant, minor, substitute)
from .satenum import (EnumStats, ModelStream, SimpleSatInstance, compile_kb,
                      decide, enumerate_models, enumerate_weight_ordered,
                      solve_simple_sat, sparse_enumerate)
from .solvers import (AbdResult, ExplanationSet, abd_kcnf_pos, baseline_abd,
                      baseline_pabd, enum_abd, oracle_abd, oracle_pabd,
                      pabd_enum, pabd_one_valid, pabd_recursive)

__version__ = "0.1.0"

__all__ = [
    "AbductionInstance", "AbdResult", "Assignment", "Constraint",
    "ConstraintLanguage", "EnumStats", "Explanation", "ExplanationSet",
    "Formula", "FragmentError", "ModelStream", "PreprocessResult", "Relation",
    "SimpleSatInstance", "SparsityCertificate", "StructureError",
    "abd_kcnf_pos", "baseline_abd", "baseline_pabd", "branching_closure",
    "check_sparsity", "compile_kb", "decide", "derive_inequality",
    "enum_abd", "enumerate_models", "enumerate_weight_ordered", "evaluate",
    "formula", "invariant", "is_explanation", "minor", "oracle_abd",
    "oracle_pabd", "pabd_enum", "pabd_one_valid", "pabd_recursive",
    "preprocess", "solve_simple_sat", "sparse_enumerate", "substitute",
]
