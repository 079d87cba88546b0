"""Team-semantics model checking for first-order dependence logic.

The package bundles a formula parser and parameter analyzer, finite
structures and teams, three evaluation engines with oracle-grade
cross-checks, Gaifman-graph and treewidth machinery, and generators for
3-SAT and propositional-dependence-logic reduction instances.

The graph and reduction modules, which no `check` runs, are imported on
first access to one of their names, so importing the package compiles
only what a `check` needs.
"""

from .evaluator import (
    BudgetExceededError,
    CheckOutcome,
    Engine,
    check,
    check_fo_tarski,
    find_dep_violation,
    run_check,
)
from .model import (
    Assignment,
    Structure,
    StructureError,
    Team,
    TeamError,
    parse_structure,
    parse_team,
    structure_to_text,
    team_to_text,
)
from .syntax import (
    And,
    Const,
    DepAtom,
    Equality,
    Exists,
    Forall,
    Formula,
    FormulaSyntaxError,
    Func,
    Or,
    RelAtom,
    SyntacticParams,
    Term,
    Var,
    Vocabulary,
    all_variables,
    analyze,
    formula_size,
    free_variables,
    has_dependence_atoms,
    parse_formula,
    pretty,
)

__version__ = "0.1.0"

# name -> the module that defines it, imported on first access to the name
_DEFERRED = dict.fromkeys((
    "Graph",
    "GraphError",
    "TreeDecomposition",
    "ValidationResult",
    "decomposition_from_text",
    "decomposition_to_text",
    "gaifman",
    "treewidth_exact",
    "treewidth_greedy",
    "validate_decomposition",
), "graph") | dict.fromkeys((
    "CNF",
    "CNFError",
    "evaluate_cnf",
    "extract_valuation",
    "parse_dimacs",
    "parse_pdl",
    "pdl_check",
    "pdl_propositions",
    "pdl_sat_brute",
    "pretty_pdl",
    "reduce_3sat",
    "reduce_pdl",
    "sat_brute",
), "reductions")

# so that `from teamcheck import *` binds the deferred names too
__all__ = [name for name in globals() if not name.startswith("_")] + [*_DEFERRED]


def __getattr__(name: str):
    home = _DEFERRED.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _DEFERRED.keys())
