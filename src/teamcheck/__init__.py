"""Team-semantics model checking for first-order dependence logic.

The package bundles a formula parser and parameter analyzer, finite
structures and teams, three evaluation engines with oracle-grade
cross-checks, Gaifman-graph and treewidth machinery, and generators for
3-SAT and propositional-dependence-logic reduction instances.
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
from .graph import (
    Graph,
    GraphError,
    TreeDecomposition,
    ValidationResult,
    decomposition_from_text,
    decomposition_to_text,
    gaifman,
    treewidth_exact,
    treewidth_greedy,
    validate_decomposition,
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
from .reductions import (
    CNF,
    CNFError,
    evaluate_cnf,
    extract_valuation,
    parse_dimacs,
    parse_pdl,
    pdl_check,
    pdl_propositions,
    pdl_sat_brute,
    pretty_pdl,
    reduce_3sat,
    reduce_pdl,
    sat_brute,
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
