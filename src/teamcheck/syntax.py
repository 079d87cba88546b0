"""Vocabulary, terms, and negation-normal-form formulas with dependence atoms.

Concrete grammar (ASCII):

    formula := disj
    disj    := conj ('|' conj)*
    conj    := unit ('&' unit)*
    unit    := atom | '!' relatom | quant | '(' formula ')'
    quant   := ('forall'|'exists') VAR unit
    atom    := relatom | term '=' term | depatom
    depatom := '=(' termlist? ';' termlist ')'
    relatom := RELNAME '(' termlist ')'
    term    := VAR | CONST | FUNC '(' termlist ')'

``=(x,y;z)`` is the dependence atom with antecedent (x, y) and consequent
(z,); ``=(;y)`` is a constancy atom.  Binary connectives associate to the
left, '&' binds tighter than '|', and a quantifier scopes over a single
unit (parenthesize for a wider scope).  Negation exists only on relation
atoms; negated equalities and negated dependence atoms are rejected.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union

KEYWORDS = frozenset({"forall", "exists"})

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|[()=,;|&!]")


class FormulaSyntaxError(ValueError):
    """Lexical, grammatical, or vocabulary error in formula text."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


@dataclass(frozen=True)
class Vocabulary:
    """Declared relation, function, and constant symbols.

    Relation and function symbols carry an arity of at least one; the
    three name spaces must not overlap and must avoid the keywords.
    """

    relations: Mapping[str, int] = field(default_factory=dict)
    functions: Mapping[str, int] = field(default_factory=dict)
    constants: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "relations", dict(self.relations))
        object.__setattr__(self, "functions", dict(self.functions))
        object.__setattr__(self, "constants", frozenset(self.constants))
        seen: set[str] = set()
        for name in (*self.relations, *self.functions, *self.constants):
            if not _IDENT.fullmatch(name):
                raise ValueError(f"invalid symbol name {name!r}")
            if name in KEYWORDS:
                raise ValueError(f"symbol name {name!r} is a reserved keyword")
            if name in seen:
                raise ValueError(f"symbol {name!r} declared more than once")
            seen.add(name)
        for name, arity in (*self.relations.items(), *self.functions.items()):
            if arity < 1:
                raise ValueError(f"symbol {name!r} must have arity >= 1, got {arity}")


EMPTY_VOCABULARY = Vocabulary()


# --- terms -----------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Func:
    name: str
    args: tuple["Term", ...]


Term = Union[Var, Const, Func]


# --- formulas ---------------------------------------------------------------

@dataclass(frozen=True)
class Equality:
    left: Term
    right: Term


@dataclass(frozen=True)
class RelAtom:
    name: str
    args: tuple[Term, ...]
    negated: bool = False


@dataclass(frozen=True)
class DepAtom:
    """Dependence atom: rows agreeing on `antecedent` agree on `consequent`.

    An empty antecedent gives a constancy atom; the consequent is never
    empty.  The arity of the atom is the length of the antecedent.
    """

    antecedent: tuple[Term, ...]
    consequent: tuple[Term, ...]

    def __post_init__(self):
        if not self.consequent:
            raise ValueError("dependence atom needs a nonempty consequent")


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True)
class Forall:
    var: str
    body: "Formula"


Formula = Union[Equality, RelAtom, DepAtom, And, Or, Exists, Forall]

_ATOMS = (Equality, RelAtom, DepAtom)


@dataclass(frozen=True)
class SyntacticParams:
    """The six syntactic parameter values of a formula."""

    splits: int
    foralls: int
    arity: int
    vars: int
    free_vars: int
    size: int


# --- traversals -------------------------------------------------------------

def term_variables(term: Term) -> Iterator[str]:
    if isinstance(term, Var):
        yield term.name
    elif isinstance(term, Func):
        for arg in term.args:
            yield from term_variables(arg)


def _term_symbols(term: Term) -> int:
    if isinstance(term, Func):
        return 1 + sum(_term_symbols(arg) for arg in term.args)
    return 1


def atom_terms(formula: Formula) -> tuple[Term, ...]:
    if isinstance(formula, Equality):
        return (formula.left, formula.right)
    if isinstance(formula, RelAtom):
        return formula.args
    if isinstance(formula, DepAtom):
        return formula.antecedent + formula.consequent
    return ()


def free_variables(formula: Formula) -> frozenset[str]:
    """Free variables; every variable of a dependence atom is free in it."""
    if isinstance(formula, _ATOMS):
        out: set[str] = set()
        for term in atom_terms(formula):
            out.update(term_variables(term))
        return frozenset(out)
    if isinstance(formula, (And, Or)):
        return free_variables(formula.left) | free_variables(formula.right)
    if isinstance(formula, (Exists, Forall)):
        return free_variables(formula.body) - {formula.var}
    raise TypeError(f"not a formula: {formula!r}")


def all_variables(formula: Formula) -> frozenset[str]:
    """Every variable occurring in the formula, bound or free."""
    if isinstance(formula, _ATOMS):
        out: set[str] = set()
        for term in atom_terms(formula):
            out.update(term_variables(term))
        return frozenset(out)
    if isinstance(formula, (And, Or)):
        return all_variables(formula.left) | all_variables(formula.right)
    if isinstance(formula, (Exists, Forall)):
        return all_variables(formula.body) | {formula.var}
    raise TypeError(f"not a formula: {formula!r}")


def dependence_atoms(formula: Formula) -> Iterator[DepAtom]:
    if isinstance(formula, DepAtom):
        yield formula
    elif isinstance(formula, (And, Or)):
        yield from dependence_atoms(formula.left)
        yield from dependence_atoms(formula.right)
    elif isinstance(formula, (Exists, Forall)):
        yield from dependence_atoms(formula.body)


def has_dependence_atoms(formula: Formula) -> bool:
    return next(dependence_atoms(formula), None) is not None


def formula_size(formula: Formula) -> int:
    """Formula size: tree node count plus term symbol occurrences."""
    if isinstance(formula, _ATOMS):
        return 1 + sum(_term_symbols(t) for t in atom_terms(formula))
    if isinstance(formula, (And, Or)):
        return 1 + formula_size(formula.left) + formula_size(formula.right)
    if isinstance(formula, (Exists, Forall)):
        return 1 + formula_size(formula.body)
    raise TypeError(f"not a formula: {formula!r}")


def node_count(formula: Formula) -> int:
    if isinstance(formula, _ATOMS):
        return 1
    if isinstance(formula, (And, Or)):
        return 1 + node_count(formula.left) + node_count(formula.right)
    return 1 + node_count(formula.body)


def analyze(formula: Formula) -> SyntacticParams:
    """Compute all six syntactic parameters.

    One walk counts splits and universal quantifiers and finds the largest
    dependence-atom arity; `all_variables`, `free_variables` and
    `formula_size` each walk the formula once more.
    """
    splits = foralls = arity = 0

    def walk(f: Formula) -> None:
        nonlocal splits, foralls, arity
        if isinstance(f, Or):
            splits += 1
            walk(f.left)
            walk(f.right)
        elif isinstance(f, And):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, Forall):
            foralls += 1
            walk(f.body)
        elif isinstance(f, Exists):
            walk(f.body)
        elif isinstance(f, DepAtom):
            arity = max(arity, len(f.antecedent))

    walk(formula)
    return SyntacticParams(
        splits=splits,
        foralls=foralls,
        arity=arity,
        vars=len(all_variables(formula)),
        free_vars=len(free_variables(formula)),
        size=formula_size(formula),
    )


# --- printing ---------------------------------------------------------------

def pretty_term(term: Term) -> str:
    if isinstance(term, (Var, Const)):
        return term.name
    return f"{term.name}({','.join(pretty_term(a) for a in term.args)})"


def pretty(formula: Formula) -> str:
    """Render in the concrete grammar; ``parse_formula`` gives back an equal tree."""
    if isinstance(formula, Equality):
        return f"{pretty_term(formula.left)} = {pretty_term(formula.right)}"
    if isinstance(formula, RelAtom):
        args = ",".join(pretty_term(a) for a in formula.args)
        return f"{'!' if formula.negated else ''}{formula.name}({args})"
    if isinstance(formula, DepAtom):
        ante = ",".join(pretty_term(t) for t in formula.antecedent)
        cons = ",".join(pretty_term(t) for t in formula.consequent)
        return f"=({ante};{cons})"
    if isinstance(formula, Or):
        left = pretty(formula.left)
        right = pretty(formula.right)
        if isinstance(formula.right, Or):
            right = f"({right})"
        return f"{left} | {right}"
    if isinstance(formula, And):
        left = pretty(formula.left)
        if isinstance(formula.left, Or):
            left = f"({left})"
        right = pretty(formula.right)
        if isinstance(formula.right, (And, Or)):
            right = f"({right})"
        return f"{left} & {right}"
    if isinstance(formula, (Exists, Forall)):
        word = "exists" if isinstance(formula, Exists) else "forall"
        body = pretty(formula.body)
        if isinstance(formula.body, (And, Or)):
            body = f"({body})"
        return f"{word} {formula.var} {body}"
    raise TypeError(f"not a formula: {formula!r}")


# --- parsing ----------------------------------------------------------------

def tokenize(text: str) -> list[tuple[str, int]]:
    tokens: list[tuple[str, int]] = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN.match(text, i)
        if not m:
            raise FormulaSyntaxError(f"unexpected character {text[i]!r}", i)
        tokens.append((m.group(), i))
        i = m.end()
    return tokens


class _TokenCursor:
    """Position in a token list, shared by the formula and PDL parsers."""

    def __init__(self, tokens: list[tuple[str, int]], end: int):
        self.tokens = tokens
        self.i = 0
        self.end = end

    def _peek(self, ahead: int = 0) -> str | None:
        j = self.i + ahead
        return self.tokens[j][0] if j < len(self.tokens) else None

    def _next(self) -> tuple[str, int]:
        if self.i >= len(self.tokens):
            raise FormulaSyntaxError("unexpected end of input", self.end)
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def _expect(self, text: str) -> int:
        tok, pos = self._next()
        if tok != text:
            raise FormulaSyntaxError(f"expected {text!r}, found {tok!r}", pos)
        return pos

    def expect_end(self) -> None:
        if self.i < len(self.tokens):
            tok, pos = self.tokens[self.i]
            raise FormulaSyntaxError(f"unexpected token {tok!r} after formula", pos)


class _Parser(_TokenCursor):
    def __init__(self, tokens: list[tuple[str, int]], vocab: Vocabulary, end: int):
        super().__init__(tokens, end)
        self.vocab = vocab

    def disj(self) -> Formula:
        node = self.conj()
        while self._peek() == "|":
            self._next()
            node = Or(node, self.conj())
        return node

    def conj(self) -> Formula:
        node = self.unit()
        while self._peek() == "&":
            self._next()
            node = And(node, self.unit())
        return node

    def unit(self) -> Formula:
        tok = self._peek()
        if tok == "(":
            self._next()
            node = self.disj()
            self._expect(")")
            return node
        if tok == "!":
            self._next()
            return self.relatom(negated=True)
        if tok in ("forall", "exists"):
            self._next()
            var = self.variable_name()
            body = self.unit()
            return Exists(var, body) if tok == "exists" else Forall(var, body)
        return self.atom()

    def variable_name(self) -> str:
        tok, pos = self._next()
        if not _IDENT.fullmatch(tok) or tok in KEYWORDS:
            raise FormulaSyntaxError(f"expected a variable name, found {tok!r}", pos)
        if (
            tok in self.vocab.relations
            or tok in self.vocab.functions
            or tok in self.vocab.constants
        ):
            raise FormulaSyntaxError(f"cannot quantify over declared symbol {tok!r}", pos)
        return tok

    def atom(self) -> Formula:
        tok = self._peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input", self.end)
        if tok == "=":
            return self.depatom()
        if tok in self.vocab.relations and self._peek(1) == "(":
            return self.relatom(negated=False)
        left = self.term()
        self._expect("=")
        right = self.term()
        return Equality(left, right)

    def relatom(self, negated: bool) -> RelAtom:
        tok, pos = self._next()
        if not _IDENT.fullmatch(tok) or tok in KEYWORDS:
            if negated:
                raise FormulaSyntaxError("negation is only allowed on relation atoms", pos)
            raise FormulaSyntaxError(f"expected a relation atom, found {tok!r}", pos)
        if tok not in self.vocab.relations:
            raise FormulaSyntaxError(f"unknown relation symbol {tok!r}", pos)
        self._expect("(")
        args = self.termlist()
        self._expect(")")
        arity = self.vocab.relations[tok]
        if len(args) != arity:
            raise FormulaSyntaxError(
                f"relation {tok!r} expects {arity} arguments, got {len(args)}", pos
            )
        return RelAtom(tok, tuple(args), negated)

    def depatom(self) -> DepAtom:
        self._expect("=")
        self._expect("(")
        antecedent: list[Term] = [] if self._peek() == ";" else self.termlist()
        self._expect(";")
        consequent = self.termlist()
        self._expect(")")
        return DepAtom(tuple(antecedent), tuple(consequent))

    def termlist(self) -> list[Term]:
        terms = [self.term()]
        while self._peek() == ",":
            self._next()
            terms.append(self.term())
        return terms

    def term(self) -> Term:
        tok, pos = self._next()
        if not _IDENT.fullmatch(tok) or tok in KEYWORDS:
            raise FormulaSyntaxError(f"expected a term, found {tok!r}", pos)
        if tok in self.vocab.functions:
            self._expect("(")
            args = self.termlist()
            self._expect(")")
            arity = self.vocab.functions[tok]
            if len(args) != arity:
                raise FormulaSyntaxError(
                    f"function {tok!r} expects {arity} arguments, got {len(args)}", pos
                )
            return Func(tok, tuple(args))
        if tok in self.vocab.constants:
            return Const(tok)
        if tok in self.vocab.relations:
            raise FormulaSyntaxError(f"relation symbol {tok!r} used as a term", pos)
        if self._peek() == "(":
            raise FormulaSyntaxError(f"unknown function or relation symbol {tok!r}", pos)
        return Var(tok)


def parse_formula(text: str, vocab: Vocabulary = EMPTY_VOCABULARY) -> Formula:
    """Parse formula text against a vocabulary into an NNF syntax tree.

    Raises FormulaSyntaxError, with the offending position, for lexical
    errors, grammar violations, unknown symbols, arity mismatches, and
    negation applied to anything but a relation atom.
    """
    parser = _Parser(tokenize(text), vocab, len(text))
    formula = parser.disj()
    parser.expect_end()
    return formula
