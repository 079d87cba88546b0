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
from types import MappingProxyType
from typing import Iterator, Mapping, Union

from .value import Value, new_value

KEYWORDS = frozenset({"forall", "exists"})

_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(_IDENT.pattern + r"|[()=,;|&!]")
# a count or index in input text; int() also reads '+3', '1_0' and other scripts' digits
_NUMBER = re.compile(r"[0-9]+")


class FormulaSyntaxError(ValueError):
    """Lexical, grammatical, or vocabulary error in formula text."""

    def __init__(self, message: str, position: int):
        super().__init__(message, position)  # both, so that copy and pickle can call it again
        self.position = position

    def __str__(self) -> str:
        return f"{self.args[0]} (at position {self.position})"


def _arity_problem(name: str, arity: int) -> str | None:
    """Why `arity` cannot be symbol `name`'s, or None: relation and function
    symbols take at least one argument."""
    if arity < 1:
        return f"symbol {name!r} must have arity >= 1, got {arity}"
    return None


class Vocabulary(Value):
    """Declared relation, function, and constant symbols.

    Relation and function symbols carry an arity of at least one in a
    read-only table; the name spaces must not overlap or be keywords.
    """

    __slots__ = ()

    def __new__(
        cls,
        relations: Mapping[str, int] | None = None,
        functions: Mapping[str, int] | None = None,
        constants: frozenset[str] = frozenset(),
    ):
        relations, functions = dict(relations or {}), dict(functions or {})
        constants = frozenset(constants)
        seen: set[str] = set()
        for name in (*relations, *functions, *constants):
            if not _IDENT.fullmatch(name):
                raise ValueError(f"invalid symbol name {name!r}")
            if name in KEYWORDS:
                raise ValueError(f"symbol name {name!r} is a reserved keyword")
            if name in seen:
                raise ValueError(f"symbol {name!r} declared more than once")
            seen.add(name)
        for name, arity in (*relations.items(), *functions.items()):
            problem = _arity_problem(name, arity)
            if problem:
                raise ValueError(problem)
        tables = MappingProxyType(relations), MappingProxyType(functions)
        return new_value(cls, (cls, *tables, constants))

    def __hash__(self) -> int:  # a read-only table does not hash itself
        relations, functions = frozenset(self.relations.items()), frozenset(self.functions.items())
        return hash((relations, functions, self.constants))

    def __getnewargs__(self) -> tuple:  # nor does it copy or pickle
        return dict(self.relations), dict(self.functions), self.constants


EMPTY_VOCABULARY = Vocabulary()


# --- terms -----------------------------------------------------------------

class Var(Value):
    __slots__ = ()

    def __new__(cls, name: str):
        return new_value(cls, (cls, name))


class Const(Value):
    __slots__ = ()

    def __new__(cls, name: str):
        return new_value(cls, (cls, name))


class Func(Value):
    __slots__ = ()

    def __new__(cls, name: str, args: tuple[Term, ...]):
        return new_value(cls, (cls, name, args))


Term = Union[Var, Const, Func]


# --- formulas ---------------------------------------------------------------

class Equality(Value):
    __slots__ = ()

    def __new__(cls, left: Term, right: Term):
        return new_value(cls, (cls, left, right))


class RelAtom(Value):
    __slots__ = ()

    def __new__(cls, name: str, args: tuple[Term, ...], negated: bool = False):
        return new_value(cls, (cls, name, args, negated))


class DepAtom(Value):
    """Dependence atom: rows agreeing on `antecedent` agree on `consequent`.

    An empty antecedent gives a constancy atom; the consequent is never
    empty.  The arity of the atom is the length of the antecedent.
    """

    __slots__ = ()

    def __new__(cls, antecedent: tuple[Term, ...], consequent: tuple[Term, ...]):
        if not consequent:
            raise ValueError("dependence atom needs a nonempty consequent")
        return new_value(cls, (cls, antecedent, consequent))


class And(Value):
    __slots__ = ()

    def __new__(cls, left: Formula, right: Formula):
        return new_value(cls, (cls, left, right))


class Or(Value):
    __slots__ = ()

    def __new__(cls, left: Formula, right: Formula):
        return new_value(cls, (cls, left, right))


class Exists(Value):
    __slots__ = ()

    def __new__(cls, var: str, body: Formula):
        return new_value(cls, (cls, var, body))


class Forall(Value):
    __slots__ = ()

    def __new__(cls, var: str, body: Formula):
        return new_value(cls, (cls, var, body))


Formula = Union[Equality, RelAtom, DepAtom, And, Or, Exists, Forall]

_ATOMS = (Equality, RelAtom, DepAtom)


class SyntacticParams(Value):
    """The six syntactic parameter values of a formula."""

    __slots__ = ()

    def __new__(
        cls, splits: int, foralls: int, arity: int, vars: int, free_vars: int, size: int
    ):
        return new_value(cls, (cls, splits, foralls, arity, vars, free_vars, size))


# --- traversals -------------------------------------------------------------

def subformulas(formula: Formula) -> Iterator[Formula]:
    """Every subformula occurrence in preorder, left before right."""
    stack = [formula]
    while stack:
        f = stack.pop()
        if isinstance(f, (And, Or)):
            stack += (f.right, f.left)
        elif isinstance(f, (Exists, Forall)):
            stack.append(f.body)
        elif not isinstance(f, _ATOMS):
            raise TypeError(f"not a formula: {f!r}")
        yield f


def subterms(term: Term) -> Iterator[Term]:
    """Every subterm occurrence in preorder, left before right."""
    stack = [term]
    while stack:
        t = stack.pop()
        if isinstance(t, Func):
            stack += reversed(t.args)
        yield t


def atom_terms(formula: Formula) -> tuple[Term, ...]:
    if isinstance(formula, Equality):
        return (formula.left, formula.right)
    if isinstance(formula, RelAtom):
        return formula.args
    if isinstance(formula, DepAtom):
        return formula.antecedent + formula.consequent
    return ()


def _own_variables(f: Formula) -> set[str]:
    """The variables one node names itself: a quantifier's, or an atom's terms'."""
    if isinstance(f, (Exists, Forall)):
        return {f.var}
    return {
        t.name for term in atom_terms(f) for t in subterms(term) if isinstance(t, Var)
    }


def _own_size(f: Formula) -> int:
    """One for the node plus its term symbol occurrences."""
    return 1 + sum(1 for term in atom_terms(f) for _ in subterms(term))


def free_variables(formula: Formula) -> frozenset[str]:
    """Free variables; every variable of a dependence atom is free in it."""
    if isinstance(formula, _ATOMS):
        return frozenset(_own_variables(formula))
    if isinstance(formula, (And, Or)):
        return free_variables(formula.left) | free_variables(formula.right)
    if isinstance(formula, (Exists, Forall)):
        return free_variables(formula.body) - {formula.var}
    raise TypeError(f"not a formula: {formula!r}")


def all_variables(formula: Formula) -> frozenset[str]:
    """Every variable occurring in the formula, bound or free."""
    return frozenset(v for f in subformulas(formula) for v in _own_variables(f))


def has_dependence_atoms(formula: Formula) -> bool:
    return any(isinstance(f, DepAtom) for f in subformulas(formula))


def formula_size(formula: Formula) -> int:
    """Formula size: tree node count plus term symbol occurrences."""
    return sum(map(_own_size, subformulas(formula)))


def analyze(formula: Formula) -> SyntacticParams:
    """Compute all six syntactic parameters.

    One pass over the subformulas counts splits and universal quantifiers,
    takes the largest dependence-atom arity, collects the variables and
    sums the size; `free_variables` then walks the formula once more.
    """
    splits = foralls = arity = size = 0
    variables: set[str] = set()
    for f in subformulas(formula):
        splits += isinstance(f, Or)
        foralls += isinstance(f, Forall)
        if isinstance(f, DepAtom):
            arity = max(arity, len(f.antecedent))
        variables |= _own_variables(f)
        size += _own_size(f)
    free_vars = len(free_variables(formula))
    return SyntacticParams(splits, foralls, arity, len(variables), free_vars, size)


# --- printing ---------------------------------------------------------------

def pretty_term(term: Term) -> str:
    if isinstance(term, (Var, Const)):
        return term.name
    return f"{term.name}({','.join(pretty_term(a) for a in term.args)})"


def _infix(formula: And | Or, show) -> str:
    """Print an `Or` or `And` node, its operands by `show`: both connectives
    associate left, and '&' binds tighter than '|'."""
    left, right = show(formula.left), show(formula.right)
    if isinstance(formula, Or):
        if isinstance(formula.right, Or):
            right = f"({right})"
        return f"{left} | {right}"
    if isinstance(formula.left, Or):
        left = f"({left})"
    if isinstance(formula.right, (And, Or)):
        right = f"({right})"
    return f"{left} & {right}"


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
    if isinstance(formula, (And, Or)):
        return _infix(formula, pretty)
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


class _Parser:
    """Recursive descent over a token list; the PDL parser reuses it with
    no quantifiers and its own leaf rules."""

    QUANTIFIERS = {"exists": Exists, "forall": Forall}

    def __init__(self, tokens: list[tuple[str, int]], end: int, vocab: Vocabulary):
        self.tokens = tokens
        self.i = 0
        self.end = end
        self.vocab = vocab

    @classmethod
    def parse(cls, text: str, vocab: Vocabulary = EMPTY_VOCABULARY) -> Formula:
        """The formula that is the whole of `text`."""
        parser = cls(tokenize(text), len(text), vocab)
        formula = parser.disj()
        if parser.i < len(parser.tokens):
            tok, pos = parser.tokens[parser.i]
            raise FormulaSyntaxError(f"unexpected token {tok!r} after formula", pos)
        return formula

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

    def _items(self, item) -> list:
        """One or more `item()` results separated by commas."""
        items = [item()]
        while self._peek() == ",":
            self._next()
            items.append(item())
        return items

    def _arguments(self, symbol: str, arity: int, pos: int) -> tuple[Term, ...]:
        """The parenthesized terms after `symbol`, which must number `arity`."""
        self._expect("(")
        args = self._items(self.term)
        self._expect(")")
        if len(args) != arity:
            raise FormulaSyntaxError(
                f"{symbol} expects {arity} arguments, got {len(args)}", pos
            )
        return tuple(args)

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
        if tok == "=":
            return self.depatom()
        quantifier = self.QUANTIFIERS.get(tok)
        if quantifier is not None:
            self._next()
            var = self.variable_name()
            return quantifier(var, self.unit())
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
        if tok in self.vocab.relations and self._peek(1) == "(":
            return self.relatom(negated=False)
        left = self.term()
        self._expect("=")
        right = self.term()
        return Equality(left, right)

    def relatom(self, negated: bool) -> RelAtom:
        tok, pos = self._next()
        if not _IDENT.fullmatch(tok) or tok in KEYWORDS:
            # only after '!': `atom` calls here on a declared relation name
            raise FormulaSyntaxError("negation is only allowed on relation atoms", pos)
        if tok not in self.vocab.relations:
            raise FormulaSyntaxError(f"unknown relation symbol {tok!r}", pos)
        args = self._arguments(f"relation {tok!r}", self.vocab.relations[tok], pos)
        return RelAtom(tok, args, negated)

    def depatom(self) -> DepAtom:
        self._expect("=")
        self._expect("(")
        antecedent: list[Term] = [] if self._peek() == ";" else self._items(self.term)
        self._expect(";")
        consequent = self._items(self.term)
        self._expect(")")
        return DepAtom(tuple(antecedent), tuple(consequent))

    def term(self) -> Term:
        tok, pos = self._next()
        if not _IDENT.fullmatch(tok) or tok in KEYWORDS:
            raise FormulaSyntaxError(f"expected a term, found {tok!r}", pos)
        if tok in self.vocab.functions:
            args = self._arguments(f"function {tok!r}", self.vocab.functions[tok], pos)
            return Func(tok, args)
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
    return _Parser.parse(text, vocab)
