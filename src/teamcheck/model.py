"""Finite structures, assignments, teams, and the team-building operations.

Universe elements are interned to integer indices in declaration order;
relation tables, function tables, constants, and team rows are all stored
in index form so that row sets compare and sort canonically.  Element
names appear only at construction and display boundaries.
"""

from __future__ import annotations

import re
from contextlib import suppress
from itertools import chain, compress, count, islice, product, repeat
from typing import Callable, Iterable, Mapping, Sequence

from .syntax import _IDENT, _NUMBER, Vocabulary, _arity_problem
from .value import Value, new_value


class StructureError(ValueError):
    """Malformed structure definition or structure file."""


class TeamError(ValueError):
    """Malformed team, team file, or team operation argument."""


class Structure:
    """A finite structure: universe, relation tables, functions, constants.

    `relations` and `functions` map a symbol name to an ``(arity, table)``
    pair; relation tables are iterables of element-name tuples, function
    tables map argument tuples (or a bare element name, for arity one) to
    an element name and must be total on the universe.
    """

    def __init__(
        self,
        universe: Sequence[str],
        relations: Mapping[str, tuple[int, Iterable[tuple[str, ...]]]] | None = None,
        functions: Mapping[str, tuple[int, Mapping]] | None = None,
        constants: Mapping[str, str] | None = None,
    ):
        self.universe = tuple(universe)
        if not self.universe:
            raise StructureError("universe must be nonempty")
        self._index: dict[str, int] = {}
        for i, name in enumerate(self.universe):
            if name in self._index:
                raise StructureError(f"duplicate universe element {name!r}")
            self._index[name] = i

        self.relations: dict[str, frozenset[tuple[int, ...]]] = {}
        index = self._index.__getitem__
        for name, (arity, rows) in (relations or {}).items():
            rows = list(rows)
            # C-level iterators map every value of every tuple; a table with
            # a tuple of another arity or a value outside the universe is
            # read again tuple by tuple, to name its first bad tuple
            table = None
            if set(map(len, rows)) <= {arity}:
                with suppress(KeyError):
                    table = frozenset(zip(*[map(index, chain.from_iterable(rows))] * arity))
            if table is None:
                for row in map(tuple, rows):
                    if len(row) != arity:
                        raise StructureError(
                            f"relation {name!r} tuple {row!r} does not have arity {arity}"
                        )
                    tuple(map(self.element_index, row))
            self.relations[name] = table

        self.functions: dict[str, dict[tuple[int, ...], int]] = {}
        for name, (arity, table) in (functions or {}).items():
            indexed: dict[tuple[int, ...], int] = {}
            for key, value in dict(table).items():
                args = (key,) if isinstance(key, str) else tuple(key)
                if len(args) != arity:
                    raise StructureError(
                        f"function {name!r} entry {args!r} does not have arity {arity}"
                    )
                indexed[tuple(self.element_index(e) for e in args)] = self.element_index(value)
            for args in product(range(len(self.universe)), repeat=arity):
                if args not in indexed:
                    named = tuple(self.universe[i] for i in args)
                    raise StructureError(f"function {name!r} is not total: missing {named!r}")
            self.functions[name] = indexed

        self.constants: dict[str, int] = {
            name: self.element_index(value) for name, value in (constants or {}).items()
        }

        try:
            self._vocabulary = Vocabulary(
                relations={name: arity for name, (arity, _) in (relations or {}).items()},
                functions={name: arity for name, (arity, _) in (functions or {}).items()},
                constants=frozenset(self.constants),
            )
        except ValueError as exc:
            raise StructureError(str(exc)) from None

    @property
    def size(self) -> int:
        return len(self.universe)

    def element_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise StructureError(f"element {name!r} is not in the universe") from None

    def element_name(self, index: int) -> str:
        return self.universe[index]

    def vocabulary(self) -> Vocabulary:
        return self._vocabulary

    def __repr__(self):
        return f"Structure(|A|={self.size}, vocab={sorted(self._vocabulary.relations)})"


class Assignment(Value):
    """A single row: a total mapping from its variable domain to element indices."""

    __slots__ = ()

    def __new__(cls, domain: tuple[str, ...], values: tuple[int, ...]):
        if len(domain) != len(values):
            raise TeamError("assignment domain and values differ in length")
        if len(set(domain)) != len(domain):
            raise TeamError("assignment domain has duplicate variables")
        return new_value(cls, (cls, domain, values))

    def __getitem__(self, var: str) -> int:
        try:
            return self.values[self.domain.index(var)]
        except ValueError:
            raise TeamError(f"variable {var!r} is not bound by this assignment") from None

    def named(self, structure: Structure) -> dict[str, str]:
        return {v: structure.element_name(i) for v, i in zip(self.domain, self.values)}


def _extension(domain: tuple, pos: dict, var: str):
    """Domain, positions, and row-extender for quantifying `var`.

    A requantified variable is overwritten in place; a fresh one is
    appended at the end of every row.
    """
    if var in pos:
        i = pos[var]

        def extend(row, value, _i=i):
            return row[:_i] + (value,) + row[_i + 1:]

        return domain, pos, extend
    new_pos = dict(pos)
    new_pos[var] = len(domain)

    def extend(row, value):
        return row + (value,)

    return domain + (var,), new_pos, extend


class Team(Value):
    """A set of assignments sharing one variable domain.

    The empty team (no rows) and the team of the single empty assignment
    (empty domain, one row) are distinct values.
    """

    __slots__ = ()

    def __new__(cls, domain: Sequence[str], rows: Iterable[Sequence[int]]):
        domain = tuple(domain)
        if not isinstance(rows, frozenset):
            rows = frozenset(tuple(r) for r in rows)
        if len(set(domain)) != len(domain):
            raise TeamError("team domain has duplicate variables")
        width = len(domain)
        for row in rows:
            if len(row) != width:
                raise TeamError(f"row {row!r} does not match domain width {width}")
        return new_value(cls, (cls, domain, rows))

    @classmethod
    def from_named_rows(
        cls, domain: Sequence[str], rows: Iterable[Sequence[str]], structure: Structure
    ) -> "Team":
        index = structure._index.__getitem__
        try:
            indexed = frozenset(tuple(map(index, row)) for row in rows)
        except KeyError as exc:
            raise TeamError(f"element {exc.args[0]!r} is not in the universe") from None
        return cls(tuple(domain), indexed)

    @classmethod
    def of_empty_assignment(cls) -> "Team":
        """The one-row team over the empty domain."""
        return cls((), frozenset({()}))

    def __len__(self) -> int:
        return len(self.rows)

    def is_empty(self) -> bool:
        return not self.rows

    def sorted_rows(self) -> tuple[tuple[int, ...], ...]:
        return tuple(sorted(self.rows))

    def assignments(self) -> list[Assignment]:
        return [Assignment(self.domain, row) for row in self.sorted_rows()]

    def restrict(self, variables: Iterable[str]) -> "Team":
        """Project every row onto the given variables (kept in domain order)."""
        wanted = set(variables)
        missing = wanted - set(self.domain)
        if missing:
            raise TeamError(f"cannot restrict to unknown variables {sorted(missing)}")
        positions = [i for i, v in enumerate(self.domain) if v in wanted]
        new_domain = tuple(self.domain[i] for i in positions)
        new_rows = frozenset(tuple(row[i] for i in positions) for row in self.rows)
        return Team(new_domain, new_rows)

    def supplement(
        self,
        var: str,
        choices: Callable[[Assignment], Iterable[int]] | Mapping[Assignment, Iterable[int]],
    ) -> "Team":
        """Extend (or overwrite) `var` in every row with every offered value.

        `choices` must yield a nonempty set of element indices for every
        row; when `var` is already in the domain its value is replaced.
        """
        if callable(choices):
            lookup = choices
        else:
            mapping = dict(choices)

            def lookup(assignment: Assignment) -> Iterable[int]:
                try:
                    return mapping[assignment]
                except KeyError:
                    raise TeamError(
                        f"supplementing function is undefined on row {assignment.values!r}"
                    ) from None

        pos = {v: i for i, v in enumerate(self.domain)}
        new_domain, _, extend = _extension(self.domain, pos, var)
        new_rows = set()
        for row in self.sorted_rows():
            values = tuple(lookup(Assignment(self.domain, row)))
            if not values:
                raise TeamError(
                    f"supplementing function maps row {row!r} to an empty set"
                )
            for value in values:
                new_rows.add(extend(row, value))
        return Team(new_domain, frozenset(new_rows))

    def duplicate(self, var: str, structure: Structure) -> "Team":
        """Extend every row with every universe element."""
        everything = tuple(range(structure.size))
        return self.supplement(var, lambda _row: everything)


# --- file formats -----------------------------------------------------------
#
# Structure file, line based ('#' starts a comment):
#     universe: a b c
#     relation R/2: (a,b) (b,c)
#     function f/1: a->b b->c c->a
#     constant one = b
#
# Team file: a header line of variable names, then one value row per line.

_DECL = re.compile(rf"(relation|function)\s+({_IDENT.pattern})\s*/\s*({_NUMBER.pattern})\s*$")
_GROUP = re.compile(r"\(([^()]*)\)")
_FUNC_ENTRY = re.compile(r"(\(([^()]*)\)|[^\s()]+?)\s*->\s*([^\s()]+)")
_DIRECTIVE = re.compile(r"[^\s:]*")  # a line's first word, up to white space or ':'
_CONSTANT = re.compile(rf"constant\s+({_IDENT.pattern})\s*=\s*(\S+)\s*$")
_BLOCK = 256  # lines parse_team splits at a time: 64 is as fast, 4,096 is slower


# a comment: from '#' up to the next line break that str.splitlines knows.
# parse_team replaces each with a space, not with nothing, so that a comment
# line between a '\r' and a '\n' does not join them into one line break.
_COMMENT = r"#[^\n\r\v\f\x1c-\x1e\x85\u2028\u2029]*"


def _content_lines(text: str):
    if "#" in text:
        text = re.sub(_COMMENT, " ", text)
    for lineno, line in enumerate(map(str.strip, text.splitlines()), 1):
        if line:
            yield lineno, line


def _declare(table: dict, kind: str, name: str, value, lineno: int) -> None:
    if name in table:
        raise StructureError(f"line {lineno}: duplicate {kind} {name!r}")
    table[name] = value


def _declaration(head: str, kind: str, lineno: int) -> tuple[str, int]:
    """The name and arity of a relation or function declaration."""
    m = _DECL.fullmatch(head.strip())
    if not m:
        raise StructureError(f"line {lineno}: bad {kind} declaration {head!r}")
    name, arity = m.group(2), int(m.group(3))
    problem = _arity_problem(name, arity)
    if problem:
        raise StructureError(f"line {lineno}: {problem}")
    return name, arity


def parse_structure(text: str) -> Structure:
    """Parse the line-based structure format."""
    universe: list[str] | None = None
    relations: dict[str, tuple[int, Iterable[list[str]]]] = {}
    functions: dict[str, tuple[int, dict[tuple[str, ...], str]]] = {}
    constants: dict[str, str] = {}
    for lineno, line in _content_lines(text):
        head, colon, rest = line.partition(":")
        word = _DIRECTIVE.match(line).group()
        if colon and word == "universe":
            if head.rstrip() != "universe":
                raise StructureError(f"line {lineno}: bad universe line {head!r}")
            if universe is not None:
                raise StructureError(f"line {lineno}: duplicate universe line")
            universe = rest.split()
        elif colon and word == "relation":
            name, arity = _declaration(head, word, lineno)
            parts = _GROUP.split(rest)  # the text around the tuples, and each tuple's values
            if "".join(parts[::2]).strip():
                raise StructureError(f"line {lineno}: stray text in relation tuples")
            groups = parts[1::2]
            joined = ",".join(groups)
            if joined.split() == [joined]:  # no value has white space to strip
                rows = map(str.split, groups, repeat(","))
            else:
                rows = [tuple(map(str.strip, group.split(","))) for group in groups]
            _declare(relations, "relation", name, (arity, rows), lineno)
        elif colon and word == "function":
            name, arity = _declaration(head, word, lineno)
            if _FUNC_ENTRY.sub("", rest).strip():
                raise StructureError(f"line {lineno}: stray text in function entries")
            table: dict[tuple[str, ...], str] = {}
            for m_entry in _FUNC_ENTRY.finditer(rest):
                if m_entry.group(2) is not None:
                    args = tuple(part.strip() for part in m_entry.group(2).split(","))
                else:
                    args = (m_entry.group(1),)
                value = m_entry.group(3)
                if table.setdefault(args, value) != value:
                    raise StructureError(
                        f"line {lineno}: function {name!r} maps {args!r} to both "
                        f"{table[args]!r} and {value!r}"
                    )
            _declare(functions, "function", name, (arity, table), lineno)
        elif word == "constant":
            m = _CONSTANT.fullmatch(line)
            if not m:
                raise StructureError(f"line {lineno}: bad constant declaration")
            _declare(constants, "constant", m.group(1), m.group(2), lineno)
        elif not colon and word in ("universe", "relation", "function"):
            raise StructureError(f"line {lineno}: directive {word!r} is missing its ':'")
        else:
            raise StructureError(f"line {lineno}: unrecognized directive {word!r}")
    if universe is None:
        raise StructureError("structure file has no universe line")
    return Structure(universe, relations, functions, constants)


def _check_writable(names: Iterable[str], forbidden: tuple, error: type, kind: str) -> None:
    """Raise `error` for a name that is empty or holds whitespace or a `forbidden` string."""
    for name in names:
        if name.split() != [name] or any(map(name.__contains__, forbidden)):
            raise error(f"{name!r} cannot be written to a {kind} file")


def structure_to_text(structure: Structure) -> str:
    _check_writable(structure.universe, ("#", "(", ")", ",", "->"), StructureError, "structure")
    lines = ["universe: " + " ".join(structure.universe)]
    vocab = structure.vocabulary()
    for name in sorted(structure.relations):
        arity = vocab.relations[name]
        rows = sorted(structure.relations[name])
        rendered = " ".join(
            "(" + ",".join(structure.element_name(i) for i in row) + ")" for row in rows
        )
        lines.append(f"relation {name}/{arity}: {rendered}".rstrip())
    for name in sorted(structure.functions):
        arity = vocab.functions[name]
        entries = []
        for args in sorted(structure.functions[name]):
            value = structure.functions[name][args]
            if arity == 1:
                lhs = structure.element_name(args[0])
            else:
                lhs = "(" + ",".join(structure.element_name(i) for i in args) + ")"
            entries.append(f"{lhs}->{structure.element_name(value)}")
        lines.append(f"function {name}/{arity}: " + " ".join(entries))
    for name in sorted(structure.constants):
        lines.append(f"constant {name} = {structure.element_name(structure.constants[name])}")
    return "\n".join(lines) + "\n"


def parse_team(text: str, structure: Structure) -> Team:
    """Parse the header-plus-rows team format; rows are deduplicated.

    ``#`` starts a comment, blank lines may stand anywhere, and the header
    is the first line with content.  A lone ``-`` header denotes the empty
    variable domain, over which a lone ``-`` row denotes the empty
    assignment: this is how the one-row team over no variables is written.

    One substitution cuts the comments, and C-level iterators split each
    line once, ``_BLOCK`` lines at a time, with no Python code per row.  A
    text with a ragged row or an element outside the universe is read again
    line by line, to name its first bad row in file order.
    """
    if "#" in text:
        text = re.sub(_COMMENT, " ", text)
    lines = text.splitlines()
    header = next(compress(count(), map(str.split, lines)), None)
    if header is None:
        raise TeamError("team file is empty")
    domain = () if lines[header].split() == ["-"] else tuple(lines[header].split())
    width = len(domain)
    if len(set(domain)) != width:
        raise TeamError("team header has duplicate variables")
    if not domain:
        kinds = set(map(str.strip, islice(lines, header + 1, None)))
        if kinds <= {"", "-"}:
            return Team((), frozenset({()} if "-" in kinds else ()))
    else:
        def block_rows(start: int):  # the rows of one block, with one split per line
            block = list(map(str.split, lines[start:start + _BLOCK]))
            if not set(map(len, block)) <= {0, width}:
                raise ValueError  # a ragged row
            return zip(*[map(structure._index.__getitem__, chain.from_iterable(block))] * width)

        # each row is built whole at `width`, so new_value skips Team's width
        # check; only one block's value strings are alive at a time
        blocks = map(block_rows, range(header + 1, len(lines), _BLOCK))
        with suppress(KeyError, ValueError):  # KeyError: an element outside the universe
            return new_value(Team, (Team, domain, frozenset(chain.from_iterable(blocks))))
    # Only a bad text gets here: raise at its first ragged row or unknown element.
    for lineno, line in islice(_content_lines(text), 1, None):
        row = () if not domain and line == "-" else line.split()
        if len(row) != width:
            raise TeamError(f"line {lineno}: row has {len(row)} values, expected {width}")
        Team.from_named_rows(domain, [row], structure)


def team_to_text(team: Team, structure: Structure) -> str:
    if team.domain == ("-",):
        raise TeamError("a team over the one variable '-' cannot be written to a team file")
    elements = map(structure.universe.__getitem__, set(chain.from_iterable(team.rows)))
    _check_writable(chain(team.domain, elements), ("#",), TeamError, "team")
    lines = [" ".join(team.domain) if team.domain else "-"]
    for row in team.sorted_rows():
        if row:
            lines.append(" ".join(structure.element_name(i) for i in row))
        else:
            lines.append("-")
    return "\n".join(lines) + "\n"
