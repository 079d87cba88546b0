from __future__ import annotations

import gc
from pathlib import Path

import pytest

from teamcheck import Structure, Team, TreeDecomposition, parse_structure, parse_team

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parent.parent / "src"


def cyclic_garbage(call, *args):
    """`call(*args)` with the cyclic collector paused: its result, and the
    number of objects it allocated that it left in reference cycles, which
    only the collector would free.

    The objects that exist beforehand are frozen, so that the collection
    after the call looks at the call's objects alone and takes
    milliseconds, not a pass over the whole test session's heap.
    """
    gc.disable()
    gc.freeze()
    try:
        return call(*args), gc.collect()
    finally:
        gc.unfreeze()
        gc.enable()


def outcome(call):
    """What `call()` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:
        return type(exc), str(exc)


def load_flight_instance() -> tuple[Structure, Team]:
    structure = parse_structure((DATA / "flights.structure").read_text(encoding="utf-8"))
    team = parse_team((DATA / "flights.team").read_text(encoding="utf-8"), structure)
    return structure, team


def load_departures_structure() -> Structure:
    return parse_structure((DATA / "depsmall.structure").read_text(encoding="utf-8"))


# Edges of the Gaifman graph of the ten-element departures fragment,
# written down independently from the relation tables: each relation tuple
# contributes the pairs of its distinct members.
DEPARTURES_EDGES = {
    frozenset(e)
    for e in [
        ("F7", "F8"),
        ("F7", "C1"),
        ("F7", "09"),
        ("F8", "C1"),
        ("F8", "19"),
        ("19", "C1"),
        ("09", "C1"),
        ("S5", "S6"),
        ("S5", "C3"),
        ("S5", "12"),
        ("S6", "12"),
        ("12", "C2"),
        ("12", "C3"),
        ("S6", "C2"),
    ]
}


def departures_reference_decomposition() -> TreeDecomposition:
    """A hand-checked width-2 decomposition of the departures Gaifman graph."""
    bags = (
        frozenset({"F7", "F8", "C1"}),
        frozenset({"F7", "C1", "09"}),
        frozenset({"F8", "C1", "19"}),
        frozenset({"S5", "S6", "12"}),
        frozenset({"S6", "12", "C2"}),
        frozenset({"S5", "12", "C3"}),
    )
    edges = frozenset({(0, 1), (0, 2), (2, 3), (3, 4), (3, 5)})
    return TreeDecomposition(bags, edges)


@pytest.fixture(scope="session")
def flight_instance() -> tuple[Structure, Team]:
    return load_flight_instance()


@pytest.fixture(scope="session")
def departures_structure() -> Structure:
    return load_departures_structure()
