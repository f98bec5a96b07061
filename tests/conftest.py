"""Shared test helpers: the cocycle perturbation check, the order-18 table
groups and table-group model files of malformed JSON shapes."""
import pytest

from modtwist.projgroup import pgl2
from modtwist.twists import Cocycle, check_cocycle


def _perturbation_breaks(c: Cocycle) -> bool:
    """For every group element some single-value perturbation of the
    cocycle is invalid, and at the identity every nontrivial one is."""
    grp = c.model.group
    mults = [m for m in sorted(pgl2(c.p).elements) if not m.is_identity()]

    def still_valid(s, mult):
        g, w = c.values[s]
        values = {**c.values, s: (g * mult, w)}
        return check_cocycle(Cocycle(model=c.model, ambient=c.ambient, values=values, v=c.v))

    for s in grp.elements:
        if s == grp.identity:
            if any(still_valid(s, mult) for mult in mults):
                return False
        elif all(still_valid(s, mult) for mult in mults):
            return False
    return True


@pytest.fixture
def perturbation_breaks():
    """``_perturbation_breaks``, for the cocycle tests."""
    return _perturbation_breaks


def _z18_tables():
    """Z/18 and a Latin square with identity 0 that is not a group: the
    intercalate at rows 1, 10 and columns 2, 11 swapped."""
    good = {a: {b: (a + b) % 18 for b in range(18)} for a in range(18)}
    bad = {a: dict(row) for a, row in good.items()}
    bad[1][2], bad[1][11], bad[10][2], bad[10][11] = 12, 3, 3, 12
    return good, bad


@pytest.fixture
def z18_tables():
    """(Z/18, the non-associative Latin square) as tables over 0..17."""
    return _z18_tables()


@pytest.fixture
def z18_table_model():
    """Model file documents on a Z/18 table group with one generator, of
    the group itself or of the non-associative Latin square."""

    def make(latin: bool) -> dict:
        table = _z18_tables()[1 if latin else 0]
        return {
            "p": 3,
            "group": {
                "type": "table",
                "elements": [str(a) for a in range(18)],
                "identity": "0",
                "table": {str(a): {str(b): str(c) for b, c in row.items()} for a, row in table.items()},
                "generators": {"g": "1"},
            },
            "rho": {"g": [[1, 0], [0, 1]]},
            "chi": {"g": 1},
        }

    return make


def _c2_table_model(**group_changes) -> dict:
    """A model on the table group C2 = {e, a}, with keys of "group" replaced."""
    group = {
        "type": "table",
        "elements": ["e", "a"],
        "identity": "e",
        "table": {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "e"}},
        "generators": {"a": "a"},
        **group_changes,
    }
    return {"p": 3, "group": group, "rho": {"a": [[0, 1], [1, 0]]}, "chi": {"a": 2}}


@pytest.fixture
def malformed_table_models():
    """Model documents, by name, whose table group has a JSON shape that is
    not a list of string labels or an object of objects of labels."""
    return {
        "list_labels": _c2_table_model(elements=[["e"], ["a"]]),
        "string_elements": _c2_table_model(elements="ea"),
        "integer_elements": _c2_table_model(elements=2),
        "list_identity": _c2_table_model(identity=["e"]),
        "list_table": _c2_table_model(table=[["e", "a"], ["a", "e"]]),
        "string_table": _c2_table_model(table="ea"),
        "list_rows": _c2_table_model(table={"e": ["e", "a"], "a": ["a", "e"]}),
        "list_entry": _c2_table_model(table={"e": {"e": "e", "a": ["a"]}, "a": {"e": "a", "a": "e"}}),
        "list_generator": _c2_table_model(generators={"a": ["a"]}),
        "generators_list": _c2_table_model(generators=["a"]),
    }
