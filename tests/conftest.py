"""Shared test helpers: generator words, conjugacy classes, subgroup
closures, model variants, the cocycle perturbations and their check, the
order-18 table groups, malformed table-group model files, model files
with booleans for integers and model file bytes that are no JSON text;
and the fixed Hypothesis profile."""
import operator

import pytest
from hypothesis import settings

from modtwist.galmodel import FiniteGaloisModel
from modtwist.projgroup import ProjMat, pgl2, spanning_tree
from modtwist.twists import Cocycle, check_cocycle

# the one Hypothesis profile, with no option to change it: every run draws
# the same examples, and no example database carries them between runs
settings.register_profile("modtwist", derandomize=True, database=None)
settings.load_profile("modtwist")


def _tree_words(group) -> dict:
    """Each element, in the walk's discovery order, spelled as the generator
    names along its tree path (``parent`` and ``step``, by number)."""
    words = {}
    for j in group.walk:
        words[j] = () if group.parent[j] is None else words[group.parent[j]] + (group.step[j],)
    return {group.elements[j]: word for j, word in words.items()}


@pytest.fixture
def tree_words():
    """``_tree_words``, for the tests of maps extended along the tree."""
    return _tree_words


def _conjugacy_class(group, g) -> frozenset:
    """The conjugacy class of g in a group of ``ProjMat``s, ``pgl2(p)``
    say: h^-1 g h over every element h."""
    return frozenset(h.inverse() * g * h for h in group.elements)


@pytest.fixture
def conjugacy_class():
    """``_conjugacy_class``, the reference for the single-class verdict of
    ``involutions_extending_wN``."""
    return _conjugacy_class


def _closure(gens) -> frozenset:
    """The subgroup generated by ``gens``, as numbers in ``pgl2(p)``: the
    vertices of their spanning tree under ``ProjMat`` products."""
    gens = tuple(gens)
    p = gens[0].p
    tree = spanning_tree(ProjMat.identity(p), dict(enumerate(gens)), operator.mul)
    return frozenset(map(pgl2(p).index.__getitem__, tree))


@pytest.fixture
def closure():
    """``_closure``, the product-by-product reference for subgroups of PGL2."""
    return _closure


def _variant(m: FiniteGaloisModel, **changes) -> FiniteGaloisModel:
    """A new model built from m's attributes, with ``changes`` in place of
    some: a model is read-only, so a corrupted or extended model is a new one."""
    args = {name: getattr(m, name) for name in ("group", "p", "rho", "chi", "conj", "characters")}
    return FiniteGaloisModel(**{**args, **changes})


@pytest.fixture(scope="session")
def variant():
    """``_variant``, for the tests that corrupt or extend a model; for the
    whole session, so that module fixtures can build with it."""
    return _variant


def _perturbations(c: Cocycle, s):
    """The cochains that differ from c only at s, where the matrix is
    multiplied by a non-identity class of PGL2, as ``ProjMat`` products."""
    full = pgl2(c.p)
    k, w = c.values[s]
    for mult in full.elements:
        if not mult.is_identity():
            values = {**c.values, s: (full.index[full.elements[k] * mult], w)}
            yield Cocycle(model=c.model, ambient=c.ambient, values=values)


def _perturbation_breaks(c: Cocycle) -> bool:
    """For every group element some single-value perturbation of the
    cocycle is invalid, and at the identity every nontrivial one is."""
    grp = c.model.group
    for s in grp.elements:
        valid = (check_cocycle(d) for d in _perturbations(c, s))
        if any(valid) if s == grp.identity else all(valid):
            return False
    return True


@pytest.fixture
def perturbations():
    """``_perturbations``: the cochains ``perturbation_breaks`` checks."""
    return _perturbations


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
    not a list of string labels or an object of objects of labels, or breaks
    a table rule: repeated labels, an identity outside them, or rows or
    columns keyed by other labels."""
    c2 = {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "e"}}
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
        "repeated_label": _c2_table_model(elements=["e", "a", "a"]),
        "identity_outside": _c2_table_model(identity="x"),
        "extra_row": _c2_table_model(table={**c2, "b": {"e": "b", "a": "b"}}),
        "extra_column": _c2_table_model(table={**c2, "e": {"e": "e", "a": "a", "b": "a"}}),
    }


@pytest.fixture
def boolean_models():
    """Model documents, by name, on the permutation group C2, each with a
    JSON boolean where an integer is wanted, all of them otherwise valid."""
    doc = {
        "p": 3,
        "group": {"type": "permutation", "generators": {"s": [1, 0]}},
        "rho": {"s": [[0, 1], [1, 0]]},
        "chi": {"s": 2},
    }
    return {
        "boolean_permutation": {**doc, "group": {"type": "permutation", "generators": {"s": [True, False]}}},
        "boolean_rho_entry": {**doc, "rho": {"s": [[False, True], [True, False]]}},
        "boolean_chi": {**doc, "chi": {"s": True}},
        "boolean_character": {**doc, "characters": {"k": {"values": {"s": True}}}},
    }


# model file bytes, by name, that are no JSON text a parser can return: not
# UTF-8, nested past the recursion limit, and an integer past int's
# 4,300-digit string limit; imported by the parser and CLI tests
UNREADABLE_MODEL_BYTES = {
    "not_utf8": b'{"p": 3, "group": "\xff"}',
    "nested": b"[" * 200_000 + b"]" * 200_000,
    "long_integer": b'{"p": ' + b"7" * 5000 + b"}",
}
