"""Parsing and validation of JSON model files."""
import json
import re
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import UNREADABLE_MODEL_BYTES
from modtwist import genus_XNp, modelfile, wgroup
from modtwist.arith import Level
from modtwist.galmodel import FiniteGaloisModel, FiniteGroup, validate_model
from modtwist.modelfile import ModelParseError, _permutation_group, parse_and_validate, parse_model
from modtwist.projgroup import ProjMat
from modtwist.twists import model_corpus, twist_plan

GOOD_MODEL = {
    "p": 3,
    "group": {"type": "permutation", "generators": {"s": [1, 0]}},
    "rho": {"s": [[0, 1], [1, 0]]},
    "chi": {"s": 2},
    "conj": "s",
    "characters": {"k": {"values": {"s": -1}, "field": -1}},
}


def test_parse_good_model_from_text():
    m = parse_model(json.dumps(GOOD_MODEL))
    assert m.p == 3
    assert m.group.order == 2
    s = m.group.gens["s"]
    assert m.rho[s] == ProjMat(0, 1, 1, 0, 3)
    assert m.rho[m.group.identity].is_identity()
    assert m.chi[s] == 2
    assert m.conj == s
    assert m.characters["k"].field == -1
    assert m.characters["k"].values[s] == -1


def test_parse_good_model_from_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(GOOD_MODEL))
    m = parse_and_validate(path)
    assert m.group.order == 2


TABLE_GROUP = {
    "type": "table",
    "elements": ["e", "a"],
    "identity": "e",
    "table": {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "e"}},
    "generators": {"a": "a"},
}
TABLE_MODEL = {"p": 3, "group": TABLE_GROUP, "rho": {"a": [[0, 1], [1, 0]]}, "chi": {"a": 2}}


def test_parse_table_group():
    m = parse_model(json.dumps(TABLE_MODEL))
    assert m.group.order == 2
    assert m.rho["a"] == ProjMat(0, 1, 1, 0, 3)
    # without generators, every element is its own generator
    doc = dict(TABLE_MODEL, group={k: v for k, v in TABLE_GROUP.items() if k != "generators"},
               rho={"e": [[1, 0], [0, 1]], "a": [[0, 1], [1, 0]]}, chi={"e": 1, "a": 2})
    m = parse_model(json.dumps(doc))
    assert m.group.gens == {"e": "e", "a": "a"}
    assert m.rho["a"] == ProjMat(0, 1, 1, 0, 3) and m.chi["a"] == 2


def test_parse_rejects_permutations_of_different_degrees():
    gens = {"s": [1, 0], "t": [0, 2, 1]}
    doc = dict(GOOD_MODEL, group={"type": "permutation", "generators": gens})
    with pytest.raises(ModelParseError, match="bad permutation group"):
        parse_model(json.dumps(doc))


def test_parse_rejects_bad_permutation():
    doc = dict(GOOD_MODEL, group={"type": "permutation", "generators": {"s": [1, 1]}})
    with pytest.raises(ModelParseError):
        parse_model(json.dumps(doc))


def test_parse_rejects_unknown_group_type():
    doc = dict(GOOD_MODEL, group={"type": "mystery"})
    with pytest.raises(ModelParseError):
        parse_model(json.dumps(doc))


def test_parse_rejects_missing_rho_generator():
    doc = dict(GOOD_MODEL, rho={})
    with pytest.raises(ModelParseError):
        parse_model(json.dumps(doc))


def test_parse_rejects_invalid_json():
    with pytest.raises(ModelParseError):
        parse_model("{not json")


def test_parse_reads_a_str_as_json_text_never_as_a_path(tmp_path, monkeypatch):
    # a str is always the document itself, even when a file of that name exists
    (tmp_path / "model.json").write_text(json.dumps(GOOD_MODEL))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ModelParseError):
        parse_model("model.json")
    assert parse_model(Path("model.json")).group.order == 2


def test_parse_and_validate_rejects_non_hom():
    # rho(s) of order 3 cannot represent an order-2 generator
    doc = dict(GOOD_MODEL, rho={"s": [[1, 1], [0, 1]]})
    with pytest.raises((ModelParseError, ValueError)):
        parse_and_validate(json.dumps(doc))


def test_s4_permutation_model_roundtrip():
    doc = {
        "p": 3,
        "group": {
            "type": "permutation",
            "generators": {"s": [1, 0, 2, 3], "t": [1, 2, 3, 0]},
        },
        "rho": {"s": [[0, 1], [1, 0]], "t": [[1, 1], [1, 2]]},
        "chi": {"s": 2, "t": 1},
    }
    m = parse_model(json.dumps(doc))
    assert m.group.order == 24
    assert set(m.rho) == set(m.group.elements)
    assert set(m.chi) == set(m.group.elements)


@pytest.mark.parametrize("p", [4, 9, 15])
def test_parse_rejects_non_prime_p(p):
    doc = dict(GOOD_MODEL, p=p)
    with pytest.raises(ModelParseError):
        parse_model(json.dumps(doc))


def test_parse_rejects_group_list():
    doc = dict(GOOD_MODEL, group=[], rho={}, chi={})
    with pytest.raises(ModelParseError):
        parse_model(json.dumps(doc))


def test_parse_rejects_characters_list():
    doc = dict(GOOD_MODEL, characters=[1])
    with pytest.raises(ModelParseError):
        parse_model(json.dumps(doc))


def test_parse_rejects_unhashable_conj():
    doc = dict(GOOD_MODEL, conj=[1])
    with pytest.raises(ModelParseError):
        parse_model(json.dumps(doc))


def test_parse_rejects_string_permutation_entry():
    doc = dict(GOOD_MODEL, group={"type": "permutation", "generators": {"s": [1, "0"]}})
    with pytest.raises(ModelParseError):
        parse_model(json.dumps(doc))



@pytest.mark.parametrize("field", [None, -1, 2, 5, -15, 30])
def test_parse_accepts_character_field(field):
    doc = dict(GOOD_MODEL, characters={"k": {"values": {"s": -1}, "field": field}})
    assert parse_model(json.dumps(doc)).characters["k"].field == field


@pytest.mark.parametrize("field", [[1], "5", True, False, 2.0, 0, 1, 4, -12])
def test_parse_rejects_bad_character_field(field):
    doc = dict(GOOD_MODEL, characters={"k": {"values": {"s": -1}, "field": field}})
    with pytest.raises(ModelParseError, match="field"):
        parse_model(json.dumps(doc))


def test_parse_table_group_of_order_18(z18_table_model, tree_words):
    m = parse_and_validate(json.dumps(z18_table_model(False)))
    assert m.group.order == 18 and tree_words(m.group)["17"] == ("g",) * 17


def test_parse_rejects_non_associative_table(z18_table_model):
    with pytest.raises(ModelParseError, match="associativity"):
        parse_model(json.dumps(z18_table_model(True)))


def test_parse_rejects_unknown_table_generator(z18_table_model):
    doc = z18_table_model(False)
    doc["group"]["generators"] = {"g": "18"}
    with pytest.raises(ModelParseError, match="bad generators"):
        parse_model(json.dumps(doc))


# the table rules of malformed_table_models, each with its own message
TABLE_RULE_ERRORS = {
    "repeated_label": "^bad multiplication table: FiniteGroup: the element labels are not distinct$",
    "identity_outside": "^bad multiplication table: FiniteGroup: the identity 'x' is not an element$",
    "extra_row": "rows and columns are not exactly the elements$",
    "extra_column": "rows and columns are not exactly the elements$",
}


def test_parse_rejects_malformed_table_shapes(malformed_table_models):
    assert set(TABLE_RULE_ERRORS) < set(malformed_table_models)
    for name, doc in malformed_table_models.items():
        with pytest.raises(ModelParseError, match=TABLE_RULE_ERRORS.get(name, "^group\\.")):
            parse_model(json.dumps(doc))


def test_parse_rejects_booleans_for_integers(boolean_models):
    # True == 1 and True in (1, -1): only the type tells a boolean apart;
    # with 1 and 0 for true and false each document is valid
    errors = {
        "boolean_permutation": "generator 's' is not a permutation",
        "boolean_rho_entry": "rho\\['s'\\] is not a 2x2 integer matrix",
        "boolean_chi": "chi\\['s'\\] must be an integer unit mod 3",
        "boolean_character": "character 'k' must give \\+-1 on exactly the generators",
    }
    assert set(errors) == set(boolean_models)
    for name, doc in boolean_models.items():
        with pytest.raises(ModelParseError, match=errors[name]):
            parse_model(json.dumps(doc))
        doc = json.loads(json.dumps(doc).replace("true", "1").replace("false", "0"))
        parse_and_validate(json.dumps(doc))


def test_parse_rejects_non_string_group_name():
    # checked before the name becomes part of a shared group's cache key
    for name in (["S3"], 3, None, {"n": "S3"}):
        for base in (GOOD_MODEL, TABLE_MODEL):
            doc = dict(base, group=dict(base["group"], name=name))
            with pytest.raises(ModelParseError, match="^group.name must be a string, got "):
                parse_model(json.dumps(doc))


# s and t name one element, the swap; in TABLE_MODEL's group y names the
# identity.  Each map's value there is the one the spanning tree extends: s's
# on the swap and 1 on the identity, so a generator giving another is refused
SWAP_TWICE_MODEL = {"p": 3, "group": {"type": "permutation", "generators": {"s": [1, 0], "t": [1, 0]}},
                    "rho": {"s": [[0, 1], [1, 0]], "t": [[0, 1], [1, 0]]},
                    "chi": {"s": 2, "t": 2}, "characters": {"k": {"values": {"s": -1, "t": -1}}}}
IDENTITY_NAMED_MODEL = {"p": 3, "group": dict(TABLE_GROUP, generators={"x": "a", "y": "e"}),
                        "rho": {"x": [[0, 1], [1, 0]], "y": [[2, 0], [0, 2]]},
                        "chi": {"x": 2, "y": 1}, "characters": {"k": {"values": {"x": -1, "y": 1}}}}


@pytest.mark.parametrize("base, gen", [(SWAP_TWICE_MODEL, "t"), (IDENTITY_NAMED_MODEL, "y")])
@pytest.mark.parametrize("what", ["rho", "chi", "character 'k'"])
def test_parse_rejects_a_generator_conflicting_with_its_elements_value(base, gen, what):
    doc = json.loads(json.dumps(base))
    if what == "rho":
        doc["rho"][gen] = [[1, 1], [0, 1]]
    elif what == "chi":
        doc["chi"][gen] = 3 - doc["chi"][gen]  # the other unit mod 3
    else:
        values = doc["characters"]["k"]["values"]
        values[gen] = -values[gen]
    with pytest.raises(ModelParseError, match=f"^{re.escape(what)} at generator '{gen}' conflicts with its element's value$"):
        parse_model(json.dumps(doc))


@pytest.mark.parametrize("doc", [SWAP_TWICE_MODEL, IDENTITY_NAMED_MODEL])
def test_parse_accepts_generators_agreeing_on_a_repeated_element(doc):
    m = parse_and_validate(json.dumps(doc))
    assert m.group.order == 2
    for gen, x in m.group.gens.items():
        assert m.rho[x] == ProjMat(*sum(doc["rho"][gen], []), 3)
        assert m.chi[x] == doc["chi"][gen]
        assert m.characters["k"].values[x] == doc["characters"]["k"]["values"][gen]


def _model_document(m) -> str:
    """A model of ``model_corpus`` as model-file text: rho and chi on the
    generators, in the group's generator order."""
    gens = m.group.gens
    return json.dumps({
        "p": m.p,
        "group": {"type": "permutation", "name": m.group.name,
                  "generators": {s: list(g) for s, g in gens.items()}},
        "rho": {s: [list(m.rho[g].rep[:2]), list(m.rho[g].rep[2:])] for s, g in gens.items()},
        "chi": {s: m.chi[g] for s, g in gens.items()},
    })


@pytest.fixture(scope="module")
def parsed_corpus():
    """(corpus model, parsed model) for every model of model_corpus(3) and (5)."""
    return [(m, parse_model(_model_document(m))) for p in (3, 5) for m in model_corpus(p)]


def test_models_over_one_group_share_it(parsed_corpus):
    groups = {}  # (name, generators) -> the parsed groups
    for m, parsed in parsed_corpus:
        gens = m.group.gens.values()  # p = 5 has models whose chi is no homomorphism
        assert [(parsed.rho[g], parsed.chi[g]) for g in gens] == [(m.rho[g], m.chi[g]) for g in gens]
        groups.setdefault((m.group.name, tuple(m.group.gens.items())), set()).add(id(parsed.group))
    assert len(groups) == 4 and all(len(ids) == 1 for ids in groups.values())
    shared = {id(parsed.group): parsed.group for _m, parsed in parsed_corpus}
    assert len(shared) == 4
    for grp in shared.values():
        fresh = FiniteGroup.from_permutations(grp.gens, name=grp.name)
        assert grp.elements == fresh.elements and grp.gens == fresh.gens and grp.inverse == fresh.inverse
        assert [grp.right(j) for j in range(grp.order)] == [fresh.right(j) for j in range(fresh.order)]
        assert (grp.walk, grp.parent, grp.step) == (fresh.walk, fresh.parent, fresh.step)


def test_twist_plan_on_a_shared_group_equals_a_fresh_one(parsed_corpus):
    fresh = {}
    for _m, parsed in parsed_corpus:
        if validate_model(parsed):
            continue
        grp = parsed.group
        if id(grp) not in fresh:
            fresh[id(grp)] = FiniteGroup.from_permutations(grp.gens, name=grp.name)
        alone = FiniteGaloisModel(group=fresh[id(grp)], p=parsed.p, rho=dict(parsed.rho),
                                  chi=dict(parsed.chi))
        # N = 4 is a square mod every odd p, and N = 2 is not mod 3 or 5
        level = Level(4 if parsed.det_is_epsilon() else 2, parsed.p)
        assert twist_plan(level, parsed).to_jsonable() == twist_plan(level, alone).to_jsonable()
    assert len(fresh) == 4


def test_a_rejected_group_is_built_again_not_cached():
    gens = {"s": [1, 0], "t": [0, 2, 1]}
    text = json.dumps(dict(GOOD_MODEL, group={"type": "permutation", "generators": gens}))
    messages = []
    for _ in range(2):
        misses = _permutation_group.cache_info().misses
        with pytest.raises(ModelParseError, match="^bad permutation group: ") as err:
            parse_model(text)
        messages.append(str(err.value))
        assert _permutation_group.cache_info().misses == misses + 1
    assert messages[0] == messages[1]


def test_documented_models_validate_and_the_readme_library_lines_hold():
    # the model in the modelfile docstring and the one in README's JSON
    # block parse and validate; README's library block gives genus 13 for
    # its level, "FullPGL2" for W(2, 3), and the twist plan of the README
    # model at (4, 3) has four curves (rho and rho', untwisted and twisted
    # by k = -1)
    doc = modelfile.__doc__
    example = doc[doc.index("JSON document:") + len("JSON document:"):doc.index("The group is")]
    model = parse_and_validate(textwrap.dedent(example))
    assert model.p == 3 and model.group.order == 6 and model.conj == (1, 0, 2)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    readme_model = parse_and_validate(readme.split("```json\n")[1].split("```")[0])
    library = readme.split("## Library")[1].split("```python\n")[1].split("```")[0]
    level = Level(*map(int, re.search(r"level = Level\((\d+), (\d+)\)", library).groups()))
    assert re.search(r"genus_XNp\(level\)\s+# 13\n", library) and genus_XNp(level) == 13
    assert 'wgroup(Level(2, 3)).structure  # "FullPGL2"' in library
    assert wgroup(Level(2, 3)).structure == "FullPGL2"
    assert "twist_plan(Level(4, 3), model, k_fields=(-1,))" in library
    plan = twist_plan(Level(4, 3), readme_model, k_fields=(-1,))
    assert plan.curves == ["X(4,3)_rho", "X(4,3)'_rho", "X(4,3)_rho,k=-1", "X(4,3)'_rho,k=-1"]


@pytest.mark.parametrize("doc, error", [
    (dict(GOOD_MODEL, group={"type": "permutation", "generators": {}}),
     "group.generators must be a non-empty object"),
    (dict(TABLE_MODEL, group={k: v for k, v in TABLE_GROUP.items() if k != "table"}),
     "group.table is required for table groups"),
    ([GOOD_MODEL], "model file must be a JSON object"),
    ({k: v for k, v in GOOD_MODEL.items() if k != "chi"}, "missing required key 'chi'"),
    (dict(GOOD_MODEL, rho={"s": [[1, 1], [1, 1]]}), "rho['s']: ProjMat: singular matrix (1, 1, 1, 1) mod 3"),
    (dict(GOOD_MODEL, characters={"k": {"field": -1}}), "character 'k' needs a 'values' object"),
])
def test_parse_names_each_malformed_part(doc, error):
    with pytest.raises(ModelParseError, match=f"^{re.escape(error)}$"):
        parse_model(json.dumps(doc))


def test_conj_may_be_a_table_label_that_names_no_generator():
    doc = dict(TABLE_MODEL, group=dict(TABLE_GROUP, generators={"g": "a"}),
               rho={"g": [[0, 1], [1, 0]]}, chi={"g": 2}, conj="a")
    assert parse_and_validate(json.dumps(doc)).conj == "a"


UNREADABLE_ERRORS = {
    "not_utf8": "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 19: invalid start byte",
    "nested": "not valid JSON: maximum recursion depth exceeded while decoding a JSON array from a "
              "unicode string",
    "long_integer": "not valid JSON: Exceeds the limit (4300 digits) for integer string conversion: "
                    "value has 5000 digits; use sys.set_int_max_str_digits() to increase the limit",
}


def test_parse_refuses_files_that_are_no_json_text(tmp_path):
    # each raised UnicodeDecodeError, RecursionError or ValueError past the parser
    assert set(UNREADABLE_ERRORS) == set(UNREADABLE_MODEL_BYTES)
    for name, data in UNREADABLE_MODEL_BYTES.items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        with pytest.raises(ModelParseError, match=f"^{re.escape(UNREADABLE_ERRORS[name])}$"):
            parse_model(path)


def _fuzz_documents() -> list:
    """Model documents to corrupt: 20 stored models of each p, the
    permutation and the table model of this file."""
    data = Path(__file__).resolve().parents[1] / "perfbench" / "data"
    stored = [json.loads(line) for p in (3, 5)
              for line in (data / f"models_p{p}.jsonl").read_text().splitlines()[:20]]
    return stored + [GOOD_MODEL, TABLE_MODEL]


def _paths(doc, prefix=()):
    """The path of every value in a JSON document, the document's own first."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _paths(value, prefix + (key,))


def _replaced(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced."""
    if not path:
        return value
    copy = json.loads(json.dumps(doc))
    parent = copy
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return copy


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=10,
)
FUZZ_DOCUMENTS = _fuzz_documents()


def _parses_or_refuses(source) -> None:
    """parse_and_validate returns a model or raises ModelParseError, nothing else."""
    try:
        parse_and_validate(source)
    except ModelParseError:
        pass


@settings(max_examples=100, deadline=None)
@given(doc=st.sampled_from(FUZZ_DOCUMENTS), where=st.integers(min_value=0), value=JSON_VALUES)
def test_fuzzed_model_documents_parse_or_raise_model_parse_error(doc, where, value):
    # one value of a stored or sample model, at any depth, replaced by a drawn JSON value
    paths = list(_paths(doc))
    _parses_or_refuses(json.dumps(_replaced(doc, paths[where % len(paths)], value)))


@settings(max_examples=50, deadline=None)
@given(data=st.binary(max_size=64))
@example(data=UNREADABLE_MODEL_BYTES["not_utf8"])
@example(data=UNREADABLE_MODEL_BYTES["nested"])
@example(data=UNREADABLE_MODEL_BYTES["long_integer"])
def test_fuzzed_model_bytes_parse_or_raise_model_parse_error(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    path.write_bytes(data)
    _parses_or_refuses(path)
