"""Parsing of finite Galois model files.

A model file is a JSON document:

    {
      "p": 3,
      "group": {"type": "permutation",
                "generators": {"s": [1, 0, 2], "t": [1, 2, 0]}},
      "rho":  {"s": [[0, 1], [1, 0]], "t": [[0, 1], [2, 1]]},
      "chi":  {"s": 2, "t": 1},
      "conj": "s",
      "characters": {"k": {"values": {"s": -1, "t": 1}, "field": -1}}
    }

The group is either permutation generators (lists mapping i -> g(i)) or an
explicit multiplication table, an object of objects keyed by the string
element labels with table[a][b] = a*b:

    {"type": "table", "elements": ["e", "a"], "identity": "e",
     "table": {"e": {"e": "e", "a": "a"}, "a": {"e": "a", "a": "e"}},
     "generators": {"a": "a"}}

rho, chi and each character are given on the generators, agreeing where two
name one element or one names the identity, and extended multiplicatively;
the extensions are re-validated on the whole group.

Either group may carry an optional string "name" (default "G").  Models
whose permutation generators (in JSON order) and name are equal share one
``FiniteGroup``, built once per process, so a parsed group is read-only.
"""
from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from .arith import is_prime, is_squarefree
from .galmodel import (
    FiniteGaloisModel,
    FiniteGroup,
    QuadraticCharacter,
    validate_model,
)
from .projgroup import MAX_P, ProjMat, pgl2, right_table


class ModelParseError(ValueError):
    pass


# Models over one group share it: a corpus names a handful of groups over
# hundreds of models.  The bound is small, since the right table of a group
# of order 720 takes about 4 MB.  A ValueError is raised, not cached.
@lru_cache(maxsize=16)
def _permutation_group(gens: tuple, name: str) -> FiniteGroup:
    """The group of the (name, permutation) pairs ``gens``, in JSON order."""
    try:
        return FiniteGroup.from_permutations(dict(gens), name=name)
    except ValueError as exc:
        raise ModelParseError(f"bad permutation group: {exc}") from exc


def _build_group(spec: dict) -> FiniteGroup:
    if not isinstance(spec, dict):
        raise ModelParseError("group must be a JSON object")
    kind, name = spec.get("type"), spec.get("name", "G")
    if not isinstance(name, str):
        raise ModelParseError(f"group.name must be a string, got {name!r}")
    if kind == "permutation":
        gens = spec.get("generators")
        if not isinstance(gens, dict) or not gens:
            raise ModelParseError("group.generators must be a non-empty object")
        for gen, perm in gens.items():
            if (
                not isinstance(perm, list)
                or not all(type(i) is int for i in perm)
                or sorted(perm) != list(range(len(perm)))
            ):
                raise ModelParseError(f"generator {gen!r} is not a permutation")
        return _permutation_group(tuple((gen, tuple(perm)) for gen, perm in gens.items()), name)
    if kind == "table":
        for key in ("elements", "identity", "table"):
            if key not in spec:
                raise ModelParseError(f"group.{key} is required for table groups")
        elements, table, identity = spec["elements"], spec["table"], spec["identity"]
        gen_map = spec.get("generators")
        # labels are strings, as the keys of the JSON objects in the table are
        if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
            raise ModelParseError("group.elements must be a list of string labels")
        if not isinstance(identity, str):
            raise ModelParseError("group.identity must be a string label")
        if not isinstance(table, dict) or not all(
            isinstance(row, dict) and all(isinstance(v, str) for v in row.values())
            for row in table.values()
        ):
            raise ModelParseError(
                "group.table must be an object of objects of string labels, keyed by element labels"
            )
        if gen_map and not (
            isinstance(gen_map, dict) and all(isinstance(v, str) for v in gen_map.values())
        ):
            raise ModelParseError("group.generators must be an object of element labels")
        try:
            grp = FiniteGroup.from_table(elements, table, identity, name=name)
        except (KeyError, ValueError) as exc:
            raise ModelParseError(f"bad multiplication table: {exc}") from exc
        try:
            # without generators every element is its own generator
            grp.set_generators(dict(gen_map) if gen_map else {str(x): x for x in elements})
        except (KeyError, ValueError) as exc:
            raise ModelParseError(f"bad generators: {exc}") from exc
        return grp
    raise ModelParseError(f"unknown group type {kind!r}")


def parse_model(source: str | Path) -> FiniteGaloisModel:
    """Parse a model: a ``Path`` is read as a file, a ``str`` is the JSON
    text itself."""
    text = source.read_text() if isinstance(source, Path) else source
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelParseError("model file must be a JSON object")
    for key in ("p", "group", "rho", "chi"):
        if key not in doc:
            raise ModelParseError(f"missing required key {key!r}")
    p = doc["p"]
    if not isinstance(p, int) or p < 3 or not is_prime(p):
        raise ModelParseError(f"p must be an odd prime, got {p!r}")
    if p > MAX_P:
        raise ModelParseError(f"p must be at most {MAX_P}, got {p}")
    grp = _build_group(doc["group"])

    def as_projmat(name, mat):
        if (
            not isinstance(mat, list)
            or len(mat) != 2
            or not all(isinstance(row, list) and len(row) == 2 for row in mat)
            or not all(type(x) is int for row in mat for x in row)
        ):
            raise ModelParseError(f"rho[{name!r}] is not a 2x2 integer matrix")
        try:
            return ProjMat(mat[0][0], mat[0][1], mat[1][0], mat[1][1], p)
        except ValueError as exc:
            raise ModelParseError(f"rho[{name!r}]: {exc}") from exc

    gen_names = set(grp.gens)
    for key in ("rho", "chi"):
        if not isinstance(doc[key], dict) or set(doc[key]) != gen_names:
            raise ModelParseError(f"{key} must be given on exactly the generators {sorted(gen_names)}")
    rho_gens = {name: as_projmat(name, mat) for name, mat in doc["rho"].items()}
    chi_gens = {}
    for name, val in doc["chi"].items():
        if type(val) is not int or val % p == 0:
            raise ModelParseError(f"chi[{name!r}] must be an integer unit mod {p}")
        chi_gens[name] = val % p

    def extend(what, values, op, one):  # a generator repeating an element must agree with it
        out = grp.extend_generator_map(values, op, one)
        for gen, x in grp.gens.items():
            if out[x] != op(one, values[gen]):
                raise ModelParseError(f"{what} at generator {gen!r} conflicts with its element's value")
        return out

    full = pgl2(p)  # rho on numbers: a right-table lookup per tree edge
    rho_ks = extend("rho", {name: right_table(g) for name, g in rho_gens.items()},
                    lambda k, r: r[k], full.index[full.identity])
    rho = {s: full.elements[k] for s, k in rho_ks.items()}
    chi = extend("chi", chi_gens, lambda a, b: a * b % p, 1)
    conj = None
    if "conj" in doc and doc["conj"] is not None:
        conj = _resolve_element(grp, doc["conj"])
    characters = {}
    char_specs = doc.get("characters") or {}
    if not isinstance(char_specs, dict):
        raise ModelParseError("characters must be a JSON object")
    for name, spec in char_specs.items():
        if not isinstance(spec, dict) or not isinstance(spec.get("values"), dict):
            raise ModelParseError(f"character {name!r} needs a 'values' object")
        vals = spec["values"]
        if set(vals) != gen_names or any(type(v) is not int or v not in (1, -1) for v in vals.values()):
            raise ModelParseError(
                f"character {name!r} must give +-1 on exactly the generators"
            )
        # the fixed field Q(sqrt d) is labelled by a squarefree d other than 0 and 1
        d = spec.get("field")
        if d is not None and not (type(d) is int and d not in (0, 1) and is_squarefree(abs(d))):
            raise ModelParseError(
                f"character {name!r}: field must be null or a squarefree integer other than 0, 1"
            )
        extended = extend(f"character {name!r}", dict(vals), lambda a, b: a * b, 1)
        characters[name] = QuadraticCharacter(values=extended, field=d)
    model = FiniteGaloisModel(
        group=grp, p=p, rho=rho, chi=chi, conj=conj, characters=characters
    )
    return model


def _resolve_element(grp: FiniteGroup, label):
    """Map a JSON label to a group element: a generator name, or for table
    groups exactly an element label; both are strings, so no integer is."""
    if not isinstance(label, (str, int)):
        raise ModelParseError(f"element label {label!r} must be a string or an integer")
    if label in grp.gens:
        return grp.gens[label]
    if label in grp.index:  # a permutation group's labels are tuples, never strings
        return label
    raise ModelParseError(f"unknown element label {label!r}: not a generator name or table label")


def parse_and_validate(source: str | Path) -> FiniteGaloisModel:
    model = parse_model(source)
    errs = validate_model(model)
    if errs:
        raise ModelParseError("; ".join(errs))
    return model
