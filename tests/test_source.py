"""Checks on the package source itself."""
import ast
from pathlib import Path

from mutants import CATALOGUE

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "modtwist"


def test_no_assert_statements_in_src():
    # python -O strips assert statements; invariants must raise InvariantError
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(SRC.glob("*.py"))) >= 10
    assert not found, found


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def test_no_imports_inside_functions_in_src():
    # imports sit at module level, where the import graph can be read
    found = set()  # a set: ast.walk meets an import in a nested function twice
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, FUNCTIONS):
                found |= {f"{path.name}:{n.lineno}" for n in ast.walk(node)
                          if isinstance(n, (ast.Import, ast.ImportFrom))}
    assert not found, sorted(found)


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _names(nodes):
    """The names that code refers to (variables, attributes and imported
    names), and the attributes it reads."""
    names, reads = set(), set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
                if isinstance(n.ctx, ast.Load):
                    reads.add(n.attr)
            elif isinstance(n, ast.ImportFrom):
                names.update(alias.name for alias in n.names)
    return names, reads


def _refs(node):
    """The names a definition refers to; a class's methods count apart."""
    if isinstance(node, ast.ClassDef):
        body = [s for s in node.body if not isinstance(s, FUNCTIONS)]
        return _names(node.bases + node.keywords + node.decorator_list + body)
    return _names([node])


def _record_fields(cls):
    """A class's record fields, as (name, node): the annotated names of a
    ``NamedTuple`` and the names in ``__slots__``, dunders (__dict__) aside."""
    named_tuple = any(isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases)
    fields = []
    for item in cls.body:
        if named_tuple and isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            fields.append((item.target.id, item))
        elif isinstance(item, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__slots__"
                                                  for t in item.targets):
            fields += [(c.value, item) for c in ast.walk(item.value)
                       if isinstance(c, ast.Constant) and isinstance(c.value, str) and not _is_dunder(c.value)]
    return fields


def test_no_code_kept_only_for_tests():
    # Every top-level function, class and method and every record field in
    # src/modtwist must be reached from what runs without the tests:
    # module-level code, cli.main and perfbench.  A top-level definition is
    # reached by name; a method or field only by an attribute read
    # (obj.name), since passing a field to the constructor reads nothing.
    # Imports and the __init__ exports reach nothing.  Dunder methods are
    # reached with their class.  A member that shares its name with one that
    # is read (say a field `level` beside TwistPlan.level) slips past.
    defs = []  # (qualified name, name, node, index of the owning class or None)
    roots = []
    fields = 0
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(stmt, FUNCTIONS + (ast.ClassDef,)):
                roots.append(stmt)
                continue
            owner = len(defs)
            defs.append((f"{path.stem}.{stmt.name}", stmt.name, stmt, None))
            if path.name == "cli.py" and stmt.name == "main":
                roots.append(stmt)
            if isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if isinstance(item, FUNCTIONS):
                        defs.append((f"{path.stem}.{stmt.name}.{item.name}", item.name, item, owner))
                for name, item in _record_fields(stmt):
                    defs.append((f"{path.stem}.{stmt.name}.{name}", name, item, owner))
                    fields += 1
    used, read = _names(roots)
    for p in (ROOT / "perfbench").glob("*.py"):
        names, reads = _names([ast.parse(p.read_text(), filename=str(p))])
        used |= names
        read |= reads
    reached = set()
    grew = True
    while grew:
        grew = False
        for i, (_qual, name, node, owner) in enumerate(defs):
            if owner is None:
                hit = name in used
            else:
                hit = name in read or (owner in reached and _is_dunder(name))
            if i not in reached and hit:
                reached.add(i)
                names, reads = _refs(node)
                used |= names
                read |= reads
                grew = True
    assert len(defs) >= 100
    # the 49 fields of the twelve record classes and ProjMat's 4 slots
    assert fields >= 53, fields
    unreached = [qual for i, (qual, name, _n, _o) in enumerate(defs)
                 if i not in reached and not _is_dunder(name)]
    assert not unreached, unreached


def _cache_names(tree):
    """Whether a node names functools.lru_cache or functools.cache in this
    module, as imported from functools or as an attribute of it."""
    names = {a.asname or a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for a in node.names if a.name in ("lru_cache", "cache")}

    def is_cache(node):
        return (isinstance(node, ast.Name) and node.id in names) or (
            isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
            and isinstance(node.value, ast.Name) and node.value.id == "functools")
    return is_cache


def test_every_cache_decorates_a_module_level_function():
    # perfbench's clear_caches calls cache_clear on module-level names only,
    # so a cache on a method, on a nested function or made by a call would
    # let a pass start warm
    module_level, elsewhere = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        is_cache = _cache_names(tree)
        allowed = {id(d.func if isinstance(d, ast.Call) else d)
                   for stmt in tree.body if isinstance(stmt, FUNCTIONS) for d in stmt.decorator_list}
        for node in ast.walk(tree):
            if is_cache(node):
                (module_level if id(node) in allowed else elsewhere).append(f"{path.name}:{node.lineno}")
    assert len(module_level) >= 13, module_level
    assert not elsewhere, elsewhere


def test_mutant_catalogue_is_current():
    # each mutant's text occurs exactly once in its file and the mutated file
    # compiles; each test it names is a module-level def test_... that
    # exists; a survives entry gives its reason and names tests to run
    assert len({m.name for m in CATALOGUE}) == len(CATALOGUE) >= 30
    for m in CATALOGUE:
        text = (SRC / m.path).read_text()
        assert text.count(m.old) == 1 and m.new != m.old, m.name
        compile(text.replace(m.old, m.new), m.path, "exec")
        assert m.tests and (m.survives == "" or len(m.survives) > 40), m.name
        for test_id in m.tests:
            path, _, name = test_id.partition("::")
            tree = ast.parse((ROOT / path).read_text())
            defs = {node.name for node in tree.body if isinstance(node, FUNCTIONS)}
            assert name.startswith("test_") and name.split("[")[0] in defs, (m.name, test_id)
