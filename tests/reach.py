"""The reach map: every executable line of src/modtwist is reached by Tier-1,
or is listed with its reason in tests/data/unreached.json.

    python tests/reach.py

installs one line tracer, for the frames whose file is in src/modtwist,
before anything imports modtwist, then runs Tier-1 in this process with
``pytest.main``.  A line is executable when it is in the ``co_lines()`` of a
code object of the compiled file, nested ones included; a function's first
line counts as reached when the function is called.  The runner prints each
line that is unreached and not listed ("new") and each entry whose line is
reached or no longer in the source ("stale"), and exits 1 if there is one
or if a test fails.  Tracing costs three to four times the untraced suite; CI
runs it on Python 3.11, whose code objects the committed map describes.

An entry names its line by ``file``, ``function`` (the code object's
qualified name: ``<module>``, ``f``, ``C.m``, ``f.<locals>.<lambda>``) and
``text``, the stripped source line, with ``occurrence`` (1, 2, ...) where
the function has that text on more than one line; line numbers are printed,
never stored, so that edits elsewhere leave the map alone.  Its ``kind``
says why no test reaches the line, and the field beside it names the proof:

* ``defect``: only a defect fires it; ``mutant`` names the mutant of
  tests/mutants.py that does;
* ``subprocess``: only a CLI child process runs it, and the tracer does not
  follow child processes; ``test`` names the test that starts one;
* ``main``: the ``__main__`` guard.

Stdlib only, and not collected by pytest; ``tests/test_source.py`` checks
that each entry's text still occurs in its function and that each mutant or
test it names exists.
"""
from __future__ import annotations

import json
import sys
import threading
import time
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "modtwist"
MAP = ROOT / "tests" / "data" / "unreached.json"
KINDS = {"defect": "mutant", "subprocess": "test", "main": None}  # kind -> the field naming its proof


def _codes(code: types.CodeType, qualname: str):
    """(qualname, code) for ``code`` and every code object nested in it: a
    function's children are its ``<locals>``, a class body's its members."""
    yield qualname, code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            if code.co_name == "<module>":
                child = const.co_name
            elif code.co_flags & 1:  # CO_OPTIMIZED: a function, not a class body
                child = f"{qualname}.<locals>.{const.co_name}"
            else:
                child = f"{qualname}.{const.co_name}"
            yield from _codes(const, child)


def executable_lines(path: Path) -> list[dict]:
    """Each executable line of a source file of src/modtwist, in code object
    order and line order: its ``file``, ``function``, ``text`` and, where the
    function repeats the text, ``occurrence``; with ``line`` and ``code``,
    the (name, first line) that a traced frame's code object shares."""
    source = path.read_text()
    lines = source.splitlines()
    out, seen = [], {}
    for qualname, code in _codes(compile(source, str(path), "exec"), "<module>"):
        for line in sorted({n for _, _, n in code.co_lines() if n}):  # line 0 is the module's prologue
            text = lines[line - 1].strip()
            seen.setdefault((qualname, text), []).append(len(out))
            out.append({"file": path.name, "function": qualname, "text": text, "line": line,
                        "code": (code.co_name, code.co_firstlineno)})
    for positions in seen.values():
        if len(positions) > 1:
            for k, i in enumerate(sorted(positions, key=lambda i: out[i]["line"]), 1):
                out[i]["occurrence"] = k
    return out


def key(entry: dict) -> tuple:
    return entry["file"], entry["function"], entry["text"], entry.get("occurrence")


def _show(line: dict) -> str:
    return f"{line['file']}:{line['line']} {line['function']}: {line['text']}"


def trace_tier1() -> tuple[int, set]:
    """Run Tier-1 under the tracer: pytest's exit code and the reached
    (file name, code name, first line, line) of src/modtwist.  Each code
    object keeps the set of its lines not yet reached; once it is empty, the
    code's running frames stop reporting lines and its later calls are not
    traced, so a hot loop costs little after its first pass."""
    files = {str(path) for path in SRC.glob("*.py")}
    codes, todo = {}, {}  # id -> code object, id -> its lines not yet reached

    def call(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        lines = todo.get(id(code))
        if lines is None:
            codes[id(code)] = code
            lines = todo[id(code)] = {n for _, _, n in code.co_lines() if n}
            lines.discard(code.co_firstlineno)  # the prologue, which reports no line event
        if not lines:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.discard(frame.f_lineno)
                if not lines:
                    frame.f_trace_lines = False
            return local
        return local

    sys.path.insert(0, str(SRC.parent))
    threading.settrace(call)
    sys.settrace(call)
    try:
        import pytest  # modtwist is imported by the tests, under the tracer

        exit_code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(exit_code), {(Path(code.co_filename).name, code.co_name, code.co_firstlineno, line)
                            for i, code in codes.items()
                            for line in {n for _, _, n in code.co_lines() if n} - todo[i]}


def main() -> int:
    t0 = time.monotonic()
    exit_code, reached = trace_tier1()
    if exit_code != 0:
        print(f"reach: Tier-1 failed under the tracer (pytest exit code {exit_code})")
        return 1
    unreached = [line for path in sorted(SRC.glob("*.py")) for line in executable_lines(path)
                 if (line["file"], *line["code"], line["line"]) not in reached]
    listed = {key(entry) for entry in json.loads(MAP.read_text())}
    new = [line for line in unreached if key(line) not in listed]
    stale = listed - {key(line) for line in unreached}
    for line in new:
        print(f"new:   {_show(line)}")
        print("       " + json.dumps({k: line[k] for k in ("file", "function", "text", "occurrence")
                                      if k in line}))
    for file, function, text, occurrence in sorted(stale, key=str):
        print(f"stale: {file} {function}: {text}" + (f" (occurrence {occurrence})" if occurrence else ""))
    print(f"reach: {len(unreached)} unreached lines, {len(listed)} listed, {len(new)} new, "
          f"{len(stale)} stale, in {time.monotonic() - t0:.0f} s")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
