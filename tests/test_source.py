"""Checks on the package source itself."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "modtwist"


def test_no_assert_statements_in_src():
    # python -O strips assert statements; invariants must raise InvariantError
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert len(list(SRC.glob("*.py"))) >= 10
    assert not found, found
