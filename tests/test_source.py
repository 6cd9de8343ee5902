import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "endotriv"


def test_package_has_no_assert_statements():
    # invariants raise real errors: `python -O` drops assert statements
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{f.name}:{node.lineno}" for f in files
             for node in ast.walk(ast.parse(f.read_text(), str(f)))
             if isinstance(node, ast.Assert)]
    assert not found, found
