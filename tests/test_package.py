import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "effset"


def test_no_assert_statements():
    """Invariants raise typed errors: `python -O` strips `assert`."""
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in sorted(PACKAGE.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
