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


# Definitions no code in src/effset names, each kept for a reason.
TEST_ONLY = {
    "fractional.fractional_gradient": "criterion 2's exact gamma tables of the paper",
    "fractional.solve_lfp_cc": "criterion 4's second ratio solver, the cross-check",
    "branch_cut.SearchReport.fathoms": "report API: fathomed nodes by reason",
}


def test_every_definition_is_used_or_exported():
    """Each function, class and method in src/effset is named elsewhere in
    the package or exported in effset.__all__, or listed in TEST_ONLY: code
    that only tests call is a twin of the path the program takes."""
    import effset

    defined, named = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [(tree, path.stem)]
        while scopes:
            scope, prefix = scopes.pop()
            for node in ast.iter_child_nodes(scope):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.append((f"{prefix}.{node.name}", node.name))
                    scopes.append((node, f"{prefix}.{node.name}"))
                else:
                    scopes.append((node, prefix))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    unused = [
        qualname
        for qualname, name in defined
        if not (name.startswith("__") and name.endswith("__"))
        and name not in named
        and name not in effset.__all__
    ]
    assert sorted(unused) == sorted(TEST_ONLY)
