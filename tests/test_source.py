import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "wreathhom"


def test_no_asserts_in_package():
    # assert statements vanish under python -O, and the CLI maps InvariantError
    # (exit 6) but not AssertionError, so invariants must raise InvariantError
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
