import ast
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "wreathhom"


def test_no_asserts_in_package():
    # assert statements vanish under python -O, and the CLI maps InvariantError
    # (exit 6) but not AssertionError, so invariants must raise InvariantError
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert) or (isinstance(node, ast.Name) and node.id == "AssertionError"):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_benchmark_tracer_finds_every_entry_point():
    # perfbench/tracer.py wraps layer entry points by name; a renamed or
    # removed one silently drops out of the per-layer metrics
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import tracer; "
        "rec = tracer.Recorder(); tracer.install(rec); print(json.dumps(rec.missing))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert json.loads(proc.stdout) == []
