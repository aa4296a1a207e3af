import ast
import json
import os
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


def test_no_dataclasses_in_package():
    # importing dataclasses costs about 10 ms of every cold start (it pulls in
    # inspect), and each frozen dataclass builds its methods through exec
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "dataclasses" for m in modules):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


# The public names of ``wreathhom``, which its __init__.py states once each:
# in its imports, or in the tuples of the lazily imported oracle and sampler.
PUBLIC_NAMES = [
    "AbelianGroup", "Abelianization", "DecayConstant", "DistributionTable", "ExplicitWreath", "FiniteGroup",
    "GroupSpec", "GroupTableError", "HomGroup", "InvariantError", "OrbitTypeData", "PermutationAction",
    "SizeCapError", "SubgroupClass", "UnknownGroupError", "WreathHom", "WreathHomCounter", "abelianization",
    "build_group", "build_wreath_group", "builtin_group", "coset_action", "decay_constant", "delta_distribution",
    "enumerate_homs", "fixed_point_free_probability", "fixed_point_strata_uniform", "fold_indices",
    "full_group_class", "group_from_permutations", "group_from_table", "hom_count_abelian", "hom_count_direct",
    "hom_count_wreath", "hom_group", "oracle_delta", "orbit_type_data", "sample_hom", "sample_orbit_type",
    "subgroup_classes", "verify_wreath_hom", "weyl_hom_count", "weyl_limit_ratio",
]

# Prints __all__, the lazy modules that a bare import loaded, and the names
# that a star import then binds.
PUBLIC_SURFACE = (
    "import json, sys, wreathhom\n"
    "lazy = [m for m in ('wreathhom.oracle', 'wreathhom.sampling') if m in sys.modules]\n"
    "ns = {}\n"
    "exec('from wreathhom import *', ns)\n"
    "print(json.dumps([wreathhom.__all__, lazy, sorted(set(ns) - {'__builtins__'})]))\n"
)


def test_public_names_stated_once():
    # A fresh process, so that no earlier test has imported the oracle or
    # the sampler.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PUBLIC_SURFACE], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    names, lazy, starred = json.loads(proc.stdout)
    assert len(PUBLIC_NAMES) == 43
    assert names == PUBLIC_NAMES
    assert lazy == []
    assert starred == PUBLIC_NAMES


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


def test_benchmark_tracer_times_the_walk(tmp_path):
    # A traced sample prints the untraced bytes, finds every entry point,
    # and reports the walk under the sampling layer: its time and the draws.
    argv = ["sample", "--group", "D4", "--A", "2", "--n", "200", "--samples", "3", "--seed", "7"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    untraced = subprocess.run([sys.executable, "-m", "wreathhom", *argv], env=env,
                              capture_output=True, timeout=60, check=True).stdout
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), *argv], env=env,
                            capture_output=True, timeout=60, check=True).stdout
    assert traced == untraced
    assert json.loads(spans.read_text())["missing"] == []
    code = (
        "import json, sys; sys.path.insert(0, sys.argv[1]); import tracer; "
        "print(json.dumps(tracer.layer_metrics(json.load(open(sys.argv[2])))[0]))"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(ROOT / "perfbench"), str(spans)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    metrics = json.loads(proc.stdout)
    assert metrics["sampling.walk_s"] > 0 and metrics["sampling.draws"] == 3


def test_only_the_cli_cap_is_a_parameter():
    # Fixed limits are module constants: a per-call limit that only tests set
    # hides which limit is documented.  The one limit parameter is the largest
    # n, which --cap passes to hom_count_wreath; in cli.py, ``cap`` is that
    # resolved --cap value on its way there.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                for arg in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg):
                    if arg is None or not (arg.arg == "cap" or arg.arg.endswith("_cap")):
                        continue
                    if path.name == "cli.py" and arg.arg == "cap":
                        continue
                    found.append(f"{path.stem}.{getattr(node, 'name', '<lambda>')}.{arg.arg}")
    assert found == ["counting.hom_count_wreath.cap"]
