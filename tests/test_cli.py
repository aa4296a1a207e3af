import ast
import errno
import hashlib
import itertools
import json
import os
import re
import stat
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import reference_row
from strategies import permutation_lists
from wreathhom import cli, counting, homs, oracle, sampling
from wreathhom.cli import (
    EXIT_BAD_SPEC,
    EXIT_CAP_EXCEEDED,
    EXIT_INVARIANT,
    EXIT_OK,
    EXIT_UNKNOWN_BUILTIN,
    EXIT_USAGE,
    execute,
    fit_decay,
)
from wreathhom import (
    AbelianGroup,
    InvariantError,
    SizeCapError,
    WreathHom,
    builtin_group,
    group_from_permutations,
    hom_count_wreath,
    verify_wreath_hom,
)
from wreathhom.groups import COEFF_ORDER_CAP
from wreathhom.homs import HOM_GROUP_CAP, hom_group

SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(*args, flags=(), **kwargs):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **kwargs}
    return subprocess.run([sys.executable, *flags, "-m", "wreathhom", *args], env=env, text=True, **streams)


def run_lines(capsys, argv):
    code = execute(argv)
    out = capsys.readouterr().out
    return code, [json.loads(line) for line in out.splitlines() if line]


def test_count_example(capsys):
    code, lines = run_lines(capsys, ["count", "--group", "C2", "--A", "2", "--n", "3"])
    assert code == EXIT_OK
    assert lines == [{"n": 3, "count": "20"}]


def test_count_range(capsys):
    code, lines = run_lines(capsys, ["count", "--group", "C2", "--A", "2", "--n", "0:4"])
    assert code == EXIT_OK
    assert [l["count"] for l in lines] == ["1", "2", "6", "20", "76"]


def test_pfree_example(capsys):
    code, lines = run_lines(capsys, ["pfree", "--group", "C2", "--A", "2", "--n", "2"])
    assert code == EXIT_OK
    assert lines[0]["p"] == "1/3"


def test_weyl_example(capsys):
    code, lines = run_lines(capsys, ["weyl", "--group", "C1", "--n", "5"])
    assert code == EXIT_OK
    line = lines[0]
    assert (line["count"], line["ratio"], line["limit"]) == ("1", "1", "1")


def test_weyl_c2(capsys):
    code, lines = run_lines(capsys, ["weyl", "--group", "C2", "--n", "2:3"])
    assert code == EXIT_OK
    assert (lines[0]["count"], lines[0]["ratio"]) == ("4", "2/3")
    assert (lines[1]["count"], lines[1]["ratio"]) == ("10", "1/2")
    assert lines[0]["limit"] == "1/2"


def test_delta_output(capsys):
    code, lines = run_lines(capsys, ["delta", "--group", "C2", "--A", "2", "--n", "2"])
    assert code == EXIT_OK
    line = lines[0]
    assert line["fibers"] == ["4", "2"]
    assert line["probs"] == [{"num": "2", "den": "3"}, {"num": "1", "den": "3"}]
    assert line["supDistance"] == {"num": "1", "den": "6"}


BUILTINS = ["C1", "C2", "C3", "C4", "V4", "S3", "D4", "Q8"]
# (subcommand, --A) per table subcommand; weyl always counts into C2
ROW_CASES = [(command, a) for command in ("count", "pfree", "delta") for a in ("2", "4", "2,2")] + [("weyl", "2")]


def table_argv(command, group, a, n):
    return [command, "--group", group, "--n", n] + (["--A", a] if command != "weyl" else [])


@pytest.mark.parametrize("command, a", ROW_CASES, ids=[f"{c}-{a}" for c, a in ROW_CASES])
@pytest.mark.parametrize("name", BUILTINS)
def test_table_rows_are_json_dumps_of_reference_rows(name, command, a, capsys):
    assert execute(table_argv(command, name, a, "0:12")) == EXIT_OK
    group, coeffs = builtin_group(name), cli._parse_coeffs(a)
    expected = "".join(json.dumps(reference_row(command, group, coeffs, n)) + "\n" for n in range(13))
    assert capsys.readouterr().out == expected


@settings(max_examples=30, deadline=None, database=None)
@given(permutation_lists, st.sampled_from(ROW_CASES))
def test_table_rows_are_json_dumps_of_reference_rows_random_groups(perms, case):
    command, a = case
    group, coeffs = group_from_permutations(perms), cli._parse_coeffs(a)
    row = cli._build_parser().parse_args(table_argv(command, "-", a, "0")).row
    for n in range(9):
        assert row(group, coeffs, n, cli.DEFAULT_RECURRENCE_CAP) == json.dumps(
            reference_row(command, group, coeffs, n)), n


def test_sample_deterministic_bytes(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    argv = ["sample", "--group", "S3", "--A", "2", "--n", "4", "--samples", "5", "--seed", "11"]
    assert execute(argv + ["--out", str(out1)]) == EXIT_OK
    assert execute(argv + ["--out", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    lines = [json.loads(l) for l in out1.read_text().splitlines()]
    assert len(lines) == 5
    assert all(set(l) == {"perm", "decor"} for l in lines)


def test_group_spec_file_input(tmp_path, capsys):
    path = tmp_path / "v4.json"
    path.write_text(json.dumps({"name": "V4", "table": [[i ^ j for j in range(4)] for i in range(4)]}))
    code, lines = run_lines(capsys, ["count", "--group", str(path), "--A", "2", "--n", "2"])
    assert code == EXIT_OK
    assert lines == [{"n": 2, "count": "28"}]

    perm_path = tmp_path / "s3.json"
    perm_path.write_text(json.dumps({"name": "S3", "permGenerators": [[1, 0, 2], [1, 2, 0]]}))
    code, lines = run_lines(capsys, ["count", "--group", str(perm_path), "--A", "2", "--n", "2"])
    assert code == EXIT_OK
    assert lines == [{"n": 2, "count": "6"}]


def test_unknown_builtin_exit_code(capsys):
    assert execute(["count", "--group", "E8", "--A", "2", "--n", "1"]) == EXIT_UNKNOWN_BUILTIN


def test_bad_spec_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"name": "bad", "table": [[0, 1], [1, 1]]}))
    assert execute(["count", "--group", str(path), "--A", "2", "--n", "1"]) == EXIT_BAD_SPEC


@pytest.mark.parametrize(
    "spec",
    [
        {"table": 5},
        [1, 2],
        {"permGenerators": [5]},
        {"table": [[0, None]]},
        {"permGenerators": [[0, 1.5]]},
        {"permGenerators": [["1", "0"]]},
        {"permGenerators": [[True, False]]},
        {"name": {"a": 1}, "table": [[0]]},
    ],
    ids=json.dumps,
)
def test_malformed_spec_json_exits_3_with_one_line(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert execute(["count", "--group", str(path), "--A", "2", "--n", "1"]) == EXIT_BAD_SPEC
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1


@pytest.mark.parametrize("target", ["missing-dir/x.jsonl", "."], ids=["missing-dir", "directory"])
def test_unwritable_out_exits_2_with_one_line(target, tmp_path, capsys):
    out = tmp_path / target
    assert execute(["sample", "--group", "C2", "--n", "3", "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write --out") and captured.err.count("\n") == 1
    assert str(out) in captured.err


def test_cap_exceeded_exit_code(capsys):
    assert execute(["count", "--group", "C2", "--A", "2", "--n", "50", "--cap", "10"]) == EXIT_CAP_EXCEEDED


@pytest.mark.parametrize("command", ["count", "sample"])
def test_cap_env_var(command, capsys, monkeypatch):
    monkeypatch.setenv("WREATHHOM_CAP", "10")
    assert execute([command, "--group", "C2", "--A", "2", "--n", "50"]) == EXIT_CAP_EXCEEDED


# Every subcommand that takes --n, with the arguments it needs besides --n.
N_COMMANDS = [
    ["count", "--group", "C2"],
    ["pfree", "--group", "C2"],
    ["delta", "--group", "C2"],
    ["weyl", "--group", "C2"],
    ["sample", "--group", "C2"],
    ["fit-decay", "--group", "C2"],
    ["oracle-check", "--group", "C2"],
]


@pytest.fixture
def no_group_loads(monkeypatch):
    def no_work(*args):
        raise AssertionError("group loaded before the n limit was checked")

    monkeypatch.setattr(cli, "_load_group", no_work)


@pytest.mark.parametrize("cap_args, n", [([], "100001"), (["--cap", "3"], "4")], ids=["default", "cap3"])
@pytest.mark.parametrize("argv", N_COMMANDS, ids=lambda argv: argv[0])
def test_n_past_cap_refused_before_any_work(argv, cap_args, n, no_group_loads, capsys, monkeypatch):
    monkeypatch.delenv("WREATHHOM_CAP", raising=False)
    assert execute(argv + ["--n", n] + cap_args) == EXIT_CAP_EXCEEDED
    assert capsys.readouterr().out == ""


A_COMMANDS = [argv for argv in N_COMMANDS if argv[0] != "weyl"]  # weyl has no --A


@pytest.mark.parametrize("a, order", [(str(COEFF_ORDER_CAP + 1), COEFF_ORDER_CAP + 1), ("2,1024", 2048)])
@pytest.mark.parametrize("argv", A_COMMANDS, ids=lambda argv: argv[0])
def test_a_past_cap_refused_before_any_work(argv, a, order, no_group_loads, capsys):
    # |A| is checked while --A is parsed, before the group is loaded
    assert execute(argv + ["--A", a, "--n", "1"]) == EXIT_CAP_EXCEEDED
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: |A| = {order} exceeds cap {COEFF_ORDER_CAP}\n"


def test_a_past_cap_refused_by_the_library():
    # |Hom(C2, C1025)| = 1 is far inside its own cap: hom_group refuses A itself
    with pytest.raises(SizeCapError, match=f"= {COEFF_ORDER_CAP + 1} exceeds cap {COEFF_ORDER_CAP}"):
        hom_group(builtin_group("C2"), AbelianGroup((COEFF_ORDER_CAP + 1,)))
    with pytest.raises(SizeCapError, match="exceeds cap"):
        hom_count_wreath(builtin_group("C1"), AbelianGroup((2, 1024)), 0)


def test_hom_group_past_cap_refused_before_listing(capsys, monkeypatch):
    # h = |Hom(V4, C2^10)| = 2^20 is refused from the gcd count, before any
    # homomorphism is listed or any subgroup class is found
    def no_work(*args):
        raise AssertionError("work done past the Hom(G, A) cap")

    monkeypatch.setattr(homs, "abelian_hom", no_work)
    monkeypatch.setattr(counting, "subgroup_classes", no_work)
    assert execute(["count", "--group", "V4", "--A", ",".join(["2"] * 10), "--n", "0"]) == EXIT_CAP_EXCEEDED
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: |Hom(G, A)| = {2**20} exceeds cap {HOM_GROUP_CAP}\n"


def test_hom_group_at_cap_is_listed():
    c2_x_c4 = group_from_permutations([(1, 0, 2, 3, 4, 5), (0, 1, 3, 4, 5, 2)])
    assert hom_group(c2_x_c4, AbelianGroup((2, 4, 4, 4))).size == HOM_GROUP_CAP
    with pytest.raises(SizeCapError, match=f"= {2 * HOM_GROUP_CAP} exceeds cap"):
        hom_group(builtin_group("V4"), AbelianGroup((2,) * 6))


def test_a_at_cap_runs_in_100_mb():
    resource = pytest.importorskip("resource")
    limit = 100 * 2**20

    def limit_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = run_module("count", "--group", "C2", "--A", str(COEFF_ORDER_CAP), "--n", "3",
                      preexec_fn=limit_address_space)
    assert proc.returncode == EXIT_OK, proc.stderr[-500:]
    # 3! [x^3] exp(a_1 x + a_2 x^2), with a_1 = |Hom(C2, A)| = 2 and a_2 = |A| / 2
    assert proc.stdout == f'{{"n": 3, "count": "{2**3 + 6 * 2 * COEFF_ORDER_CAP // 2}"}}\n'


# Prints the peak of the memory that tracemalloc sees while a counter is
# built for C2 with |A| at its cap and counts to n = 3.
PEAK_OF_A_AT_CAP = (
    "import tracemalloc\n"
    "from wreathhom import AbelianGroup, builtin_group\n"
    "from wreathhom.counting import counter_for\n"
    "from wreathhom.groups import COEFF_ORDER_CAP\n"
    "group, coeffs = builtin_group('C2'), AbelianGroup((COEFF_ORDER_CAP,))\n"
    "tracemalloc.start()\n"
    "counter_for(group, coeffs).count(3)\n"
    "print(tracemalloc.get_traced_memory()[1])\n"
)


def test_a_at_cap_builds_nothing_of_size_a_squared():
    # A fresh process, so that no cache of an earlier test holds what the
    # counter builds.  An |A|^2-entry table of A-indices at |A| = 1024 would
    # alone peak at about 32 MiB.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", PEAK_OF_A_AT_CAP], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert int(proc.stdout) < 2**20


F56 = {"name": "F56", "permGenerators": [[1, 0, 3, 2, 5, 4, 7, 6], [0, 2, 4, 6, 3, 1, 7, 5]]}


@pytest.mark.parametrize("args", [
    ("count", "--n", "3"),
    ("delta", "--n", "1:5"),
    ("sample", "--n", "30", "--samples", "5", "--seed", "0"),
], ids=["count", "delta", "sample"])
def test_hom_u_a_is_never_listed(tmp_path, args):
    # F56 = C2^3 x| C7 has h = 1 with A = C2^8, but its C2^3 class has
    # |Hom(U, A)| = 2^24: each query must run in 300 MB, so no path lists
    # Hom(U, A), not the fold subgroups' and not the sampler's
    resource = pytest.importorskip("resource")
    limit = 300 * 2**20

    def limit_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    path = tmp_path / "f56.json"
    path.write_text(json.dumps(F56))
    coeffs = AbelianGroup((2,) * 8)
    proc = run_module(*args, "--group", str(path), "--A", "2,2,2,2,2,2,2,2",
                      preexec_fn=limit_address_space, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr[-500:]
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    if args[0] == "sample":
        g = cli._load_group(str(path))
        assert len(lines) == 5
        for line in lines:
            hom = WreathHom(n=30, perms=tuple(map(tuple, line["perm"])), decors=tuple(map(tuple, line["decor"])))
            assert verify_wreath_hom(g, coeffs, hom)
    else:
        assert len(lines) == (1 if args[0] == "count" else 5)


def test_cap_applies_to_default_oracle_grid(no_group_loads, capsys):
    assert execute(["oracle-check", "--cap", "2"]) == EXIT_CAP_EXCEEDED
    assert capsys.readouterr().out == ""


def test_cap_is_not_a_group_size_limit(tmp_path, capsys):
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({"name": "S3", "permGenerators": [[1, 0, 2], [1, 2, 0]]}))
    code, from_spec = run_lines(capsys, ["count", "--group", str(path), "--n", "2", "--cap", "5"])
    assert code == EXIT_OK
    assert from_spec == run_lines(capsys, ["count", "--group", "S3", "--n", "2", "--cap", "5"])[1]


@pytest.mark.parametrize("command", ["count", "pfree"])
def test_cap_zero_allows_n_zero(command, capsys):
    assert execute([command, "--group", "C2", "--n", "0", "--cap", "0"]) == EXIT_OK


@pytest.mark.parametrize("command", ["count", "weyl"])
def test_cap_above_default_reaches_the_recurrence(command, capsys):
    # the trivial group has one homomorphism into any group, so every table entry is 1
    code, lines = run_lines(capsys, [command, "--group", "C1", "--n", "100001", "--cap", "100001"])
    assert code == EXIT_OK
    assert lines[0]["count"] == "1"


def test_oracle_check_n_needs_group(capsys):
    assert execute(["oracle-check", "--n", "7"]) == EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_oracle_check_a_needs_group(capsys):
    assert execute(["oracle-check", "--A", "4"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: oracle-check --A needs --group\n")
    # with --group, an empty --A is still the trivial A, not the default C2
    code, lines = run_lines(capsys, ["oracle-check", "--group", "C2", "--A", "", "--n", "2"])
    assert code == EXIT_OK and lines[0]["A"] == [] and lines[0]["count"] == "2"


def test_sample_negative_samples_is_usage_error(capsys):
    assert execute(["sample", "--group", "C2", "--n", "3", "--samples", "-4"]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--group", "C2", "--n", "1:3"],
        ["count", "--group", "C2", "--n", "5:3"],
        ["count", "--group", "C2", "--n", "abc"],
        ["count", "--group", "C2", "--n", "2:x"],
        ["count", "--group", "C2", "--n=-1"],
        ["delta", "--group", "C2", "--n=-2:3"],
        ["sample", "--group", "C2", "--n=-1"],
    ],
    ids=["sample-range", "empty-range", "not-a-number", "bad-hi", "negative", "negative-lo", "sample-negative"],
)
def test_malformed_n_is_usage_error(argv, no_group_loads, capsys):
    assert execute(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


def _fail_on_call(monkeypatch, module, name, bad_call):
    """Patch module.<name> to raise InvariantError on its ``bad_call``-th call."""
    real, calls = getattr(module, name), []

    def flaky(*args):
        calls.append(args)
        if len(calls) == bad_call:
            raise InvariantError(f"{name} failed on call {bad_call}")
        return real(*args)

    monkeypatch.setattr(module, name, flaky)


# The module whose binding each subcommand reads: the sampler is imported
# when ``sample`` runs, so its draws are looked up in ``sampling``.
MID_RUN_FAILURES = [
    (sampling, "sample_hom", ["sample", "--group", "S3", "--n", "6", "--samples", "5", "--seed", "1"]),
    (cli, "delta_distribution", ["delta", "--group", "S3", "--n", "1:5"]),
]


# Each case runs with rows held in memory and again spooled from the first row.
SPOOL_SIZES = [cli.SPOOL_CHARS, 0]


@pytest.mark.parametrize(
    "argv", [argv for _, _, argv in MID_RUN_FAILURES] + [["count", "--group", "C2", "--n", "1:3"]],
    ids=["sample", "delta", "count"],
)
def test_held_cases_print_within_one_chunk(argv, capsysbinary):
    # the held case of each SPOOL_SIZES test keeps its rows in memory only
    # if its output stays within SPOOL_CHARS
    assert execute(argv) == EXIT_OK
    assert 0 < len(capsysbinary.readouterr().out) <= cli.SPOOL_CHARS


@pytest.mark.parametrize("module, name, argv", MID_RUN_FAILURES, ids=["sample", "delta"])
def test_failure_mid_run_writes_nothing(module, name, argv, tmp_path, capsys, monkeypatch):
    for spool in SPOOL_SIZES:
        monkeypatch.setattr(cli, "SPOOL_CHARS", spool)
        _fail_on_call(monkeypatch, module, name, 3)
        assert execute(argv) == EXIT_INVARIANT
        assert capsys.readouterr().out == ""
        out = tmp_path / "rows.jsonl"
        _fail_on_call(monkeypatch, module, name, 3)
        assert execute(argv + ["--out", str(out)]) == EXIT_INVARIANT
        assert list(tmp_path.iterdir()) == []  # neither the file nor a temporary one beside it


@pytest.mark.parametrize("module, name, argv", MID_RUN_FAILURES, ids=["sample", "delta"])
def test_out_file_bytes_equal_stdout(module, name, argv, tmp_path, capsysbinary, monkeypatch):
    for spool in SPOOL_SIZES:
        monkeypatch.setattr(cli, "SPOOL_CHARS", spool)
        assert execute(argv) == EXIT_OK
        printed = capsysbinary.readouterr().out
        out = tmp_path / "rows.jsonl"
        assert execute(argv + ["--out", str(out)]) == EXIT_OK
        assert printed and out.read_bytes() == printed
        assert list(tmp_path.iterdir()) == [out]


@pytest.mark.parametrize("chunk", [1, 7, cli.COPY_CHARS])
def test_spool_copied_back_in_chunks_is_the_held_bytes(chunk, tmp_path, capsysbinary, monkeypatch):
    # chunks of 1 and 7 characters end inside rows and inside lines
    argv = ["delta", "--group", "S3", "--A", "4", "--n", "1:30"]
    assert execute(argv) == EXIT_OK
    held = capsysbinary.readouterr().out
    monkeypatch.setattr(cli, "SPOOL_CHARS", 0)
    monkeypatch.setattr(cli, "COPY_CHARS", chunk)
    assert execute(argv) == EXIT_OK
    assert capsysbinary.readouterr().out == held
    out = tmp_path / "rows.jsonl"
    assert execute(argv + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == held


def test_out_file_takes_the_umask(tmp_path):
    # a new --out file gets the mode open() gives it
    out = tmp_path / "rows.jsonl"
    umask = os.umask(0o027)
    try:
        assert execute(["count", "--group", "C2", "--n", "1:3", "--out", str(out)]) == EXIT_OK
    finally:
        os.umask(umask)
    assert out.stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("spool", SPOOL_SIZES, ids=["held", "spooled"])
def test_out_writes_through_a_symlink_and_a_device(spool, tmp_path, capsysbinary, monkeypatch):
    # --out is opened like open(out, "w"): a link keeps pointing at its
    # target, /dev/null stays a device, and nothing appears beside either
    monkeypatch.setattr(cli, "SPOOL_CHARS", spool)
    argv = ["count", "--group", "C2", "--n", "1:3"]
    assert execute(argv) == EXIT_OK
    printed = capsysbinary.readouterr().out
    target, link = tmp_path / "rows.jsonl", tmp_path / "link.jsonl"
    target.write_text("older and longer text\n" * 10)
    link.symlink_to(target)
    assert execute(argv + ["--out", str(link)]) == EXIT_OK
    assert link.is_symlink() and target.read_bytes() == printed
    assert execute(argv + ["--out", os.devnull]) == EXIT_OK
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)
    assert sorted(tmp_path.iterdir()) == [link, target]


def test_unspoolable_output_exits_2_with_one_line(tmp_path, capsys, monkeypatch):
    # past SPOOL_CHARS the rows need a temporary file; without one the run
    # reports it in one line and writes nothing
    import tempfile

    def read_only(*args, **kwargs):
        raise OSError(errno.EROFS, os.strerror(errno.EROFS))

    monkeypatch.setattr(tempfile, "TemporaryFile", read_only)
    monkeypatch.setattr(cli, "SPOOL_CHARS", 0)
    out = tmp_path / "rows.jsonl"
    for target in ([], ["--out", str(out)]):
        assert execute(["count", "--group", "C2", "--n", "1:3", *target]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write output through a temporary file: {os.strerror(errno.EROFS)}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("n", ["1", "1:400"], ids=["held", "spooled"])
@pytest.mark.parametrize("stdout", ["/dev/full", "closed-pipe"])
def test_failed_stdout_write_exits_2_with_one_line(stdout, n, monkeypatch):
    # a full device, or a pipe whose reader has gone, with output held in
    # memory (one row, within stdout's buffer) or past the spool: one
    # line naming stdout, exit 2, and no second message when the interpreter
    # flushes stdout at exit, which a buffered stdout still holds
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    if stdout == "/dev/full":
        if not os.path.exists(stdout):
            pytest.skip("no /dev/full")
        target, reason = os.open(stdout, os.O_WRONLY), os.strerror(errno.ENOSPC)
    else:
        read_end, target = os.pipe()
        os.close(read_end)
        reason = os.strerror(errno.EPIPE)
    try:
        proc = run_module("delta", "--group", "Q8", "--A", "2", "--n", n, stdout=target)
    finally:
        os.close(target)
    assert (proc.returncode, proc.stderr) == (EXIT_USAGE, f"error: cannot write to stdout: {reason}\n")


@pytest.mark.parametrize("n", ["1", "1:400"], ids=["held", "spooled"])
def test_closed_stdout_exits_2_with_one_line(n):
    # started with fd 1 closed, Python sets sys.stdout to None: the same one
    # line and exit 2 as a failed write, not a traceback and exit 1
    proc = run_module("delta", "--group", "Q8", "--A", "2", "--n", n, stdout=subprocess.DEVNULL,
                      preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (EXIT_USAGE, f"error: cannot write to stdout: {os.strerror(errno.EBADF)}\n")


def _peaks_of_emit(rows, tmp_path, monkeypatch):
    """The tracemalloc peaks of ``cli._emit(rows())`` printing to stdout
    (a file in ``tmp_path``) and writing ``--out``, and the two files."""
    tracemalloc = pytest.importorskip("tracemalloc")
    # the spool's module, imported by _emit on first use where site has not
    # imported it, allocates about 0.5 MB that the emitter does not hold
    import tempfile  # noqa: F401

    def peak_of_emit(target):
        tracemalloc.start()
        try:
            cli._emit(rows(), target)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    stdout, out = tmp_path / "stdout.jsonl", tmp_path / "out.jsonl"
    with open(stdout, "w", encoding="utf-8") as fh:
        monkeypatch.setattr(sys, "stdout", fh)
        printing = peak_of_emit(None)
        monkeypatch.undo()
    writing = peak_of_emit(str(out))
    assert sorted(tmp_path.iterdir()) == [out, stdout]
    return printing, writing, stdout, out


def test_emit_spools_rows_past_1_mib(tmp_path, monkeypatch):
    # 64 rows of 1 MB: the emitter holds about one row and one encoded copy,
    # not the 64 MB of output, and stdout and --out get the same bytes
    def rows():
        for i in range(64):
            yield str(i).rjust(10**6, "7")

    printing, writing, stdout, out = _peaks_of_emit(rows, tmp_path, monkeypatch)
    assert printing < 4 * 10**6 and writing < 4 * 10**6, (printing, writing)
    printed = stdout.read_bytes()
    assert len(printed) == 64 * (10**6 + 1)
    assert out.read_bytes() == printed


def test_emit_holds_one_chunk(tmp_path, monkeypatch):
    # 40 rows of 50 KB, the size of a sample row at n = 3000: past the first
    # 64 KiB the rows go to the spool, so the emitter holds about one chunk
    # and one row, not the first 1 MiB of output
    row_chars = 50_000

    def rows():
        for i in range(40):
            yield str(i).rjust(row_chars, "7")

    printing, writing, stdout, out = _peaks_of_emit(rows, tmp_path, monkeypatch)
    bound = 2 * cli.COPY_CHARS + 2 * row_chars
    assert printing < bound and writing < bound, (printing, writing)
    printed = stdout.read_bytes()
    assert len(printed) == 40 * (row_chars + 1)
    assert out.read_bytes() == printed


def test_oracle_check_single_cell(capsys):
    code, lines = run_lines(capsys, ["oracle-check", "--group", "C2", "--A", "2", "--n", "1:3"])
    assert code == EXIT_OK
    assert lines[-1]["ok"] is True
    assert all(l["ok"] for l in lines[:-1])
    assert lines[0]["count"] == lines[0]["oracle"]


def test_oracle_check_loads_group_once(tmp_path, capsys, monkeypatch):
    spec = tmp_path / "c2.json"
    spec.write_text(json.dumps({"name": "C2", "table": [[0, 1], [1, 0]]}))
    built = []
    real_build = cli.build_group
    monkeypatch.setattr(cli, "build_group", lambda s: built.append(s) or real_build(s))
    code, lines = run_lines(capsys, ["oracle-check", "--group", str(spec), "--n", "1:3"])
    assert code == EXIT_OK
    assert [l["n"] for l in lines[:-1]] == [1, 2, 3]
    assert len(built) == 1


def test_oracle_check_enumerates_each_cell_once(capsys, monkeypatch):
    calls = []
    real_enumerate = oracle.enumerate_homs

    def counted(*args):
        calls.append(args)
        return real_enumerate(*args)

    # oracle-check imports the oracle when it runs, so it reads this binding
    monkeypatch.setattr(oracle, "enumerate_homs", counted)
    assert execute(["oracle-check", "--group", "C2", "--n", "1:3"]) == EXIT_OK
    assert len(calls) == 3


def s5_plain_table():
    """S5 as a 120 x 120 table in the order of itertools.permutations."""
    perms = list(itertools.permutations(range(5)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(a[b[i]] for i in range(5))] for b in perms] for a in perms]


def test_oracle_check_bytes_pinned(tmp_path, capsysbinary):
    # the S5 digest is the benchmark's newgroup reference; the default grid's
    # was recorded before the oracle enumerated each cell once
    spec = tmp_path / "s5.json"
    spec.write_text(json.dumps({"name": "S5", "table": s5_plain_table()}))
    for argv, digest in (
        (["oracle-check", "--group", str(spec), "--A", "2", "--n", "1:2"],
         "74c2c853ce6089e3d55f29afeda1e334aca0f6da50216ef6c0f84f19961c55d5"),
        (["oracle-check"], "b854d9520318a3913bf48b7c1cdd6aefa5aaf0acd3ffcbbc5a69aa97a6eb7c4a"),
    ):
        assert execute(argv) == EXIT_OK
        assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest


def test_fit_decay_negative_slope(capsys):
    code, lines = run_lines(capsys, ["fit-decay", "--group", "C2", "--A", "2", "--n", "20:120"])
    assert code == EXIT_OK
    line = lines[0]
    assert line["slope"] < 0
    assert line["conservativeConstant"] == "1/48"
    assert line["points"] > 10


def test_fit_decay_is_exact_then_rounded(capsys):
    # statistics.linear_regression gave -1.4063146321058273 and
    # 1.0695439253197563 on Python 3.10 and 3.11, but -1.4063146321058275
    # and 1.069543925319758 on 3.12 and 3.13; the exact fit gives these on all four
    code, lines = run_lines(capsys, ["fit-decay", "--group", "C2", "--A", "2", "--n", "20:120"])
    assert code == EXIT_OK
    assert (lines[0]["slope"], lines[0]["intercept"]) == (-1.4063146321058275, 1.0695439253197603)


def test_fit_decay_helper_requires_points():
    with pytest.raises(ValueError, match="at least two"):
        fit_decay(builtin_group("C2"), AbelianGroup((2,)), [1, 3, 5])


def test_trivial_coeffs_flag(capsys):
    code, lines = run_lines(capsys, ["count", "--group", "C2", "--A", "1", "--n", "4"])
    assert code == EXIT_OK
    assert lines == [{"n": 4, "count": "10"}]


def test_sample_bytes_pinned(tmp_path):
    # sha256 of this exact output from the original Fraction-recurrence
    # sampler: any change in the backward walk's draw order breaks it
    out = tmp_path / "draws.jsonl"
    argv = ["sample", "--group", "D4", "--A", "2", "--n", "200", "--samples", "5", "--seed", "7"]
    assert execute(argv + ["--out", str(out)]) == EXIT_OK
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digest == "8bbe581e77fa0b684c4d38d2ff0870ab1a733eb51d3352ddc0f2056743ea6524"


C2_4_PERMS = [[1, 0, 2, 3, 4, 5, 6, 7], [0, 1, 3, 2, 4, 5, 6, 7], [0, 1, 2, 3, 5, 4, 6, 7], [0, 1, 2, 3, 4, 5, 7, 6]]


@pytest.mark.parametrize(
    "group,a,n,digest",
    [
        # |Hom(U, A)| = 1 for every U != 1: S3^ab = C2 has no map onto C3
        ("S3", "3", 400, "be294ba739fdd1ec85ff99d155b9bd963a2046bf17019c2c307653d6e5b6c887"),
        # a non-power-of-two modulus |A| = 4 on two generators
        ("V4", "2,2", 300, "0e3beb35627948d4acb39961dfe4122511aa334bc11d34d83dee6c16bcaa8c3a"),
        ("Q8", "4", 500, "ca48193afb1fa2b08a98f757ebdb32358e427421d09cf23018ca311077e8ad3b"),
        # 67 classes in 5 orbit sizes, given as permutation generators
        ("c2_4.json", "2", 200, "3b3c795318ffcfbb00df688e11e6319391c0dea1651f70c3e367d00c6039f73b"),
    ],
)
def test_sample_bytes_pinned_across_groups(group, a, n, digest, tmp_path, capsysbinary):
    # recorded before the sampler's direct draws and prefix-bound walk:
    # several classes share each orbit size, so every draw path is covered
    if group.endswith(".json"):
        spec = tmp_path / group
        spec.write_text(json.dumps({"name": "C2^4", "permGenerators": C2_4_PERMS}))
        group = str(spec)
    argv = ["sample", "--group", group, "--A", a, "--n", str(n), "--samples", "5", "--seed", "7"]
    assert execute(argv) == EXIT_OK
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        # exponent 4: quotients Z/2 only (D4^ab = C2 x C2), but A = C4
        (["delta", "--group", "D4", "--A", "4", "--n", "1:40"],
         "5d21b3d8b509bb840a21832751e1be7dde11979ae7ce911f441b1ac611ef981c"),
        # exponent 3: one quotient Z/3, whose two characters are Galois conjugate
        (["delta", "--group", "C3", "--A", "3", "--n", "1:40"],
         "a5b364fe6ff6a92ae955e62301ffb6d81a6bce02fc3a9cd0c4342239a64fe604"),
        (["weyl", "--group", "D4", "--n", "1:40"],
         "3ebb9fba67c165b343e982d96c843d17a713de0d4e4fbe9d9acd09c997647331"),
    ],
    ids=["delta-D4-A4", "delta-C3-A3", "weyl-D4"],
)
def test_fiber_bytes_pinned_beyond_exponent_2(argv, digest, capsysbinary):
    # recorded while fibers ran in the group algebra of Hom(G, A)
    assert execute(argv) == EXIT_OK
    assert hashlib.sha256(capsysbinary.readouterr().out).hexdigest() == digest


def test_spooled_range_bytes_pinned(tmp_path, capsysbinary):
    # 1.40 MB, past SPOOL_CHARS: the rows are copied back from the spool
    argv = ["delta", "--group", "Q8", "--A", "2", "--n", "1:400"]
    digest = "6862460590028ceb3b9c0a008e37d072a2fdda869bc99156419d358471095919"
    assert execute(argv) == EXIT_OK
    printed = capsysbinary.readouterr().out
    assert len(printed) > cli.SPOOL_CHARS and hashlib.sha256(printed).hexdigest() == digest
    out = tmp_path / "rows.jsonl"
    assert execute(argv + ["--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == printed


def test_sample_bytes_pinned_under_python_O():
    # the stratum check and the lazy walk are not asserts: -O draws the same
    proc = run_module("sample", "--group", "D4", "--A", "2", "--n", "200", "--samples", "5", "--seed", "7",
                      flags=("-O",))
    assert proc.returncode == EXIT_OK, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == "8bbe581e77fa0b684c4d38d2ff0870ab1a733eb51d3352ddc0f2056743ea6524"


def test_cap_env_var_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("WREATHHOM_CAP", "abc")
    assert execute(["count", "--group", "C2", "--A", "2", "--n", "3"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: WREATHHOM_CAP") and err.count("\n") == 1


@pytest.mark.parametrize("source", ["flag", "env"])
def test_negative_cap_is_usage_error(source, capsys, monkeypatch):
    argv = ["count", "--group", "C2", "--n", "0"]
    if source == "flag":
        monkeypatch.delenv("WREATHHOM_CAP", raising=False)
        argv += ["--cap", "-5"]
    else:
        monkeypatch.setenv("WREATHHOM_CAP", "-5")
    assert execute(argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    name = "--cap" if source == "flag" else "WREATHHOM_CAP"
    assert out == "" and err == f"error: {name} must be nonnegative, got -5\n"


@pytest.mark.parametrize(
    "a, message",
    [("x", "invalid literal for int() with base 10: 'x'"), ("2,3", "invariant factor 2 does not divide successor 3")],
)
def test_bad_a_names_the_flag(a, message, capsys):
    assert execute(["count", "--group", "C2", "--A", a, "--n", "1"]) == EXIT_BAD_SPEC
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: --A {a!r}: {message}\n"


def test_invariant_error_exit_code(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise InvariantError("non-integral count at n=1")

    monkeypatch.setattr(cli, "hom_count_wreath", broken)
    assert execute(["count", "--group", "C2", "--A", "2", "--n", "1"]) == EXIT_INVARIANT
    assert "invariant" in capsys.readouterr().err


def test_memory_error_exit_code(capsys, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "_count_row", exhausted)
    assert execute(["count", "--group", "C2", "--A", "2", "--n", "1:3"]) == EXIT_CAP_EXCEEDED
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: out of memory") and err.count("\n") == 1


@pytest.mark.parametrize(
    "group, n, digest",
    [
        ("S3", "6000", "954e75d6955d4046c82d174b408286b7f8b065b9d9974adfaa47fe514d71d8de"),
        ("C2", "20000", "f4d5af4964620aaa999a2541dc1e8cdb84e326e775c1fb6426fafb25bbd52cd9"),
    ],
    ids=["S3-6000", "C2-20000"],
)
def test_large_n_count_bytes_in_100_mb(group, n, digest):
    # The recurrence keeps a window of max k = |G| values: C2 at n = 20000
    # ran out of memory under this limit while every t_s was kept (184 MB).
    resource = pytest.importorskip("resource")
    limit = 100 * 2**20

    def limit_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = run_module("count", "--group", group, "--A", "2", "--n", n, preexec_fn=limit_address_space)
    assert proc.returncode == EXIT_OK, proc.stderr[-500:]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "n, digest",
    [
        ("10000", "34fe3bdfa9e6ad5d14b565f30af91c719745da897781b9563faf470d3accd613"),
        ("24642", "d0303a78586df9361b0aee7549d1d74149458379771fb4662c2d7e376456822e"),
    ],
    ids=["C2-10000", "C2-24642"],
)
def test_sample_bytes_in_100_mb(n, digest):
    # The walk keeps no t_s, only bit lengths and 64-bit prefix tops per s.
    # Both digests come from the sampler that kept every t_s: 10000 under a
    # 1 GiB limit, and 24642 (one past that sampler's 1 GiB budget for C2)
    # with its refusal taken out.
    resource = pytest.importorskip("resource")
    limit = 100 * 2**20

    def limit_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = run_module("sample", "--group", "C2", "--n", n, "--samples", "1", "--seed", "0",
                      preexec_fn=limit_address_space)
    assert proc.returncode == EXIT_OK, proc.stderr[-500:]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_oracle_check_bytes_in_50_mb():
    # enumerate_homs keeps each homomorphism as its generator images; when it
    # kept the full map of V4 for each of the C2^2 wr S4 homomorphisms, this
    # run peaked at 62 MB and ran out of memory under this limit (exit 4)
    resource = pytest.importorskip("resource")
    limit = 50 * 2**20

    def limit_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = run_module("oracle-check", "--group", "V4", "--A", "2,2", "--n", "4", preexec_fn=limit_address_space)
    assert proc.returncode == EXIT_OK, proc.stderr[-500:]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == (
        "8c3347a687d522f72fdade26c3a32a598f7327c1cac3d892a4678d040020949d"
    )


@pytest.mark.parametrize(
    "args, digest",
    [
        (("--n", "7"), "9ab27e6a318a9f8466c07a6e7e90072b3dedeaf95bb463df36b6e6aa256a9688"),
        (("--A", "14", "--n", "4"), "e494faf3e32ca58e175ea900e49a29ee02d2855285d5b3f123258a4ecd64363b"),
    ],
    ids=["C2-wr-S7", "C14-wr-S4"],
)
def test_oracle_check_near_wreath_cap_in_40_mb(args, digest):
    # C2 wr S7 has 645120 elements and C14 wr S4 921984, near the 10^6 cap;
    # the oracle lists only the roots of each generator's order.  When it
    # listed every element, these runs peaked at 61 and 84 MB and ran out
    # of memory under this limit (exit 4)
    resource = pytest.importorskip("resource")
    limit = 40 * 2**20

    def limit_address_space():  # runs in the child only
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    proc = run_module("oracle-check", "--group", "C2", *args, preexec_fn=limit_address_space)
    assert proc.returncode == EXIT_OK, proc.stderr[-500:]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_python_m_entry_point():
    proc = run_module("count", "--group", "C2", "--A", "2", "--n", "3")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == '{"n": 3, "count": "20"}\n'


def test_counts_beyond_str_digit_limit():
    # 1700 is past the 4300-digit default int-to-str limit of Python 3.11+
    proc = run_module("count", "--group", "S3", "--A", "2", "--n", "1700")
    assert proc.returncode == EXIT_OK, proc.stderr
    digits = json.loads(proc.stdout)["count"]
    assert len(digits) > 4300
    count = hom_count_wreath(builtin_group("S3"), AbelianGroup((2,)), 1700)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_limit = getattr(sys, "set_int_max_str_digits", lambda _: None)  # no limit before 3.11
    set_limit(0)
    try:
        assert digits == str(count)
    finally:
        set_limit(limit)


# One run of each subcommand in a fresh interpreter: in-process tests import
# every module up front, so only a child sees a lazily imported path fail.
# The pfree and fit-decay digests were recorded before the lazy imports; the
# others are the pinned digests above.  fit-decay's fit is exact before its
# one rounding, so its bytes are the same on Python 3.10 to 3.13.
FRESH_RUNS = [
    (["count", "--group", "S3", "--A", "2", "--n", "6000"],
     "954e75d6955d4046c82d174b408286b7f8b065b9d9974adfaa47fe514d71d8de"),
    (["pfree", "--group", "D4", "--n", "1:40"], "a9c525a75e4f0d22e5aade66bce500e6ebc3e7ec35c0d82dd7d74a1cda431a63"),
    (["delta", "--group", "D4", "--A", "4", "--n", "1:40"],
     "5d21b3d8b509bb840a21832751e1be7dde11979ae7ce911f441b1ac611ef981c"),
    (["weyl", "--group", "D4", "--n", "1:40"], "3ebb9fba67c165b343e982d96c843d17a713de0d4e4fbe9d9acd09c997647331"),
    (["sample", "--group", "D4", "--A", "2", "--n", "200", "--samples", "5", "--seed", "7"],
     "8bbe581e77fa0b684c4d38d2ff0870ab1a733eb51d3352ddc0f2056743ea6524"),
    (["oracle-check"], "b854d9520318a3913bf48b7c1cdd6aefa5aaf0acd3ffcbbc5a69aa97a6eb7c4a"),
    (["fit-decay", "--group", "S3", "--A", "2", "--n", "1:30"],
     "52d4fb3513913907627574c8aca31d59c07e4532cbba92ba73ceff5c9a2b89f7"),
]


@pytest.mark.parametrize("argv, digest", FRESH_RUNS, ids=[argv[0] for argv, _ in FRESH_RUNS])
def test_subcommand_bytes_in_fresh_interpreter(argv, digest):
    proc = run_module(*argv)
    assert proc.returncode == EXIT_OK, proc.stderr[-500:]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest



# The workflow's installed-script steps that no test above pins, with the
# spec files it writes; a spec argument names one of WORKFLOW_SPECS.
WORKFLOW_SPECS = {
    "s4.json": '{"name": "S4", "permGenerators": [[1,2,3,0],[1,0,2,3]]}',
    "s6.json": '{"name": "S6", "permGenerators": [[1,2,3,4,5,0],[1,0,2,3,4,5]]}',
    "c2c4.json": '{"permGenerators": [[1,0,2,3,4,5],[0,1,3,4,5,2]]}',
    "f56.json": '{"name": "F56", "permGenerators": [[1,0,3,2,5,4,7,6],[0,2,4,6,3,1,7,5]]}',
    "c2c6c3.json": '{"name": "C2xC6xC3", "permGenerators": '
                   '[[1,0,2,3,4,5,6,7,8,9,10],[0,1,3,4,5,6,7,2,8,9,10],[0,1,2,3,4,5,6,7,9,10,8]]}',
}
WORKFLOW_RUNS = {
    "delta-Q8-A2,4": (["delta", "--group", "Q8", "--A", "2,4", "--n", "1:40"],
                      "c01f3295730247bbcfad17658338825048e5e76352a70b182c140057a3ccd0bb"),
    "delta-C4-A2,4": (["delta", "--group", "C4", "--A", "2,4", "--n", "1:60"],
                      "e890b9f320093403ecf786e84fabc91b73a71839cffc440eed8909ca4257caa7"),
    "delta-C2xC4-A2,4": (["delta", "--group", "c2c4.json", "--A", "2,4", "--n", "1:30"],
                         "54c997870413db8ae30eebc8e40a09bcc125aae83806dcd78a5534c10f1857a1"),
    "delta-C2xC4-A2,4,4,4": (["delta", "--group", "c2c4.json", "--A", "2,4,4,4", "--n", "1:3"],
                             "e973842fe9b08c4e9f69ebf5f02f4cce5ead7d6743c216ef39efe5329e918e4f"),
    "delta-S6": (["delta", "--group", "s6.json", "--n", "1:8"],
                 "675a26a4a14803b77a8e41a81ba6cada75e53ad85261d0d7ace64178ca39f924"),
    "weyl-Q8": (["weyl", "--group", "Q8", "--n", "1:40"],
                "ff4aab4e9739f7920b20ba3aac2700abc3747e9f0b7933de71aa48be84761d22"),
    "sample-F56-A2^6": (["sample", "--group", "f56.json", "--A", "2,2,2,2,2,2", "--n", "30", "--samples", "5",
                         "--seed", "1"], "51e0ced152600b376f31e9eb342325069c670bb2e6a46da8c9ddb9d4c31c53b6"),
    "sample-F56-A2^8": (["sample", "--group", "f56.json", "--A", "2,2,2,2,2,2,2,2", "--n", "30", "--samples", "300",
                         "--seed", "1"], "4011a9f5ecc2c54b571e403f1831c0dcd79dd0ac0be337d1a22c32332fd8d9ea"),
    "sample-C2xC6xC3": (["sample", "--group", "c2c6c3.json", "--A", "2,6", "--n", "40", "--samples", "5",
                         "--seed", "3"], "e31e0aa268b840fb5065e491f8db8b3540c916042cd43623cbae12af306cffef"),
    "sample-C2-30000": (["sample", "--group", "C2", "--n", "30000", "--samples", "1", "--seed", "0"],
                        "5ac300c3e0386d356cc172fa1115efc00bb7b570ee27cc2c1c1567a841fca62a"),
    "sample-D4-A2,4,4-3000": (["sample", "--group", "D4", "--A", "2,4,4", "--n", "3000", "--samples", "100",
                              "--seed", "1"], "4b0c4becb34cd4522cbea49de28632d095ac14fc7bea5d0bb894f86d594356bb"),
    "oracle-check-S4-A2,2": (["oracle-check", "--group", "s4.json", "--A", "2,2", "--n", "1:3"],
                             "26c2a85907ce0b1dae05797fd714b13c98ad8868a7f4b0124a82f9576a9e43b4"),
    # the benchmark's sample reference
    "sample-D4-3000": (["sample", "--group", "D4", "--A", "2", "--n", "3000", "--samples", "100", "--seed", "0"],
                       "24c7c0dd8626a873da8e0c613e61a2480b1963fad651a0c44b69449cf9ec140d"),
}


@pytest.mark.parametrize("case", WORKFLOW_RUNS)
def test_workflow_bytes_pinned(case, tmp_path):
    argv, digest = WORKFLOW_RUNS[case]
    for name in set(argv) & set(WORKFLOW_SPECS):
        (tmp_path / name).write_text(WORKFLOW_SPECS[name] + "\n")
    proc = run_module(*(str(tmp_path / a) if a in WORKFLOW_SPECS else a for a in argv))
    assert proc.returncode == EXIT_OK, proc.stderr[-500:]
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


def test_every_workflow_digest_is_pinned_here():
    # CI alone checks these bytes on Python 3.10 to 3.13, and tier-1 alone
    # runs on every change, so each sha256 a workflow step compares against
    # must be a string in this module's code (comments are not read).  The
    # one exception is the count at the recurrence cap, which takes about 10 s.
    workflow = (SRC.parent / ".github" / "workflows" / "tests.yml").read_text()
    lines = [line for line in workflow.splitlines() if "sha256sum" in line]
    digests = [re.fullmatch(r'.*" = ([0-9a-f]{64})', line) for line in lines]
    assert all(digests), lines  # each compared step ends in its digest
    in_ci = {m[1] for line, m in zip(lines, digests) if "wreathhom count --group C2 --n 100000 " not in line}
    assert len(in_ci) == len({m[1] for m in digests}) - 1  # the exception is a step of its own
    code = ast.walk(ast.parse(Path(__file__).read_text()))
    pinned = {node.value for node in code if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert sorted(in_ci - pinned) == []


# Prints, on stderr, the modules that running the CLI added to sys.modules.
IMPORTS_OF_A_RUN = (
    "import json, sys\n"
    "before = set(sys.modules)\n"
    "from wreathhom.cli import execute\n"
    "code = execute(sys.argv[1:])\n"
    "print(json.dumps(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
    "raise SystemExit(code)\n"
)
NEVER_FOR_COUNTING = {"dataclasses", "inspect", "statistics", "wreathhom.sampling", "wreathhom.oracle"}
UNUSED_MODULES = {
    "count": NEVER_FOR_COUNTING,
    "pfree": NEVER_FOR_COUNTING,
    "delta": NEVER_FOR_COUNTING,
    "weyl": NEVER_FOR_COUNTING,
    "sample": {"dataclasses", "statistics", "wreathhom.oracle"},
}


def test_oracle_check_does_not_import_fractions():
    # the direct count sums in integers over one common denominator
    argv = ["oracle-check", "--group", "S3", "--n", "1:2"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", IMPORTS_OF_A_RUN, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr[-500:]
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert "wreathhom.oracle" in loaded
    assert "fractions" not in loaded


def test_oracle_check_does_not_import_the_sampler():
    # the oracle multiplies wreath elements with its own wreath_ops; the
    # sampler is compiled for sample alone
    argv = ["oracle-check", "--group", "S3", "--A", "2,2", "--n", "1:2"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", IMPORTS_OF_A_RUN, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr[-500:]
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert "wreathhom.oracle" in loaded
    assert "wreathhom.sampling" not in loaded


@pytest.mark.parametrize("command", UNUSED_MODULES)
def test_subcommand_imports_only_what_it_runs(command):
    argv, unused = [command, "--group", "S3", "--n", "3"], UNUSED_MODULES[command]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", IMPORTS_OF_A_RUN, *argv], env=env, capture_output=True, text=True)
    assert proc.returncode == EXIT_OK, proc.stderr[-500:]
    loaded = set(json.loads(proc.stderr.splitlines()[-1]))
    assert "wreathhom.counting" in loaded
    assert loaded & unused == set()
