"""Self-test of the benchmark, run in seconds on tiny inputs.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and run.py name the same metrics and units, that
the smoke workload (C2 into C2 wr S_n, n <= 30) prints every metric with its
unit in both modes, that a tampered output is counted as failed and as a
wrong answer even after a nonzero exit, and that the benchmark refuses to
run without the wreathhom sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"FAIL: {message}")


def benchmark(*args: str, cwd: Path = ROOT, script: Path = run.HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(script), *args], capture_output=True, text=True,
                          cwd=cwd, timeout=170)
    return proc.returncode, proc.stdout, proc.stderr


def check_declaration() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names differ")
    for key, declared in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        expect(listed == declared, f"{key} in BENCHMARK.json differs from run.py")
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    expect(setup["bound"] == max(m["bound"] for m in spec["end_to_end"]), "setup_s must have the largest bound")
    print("ok   BENCHMARK.json matches run.py")


def check_smoke(trace: int, names: dict[str, str]) -> None:
    code, out, err = benchmark("--workload", "smoke", "--seed", "5", "--seconds", "1", "--trace", str(trace))
    expect(code == 0, f"smoke run exited {code}: {err[-500:]}")
    result = json.loads(out.strip().splitlines()[-1])
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"], f"result keys {sorted(result)}")
    expect(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= run.MIN_RUNS,
           f"smoke result {result}")
    expect({k: v["unit"] for k, v in result["metrics"].items()} == names, "result metrics or units differ")
    printed = dict(run.REPORT_PER_LAYER if trace else run.REPORT_END_TO_END, **names)
    for name, unit in printed.items():
        expect(any(line.split()[:1] == [name] and line.split()[-1] == unit for line in err.splitlines()),
               f"report does not print {name} in {unit}")
    print(f"ok   smoke --trace {trace} prints every metric with its unit")


def check_tampered() -> None:
    sys.path.insert(0, str(run.SRC))
    good = run.REFERENCE_SHA256["smoke"]
    check = run.expect_sha(good)
    out = (run.OUT / "smoke" / "run.out").read_bytes()  # left by the smoke run above
    expect(check(out) is None, "untampered smoke output rejected")
    expect(check(out.replace(b"1", b"3", 1)) is not None, "tampered output accepted")

    sample = run.SampleCheck(seed=0, n=3, samples=2)
    sample.expected = None
    draws = b'{"perm": [[1, 0, 2], [0, 1, 2]], "decor": [[0, 0, 0], [0, 0, 0]]}\n' * 2
    expect(sample(draws) is None, "valid D4 draws rejected")
    expect(sample(draws.replace(b"[0, 1, 2]", b"[0, 2, 1]")) is not None, "changed draws accepted")
    bad = run.SampleCheck(seed=0, n=3, samples=2)
    bad.expected = None
    expect(bad(b'{"perm": [[1, 2, 0], [0, 1, 2]], "decor": [[0, 0, 0], [0, 0, 0]]}\n' * 2) is not None,
           "non-homomorphism accepted")

    # A nonzero exit does not skip the check: output that fails it, or the
    # exit code by which oracle-check reports a mismatch, is a wrong answer.
    expect(run.judge(check, (), 3, b"") == ("exit code 3", False), "refusal counted as a wrong answer")
    expect(run.judge(check, (), 3, out) == ("exit code 3", False), "correct output after exit 3 counted as wrong")
    failure, wrong = run.judge(check, (), 3, out.replace(b"1", b"3", 1))
    expect(failure is not None and failure.startswith("exit code 3; ") and wrong,
           "wrong output after a nonzero exit not counted as a wrong answer")
    expect(run.judge(check, (1,), 1, out) == ("exit code 1", True), "exit code in wrong_exits not counted as wrong")
    expect(run.judge(check, (), 0, b"")[1], "empty output after exit 0 accepted")

    # End to end: every run checked against a wrong reference must count as failed.
    run.REFERENCE_SHA256["smoke"] = "0" * 64
    launcher = run.Launcher()
    try:
        result, _ = run.bench(launcher, "smoke", 0, 0.5, False)
    finally:
        launcher.close()
        run.REFERENCE_SHA256["smoke"] = good
    expect(result["failed"] == result["attempted"] > 0 and result["correct"] is False,
           f"wrong output not counted as failed: {result}")
    print("ok   tampered output is counted as failed")


def check_without_sources() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    for name in ("run.py", "tracer.py", "launcher.py"):
        shutil.copy(run.HERE / name, bare / "perfbench" / name)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    code, out, _ = benchmark("--workload", "fibers", "--seconds", "1", cwd=bare,
                             script=bare / "perfbench" / "run.py")
    shutil.rmtree(bare)
    expect(code != 0 and not out.strip(), f"ran without sources: exit {code}, stdout {out[:200]!r}")
    print("ok   refuses to run without src/wreathhom")


if __name__ == "__main__":
    check_declaration()
    check_smoke(0, run.END_TO_END)
    check_smoke(1, run.PER_LAYER)
    check_tampered()
    check_without_sources()
    print("selftest passed")
