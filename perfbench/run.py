"""Benchmark of the ``wreathhom`` CLI: end to end per workload, and per layer.

    python3 perfbench/run.py --workload fibers --seed 0 --seconds 20 --trace 0

Each measured run is a fresh ``python -c "from wreathhom.cli import main;
main()"`` child with the checkout's ``src`` on PYTHONPATH, started one at a
time; wall time and ``os.wait4`` rusage are taken per child.  Outputs are
checked after each run, outside the timed region.  With ``--trace 1`` one
more run goes through ``tracer.py``, which records spans around every
layer's entry points, and the per-layer metrics replace the end-to-end
ones.  The last line of stdout is the result as one JSON object; the
readable report goes to stderr and, with every run, to ``perfbench/out``.
Standard library only.  See README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
CLI = [sys.executable, "-c", "from wreathhom.cli import main; main()"]
TRACER = [sys.executable, str(HERE / "tracer.py")]

WORKLOADS = ("fibers", "bign", "sample", "newgroup")
DEFAULT_SEED = 0
MIN_RUNS = 3
SETUP_RUNS = 5  # at least this many set-up runs, and SETUP_SECONDS of them with their calibrations
SETUP_SECONDS = 5.0
# Every invocation must end within 180 s: no run starts once it could end
# after BUDGET_S, and a child still running after CHILD_TIMEOUT_S is killed.
BUDGET_S = 150.0
CHILD_TIMEOUT_S = 100.0
BIGN_N = 6000
CAL_LOOPS = 2_000_000
CAL_REF_S = 0.3  # calibration-loop time to which setup_s is scaled

# sha256 of the CLI's stdout, recorded at commit 32fbf6f.  ``fibers`` and
# ``newgroup`` outputs do not depend on the workload seed; ``bign`` is the
# line {"n": 6000, "count": "<digits>"} that the CLI should print.
REFERENCE_SHA256 = {
    "fibers": "bac52c2a1929f645c7d0262ac45740c8144e374e964d5951be43589e62067d6c",
    "newgroup": "74c2c853ce6089e3d55f29afeda1e334aca0f6da50216ef6c0f84f19961c55d5",
    "bign": "954e75d6955d4046c82d174b408286b7f8b065b9d9974adfaa47fe514d71d8de",
    "smoke": "35a889f0c34163119219bfceb118d1a25cd28e738c3b3a59af1816f5395f4227",
}
# ``sample`` output depends on the seed: references for seeds 0..9.
SAMPLE_SHA256 = {
    0: "24c7c0dd8626a873da8e0c613e61a2480b1963fad651a0c44b69449cf9ec140d",
    1: "d6c59398f3d54749cf4c7fe18e171d3fff3348a2613fc6b20ef3e7e5e531383a",
    2: "2efa657f110a7595c1c70ec02755df2e35a6f124039a21f8601b001baf91fb52",
    3: "7e468e5eee853a3916950997ce6829eb34c60c32c1200a9a079cdb451d25ec2f",
    4: "4af1cebda15aa9402bd82324f534680b384a615c3ddf032f6a9a339aa43dc154",
    5: "eec15fb77cc6a010ba2365d5c6eb606c9643f695d75d02353e6d5696aa26b574",
    6: "c45a533d647fccef14e7821bbed1cb1abeebe370cce2c27ecb4ca4a7248a36f4",
    7: "a442b83a7ac2185c6f62652a507d1fd5f407d7fce6a927c93561884750243d0b",
    8: "48c0e48d202bade22bba7c551e1ad0962a5633bbbc1d267428330d40bd724125",
    9: "bc7683437e744a19ab47e9e8b18d1b3f44ef16eeb0461be21ab1f194f9f9c9db",
}

# Metrics in the result line: name -> unit.  wall_norm is the mean wall
# time of a run divided by the mean time of a fixed calibration loop timed
# between runs, because the host's speed drifts by a third over minutes
# (see README.md); the raw median wall_s is in the report.  setup_s is
# scaled by calibration loops the same way (see setup_seconds), and the raw
# median setup_raw_s is in the report.  fail_frac is
# printed in the report only (it is 0 on three workloads); the result line
# carries it as "failed" / "attempted".
END_TO_END = {"wall_norm": "cal", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    "groups.build_s": "s",
    "groups.subgroup_classes_s": "s",
    "groups.coset_abel_s": "s",
    "homs.hom_group_s": "s",
    "orbits.orbit_type_data_s": "s",
    "counting.extend_s": "s",
    "cli.self_s": "s",
    "groups.build_calls": "count",
    "groups.order": "count",
    "groups.classes": "count",
    "groups.subgroup_cache_hit_frac": "ratio",
    "homs.h": "count",
    "orbits.distinct_k": "count",
    "counting.steps": "count",
    "counting.extend_calls": "count",
    "counting.max_bits": "bits",
    "counting.cache_hit_frac": "ratio",
    "sampling.draws": "count",
    "oracle.wreath_order": "count",
    "oracle.homs_found": "count",
    "cli.out_bytes": "bytes",
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}
# Printed in the report, not in the result line: raw wall and set-up times,
# calibration time and fail_frac; and the layer times that are 0 on every
# workload that does not call the layer.
REPORT_END_TO_END = {"wall_s": "s", "cal_s": "s", "setup_raw_s": "s", "fail_frac": "ratio"}
REPORT_PER_LAYER = {
    "fail_frac": "ratio",
    "counting.query_s": "s",
    "counting.direct_s": "s",
    "sampling.first_draw_s": "s",
    "sampling.draw_ms": "ms",
    "sampling.walk_s": "s",
    "sampling.place_s": "s",
    "oracle.wreath_s": "s",
    "oracle.enumerate_s": "s",
    "oracle.delta_s": "s",
    "oracle.strata_s": "s",
    "cli.to_json_s": "s",
}

Check = Callable[[bytes], Optional[str]]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def expect_sha(expected: str) -> Check:
    def check(out: bytes) -> Optional[str]:
        got = sha256(out)
        return None if got == expected else f"stdout sha256 {got[:16]} != reference {expected[:16]}"

    return check


@dataclass
class Workload:
    name: str
    group: str  # --group argument: builtin name or generated spec file
    coeffs: str
    args: list[str]  # CLI arguments of one measured run
    check: Check
    inputs: dict[str, str] = field(default_factory=dict)  # generated file -> sha256
    wrong_exits: tuple[int, ...] = ()  # exit codes by which the CLI reports a wrong answer
    reference_failure: Optional[str] = None  # the in-process reference disagrees with the recorded one


@dataclass
class Run:
    kind: str  # "warmup", "setup", "run" or "traced"
    exit_code: int
    wall_s: float
    peak_rss_mb: float
    out_bytes: int
    stderr_tail: str
    failure: Optional[str]
    wrong: bool  # printed output that fails its check, or exited with a code in wrong_exits


# ---------------------------------------------------------------------------
# inputs


def write_spec(path: Path, spec: dict) -> str:
    data = json.dumps(spec, separators=(",", ":")).encode()
    path.write_bytes(data)
    return sha256(data)


def c2_4_spec(seed: int) -> dict:
    """C2^4 as four commuting transpositions on 8 points, the points
    relabelled by the seed.  Relabelling points conjugates every generator
    by one permutation, so the group table and the CLI output are unchanged."""
    points = list(range(8))
    random.Random(seed).shuffle(points)
    gens = []
    for i in range(4):
        perm = list(range(8))
        a, b = points[2 * i], points[2 * i + 1]
        perm[a], perm[b] = b, a
        gens.append(perm)
    return {"name": "C2^4", "permGenerators": gens}


def s5_table_spec(seed: int) -> dict:
    """S5 as an explicit 120 x 120 table, elements relabelled by the seed
    with the identity kept at 0."""
    perms = sorted(itertools.permutations(range(5)))
    label = list(range(1, 120))
    random.Random(seed).shuffle(label)
    label = [0, *label]  # perms[0] is the identity
    index = {p: label[i] for i, p in enumerate(perms)}
    table = [[0] * 120 for _ in range(120)]
    for a in perms:
        for b in perms:
            table[index[a]][index[b]] = index[tuple(a[b[i]] for i in range(5))]
    return {"name": "S5", "table": table}


def bign_reference() -> str:
    """The exact line ``count --group S3 --A 2 --n 6000`` should print.

    The only place the integer string-conversion limit is lifted; it is
    restored before any CLI or traced run starts."""
    from wreathhom import counting
    from wreathhom.groups import AbelianGroup, builtin_group

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        count = counting.hom_count_wreath(builtin_group("S3"), AbelianGroup((2,)), BIGN_N)
        line = json.dumps({"n": BIGN_N, "count": str(count)}) + "\n"
    finally:
        sys.set_int_max_str_digits(limit)
    # Drop the cached recurrence tables (about 100 MB) before the runs start.
    getattr(getattr(counting, "counter_for", None), "cache_clear", lambda: None)()
    return line


class SampleCheck:
    """All runs with one seed print the same bytes; the first output also
    has a few of its draws checked by ``verify_wreath_hom``, and for a seed
    with a recorded reference its sha256 must match."""

    def __init__(self, seed: int, n: int, samples: int):
        self.seed, self.n, self.samples = seed, n, samples
        self.expected: Optional[str] = SAMPLE_SHA256.get(seed)
        self.verified = False

    def verify_draws(self, out: bytes) -> Optional[str]:
        from wreathhom.groups import AbelianGroup, builtin_group
        from wreathhom.sampling import WreathHom, verify_wreath_hom

        group, coeffs = builtin_group("D4"), AbelianGroup((2,))
        lines = out.decode().splitlines()
        if len(lines) != self.samples:
            return f"{len(lines)} draws printed, expected {self.samples}"
        for i in random.Random(self.seed).sample(range(self.samples), min(3, self.samples)):
            draw = json.loads(lines[i])
            perms = tuple(tuple(p) for p in draw["perm"])
            if any(sorted(p) != list(range(self.n)) for p in perms):
                return f"draw {i}: an image is not a permutation of {self.n} points"
            hom = WreathHom(n=self.n, perms=perms, decors=tuple(tuple(d) for d in draw["decor"]))
            if not verify_wreath_hom(group, coeffs, hom):
                return f"draw {i} is not a homomorphism"
        return None

    def __call__(self, out: bytes) -> Optional[str]:
        digest = sha256(out)
        if not self.verified:
            reason = self.verify_draws(out)
            if reason is not None:
                return reason
            self.verified = True
            if self.expected is None:
                self.expected = digest
        if digest != self.expected:
            return f"stdout sha256 {digest[:16]} differs from {self.expected[:16]}"
        return None


def make_workload(name: str, seed: int, workdir: Path) -> Workload:
    if name == "fibers":
        spec = workdir / "c2_4.json"
        digest = write_spec(spec, c2_4_spec(seed))
        args = ["delta", "--group", str(spec), "--A", "2", "--n", "1:300"]
        return Workload(name, str(spec), "2", args, expect_sha(REFERENCE_SHA256[name]), {spec.name: digest})
    if name == "bign":
        args = ["count", "--group", "S3", "--A", "2", "--n", str(BIGN_N)]
        digest = sha256(bign_reference().encode())
        workload = Workload(name, "S3", "2", args, expect_sha(digest))
        if digest != REFERENCE_SHA256[name]:
            workload.reference_failure = f"hom_count_wreath line sha256 {digest[:16]} != recorded"
        return workload
    if name == "sample":
        args = ["sample", "--group", "D4", "--A", "2", "--n", "3000", "--samples", "100", "--seed", str(seed)]
        return Workload(name, "D4", "2", args, SampleCheck(seed, 3000, 100))
    if name == "newgroup":
        spec = workdir / "s5_table.json"
        digest = write_spec(spec, s5_table_spec(seed))
        args = ["oracle-check", "--group", str(spec), "--A", "2", "--n", "1:2"]
        from wreathhom.cli import EXIT_CHECK_FAILED  # the engine disagrees with the oracle

        return Workload(name, str(spec), "2", args, expect_sha(REFERENCE_SHA256[name]), {spec.name: digest},
                        (EXIT_CHECK_FAILED,))
    if name == "smoke":  # C2 into C2 wr S_n at small n, for the self-test
        args = ["delta", "--group", "C2", "--A", "2", "--n", "1:30"]
        return Workload(name, "C2", "2", args, expect_sha(REFERENCE_SHA256[name]))
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# runs


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for key in ("PYTHONINTMAXSTRDIGITS", "WREATHHOM_CAP", "PYTHONSTARTUP", "PYTHONINSPECT"):
        env.pop(key, None)
    env["PYTHONPATH"] = str(SRC)
    return env


class Launcher:
    """Client of ``launcher.py``, which starts every measured child."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, "-S", str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], out_path: Path, err_path: Path, env: dict, timeout: float):
        """Run one child to completion; return (exit code, wall s, ru_maxrss MB)."""
        request = {"argv": argv, "env": env, "stdout": str(out_path), "stderr": str(err_path),
                   "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise RuntimeError(f"launcher exited with code {self.proc.wait()}")
        reply = json.loads(answer)
        return reply["exit_code"], reply["wall_s"], reply["maxrss_kb"] / 1024.0

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Runner:
    def __init__(self, launcher: Launcher, workload: Workload, workdir: Path, started: float):
        self.launcher = launcher
        self.workload = workload
        self.workdir = workdir
        self.started = started
        self.env = child_env()
        self.runs: list[Run] = []

    def time_left(self) -> float:
        return BUDGET_S - (time.perf_counter() - self.started)

    def run(self, kind: str, argv: list[str], check: Check) -> Run:
        out_path = self.workdir / f"{kind}.out"
        err_path = self.workdir / f"{kind}.err"
        timeout = max(1.0, min(CHILD_TIMEOUT_S, self.time_left()))
        code, wall, rss = self.launcher.run(argv, out_path, err_path, self.env, timeout)
        out = out_path.read_bytes()
        err_lines = err_path.read_text(errors="replace").strip().splitlines()
        failure, wrong = judge(check, self.workload.wrong_exits, code, out)
        run = Run(kind, code, wall, rss, len(out), err_lines[-1] if err_lines else "", failure, wrong)
        self.runs.append(run)
        return run

    def setup_argv(self) -> list[str]:
        return [*CLI, "count", "--group", self.workload.group, "--A", self.workload.coeffs, "--n", "0"]


def judge(check: Check, wrong_exits: tuple[int, ...], code: int, out: bytes) -> tuple[Optional[str], bool]:
    """(why the run failed or None, whether it gave a wrong answer).

    A run fails on a nonzero exit or on output that fails its check.  The
    check runs whatever the exit code, except on an empty stdout after a
    nonzero exit: that is a refusal, not a wrong answer.  Output that fails
    its check, or an exit code in ``wrong_exits``, is a wrong answer."""
    reason = check(out) if out or code == 0 else None
    wrong = reason is not None or code in wrong_exits
    failure = "; ".join(r for r in (f"exit code {code}" if code else None, reason) if r)
    return failure or None, wrong


def setup_check(out: bytes) -> Optional[str]:
    return None if out == b'{"n": 0, "count": "1"}\n' else "n = 0 count is not 1"


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop: the machine's current speed."""
    start = time.perf_counter()
    acc = 0
    for i in range(CAL_LOOPS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    return time.perf_counter() - start


def setup_seconds(runs: list[Run], cals: list[float]) -> float:
    """Median set-up wall time, each run scaled by the calibration loops
    timed just before and after it to a machine where the loop takes
    CAL_REF_S."""
    return statistics.median(
        r.wall_s / ((before + after) / 2) * CAL_REF_S for r, before, after in zip(runs, cals, cals[1:])
    )


def median_of(runs: list[Run], values: list[float]) -> float:
    """Median over successful runs; over all runs when every run failed."""
    ok = [v for r, v in zip(runs, values) if r.failure is None]
    return statistics.median(ok or values)


def bench(launcher: Launcher, name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    started = time.perf_counter()
    workdir = OUT / name
    workdir.mkdir(parents=True, exist_ok=True)
    workload = make_workload(name, seed, workdir)
    runner = Runner(launcher, workload, workdir, started)

    warmup = [*CLI, "count", "--group", "C1", "--A", "2", "--n", "0"]
    runner.run("warmup", warmup, setup_check)  # writes the bytecode caches
    if not trace:
        setup_start = time.perf_counter()
        setups: list[Run] = []
        setup_cals = [calibrate()]  # one before the first set-up run and one after every run
        while len(setups) < SETUP_RUNS or time.perf_counter() - setup_start < SETUP_SECONDS:
            setups.append(runner.run("setup", runner.setup_argv(), setup_check))
            setup_cals.append(calibrate())

    measure_start = time.perf_counter()
    runs: list[Run] = []
    cals = [calibrate()]  # one before the first run and one after every run
    # Start another run while it is expected to end closer to --seconds than
    # stopping now would, so an invocation lasts about --seconds on average.
    while len(runs) < MIN_RUNS or (
        time.perf_counter() - measure_start + statistics.median(r.wall_s for r in runs) / 2 < seconds
    ):
        if runs and runner.time_left() < 2 * max(r.wall_s for r in runs):
            break
        runs.append(runner.run("run", [*CLI, *workload.args], workload.check))
        cals.append(calibrate())
    walls = [r.wall_s for r in runs]

    metrics: dict[str, float] = {}
    per_fn: dict = {}
    missing: list[str] = []
    if trace:
        spans_path = workdir / "spans.json"
        spans_path.unlink(missing_ok=True)
        traced = runner.run("traced", [*TRACER, str(spans_path), *workload.args], workload.check)
        if not spans_path.exists():
            raise RuntimeError(f"traced run wrote no spans: {traced.stderr_tail}")
        trace_data = json.loads(spans_path.read_text())
        layer, per_fn = tracer.layer_metrics(trace_data)
        missing = trace_data["missing"]
        metrics.update(layer)
        metrics["cli.out_bytes"] = traced.out_bytes
        metrics["trace.overhead_frac"] = traced.wall_s / median_of(runs, walls) - 1.0
        measured = runs + [traced]
    else:
        ok_walls = [r.wall_s for r in runs if r.failure is None] or walls
        metrics["wall_norm"] = statistics.fmean(ok_walls) / statistics.fmean(cals)
        metrics["wall_s"] = median_of(runs, walls)
        metrics["cal_s"] = statistics.median(cals)
        metrics["peak_rss_mb"] = median_of(runs, [r.peak_rss_mb for r in runs])
        metrics["setup_s"] = setup_seconds(setups, setup_cals)
        metrics["setup_raw_s"] = median_of(setups, [r.wall_s for r in setups])
        measured = runs
    failed = sum(r.failure is not None for r in measured)
    metrics["fail_frac"] = failed / len(measured)
    # A wrong answer, or any failed warm-up or set-up run, is incorrect; a
    # measured run that is refused (nonzero exit, empty stdout) is counted
    # in "failed" only.
    correct = workload.reference_failure is None and not any(
        r.wrong or (r.failure is not None and r.kind in ("warmup", "setup")) for r in runner.runs
    )
    names = PER_LAYER if trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": len(measured),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in names.items()},
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "argv": workload.args,
        "inputs": workload.inputs,
        "reference_failure": workload.reference_failure,
        "environment": environment(),
        "result": result,
        "all_metrics": {k: {"value": v, "unit": {**END_TO_END, **PER_LAYER, **REPORT_END_TO_END, **REPORT_PER_LAYER}.get(k)}
                        for k, v in metrics.items()},
        "runs": [vars(r) for r in runner.runs],
        "calibration_s": cals,
        "setup_calibration_s": [] if trace else setup_cals,
        "per_function": per_fn,
        "untraced_entry_points": missing,
    }
    (OUT / f"report-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))
    return result, report


# ---------------------------------------------------------------------------
# environment and report


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wreathhom").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> Optional[str]:
    """The checked-out commit, read from ``.git``; None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def log(*parts) -> None:
    print(*parts, file=sys.stderr)


def print_report(report: dict) -> None:
    env = report["environment"]
    log(f"== {report['workload']}  seed {report['seed']}  trace {int(report['trace'])}  "
      f"wreathhom {' '.join(report['argv'])}")
    log(f"   python {env['python']}  nproc {env['nproc']}  cpu {env['cpu_model']}  "
      f"commit {env['git_commit']}  src {env['src_sha256'][:16]}")
    for fname, digest in report["inputs"].items():
        log(f"   input {fname} sha256 {digest}")
    for r in report["runs"]:
        status = "ok" if r["failure"] is None else f"FAILED: {r['failure']}"
        log(f"   {r['kind']:<7} exit {r['exit_code']}  {r['wall_s']:.4f} s  {r['peak_rss_mb']:.1f} MB  "
          f"{r['out_bytes']} B  {status}" + (f"  | {r['stderr_tail']}" if r["stderr_tail"] else ""))
    for name, m in report["all_metrics"].items():
        log(f"   {name:<34} {m['value']:>14.6g} {m['unit']}")
    if report["per_function"]:
        log("   per function: calls  total_s  self_s")
        for name, row in sorted(report["per_function"].items(), key=lambda kv: -kv[1]["self_s"]):
            log(f"     {name:<42} {row['calls']:>8} {row['total_s']:>9.4f} {row['self_s']:>9.4f}")
    if report["untraced_entry_points"]:
        log(f"   entry points not found, so not traced: {', '.join(report['untraced_entry_points'])}")
    res = report["result"]
    log(f"   correct {res['correct']}  attempted {res['attempted']}  failed {res['failed']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "smoke"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "wreathhom" / "cli.py").is_file():
        print(f"error: no wreathhom sources under {SRC}", file=sys.stderr)
        return 2
    launcher = Launcher()  # before this process grows: see launcher.py
    try:
        sys.path.insert(0, str(SRC))
        import wreathhom

        if not Path(wreathhom.__file__).resolve().is_relative_to(SRC):
            print(f"error: wreathhom imported from {wreathhom.__file__}, not {SRC}", file=sys.stderr)
            return 2
        OUT.mkdir(exist_ok=True)
        result, report = bench(launcher, args.workload, args.seed, args.seconds, bool(args.trace))
        print_report(report)
    finally:
        launcher.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
