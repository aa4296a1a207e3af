"""In-process span recorder for one ``wreathhom`` CLI run.

Run as a child of ``run.py``:

    python3 perfbench/tracer.py SPANS.json [CLI arguments ...]

It imports ``wreathhom`` from the checkout's ``src``, replaces the public
entry points of each module with recording wrappers (in this process only,
at every module that binds the name, because the package imports with
``from ... import``), runs ``wreathhom.cli.main`` with the given arguments
and writes the spans to SPANS.json when the run ends.  The CLI's stdout and
exit code pass through unchanged.  ``layer_metrics`` turns a spans file into
per-layer self times and counts.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Span name -> layer metric whose self time it adds to.  Spans not listed
# here are still recorded and reported per function.
LAYER_OF = {
    "groups.build_group": "groups.build_s",
    "groups.builtin_group": "groups.build_s",
    "groups.GroupSpec.from_path": "groups.build_s",
    "groups.subgroup_classes": "groups.subgroup_classes_s",
    "groups.coset_action": "groups.coset_abel_s",
    "groups.abelianization": "groups.coset_abel_s",
    "homs.hom_group": "homs.hom_group_s",
    "orbits.orbit_type_data": "orbits.orbit_type_data_s",
    "counting.WreathHomCounter.extend_to": "counting.extend_s",
    "counting.delta_distribution": "counting.query_s",
    "counting.fixed_point_free_probability": "counting.query_s",
    "counting.hom_count_direct": "counting.direct_s",
    "sampling.sample_orbit_type": "sampling.walk_s",
    "sampling.sample_hom": "sampling.place_s",
    "oracle.build_wreath_group": "oracle.wreath_s",
    "oracle.enumerate_homs": "oracle.enumerate_s",
    "oracle.oracle_delta": "oracle.delta_s",
    "oracle.fixed_point_strata_uniform": "oracle.strata_s",
    "cli.execute": "cli.self_s",
    "counting.distribution_to_json": "cli.to_json_s",
    "sampling.WreathHom.to_json": "cli.to_json_s",
}
LAYER_TIMES = sorted(set(LAYER_OF.values()))
COUNTS = ("groups.build_calls", "groups.order", "groups.classes", "homs.h", "counting.steps",
          "oracle.wreath_order", "oracle.homs_found")


class Recorder:
    """Spans of one run: (name id, start ns, end ns, parent span index or -1)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[tuple[int, int, int, int] | None] = []  # None while open
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.k_values: set[int] = set()
        self.counters: dict[int, tuple[object, int]] = {}
        self.missing: list[str] = []  # entry points this version of the package lacks

    def wrap(self, fn, name: str, observe=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def raise_count(self, key: str, value: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), value)

    def add_count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def note_extend(self, args, _result) -> None:
        counter, n = args[0], args[1]
        _, reached = self.counters.get(id(counter), (counter, 0))
        if n > reached:
            self.add_count("counting.steps", n - reached)
            reached = n
        self.counters[id(counter)] = (counter, reached)


def install(rec: Recorder):
    """Wrap the public entry points of every layer; return the package's
    ``cli`` module and the original cached functions (for cache_info)."""
    sys.path.insert(0, str(SRC))
    import wreathhom
    from wreathhom import cli, counting, groups, homs, oracle, orbits, sampling

    modules = (wreathhom, groups, homs, orbits, counting, sampling, oracle, cli)
    for mod in modules:
        if not Path(mod.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"{mod.__name__} imported from {mod.__file__}, not from {SRC}")

    def functions(module, names, observe=None):
        for name in names:
            original = getattr(module, name, None)
            if original is None:
                rec.missing.append(f"{module.__name__}.{name}")
                continue
            wrapped = rec.wrap(original, f"{module.__name__.split('.')[-1]}.{name}", observe)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    def method(cls, name, module_name, observe=None):
        original = vars(cls).get(name)
        if original is None:
            rec.missing.append(f"{module_name}.{cls.__name__}.{name}")
            return
        fn = original.__func__ if isinstance(original, staticmethod) else original
        wrapped = rec.wrap(fn, f"{module_name}.{cls.__name__}.{name}", observe)
        setattr(cls, name, staticmethod(wrapped) if isinstance(original, staticmethod) else wrapped)

    def group_built(_args, group):
        rec.add_count("groups.build_calls", 1)
        rec.raise_count("groups.order", group.order)

    cached = {"counter_for": getattr(counting, "counter_for", None),
              "subgroup_classes": getattr(groups, "subgroup_classes", None)}
    functions(groups, ["build_group", "builtin_group"], group_built)
    method(groups.GroupSpec, "from_path", "groups")
    functions(groups, ["subgroup_classes"], lambda a, r: rec.raise_count("groups.classes", len(r)))
    functions(groups, ["coset_action", "abelianization"])
    functions(homs, ["hom_group"], lambda a, r: rec.raise_count("homs.h", r.size))
    functions(orbits, ["orbit_type_data"], lambda a, r: rec.k_values.add(r.k))
    functions(counting, ["hom_count_direct", "delta_distribution", "fixed_point_free_probability",
                         "distribution_to_json"])
    method(counting.WreathHomCounter, "extend_to", "counting", rec.note_extend)
    functions(sampling, ["sample_hom", "sample_orbit_type"])
    method(sampling.WreathHom, "to_json", "sampling")
    functions(oracle, ["build_wreath_group"], lambda a, r: rec.raise_count("oracle.wreath_order", r.order))
    functions(oracle, ["enumerate_homs"], lambda a, r: rec.add_count("oracle.homs_found", len(r)))
    functions(oracle, ["oracle_delta", "fixed_point_strata_uniform"])
    functions(cli, ["execute"])
    return cli, cached


def trace_run(spans_path: Path, cli_args: list[str]) -> int:
    rec = Recorder()
    cli, cached = install(rec)
    sys.argv = ["wreathhom", *cli_args]
    try:
        cli.main()
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        spans = list(rec.spans)  # every wrapper has closed its span by now
        counts = dict(rec.counts)
        counts["orbits.distinct_k"] = len(rec.k_values)
        counts["counting.max_bits"] = max(
            (counter.count(n).bit_length() for counter, n in rec.counters.values()), default=0
        )
        for key, fn in (("counting.cache_hit_frac", cached["counter_for"]),
                        ("groups.subgroup_cache_hit_frac", cached["subgroup_classes"])):
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            calls = info.hits + info.misses if info else 0
            counts[key] = info.hits / calls if calls else 0.0
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"exit_code": code, "missing": rec.missing, "names": rec.names, "spans": spans,
                       "counts": counts}, fh)
    return code


def layer_metrics(trace: dict) -> tuple[dict[str, float], dict[str, dict]]:
    """Per-layer self times and counts, plus a per-function table.

    A span's self time is its duration minus the durations of its direct
    children; spans nest strictly because the CLI is single-threaded.
    """
    names, spans = trace["names"], trace["spans"]
    child_ns = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    per_fn: dict[str, dict] = {}
    durations: dict[str, list[int]] = {}
    for i, (name_id, start, end, _) in enumerate(spans):
        name = names[name_id]
        row = per_fn.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += (end - start) / 1e9
        row["self_s"] += (end - start - child_ns[i]) / 1e9
        durations.setdefault(name, []).append(end - start)
    metrics = {key: 0.0 for key in LAYER_TIMES}
    for name, row in per_fn.items():
        if name in LAYER_OF:
            metrics[LAYER_OF[name]] += row["self_s"]
    metrics.update({key: 0 for key in COUNTS})
    metrics.update(trace["counts"])
    metrics["counting.extend_calls"] = per_fn.get("counting.WreathHomCounter.extend_to", {}).get("calls", 0)
    draws = durations.get("sampling.sample_hom", [])
    metrics["sampling.draws"] = len(draws)
    metrics["sampling.first_draw_s"] = draws[0] / 1e9 if draws else 0.0
    metrics["sampling.draw_ms"] = statistics.median(draws[1:]) / 1e6 if len(draws) > 1 else 0.0
    metrics["trace.spans"] = len(spans)
    return metrics, per_fn


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit("usage: tracer.py SPANS.json CLI_ARGS...")
    sys.exit(trace_run(Path(sys.argv[1]), sys.argv[2:]))
