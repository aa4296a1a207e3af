"""Batch command line front end.

Parses group specs, dispatches the counting, distribution, Weyl, sampling,
verification, and decay-fit jobs, and emits machine-readable JSON lines.
Identical arguments and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import sys
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .groups import (
    AbelianGroup,
    BUILTIN_GROUP_NAMES,
    FiniteGroup,
    GroupSpec,
    GroupTableError,
    InvariantError,
    SizeCapError,
    UnknownGroupError,
    build_group,
    builtin_group,
)
from .counting import (
    decay_constant,
    delta_distribution,
    distribution_to_json,
    fixed_point_free_probability,
    hom_count_direct,
    hom_count_wreath,
    weyl_hom_count,
    weyl_limit_ratio,
)
from .oracle import (
    build_wreath_group,
    enumerate_homs,
    fixed_point_strata_uniform,
    oracle_delta,
)
from .sampling import sample_hom

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BAD_SPEC = 3
EXIT_CAP_EXCEEDED = 4
EXIT_UNKNOWN_BUILTIN = 5
EXIT_INVARIANT = 6

CAP_ENV_VAR = "WREATHHOM_CAP"


def _load_group(spec: str, cap: Optional[int]) -> FiniteGroup:
    if spec.upper() in BUILTIN_GROUP_NAMES:
        return builtin_group(spec)
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        try:
            gspec = GroupSpec.from_path(path, size_cap=cap or 20000)
        except (OSError, json.JSONDecodeError) as exc:
            raise GroupTableError(f"cannot read group spec {spec!r}: {exc}") from exc
        return build_group(gspec)
    raise UnknownGroupError(
        f"unknown builtin group {spec!r}; known: {', '.join(BUILTIN_GROUP_NAMES)} (or a .json path)"
    )


def _parse_coeffs(text: str) -> AbelianGroup:
    factors = [int(x) for x in text.split(",") if x.strip() != ""]
    return AbelianGroup(tuple(e for e in factors if e != 1))


def _parse_n_range(text: str) -> range:
    if ":" in text:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    else:
        lo = hi = int(text)
    if hi < lo:
        raise ValueError(f"empty n range {text!r}")
    return range(lo, hi + 1)


def _emit(lines: list[dict], out: Optional[str]) -> None:
    text = "".join(json.dumps(line) + "\n" for line in lines)
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_count(args, cap: Optional[int]) -> int:
    group = _load_group(args.group, cap)
    coeffs = _parse_coeffs(args.A)
    lines = []
    for n in _parse_n_range(args.n):
        count = hom_count_wreath(group, coeffs, n, cap=cap or 10**5)
        lines.append({"n": n, "count": str(count)})
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_pfree(args, cap: Optional[int]) -> int:
    group = _load_group(args.group, cap)
    coeffs = _parse_coeffs(args.A)
    lines = []
    for n in _parse_n_range(args.n):
        if cap is not None and n > cap:
            raise SizeCapError(f"n={n} exceeds cap {cap}")
        p = fixed_point_free_probability(group, coeffs, n)
        lines.append({"n": n, "p": str(p)})
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_delta(args, cap: Optional[int]) -> int:
    group = _load_group(args.group, cap)
    coeffs = _parse_coeffs(args.A)
    lines = []
    for n in _parse_n_range(args.n):
        if cap is not None and n > cap:
            raise SizeCapError(f"n={n} exceeds cap {cap}")
        lines.append(distribution_to_json(delta_distribution(group, coeffs, n)))
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_weyl(args, cap: Optional[int]) -> int:
    group = _load_group(args.group, cap)
    c2 = AbelianGroup((2,))
    limit = weyl_limit_ratio(group)
    lines = []
    for n in _parse_n_range(args.n):
        if cap is not None and n > cap:
            raise SizeCapError(f"n={n} exceeds cap {cap}")
        count = weyl_hom_count(group, n)
        total = hom_count_wreath(group, c2, n, cap=cap or 10**5)
        lines.append(
            {
                "n": n,
                "count": str(count),
                "ratio": str(Fraction(count, total)),
                "limit": str(limit),
            }
        )
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_sample(args, cap: Optional[int]) -> int:
    group = _load_group(args.group, cap)
    coeffs = _parse_coeffs(args.A)
    rng = random.Random(args.seed)
    ns = _parse_n_range(args.n)
    if len(ns) != 1:
        raise ValueError("sample takes a single n, not a range")
    n = ns[0]
    lines = [sample_hom(group, coeffs, n, rng).to_json() for _ in range(args.samples)]
    _emit(lines, args.out)
    return EXIT_OK


def _default_check_cells() -> list[tuple[str, str, int]]:
    cells = []
    for gname in ("C1", "C2", "C3", "V4", "S3"):
        for a in ("2", "3"):
            for n in (1, 2, 3):
                cells.append((gname, a, n))
    return cells


def _cmd_oracle_check(args, cap: Optional[int]) -> int:
    if args.group is not None:
        ns = _parse_n_range(args.n) if args.n else range(1, 4)
        cells = [(args.group, args.A, n) for n in ns]
    else:
        cells = _default_check_cells()
    size_cap = cap or 10**6
    lines = []
    all_ok = True
    for gname, a_text, n in cells:
        group = _load_group(gname, cap)
        coeffs = _parse_coeffs(a_text)
        wreath = build_wreath_group(coeffs, n, size_cap=size_cap)
        homs = enumerate_homs(group, wreath)
        count_rec = hom_count_wreath(group, coeffs, n)
        count_dir = hom_count_direct(group, coeffs, n)
        engine_delta = delta_distribution(group, coeffs, n)
        brute_delta = oracle_delta(group, coeffs, n, size_cap=size_cap)
        delta_match = engine_delta.fiber_counts == brute_delta.fiber_counts
        strata_uniform = fixed_point_strata_uniform(group, coeffs, wreath, homs)
        ok = count_rec == count_dir == len(homs) and delta_match and strata_uniform
        all_ok = all_ok and ok
        lines.append(
            {
                "group": group.name,
                "A": list(coeffs.invariant_factors),
                "n": n,
                "count": str(count_rec),
                "direct": str(count_dir),
                "oracle": str(len(homs)),
                "deltaMatch": delta_match,
                "fixedPointStrataUniform": strata_uniform,
                "ok": ok,
            }
        )
    lines.append({"ok": all_ok, "cells": len(lines)})
    _emit(lines, args.out)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def log_fraction(fr: Fraction) -> float:
    """log of a positive rational, safe for values far below float range."""
    if fr <= 0:
        raise ValueError("log of non-positive rational")
    return math.log(fr.numerator) - math.log(fr.denominator)


def fit_decay(group: FiniteGroup, coeffs: AbelianGroup, ns: Sequence[int]) -> dict:
    """Least-squares fit of log p_n against n^(1/d) over the given n.

    Points with p_n = 0 are skipped (their logs are undefined); the
    exponent d is the group order, matching the decay shape exp(-c n^(1/d)).
    """
    d = group.order
    xs, ys = [], []
    for n in ns:
        p = fixed_point_free_probability(group, coeffs, n)
        if p > 0:
            xs.append(n ** (1.0 / d))
            ys.append(log_fraction(p))
    if len(xs) < 2:
        raise ValueError("need at least two n with positive fixed-point-free probability")
    fit = statistics.linear_regression(xs, ys)
    constant = decay_constant(group, coeffs)
    return {
        "group": group.name,
        "A": list(coeffs.invariant_factors),
        "points": len(xs),
        "slope": fit.slope,
        "intercept": fit.intercept,
        "referenceConstant": constant.reference_value,
        "conservativeConstant": str(constant.conservative),
    }


def _cmd_fit_decay(args, cap: Optional[int]) -> int:
    group = _load_group(args.group, cap)
    coeffs = _parse_coeffs(args.A)
    ns = _parse_n_range(args.n)
    if cap is not None and ns[-1] > cap:
        raise SizeCapError(f"n={ns[-1]} exceeds cap {cap}")
    _emit([fit_decay(group, coeffs, list(ns))], args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathhom",
        description="Exact counting, distributions, and sampling of homomorphisms into wreath products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_a=True, with_n=True):
        p.add_argument("--group", required=True, help="builtin name (C1..Q8) or path to a group spec JSON")
        if with_a:
            p.add_argument("--A", default="2", help="invariant factors of A, comma separated (e.g. 2 or 2,2)")
        if with_n:
            p.add_argument("--n", required=True, help="n or inclusive range lo:hi")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--cap", type=int, default=None, help="override size caps")

    p = sub.add_parser("count", help="|Hom(G, A wr S_n)| table")
    common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("pfree", help="fixed-point-free probability table")
    common(p)
    p.set_defaults(func=_cmd_pfree)

    p = sub.add_parser("delta", help="exact fold-value distribution table")
    common(p)
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("weyl", help="type-D Weyl homomorphism counts and ratios")
    common(p, with_a=False)
    p.set_defaults(func=_cmd_weyl)

    p = sub.add_parser("sample", help="uniform homomorphism draws as JSON lines")
    common(p)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("oracle-check", help="desk-scale verification against brute force")
    p.add_argument("--group", default=None, help="restrict to one group")
    p.add_argument("--A", default="2")
    p.add_argument("--n", default=None, help="n or range (with --group)")
    p.add_argument("--out", default=None)
    p.add_argument("--cap", type=int, default=None)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("fit-decay", help="regress log p_n on n^(1/d)")
    common(p)
    p.set_defaults(func=_cmd_fit_decay)

    return parser


def execute(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cap = args.cap
    if cap is None and os.environ.get(CAP_ENV_VAR):
        try:
            cap = int(os.environ[CAP_ENV_VAR])
        except ValueError:
            print(f"error: {CAP_ENV_VAR} must be an integer, got {os.environ[CAP_ENV_VAR]!r}", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args, cap)
    except UnknownGroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_BUILTIN
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except (GroupTableError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except InvariantError as exc:
        print(f"error: invariant broken: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def main() -> None:
    # Exact counts pass Python's default 4300-digit int-to-str limit (3.11+)
    # long before the recurrence cap; lift it for this process only.
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    raise SystemExit(execute())
