"""Batch command line front end.

Parses group specs, dispatches the counting, distribution, Weyl, sampling,
verification, and decay-fit jobs, and emits machine-readable JSON lines.
Identical arguments and seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import codecs
import errno
import json
import math
import os
import sys
from functools import partial
from pathlib import Path
from typing import Iterable, Optional, Sequence

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
    check_coeff_order,
)
from .counting import (
    DEFAULT_RECURRENCE_CAP,
    decay_constant,
    delta_distribution,
    distribution_to_json,
    fixed_point_free_probability,
    hom_count_direct,
    hom_count_wreath,
    weyl_hom_count,
    weyl_limit_ratio,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_BAD_SPEC = 3
EXIT_CAP_EXCEEDED = 4
EXIT_UNKNOWN_BUILTIN = 5
EXIT_INVARIANT = 6

CAP_ENV_VAR = "WREATHHOM_CAP"
COPY_CHARS = 2**16  # the temporary file is read back in chunks of this many bytes
# Output text past this size waits in a temporary file.  Such output goes
# through the file in full, so text held before that decision only raises
# the peak: hold no more than one copy chunk.
SPOOL_CHARS = COPY_CHARS


class UsageError(Exception):
    """Arguments that parse but would be ignored or ask for nothing meaningful."""


def _load_group(spec: str) -> FiniteGroup:
    if spec.upper() in BUILTIN_GROUP_NAMES:
        return builtin_group(spec)
    path = Path(spec)
    if path.suffix == ".json" or path.exists():
        try:
            gspec = GroupSpec.from_path(path)
        except (OSError, json.JSONDecodeError) as exc:
            raise GroupTableError(f"cannot read group spec {spec!r}: {exc}") from exc
        return build_group(gspec)
    raise UnknownGroupError(
        f"unknown builtin group {spec!r}; known: {', '.join(BUILTIN_GROUP_NAMES)} (or a .json path)"
    )


def _parse_coeffs(text: str) -> AbelianGroup:
    """The A of ``--A``, refused past ``COEFF_ORDER_CAP`` before any work."""
    try:
        factors = [int(x) for x in text.split(",") if x.strip() != ""]
        coeffs = AbelianGroup(e for e in factors if e != 1)
    except ValueError as exc:
        raise ValueError(f"--A {text!r}: {exc}") from None
    check_coeff_order(coeffs)
    return coeffs


def _parse_n_range(text: str, cap: int) -> range:
    """The n of ``--n`` (n or lo:hi), refused past ``cap`` before any work."""
    try:
        if ":" in text:
            lo_text, hi_text = text.split(":", 1)
            lo, hi = int(lo_text), int(hi_text)
        else:
            lo = hi = int(text)
    except ValueError:
        raise UsageError(f"--n must be n or lo:hi with integers, got {text!r}") from None
    if lo < 0:
        raise UsageError(f"--n must be nonnegative, got {text!r}")
    if hi < lo:
        raise UsageError(f"empty n range {text!r}")
    if hi > cap:
        raise SizeCapError(f"n={hi} exceeds cap {cap}")
    return range(lo, hi + 1)


def _emit(rows: Iterable[str], out: Optional[str]) -> None:
    """Write each row's JSON text as a line, and nothing unless every row is made.

    The lines wait in memory up to ``SPOOL_CHARS``, one 64 KiB chunk of
    text, then in an unnamed temporary file; stdout or ``--out`` is written
    only after the last row, from the held lines or from ``COPY_CHARS``
    reads of the file.  So past the first chunk the emitter holds about one
    chunk and one row, whatever the size of the output."""
    lines = (line for row in rows for line in (row, "\n"))
    held, size = [], 0
    for line in lines:
        held.append(line)
        size += len(line)
        if size > SPOOL_CHARS:
            break
    else:
        _write(held, out)
        return
    import tempfile
    try:
        # bytes, not text: a text file reads each chunk back through about four copies
        with tempfile.TemporaryFile() as spool:
            spool.writelines(map(str.encode, held))
            held.clear()
            spool.writelines(map(str.encode, lines))
            spool.seek(0)
            decode = codecs.getincrementaldecoder("utf-8")().decode  # a chunk may end inside a character
            _write(map(decode, iter(partial(spool.read, COPY_CHARS), b"")), out)
    except OSError as exc:
        raise UsageError(f"cannot write output through a temporary file: {exc.strerror or exc}") from None


def _write(lines: Iterable[str], out: Optional[str]) -> None:
    """Write the texts ``lines`` to stdout, or to the file ``out`` opened only now."""
    if out is None or out == "-":
        if sys.stdout is None:  # the process started with fd 1 closed
            raise UsageError(f"cannot write to stdout: {os.strerror(errno.EBADF)}")
        try:
            sys.stdout.writelines(lines)
            sys.stdout.flush()
        except OSError as exc:
            # what stdout still holds goes to the null device at exit, not to a second error
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
            raise UsageError(f"cannot write to stdout: {exc.strerror or exc}") from None
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    except OSError as exc:
        raise UsageError(f"cannot write --out {out!r}: {exc.strerror or exc}") from None


# Each row function returns its row as JSON line text: the bytes json.dumps
# writes for the dict of the same keys, in the same order.  Every value is
# an int, or the str() of an int or a Fraction in quotes, so nothing needs
# escaping.


def _count_row(group: FiniteGroup, coeffs: AbelianGroup, n: int, cap: int) -> str:
    return f'{{"n": {n}, "count": "{hom_count_wreath(group, coeffs, n, cap=cap)}"}}'


def _pfree_row(group: FiniteGroup, coeffs: AbelianGroup, n: int, cap: int) -> str:
    return f'{{"n": {n}, "p": "{fixed_point_free_probability(group, coeffs, n)!s}"}}'


def _delta_row(group: FiniteGroup, coeffs: AbelianGroup, n: int, cap: int) -> str:
    return distribution_to_json(delta_distribution(group, coeffs, n))


def _weyl_row(group: FiniteGroup, coeffs: AbelianGroup, n: int, cap: int) -> str:
    from fractions import Fraction
    count = weyl_hom_count(group, n)
    ratio = Fraction(count, hom_count_wreath(group, coeffs, n, cap=cap))
    return (f'{{"n": {n}, "count": "{count}", "ratio": "{ratio!s}", '
            f'"limit": "{weyl_limit_ratio(group)!s}"}}')


def _cmd_table(args, ns: range, cap: int) -> int:
    """One JSON line per n from the subcommand's row function."""
    coeffs = _parse_coeffs(args.A)
    group = _load_group(args.group)
    _emit((args.row(group, coeffs, n, cap) for n in ns), args.out)
    return EXIT_OK


def _cmd_sample(args, ns: range, cap: int) -> int:
    import random
    from .sampling import sample_hom
    if args.samples < 0:
        raise UsageError(f"--samples must be nonnegative, got {args.samples}")
    if len(ns) != 1:
        raise UsageError(f"sample takes a single n, not the range {args.n!r}")
    coeffs = _parse_coeffs(args.A)
    group = _load_group(args.group)
    n = ns[0]
    rng = random.Random(args.seed)
    _emit((sample_hom(group, coeffs, n, rng).to_json() for _ in range(args.samples)), args.out)
    return EXIT_OK


def _cmd_oracle_check(args, ns: Optional[range], cap: int) -> int:
    from .oracle import build_wreath_group, enumerate_homs, fixed_point_strata_uniform, fold_indices, oracle_delta
    if ns is None:
        ns = _parse_n_range("1:3", cap)
    elif args.group is None:
        raise UsageError("oracle-check --n needs --group")
    if args.group is None:  # the default desk-scale grid
        if args.A is not None:
            raise UsageError("oracle-check --A needs --group")
        gnames, a_texts = ("C1", "C2", "C3", "V4", "S3"), ("2", "3")
    else:
        gnames, a_texts = (args.group,), ("2" if args.A is None else args.A,)
    coeffs_list = [_parse_coeffs(a_text) for a_text in a_texts]
    groups = [_load_group(gname) for gname in gnames]
    cells = [(group, coeffs, n) for group in groups for coeffs in coeffs_list for n in ns]
    lines = []
    all_ok = True
    for group, coeffs, n in cells:
        wreath = build_wreath_group(coeffs, n)
        homs = enumerate_homs(group, wreath)
        count_rec = hom_count_wreath(group, coeffs, n)
        count_dir = hom_count_direct(group, coeffs, n)
        engine_delta = delta_distribution(group, coeffs, n)
        folds = fold_indices(group, coeffs, wreath, homs)
        brute_delta = oracle_delta(group, coeffs, wreath, folds)
        delta_match = engine_delta.fiber_counts == brute_delta.fiber_counts
        strata_uniform = fixed_point_strata_uniform(group, coeffs, wreath, homs, folds)
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
    _emit(map(json.dumps, lines), args.out)
    return EXIT_OK if all_ok else EXIT_CHECK_FAILED


def fit_decay(group: FiniteGroup, coeffs: AbelianGroup, ns: Sequence[int]) -> dict:
    """Least-squares fit of log p_n against n^(1/d) over the given n.

    Points with p_n = 0 are skipped (their logs are undefined), and log p_n
    is taken as two logs, since p_n may be far below float range.  The
    exponent d is the group order, matching the decay shape exp(-c n^(1/d)).
    The fit is exact over the float points and rounded once, so every
    Python prints the same bytes.
    """
    from fractions import Fraction
    d = group.order
    xs, ys = [], []
    for n in ns:
        p = fixed_point_free_probability(group, coeffs, n)
        if p > 0:
            xs.append(Fraction(n ** (1.0 / d)))
            ys.append(Fraction(math.log(p.numerator) - math.log(p.denominator)))
    if len(xs) < 2:
        raise ValueError("need at least two n with positive fixed-point-free probability")
    mean_x, mean_y = sum(xs) / len(xs), sum(ys) / len(ys)
    slope = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / sum((x - mean_x) ** 2 for x in xs)
    constant = decay_constant(group, coeffs)
    return {
        "group": group.name,
        "A": list(coeffs.invariant_factors),
        "points": len(xs),
        "slope": float(slope),
        "intercept": float(mean_y - slope * mean_x),
        "referenceConstant": constant.reference_value,
        "conservativeConstant": str(constant.conservative),
    }


def _cmd_fit_decay(args, ns: range, cap: int) -> int:
    coeffs = _parse_coeffs(args.A)
    group = _load_group(args.group)
    _emit([json.dumps(fit_decay(group, coeffs, list(ns)))], args.out)
    return EXIT_OK


CAP_HELP = (
    f"largest n allowed, checked before any work (default {DEFAULT_RECURRENCE_CAP}, "
    f"or ${CAP_ENV_VAR})"
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathhom",
        description="Exact counting, distributions, and sampling of homomorphisms into wreath products",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_a=True):
        p.add_argument("--group", required=True, help="builtin name (C1..Q8) or path to a group spec JSON")
        if with_a:
            p.add_argument("--A", default="2", help="invariant factors of A, comma separated (e.g. 2 or 2,2)")
        p.add_argument("--n", required=True, help="n or inclusive range lo:hi")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--cap", type=int, default=None, help=CAP_HELP)

    for name, row, help_text in (
        ("count", _count_row, "|Hom(G, A wr S_n)| table"),
        ("pfree", _pfree_row, "fixed-point-free probability table"),
        ("delta", _delta_row, "exact fold-value distribution table"),
    ):
        p = sub.add_parser(name, help=help_text)
        common(p)
        p.set_defaults(func=_cmd_table, row=row)

    p = sub.add_parser("weyl", help="type-D Weyl homomorphism counts and ratios")
    common(p, with_a=False)
    p.set_defaults(func=_cmd_table, row=_weyl_row, A="2")

    p = sub.add_parser("sample", help="uniform homomorphism draws as JSON lines")
    common(p)
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("oracle-check", help="desk-scale verification against brute force")
    p.add_argument("--group", default=None, help="restrict to one group")
    p.add_argument("--A", default=None, help="invariant factors of A (with --group; default 2)")
    p.add_argument("--n", default=None, help="n or range (with --group; default 1:3)")
    p.add_argument("--out", default=None)
    p.add_argument("--cap", type=int, default=None, help=CAP_HELP)
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("fit-decay", help="regress log p_n on n^(1/d)")
    common(p)
    p.set_defaults(func=_cmd_fit_decay)

    return parser


def _resolve_cap(args) -> int:
    source, text = "--cap", args.cap
    if text is None:
        source, text = CAP_ENV_VAR, os.environ.get(CAP_ENV_VAR)
        if not text:
            return DEFAULT_RECURRENCE_CAP
    try:
        cap = int(text)
    except ValueError:
        raise UsageError(f"{source} must be an integer, got {text!r}") from None
    if cap < 0:
        raise UsageError(f"{source} must be nonnegative, got {cap}")
    return cap


def execute(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cap = _resolve_cap(args)
        ns = None if args.n is None else _parse_n_range(args.n, cap)
        return args.func(args, ns, cap)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnknownGroupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_BUILTIN
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except MemoryError:
        print("error: out of memory; try a smaller --n or group", file=sys.stderr)
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
