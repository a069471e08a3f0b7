"""Command line front end.

Exit codes: 0 success/accepted, 1 rejected or check failed,
2 inconclusive (input too short for the requested window), 3 usage or
input errors.  All subcommands are deterministic: same inputs, same
bytes out.
"""
from __future__ import annotations

import argparse
import sys

from .config import ConfigError, format_iet_config, parse_iet_config
from .exact import ScalarParseError, format_scalar, parse_scalar
from .iet import DEFAULT_LETTERS, CodingConfig, coding_with_sets, natural_coding
from .orders import OrderPair, check_orders, search_orders
from .rauzy import build_k_graph, export_dot, validate_evolution
from .reconstruct import SYMBOLS_PER_LEVEL, reconstruct_iet, verify_roundtrip
from .words import FactorSet, bispecial_factors, complexity, special_factors

USAGE_ERROR = 3
INCONCLUSIVE = 2
REJECTED = 1
OK = 0


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return USAGE_ERROR


class _UsageError(Exception):
    """An input file could not be read or an output file written; main
    reports it as a usage error."""


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise _UsageError(f"{path}: not ASCII text: {e.reason} at byte {e.start}") from None


def _read_word(path: str):
    word = "".join(_read_text(path).split())
    if not word:
        raise _UsageError(f"{path} holds no symbols")
    return word


def _write(path, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as e:
        raise _UsageError(f"cannot write {path}: {e.strerror}") from None


# ----------------------------------------------------------- subcommands

def _cmd_gen(args) -> int:
    try:
        T, sets = parse_iet_config(_read_text(args.config))
    except ConfigError as e:
        return _fail(f"{args.config}: {e}")
    if args.length <= 0:
        return _fail("length must be positive")
    try:
        x0 = parse_scalar(args.x0)
    except ScalarParseError as e:
        return _fail(f"bad --x0: {e}")
    try:
        if sets is None:
            word = natural_coding(T, x0, args.length)
        else:
            word = coding_with_sets(T, CodingConfig(sets.items()), x0, args.length)
    except ValueError as e:
        return _fail(str(e))
    _write(args.output, word + "\n")
    return OK


def _cmd_analyze(args) -> int:
    word = _read_word(args.word)
    if args.max_len < 1:
        return _fail("--max-len must be positive")
    if len(word) < args.max_len + 1:
        print(f"inconclusive: word of length {len(word)} cannot support "
              f"factors of length {args.max_len + 1}", file=sys.stderr)
        return INCONCLUSIVE
    fs = FactorSet(word, args.max_len + 1)
    rows = ["n,complexity,left_special,right_special,bispecial"]
    for n in range(args.max_len + 1):
        left = special_factors(fs, n, "left")
        right = special_factors(fs, n, "right")
        both = bispecial_factors(fs, n)
        rows.append(f"{n},{complexity(fs, n)},{len(left)},{len(right)},{len(both)}")
    _write(args.output, "\n".join(rows) + "\n")
    return OK


def _cmd_rauzy(args) -> int:
    word = _read_word(args.word)
    if args.k_min < 1 or args.k_max < args.k_min:
        return _fail(f"bad window [{args.k_min}, {args.k_max}]")
    if len(word) < args.k_max + 1:
        print(f"inconclusive: word too short for k={args.k_max}",
              file=sys.stderr)
        return INCONCLUSIVE
    fs = FactorSet(word, args.k_max + 1)
    for k in range(args.k_min, args.k_max + 1):
        path = f"{args.out_dir}/rauzy_k{k}.dot"
        _write(path, export_dot(build_k_graph(fs, k)))
        print(path)
    return OK


def _witness_text(w) -> str:
    return "none" if w is None else str(w)


def _cmd_validate(args) -> int:
    word = _read_word(args.word)
    if args.k_min < 1 or args.k_max < args.k_min:
        return _fail(f"bad window [{args.k_min}, {args.k_max}]")
    if len(word) < args.k_max + 1:
        print(f"verdict=inconclusive;K=none;witness=word of length {len(word)} "
              f"too short for window [{args.k_min}, {args.k_max}]")
        return INCONCLUSIVE
    fs = FactorSet(word, args.k_max + 1)
    report = validate_evolution(fs, args.k_min, args.k_max,
                                oriented=args.oriented)
    lines = [
        f"word: {args.word} ({len(word)} symbols over "
        f"{{{','.join(fs.alphabet)}}})",
        f"window: [{args.k_min}, {args.k_max}]"
        + (" oriented" if args.oriented else ""),
        f"verdict: {report.verdict}",
    ]
    if report.accepted:
        lines.append(f"consistent labeling found from level K={report.K}")
        marked = sorted(m for ms in report.marks.values() for m in ms)
        if marked:
            lines.append(f"minus marks on: {' '.join(marked)}")
    else:
        lines.append(f"witness: {report.witness}")
    kv = report.K if report.K is not None else "none"
    lines.append(f"verdict={report.verdict};K={kv};"
                 f"witness={_witness_text(report.witness)}")
    _write(args.output, "\n".join(lines) + "\n")
    return OK if report.accepted else REJECTED


def _parse_order(text: str):
    return tuple(text.split(",")) if "," in text else tuple(text)


def _cmd_fz(args) -> int:
    word = _read_word(args.word)
    if args.max_len < 0:
        return _fail("--max-len must not be negative")
    if len(word) < args.max_len + 2:
        print(f"inconclusive: word too short to check to length {args.max_len}",
              file=sys.stderr)
        return INCONCLUSIVE
    fs = FactorSet(word, args.max_len + 2)
    if args.search:
        try:
            pairs = search_orders(fs, args.max_len)
        except ValueError as e:
            return _fail(str(e))
        out = [f"pi0={''.join(p.pi0)};pi1={''.join(p.pi1)}" for p in pairs]
        out.append(f"result={'found' if pairs else 'none'};count={len(pairs)}")
        _write(args.output, "\n".join(out) + "\n")
        return OK if pairs else REJECTED
    if not args.orders:
        return _fail("need --orders PI0 PI1 or --search")
    try:
        pair = OrderPair(_parse_order(args.orders[0]),
                         _parse_order(args.orders[1]))
    except ValueError as e:
        return _fail(str(e))
    report = check_orders(fs, pair, args.max_len)
    rows = [f"orders: pi0={''.join(pair.pi0)} pi1={''.join(pair.pi1)}"]
    for cond in ("letters", "separation", "1", "2", "3"):
        status = "fail" if report.condition == cond else "pass"
        note = f"  witness={report.witness}" if report.condition == cond else ""
        rows.append(f"condition {cond}: {status}{note}")
    rows.append(
        f"result={'pass' if report.passed else 'fail'};"
        f"condition={report.condition or 'none'};"
        f"witness={report.witness if report.witness is not None else 'none'}")
    _write(args.output, "\n".join(rows) + "\n")
    return OK if report.passed else REJECTED


def _cmd_reconstruct(args) -> int:
    word = _read_word(args.word)
    if args.k_min < 1 or args.k_max < args.k_min:
        return _fail(f"bad window [{args.k_min}, {args.k_max}]")
    if args.depth < 1 or args.roundtrip < 1:
        return _fail("--depth and --roundtrip must be positive")
    if len(word) < max(args.k_max + 1, SYMBOLS_PER_LEVEL * args.depth):
        print(f"inconclusive: word of length {len(word)} too short for "
              f"window [{args.k_min}, {args.k_max}] at depth {args.depth}",
              file=sys.stderr)
        return INCONCLUSIVE
    fs = FactorSet(word, max(args.k_max + 1, args.depth))
    report = validate_evolution(fs, args.k_min, args.k_max,
                                oriented=args.oriented)
    if not report.accepted:
        print(f"verdict={report.verdict};K=none;"
              f"witness={_witness_text(report.witness)}")
        return REJECTED
    try:
        T, residual, letters = reconstruct_iet(fs, report, args.depth)
    except ValueError as e:
        return _fail(str(e))
    match, total, depth_hit, x0 = verify_roundtrip(
        word, T, min(len(word), args.roundtrip), letters)
    # sets lines keep the word's letters when they are not 1..k in domain order
    sets = None
    if letters != DEFAULT_LETTERS[:T.k]:
        sets = CodingConfig.natural(T, letters).sets
    _write(args.out_config, format_iet_config(T, sets))
    csv = [
        "metric,value",
        f"verdict,{report.verdict}",
        f"K,{report.K}",
        f"residual,{residual}",
        f"match_length,{match}",
        f"total,{total}",
        f"prefix_depth,{depth_hit}",
        f"x0,{format_scalar(x0)}",
    ]
    _write(args.out_report, "\n".join(csv) + "\n")
    return OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="ietword",
        description="interval exchange codings: generate, analyze, validate")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="code an orbit of a configured exchange")
    p.add_argument("config")
    p.add_argument("-n", "--length", type=int, required=True)
    p.add_argument("--x0", default="0", help="starting point (scalar literal)")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", help="complexity and special-factor counts")
    p.add_argument("word")
    p.add_argument("--max-len", type=int, default=30)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("rauzy", help="write factor graphs as DOT files")
    p.add_argument("word")
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=8)
    p.add_argument("--out-dir", default=".")
    p.set_defaults(func=_cmd_rauzy)

    p = sub.add_parser("validate", help="run the evolution validator")
    p.add_argument("word")
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=20)
    p.add_argument("--oriented", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fz", help="extension-set interval conditions")
    p.add_argument("word")
    p.add_argument("--orders", nargs=2, metavar=("PI0", "PI1"))
    p.add_argument("--search", action="store_true")
    p.add_argument("--max-len", type=int, default=12)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_fz)

    p = sub.add_parser("reconstruct", help="rebuild a candidate exchange")
    p.add_argument("word")
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=12)
    p.add_argument("--oriented", action="store_true")
    p.add_argument("--depth", type=int, default=6)
    p.add_argument("--roundtrip", type=int, default=500)
    p.add_argument("--out-config", default="candidate.cfg")
    p.add_argument("--out-report", default="candidate.csv")
    p.set_defaults(func=_cmd_reconstruct)

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return USAGE_ERROR if e.code not in (0, None) else 0
    try:
        return args.func(args)
    except _UsageError as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
