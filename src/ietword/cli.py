"""Command line front end.

Exit codes: 0 success/accepted, 1 rejected or check failed,
2 inconclusive (input too short for the requested window, or an order
search refused for too many orders), 3 usage or input errors, parse
errors among them, each reported on one stderr line `error: ...`.  All
subcommands are deterministic: same inputs, same bytes out.  A handler
returns its exit code and outputs, or raises _UsageError, and main alone
writes them: a command that ends 2 or 3 writes no file.

Each command is its own process, and start-up is most of a short
command's time, so a launch loads only what it runs.  No parser object
is built and argparse is not imported: `_parse` reads argv straight off
the named command's row of `_COMMANDS` (rows keep the form of argparse
add_argument calls, and give the attribute names and defaults argparse
would), and `--help` text is made from the same rows.  `--help` loads
only `ietword` and this module; `validate` adds `words`, `rauzy` and
`record`, `fz` adds `words`, `orders` and `record`, and neither loads
the scalar layer `exact`.
"""
from __future__ import annotations

import os
import sys
import types

USAGE_ERROR = 3
INCONCLUSIVE = 2
REJECTED = 1
OK = 0


class _UsageError(Exception):
    """A usage or input error: main reports it on one `error:` line, exit 3."""


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except OSError as e:
        raise _UsageError(f"cannot read {path}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise _UsageError(f"{path}: not ASCII text: {e.reason} at byte {e.start}") from None


def _read_word(path: str):
    word = _read_text(path).strip()
    # the ASCII spaces str.split() splits on; a one-line word is not copied
    if any(c in word for c in " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f"):
        word = "".join(word.split())
    if not word:
        raise _UsageError(f"{path} holds no symbols")
    return word


def _write(outputs) -> None:
    """Write each (where, text), where a file path, None for stdout or
    sys.stderr: files first, all opened in append mode before any is
    written, and none if one cannot be."""
    files = [(where, text) for where, text in outputs if isinstance(where, str)]
    handles = []
    try:
        for path, _ in files:
            new = not os.path.exists(path)
            handles.append((open(path, "a", encoding="ascii"), new))
        for (fh, _), (path, text) in zip(handles, files):
            with fh:
                if os.fstat(fh.fileno()).st_size:  # cutting a file makes ext4 flush it on close
                    fh.truncate(0)
                fh.write(text)
    except OSError as e:
        for fh, new in handles:
            fh.close()
            if new:
                os.remove(fh.name)
        raise _UsageError(f"cannot write {path}: {e.strerror}") from None
    for where, text in outputs:
        if not isinstance(where, str):
            (where or sys.stdout).write(text)


def _inconclusive(why: str):
    return INCONCLUSIVE, [(sys.stderr, f"inconclusive: {why}\n")]


def _verdict(report) -> str:
    K, witness = ("none" if v is None else v for v in (report.K, report.witness))
    return f"verdict={report.verdict};K={K};witness={witness}"


# ----------------------------------------------------------- subcommands

def _cmd_gen(args):
    from .config import ConfigError, parse_iet_config
    from .exact import ScalarParseError, parse_scalar
    from .iet import CodingConfig, coding_with_sets, natural_coding
    try:
        T, sets = parse_iet_config(_read_text(args.config))
    except ConfigError as e:
        raise _UsageError(f"{args.config}: {e}") from None
    if args.length <= 0:
        raise _UsageError("length must be positive")
    try:
        x0 = parse_scalar(args.x0)
    except ScalarParseError as e:
        raise _UsageError(f"bad --x0: {e}") from None
    try:
        if sets is None:
            word = natural_coding(T, x0, args.length)
        else:
            word = coding_with_sets(T, CodingConfig(sets.items()), x0, args.length)
    except ValueError as e:
        raise _UsageError(str(e)) from None
    return OK, [(args.output, word + "\n")]


def _cmd_analyze(args):
    from .words import FactorSet, bispecial_factors, complexity, special_factors
    word = _read_word(args.word)
    if args.max_len < 1:
        raise _UsageError("--max-len must be positive")
    if len(word) < args.max_len + 1:
        return _inconclusive(f"word of length {len(word)} cannot support "
                             f"factors of length {args.max_len + 1}")
    fs = FactorSet(word, args.max_len + 1)
    rows = ["n,complexity,left_special,right_special,bispecial"]
    for n in range(args.max_len + 1):
        left = special_factors(fs, n, "left")
        right = special_factors(fs, n, "right")
        both = bispecial_factors(fs, n)
        rows.append(f"{n},{complexity(fs, n)},{len(left)},{len(right)},{len(both)}")
    return OK, [(args.output, "\n".join(rows) + "\n")]


def _cmd_rauzy(args):
    from .rauzy import build_k_graph, export_dot
    from .words import FactorSet
    word = _read_word(args.word)
    if args.k_min < 1 or args.k_max < args.k_min:
        raise _UsageError(f"bad window [{args.k_min}, {args.k_max}]")
    if len(word) < args.k_max + 1:
        return _inconclusive(f"word too short for k={args.k_max}")
    fs = FactorSet(word, args.k_max + 1)
    files = [(f"{args.out_dir}/rauzy_k{k}.dot", export_dot(build_k_graph(fs, k)))
             for k in range(args.k_min, args.k_max + 1)]
    return OK, [*files, (None, "".join(f"{path}\n" for path, _ in files))]


def _cmd_validate(args):
    from .rauzy import validate_evolution
    from .words import FactorSet
    word = _read_word(args.word)
    if args.k_min < 1 or args.k_max < args.k_min:
        raise _UsageError(f"bad window [{args.k_min}, {args.k_max}]")
    if len(word) < args.k_max + 1:
        why = f"word of length {len(word)} too short for window [{args.k_min}, {args.k_max}]"
        return INCONCLUSIVE, [(None, f"verdict=inconclusive;K=none;witness={why}\n")]
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
    lines.append(_verdict(report))
    return OK if report.accepted else REJECTED, [(args.output, "\n".join(lines) + "\n")]


def _parse_order(text: str):
    return tuple(text.split(",")) if "," in text else tuple(text)


def _cmd_fz(args):
    from .orders import OrderPair, TooManyOrders, check_orders, search_orders
    from .words import FactorSet
    if args.search == (args.orders is not None):
        raise _UsageError("need exactly one of --orders PI0 PI1 and --search")
    word = _read_word(args.word)
    if args.max_len < 0:
        raise _UsageError("--max-len must not be negative")
    if len(word) < args.max_len + 2:
        return _inconclusive(f"word too short to check to length {args.max_len}")
    fs = FactorSet(word, args.max_len + 2)
    if args.search:
        try:
            pairs = search_orders(fs, args.max_len)
        except TooManyOrders as e:
            return _inconclusive(str(e))
        out = [f"pi0={''.join(p.pi0)};pi1={''.join(p.pi1)}" for p in pairs]
        out.append(f"result={'found' if pairs else 'none'};count={len(pairs)}")
        return OK if pairs else REJECTED, [(args.output, "\n".join(out) + "\n")]
    try:
        pair = OrderPair(_parse_order(args.orders[0]),
                         _parse_order(args.orders[1]))
    except ValueError as e:
        raise _UsageError(str(e)) from None
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
    return OK if report.passed else REJECTED, [(args.output, "\n".join(rows) + "\n")]


def _cmd_reconstruct(args):
    from .config import format_iet_config
    from .exact import format_scalar
    from .iet import DEFAULT_LETTERS, CodingConfig
    from .orders import TooManyOrders
    from .rauzy import validate_evolution
    from .reconstruct import SYMBOLS_PER_LEVEL, reconstruct_iet, verify_roundtrip
    from .words import FactorSet
    word = _read_word(args.word)
    if args.k_min < 1 or args.k_max < args.k_min:
        raise _UsageError(f"bad window [{args.k_min}, {args.k_max}]")
    if args.depth < 1 or args.roundtrip < 1:
        raise _UsageError("--depth and --roundtrip must be positive")
    if len(word) < max(args.k_max + 1, SYMBOLS_PER_LEVEL * args.depth):
        return _inconclusive(f"word of length {len(word)} too short for "
                             f"window [{args.k_min}, {args.k_max}] at depth {args.depth}")
    fs = FactorSet(word, max(args.k_max + 1, args.depth))
    report = validate_evolution(fs, args.k_min, args.k_max,
                                oriented=args.oriented)
    if not report.accepted:
        return REJECTED, [(None, _verdict(report) + "\n")]
    try:
        T, residual, letters = reconstruct_iet(fs, report, args.depth)
    except TooManyOrders as e:
        return _inconclusive(str(e))
    except ValueError as e:
        raise _UsageError(str(e)) from None
    match, total, depth_hit, x0 = verify_roundtrip(
        word, T, min(len(word), args.roundtrip), letters)
    # sets lines keep the word's letters when they are not 1..k in domain order
    sets = None
    if letters != DEFAULT_LETTERS[:T.k]:
        sets = CodingConfig.natural(T, letters).sets
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
    return OK, [(args.out_config, format_iet_config(T, sets)),
                (args.out_report, "\n".join(csv) + "\n")]


# one row per subcommand: name, help, handler, then each argument as the
# positional and keyword arguments an argparse add_argument call would take
_COMMANDS = (
    ("gen", "code an orbit of a configured exchange", _cmd_gen, (
        (("config",), {"help": "config file of the exchange"}),
        (("-n", "--length"), {"type": int, "required": True, "metavar": "N",
                              "help": "number of letters"}),
        (("--x0",), {"default": "0", "metavar": "SCALAR",
                     "help": "starting point (scalar literal)"}),
        (("-o", "--output"), {"metavar": "FILE", "help": "output file, not stdout"}))),
    ("analyze", "complexity and special-factor counts", _cmd_analyze, (
        (("word",), {"help": "word file"}),
        (("--max-len",), {"type": int, "default": 30, "metavar": "N",
                          "help": "longest factor length counted"}),
        (("-o", "--output"), {"metavar": "FILE", "help": "output file, not stdout"}))),
    ("rauzy", "write factor graphs as DOT files", _cmd_rauzy, (
        (("word",), {"help": "word file"}),
        (("--k-min",), {"type": int, "default": 1, "metavar": "N",
                        "help": "first graph level"}),
        (("--k-max",), {"type": int, "default": 8, "metavar": "N",
                        "help": "last graph level"}),
        (("--out-dir",), {"default": ".", "metavar": "DIR",
                          "help": "directory of the rauzy_kN.dot files"}))),
    ("validate", "run the evolution validator", _cmd_validate, (
        (("word",), {"help": "word file"}),
        (("--k-min",), {"type": int, "default": 1, "metavar": "N",
                        "help": "first level checked"}),
        (("--k-max",), {"type": int, "default": 20, "metavar": "N",
                        "help": "last level checked"}),
        (("--oriented",), {"action": "store_true", "help": "flip-free test: no vertex marks"}),
        (("-o", "--output"), {"metavar": "FILE", "help": "output file, not stdout"}))),
    ("fz", "extension-set interval conditions", _cmd_fz, (
        (("word",), {"help": "word file"}),
        (("--orders",), {"nargs": 2, "metavar": ("PI0", "PI1"),
                         "help": "check this pair of letter orders"}),
        (("--search",), {"action": "store_true",
                         "help": "list every pair that passes, not --orders"}),
        (("--max-len",), {"type": int, "default": 12, "metavar": "N",
                          "help": "longest factor length checked"}),
        (("-o", "--output"), {"metavar": "FILE", "help": "output file, not stdout"}))),
    ("reconstruct", "rebuild a candidate exchange", _cmd_reconstruct, (
        (("word",), {"help": "word file"}),
        (("--k-min",), {"type": int, "default": 1, "metavar": "N",
                        "help": "first level checked"}),
        (("--k-max",), {"type": int, "default": 12, "metavar": "N",
                        "help": "last level checked"}),
        (("--oriented",), {"action": "store_true", "help": "flip-free test: no vertex marks"}),
        (("--depth",), {"type": int, "default": 6, "metavar": "D",
                        "help": "longest factor length fitted"}),
        (("--roundtrip",), {"type": int, "default": 500, "metavar": "N",
                            "help": "letters regenerated as a check"}),
        (("--out-config",), {"default": "candidate.cfg", "metavar": "FILE",
                             "help": "candidate config file"}),
        (("--out-report",), {"default": "candidate.csv", "metavar": "FILE",
                             "help": "CSV report file"}))),
)

_HELP = (("-h", "--help"), {"action": "store_true", "help": "print this help and exit"})


def _dest(flags) -> str:
    """The attribute argparse would name an argument's value by."""
    name = next((f for f in flags if f.startswith("--")), flags[0])
    return name.lstrip("-").replace("-", "_")


def _cell(flags, options) -> str:
    """The given spellings of an argument, then its values: `-o, --output FILE`."""
    meta = "" if "action" in options else options.get("metavar", _dest(flags).upper())
    names = ", ".join(f for f in flags if f.startswith("-"))
    return f"{names} {meta if isinstance(meta, str) else ' '.join(meta)}".strip()


def _usage(lead, name, arguments) -> str:
    """`LEADietword NAME ARGUMENTS`, wrapped at 72 columns whatever the terminal."""
    lines = [f"{lead}ietword {name}"]
    for flags, options in arguments:
        text = _cell(flags[:1], options)
        if flags[0].startswith("-") and not options.get("required"):
            text = f"[{text}]"
        if len(lines[-1]) + len(text) >= 72:
            lines.append("       ")
        lines[-1] += " " + text
    return "\n".join(lines)


def _help(row=None) -> str:
    """The --help text of one row of `_COMMANDS`, or of all of them."""
    if row is None:
        return "\n".join([
            "usage: ietword COMMAND ARGUMENTS, or ietword [COMMAND] --help", "",
            "interval exchange codings: generate, analyze, validate", "",
            *(f"{_usage('', name, arguments)}\n    {text}"
              for name, text, _, arguments in _COMMANDS)])
    name, text, _, arguments = row
    cells = [(_cell(*arg), arg[1]) for arg in (*arguments, _HELP)]
    width = max(len(cell) for cell, _ in cells) + 2
    lines = [_usage("usage: ", name, arguments), "", text, ""]
    for cell, options in cells:
        default = f" (default {options['default']})" if "default" in options else ""
        lines.append(f"  {cell:{width}}{options['help']}{default}")
    return "\n".join(lines)


def _parse(argv):
    """The values argparse would give argv, read off its command's row of
    `_COMMANDS`, or None when argv asks for help and it is printed.  A bad
    argv raises _UsageError."""
    row = next((row for row in _COMMANDS if row[0] == argv[0]), None) if argv else None
    if row is None:
        if argv[:1] in (["-h"], ["--help"]):
            print(_help())
            return None
        what = f"unknown command {argv[0]!r}" if argv else "no command"
        raise _UsageError(f"{what}; one of {', '.join(r[0] for r in _COMMANDS)}")
    name, _, func, arguments = row
    values = {"command": name, "func": func}
    for flags, options in arguments:
        values[_dest(flags)] = options.get("default", False if "action" in options else None)
    spelled = {f: arg for arg in (*arguments, _HELP) for f in arg[0]}
    word = next(_dest(flags) for flags, _ in arguments if flags[0][0] != "-")
    i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if token[:1] != "-" or token == "-":
            if values[word] is not None:
                raise _UsageError(f"{name}: unexpected argument {token!r}")
            values[word] = token
            continue
        flag, eq, value = token.partition("=")
        found = [flag] if flag in spelled else [
            f for f in spelled if len(flag) > 2 and flag[:2] == "--" and f.startswith(flag)]
        if len(found) != 1:
            raise _UsageError(f"{name}: unknown option {flag}" if not found else
                              f"{name}: ambiguous option {flag}: {', '.join(found)}")
        flags, options = spelled[found[0]]
        n = 0 if "action" in options else options.get("nargs", 1)
        got = [value] if eq else argv[i:i + n]
        i += 0 if eq else len(got)
        if len(got) != n:
            raise _UsageError(f"{name}: {found[0]} takes {n} value{'s'[:n != 1]}, not {len(got)}")
        if flags is _HELP[0]:
            print(_help(row))
            return None
        convert = options.get("type", str)
        try:
            got = [convert(v) for v in got]
        except ValueError:
            raise _UsageError(f"{name}: {found[0]}: invalid {convert.__name__} value "
                              f"{' '.join(got)!r}") from None
        values[_dest(flags)] = True if not n else got if "nargs" in options else got[0]
    missing = [_cell(flags[:1], options) for flags, options in arguments
               if (flags[0][0] != "-" or options.get("required"))
               and values[_dest(flags)] is None]
    if missing:
        raise _UsageError(f"{name}: missing {' and '.join(missing)}")
    return types.SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        code, outputs = (OK, []) if args is None else args.func(args)
        _write(outputs)
        return code
    except _UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
