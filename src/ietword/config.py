"""Line-oriented IET config files.

Format, one field per line, order free, # comments and blank lines ok:

    k 2
    d 5
    lengths (3-1*sqrt(5))/2 (-1+1*sqrt(5))/2
    perm 2 1
    flips 0 0
    sets a=[0,(-1+1*sqrt(5))/2)
    sets b=[(-1+1*sqrt(5))/2,1)

`d` declares the single radicand used by the scalar literals, of the
lengths and of the sets alike (0 for a rational exchange); it is
redundant but keeps files self-describing, and a mismatch or a negative
`d` is rejected at its line.  `sets` lines are optional, one letter per
line, and name a coding partition; each letter is one character, as it
is one letter of the coded word.  Without them the natural partition
(letters "1".."k") is meant.
"""
from __future__ import annotations

import re

from .exact import ExactScalar, Interval, ScalarParseError, format_scalar, parse_scalar
from .iet import IETSpec, build_iet

__all__ = ["ConfigError", "format_iet_config", "parse_iet_config"]



class ConfigError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def _scalar(tok: str, ln: int) -> ExactScalar:
    try:
        return parse_scalar(tok)
    except ScalarParseError as e:
        raise ConfigError(ln, f"bad scalar {tok!r}: {e}") from None


def parse_iet_config(text: str):
    """Returns (IETSpec, sets dict or None)."""
    fields = {}
    sets = {}
    set_lines = {}  # letter -> its sets line
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(" ")
        rest = rest.strip()
        if key in ("k", "d", "lengths", "perm", "flips"):
            if key in fields:
                raise ConfigError(ln, f"duplicate field {key!r}")
            fields[key] = (ln, rest)
        elif key == "sets":
            m = re.match(r"^(\S+?)=(.*)$", rest)
            if not m:
                raise ConfigError(ln, "sets line needs <letter>=<interval-list>")
            letter, body = m.group(1), m.group(2)
            if len(letter) != 1:
                raise ConfigError(ln, f"sets letter {letter!r} is not one character")
            if letter in sets:
                raise ConfigError(ln, f"duplicate sets entry for {letter!r}")
            ivs = []
            for tok in body.split():
                # scalar literals never contain commas, so one split is safe
                if not (tok.startswith("[") and tok.endswith(")")) or \
                        tok.count(",") != 1:
                    raise ConfigError(ln, f"bad interval {tok!r}, want [lo,hi)")
                lo_tok, hi_tok = tok[1:-1].split(",")
                lo = _scalar(lo_tok, ln)
                hi = _scalar(hi_tok, ln)
                try:
                    ivs.append(Interval(lo, hi))
                except ValueError as e:
                    raise ConfigError(ln, str(e)) from None
            if not ivs:
                raise ConfigError(ln, f"empty interval list for {letter!r}")
            sets[letter] = tuple(ivs)
            set_lines[letter] = ln
        else:
            raise ConfigError(ln, f"unknown field {key!r}")
    for need in ("k", "d", "lengths", "perm", "flips"):
        if need not in fields:
            raise ConfigError(len(text.splitlines()) + 1, f"missing field {need!r}")

    def ints(key):
        ln, rest = fields[key]
        try:
            return ln, [int(t) for t in rest.split()]
        except ValueError:
            raise ConfigError(ln, f"{key} wants integers, got {rest!r}") from None

    ln_k, ks = ints("k")
    if len(ks) != 1:
        raise ConfigError(ln_k, "k wants a single integer")
    k = ks[0]
    ln_d, ds = ints("d")
    if len(ds) != 1:
        raise ConfigError(ln_d, "d wants a single integer")
    d = ds[0]
    if d < 0:
        raise ConfigError(ln_d, f"d wants a radicand >= 0, got {d}")

    def radicands(ln, scalars):
        for x in scalars:
            if x.d not in (0, d):
                raise ConfigError(ln, f"scalar radicand {x.d} does not match d={d}")

    ln_len, rest = fields["lengths"]
    lengths = [_scalar(t, ln_len) for t in rest.split()]
    if len(lengths) != k:
        raise ConfigError(ln_len, f"expected {k} lengths, got {len(lengths)}")
    radicands(ln_len, lengths)
    for letter, ivs in sets.items():
        radicands(set_lines[letter], (x for iv in ivs for x in (iv.lo, iv.hi)))
    ln_p, perm = ints("perm")
    if sorted(perm) != list(range(1, k + 1)):
        raise ConfigError(ln_p, f"permutation {tuple(perm)} is not a bijection of 1..{k}")
    ln_f, flips = ints("flips")
    if len(flips) != k:
        raise ConfigError(ln_f, "flips length does not match lengths")
    if any(f not in (0, 1) for f in flips):
        raise ConfigError(ln_f, "flips wants 0/1 entries")
    # the fields are well formed, so what the exchange refuses is its lengths
    try:
        T = build_iet(lengths, perm, [bool(f) for f in flips])
    except ValueError as e:
        raise ConfigError(ln_len, str(e)) from None
    return T, (sets or None)


def format_iet_config(T: IETSpec, sets=None) -> str:
    d = 0
    for x in T.lengths:
        if x.d:
            d = x.d
    lines = [
        f"k {T.k}",
        f"d {d}",
        "lengths " + " ".join(format_scalar(x) for x in T.lengths),
        "perm " + " ".join(str(p) for p in T.permutation),
        "flips " + " ".join("1" if f else "0" for f in T.flips),
    ]
    if sets:
        for letter in sorted(sets):
            body = " ".join(f"[{format_scalar(iv.lo)},{format_scalar(iv.hi)})"
                            for iv in sets[letter])
            lines.append(f"sets {letter}={body}")
    return "\n".join(lines) + "\n"
