"""Output checks, against answers that do not come from the program.

Every executed operation yields an Outcome:

* failed   - it raised, exited with a usage error, wrote output that does
             not parse, or its exit code contradicts its own output;
* mismatch - its output is well formed but disagrees with the known
             answer (for `hard` answers that also makes the run incorrect).

Run this file to self-test the checker: corrupted verdict lines, wrong
fz counts and raised exceptions must each be caught.
"""
from __future__ import annotations

import re
import sys
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction

ROUNDTRIP = 500   # reconstruct's default --roundtrip, the letters it attempts


@dataclass
class Outcome:
    failed: bool = False
    mismatch: bool = False
    note: str = ""
    matched: int = 0      # roundtrip letters, reconstruct only
    attempted: int = 0


def fail(note: str) -> Outcome:
    return Outcome(failed=True, note=note)


def verdict(ok: bool, note: str) -> Outcome:
    return Outcome(mismatch=not ok, note="" if ok else note)


def timed(call):
    """(call's result, its seconds, speed factor 1): untouched timing."""
    t0 = time.perf_counter()
    result = call()
    return result, time.perf_counter() - t0, 1.0


def execute(call, check, measure=timed):
    """Run call() under `measure` and check its result; an exception from
    either is a failed operation. Returns (seconds, speed, outcome)."""
    def guarded():
        try:
            return True, call()
        except Exception:
            return False, traceback.format_exc(limit=-1).strip()

    (ok, result), seconds, speed = measure(guarded)
    if not ok:
        return seconds, speed, fail("raised " + result)
    try:
        return seconds, speed, check(result)
    except Exception:
        return seconds, speed, fail("unreadable output " +
                                    traceback.format_exc(limit=-1).strip())


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


# ------------------------------------------------------------------ CLI

def check_gen(rc: int, output: str | None, expected: str) -> Outcome:
    if rc != 0 or output is None:
        return fail(f"gen exited {rc}")
    if output != expected:
        at = next((i for i, (a, b) in enumerate(zip(output, expected)) if a != b),
                  min(len(output), len(expected)))
        return verdict(False, f"coding differs from the exact orbit at letter {at}")
    return Outcome()


_VERDICT = re.compile(r"^verdict=(accepted|accepted-from-K|rejected);"
                      r"K=(\d+|none);witness=(.+)$")


def check_validate(rc: int, text: str | None, expect) -> Outcome:
    m = _VERDICT.match(_last_line(text or ""))
    if m is None:
        return fail("no verdict line")
    v, K, witness = m.groups()
    accepted = v != "rejected"
    if accepted != (K != "none") or accepted != (witness == "none"):
        return fail(f"verdict line contradicts itself: {m.group(0)}")
    if rc != (0 if accepted else 1):
        return fail(f"exit code {rc} for verdict {v}")
    marked = any(line.startswith("minus marks on:") for line in text.splitlines())
    if expect is None:
        return Outcome()
    if expect == "accepted":
        return verdict(accepted, f"{v}, expected accepted")
    if expect == "accepted-marked":
        return verdict(accepted and marked,
                       f"{v}{' with' if marked else ' without'} marks, "
                       "expected accepted with marks")
    if expect in ("rejected", "not-accepted"):
        return verdict(not accepted, f"{v} (K={K}), expected rejected")
    kind = expect.split(":", 1)[1]
    return verdict(not accepted and witness.startswith(kind + " at k="),
                   f"{v} witness '{witness}', expected {kind}")


_PAIR = re.compile(r"^pi0=(\w+);pi1=(\w+)$")
_SEARCH = re.compile(r"^result=(found|none);count=(\d+)$")
_ORDERS = re.compile(r"^result=(pass|fail);condition=(\S+);witness=(.+)$")


def check_fz(rc: int, text: str | None, expect) -> Outcome:
    lines = (text or "").strip().splitlines()
    if not lines:
        return fail("no fz output")
    m = _ORDERS.match(lines[-1])
    if m is not None:
        passed = m.group(1) == "pass"
        if rc != (0 if passed else 1):
            return fail(f"exit code {rc} for result {m.group(1)}")
        if expect is None:
            return Outcome()
        return verdict(passed == (expect == "pass"),
                       f"true orders {m.group(1)}: condition {m.group(2)}")
    m = _SEARCH.match(lines[-1])
    if m is None:
        return fail("no result line")
    pairs = []
    for line in lines[:-1]:
        pm = _PAIR.match(line)
        if pm is None:
            return fail(f"bad pair line {line!r}")
        pairs.append(pm.groups())
    count = int(m.group(2))
    if count != len(pairs) or (m.group(1) == "found") != bool(pairs):
        return fail(f"{lines[-1]} with {len(pairs)} pairs listed")
    if rc != (0 if pairs else 1):
        return fail(f"exit code {rc} for {count} pairs")
    if expect is None:
        return Outcome()
    if expect == "none":
        return verdict(not pairs, f"{count} order pairs on a non-coding")
    want = tuple(expect.split(":", 1)[1].split(","))
    return verdict(want in pairs, f"true pair {want} not among {count} found")


def mirror(perm, flips):
    """The same exchange read right to left: x -> 1 - x."""
    k = len(perm)
    return ([k + 1 - perm[k - 1 - j] for j in range(k)], list(reversed(flips)))


def check_reconstruct(rc: int, stdout: str, config: str | None,
                      report: str | None, expect) -> Outcome:
    if rc == 1:
        if not _last_line(stdout).startswith("verdict=rejected;"):
            return fail("exit 1 without a rejected verdict line")
        out = verdict(False, "rejected a genuine coding")
        out.attempted = ROUNDTRIP
        return out
    if rc != 0 or config is None or report is None:
        return fail(f"reconstruct exited {rc}")
    fields = dict(line.split(" ", 1) for line in config.strip().splitlines())
    perm = [int(t) for t in fields["perm"].split()]
    flips = [t == "1" for t in fields["flips"].split()]
    rows = dict(line.split(",", 1) for line in report.strip().splitlines())
    match, total = int(rows["match_length"]), int(rows["total"])
    if not 0 <= match <= total or len(perm) != int(fields["k"]):
        return fail(f"inconsistent report: match {match} of {total}")
    want = (list(expect["perm"]), list(expect["flips"]))
    out = verdict((perm, flips) in (want, mirror(*want)),
                  f"candidate perm {perm} flips {flips}, true {want[0]} {want[1]}")
    out.matched, out.attempted = match, total
    return out


# -------------------------------------------------------------- library

def check_regularity(collided: bool, expect: bool) -> Outcome:
    return verdict(collided is expect,
                   f"collided={collided}, independent orbit check says {expect}")


def check_essential(words, n: int, alphabet: str, natural: str | None) -> Outcome:
    words = set(words)
    if not 1 <= len(words) <= 2 or any(
            len(w) != n or set(w) - set(alphabet) for w in words):
        return fail(f"{len(words)} codings, not one or two of length {n}")
    if natural is None:
        return Outcome()
    return verdict(natural in words, "natural coding missing from essential codings")


def check_tiling(level_sums) -> Outcome:
    """level_sums[n-1] = (rat, coef) total cylinder length at depth n."""
    bad = [n + 1 for n, s in enumerate(level_sums) if s != (1, 0)]
    return verdict(not bad, f"cylinders at depth {bad} do not sum to exactly one")


def check_pointmap(images, expected) -> Outcome:
    """images: (apply(x), apply_inverse(apply(x))); expected: (T(x), x)."""
    wrong = sum(got != want for got, want in zip(images, expected))
    if len(images) != len(expected):
        return fail("point count changed")
    return verdict(not wrong, f"{wrong} of {len(expected)} points map wrongly")


# ------------------------------------------------------------ self-test

_GOOD_VALIDATE = ("verdict: accepted\nconsistent labeling found from level K=1\n"
                  "verdict=accepted;K=1;witness=none\n")
_GOOD_SEARCH = "pi0=123;pi1=321\npi0=321;pi1=123\nresult=found;count=2\n"


def selftest() -> list[str]:
    """Problems found in the checker itself; empty when it is sound."""
    cases = [
        ("good validate passes", check_validate(0, _GOOD_VALIDATE, "accepted"),
         "ok"),
        ("corrupted verdict line fails",
         check_validate(0, _GOOD_VALIDATE.replace("accepted;", "acepted;"),
                        "accepted"), "failed"),
        ("missing verdict line fails",
         check_validate(0, "verdict: accepted\n", "accepted"), "failed"),
        ("exit code contradicting the verdict fails",
         check_validate(1, _GOOD_VALIDATE, "accepted"), "failed"),
        ("wrong verdict is a mismatch",
         check_validate(0, _GOOD_VALIDATE, "rejected"), "mismatch"),
        ("wrong witness kind is a mismatch",
         check_validate(1, "verdict=rejected;K=none;witness=valence at k=1: a\n",
                        "rejected:strong-bispecial"), "mismatch"),
        ("good fz search passes",
         check_fz(0, _GOOD_SEARCH, "includes:123,321"), "ok"),
        ("wrong fz count fails",
         check_fz(0, _GOOD_SEARCH.replace("count=2", "count=3"), None), "failed"),
        ("missing true pair is a mismatch",
         check_fz(0, _GOOD_SEARCH, "includes:123,312"), "mismatch"),
        ("orders on a non-coding are a mismatch",
         check_fz(0, _GOOD_SEARCH, "none"), "mismatch"),
        ("raised exception fails",
         execute(lambda: 1 // 0, lambda r: Outcome())[2], "failed"),
        ("unreadable output fails",
         execute(lambda: "", lambda r: check_reconstruct(
             0, r, "k 3\n", "total,1\n", {"perm": [3, 2, 1], "flips": [0] * 3}))[2],
         "failed"),
        ("mirrored candidate passes",
         check_reconstruct(0, "", "k 3\nperm 1 3 2\nflips 0 0 0\n",
                           "match_length,500\ntotal,500\n",
                           {"perm": [2, 1, 3], "flips": [False] * 3}), "ok"),
        ("wrong candidate is a mismatch",
         check_reconstruct(0, "", "k 3\nperm 2 3 1\nflips 0 0 0\n",
                           "match_length,1\ntotal,500\n",
                           {"perm": [3, 2, 1], "flips": [False] * 3}), "mismatch"),
        ("tiling short of one is a mismatch",
         check_tiling([(Fraction(1), 0), (Fraction(2, 3), 0)]), "mismatch"),
    ]
    problems = []
    for name, out, want in cases:
        got = "failed" if out.failed else "mismatch" if out.mismatch else "ok"
        if got != want:
            problems.append(f"{name}: got {got} ({out.note})")
    return problems


if __name__ == "__main__":
    found = selftest()
    for p in found:
        print("checker self-test:", p, file=sys.stderr)
    print("checker self-test:", "FAILED" if found else "ok")
    sys.exit(1 if found else 0)
