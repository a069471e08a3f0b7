"""Finite-prefix combinatorics on words.

Everything here reports evidence about the analyzed prefix only; no
claim is made about the infinite word it was cut from.  Counts are
taken over full windows, so length-n counts sum to len(word) - n + 1.
"""
from __future__ import annotations

from collections import Counter

__all__ = [
    "FactorSet",
    "bispecial_factors",
    "complexity",
    "factors",
    "is_balanced",
    "recurrence_window",
    "special_factors",
    "sturmian_check",
]


class FactorSet:
    """Occurrence counts of all factors up to max_len of one word."""

    def __init__(self, word: str, max_len: int):
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        if max_len > len(word):
            raise ValueError(f"max_len {max_len} exceeds word length {len(word)}")
        self.word = word
        self.source_len = len(word)
        self.max_len = max_len
        self.alphabet = tuple(sorted(set(word)))
        self._counts: dict[int, Counter] = {}
        self._extensions: dict[int, dict] = {}

    def counts(self, n: int) -> Counter:
        """Length-n factors with their window counts, in order of first
        occurrence.

        The max_len windows are counted in one pass on first use; every
        lower level is rolled down from the level above it: a length-n
        factor occurs once for each occurrence of its one-letter right
        extensions, plus once more if it is the word's last length-n
        window.
        """
        if not 0 <= n <= self.max_len:
            raise ValueError(f"length {n} outside 0..{self.max_len}")
        got = self._counts.get(n)
        if got is None:
            w = self.word
            if not self._counts:
                top = self.max_len
                self._counts[top] = Counter(
                    w[i:i + top] for i in range(len(w) - top + 1))
            # the cached levels always run from some length up to max_len
            for m in range(min(self._counts) - 1, n - 1, -1):
                rolled = Counter()
                for g, c in self._counts[m + 1].items():
                    f = g[:-1]
                    rolled[f] = rolled.get(f, 0) + c
                last = w[len(w) - m:]
                rolled[last] = rolled.get(last, 0) + 1
                self._counts[m] = rolled
            got = self._counts[n]
        return got

    def extensions(self, n: int) -> dict:
        """Every length-n factor mapped to its (left, right) frozensets of
        one-letter extensions, read off the length-(n+1) factors."""
        got = self._extensions.get(n)
        if got is None:
            if not 0 <= n < self.max_len:
                raise ValueError(
                    f"extensions of length-{n} factors are not indexed")
            ext: dict[str, tuple[set, set]] = {}
            for f in self.counts(n + 1):
                ext.setdefault(f[1:], (set(), set()))[0].add(f[0])
                ext.setdefault(f[:-1], (set(), set()))[1].add(f[-1])
            got = {w: (frozenset(left), frozenset(right))
                   for w, (left, right) in ext.items()}
            self._extensions[n] = got
        return got

    def factors_of_length(self, n: int) -> list[str]:
        return sorted(self.counts(n))

    def __contains__(self, factor: str) -> bool:
        if len(factor) > self.max_len:
            raise ValueError(f"factor longer than the index ({self.max_len})")
        return factor in self.counts(len(factor))


def factors(word: str, max_len: int) -> FactorSet:
    return FactorSet(word, max_len)


def complexity(fs: FactorSet, n: int) -> int:
    return len(fs.counts(n))


def special_factors(fs: FactorSet, n: int, side: str):
    """Length-n factors with >= 2 extensions on the given side.

    Returns (factor, extensions, valence) triples sorted by factor.
    Extensions are read off the (n+1)-factor index, so n+1 must be
    within max_len.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")
    i = 0 if side == "left" else 1
    out = []
    for core, sides in sorted(fs.extensions(n).items()):
        letters = tuple(sorted(sides[i]))
        if len(letters) >= 2:
            out.append((core, letters, len(letters)))
    return out


def bispecial_factors(fs: FactorSet, n: int) -> list[str]:
    return sorted(w for w, (left, right) in fs.extensions(n).items()
                  if len(left) >= 2 and len(right) >= 2)


def is_balanced(fs: FactorSet, up_to: int, letter: str):
    """Letter counts of equal-length factors differ by at most 1."""
    if letter not in fs.alphabet:
        raise ValueError(f"letter {letter!r} not in alphabet {fs.alphabet}")
    if up_to > fs.max_len:
        raise ValueError(f"up_to {up_to} exceeds max_len {fs.max_len}")
    for n in range(1, up_to + 1):
        lo_f = hi_f = None
        lo = hi = 0
        for f in fs.counts(n):
            c = f.count(letter)
            if lo_f is None or c < lo:
                lo_f, lo = f, c
            if hi_f is None or c > hi:
                hi_f, hi = f, c
        if hi - lo > 1:
            return False, (hi_f, lo_f)
    return True, None


def sturmian_check(fs: FactorSet, up_to: int) -> str:
    """Verdict 'consistent' or 'violated-at-N' for T(n) = n+1."""
    if up_to > fs.max_len:
        raise ValueError(f"up_to {up_to} exceeds max_len {fs.max_len}")
    for n in range(1, up_to + 1):
        if complexity(fs, n) != n + 1:
            return f"violated-at-{n}"
    return "consistent"


def recurrence_window(word: str, k: int):
    """Smallest N such that every length-N window contains every
    length-k factor of the prefix; None when no N <= len(word)/2 works.
    """
    L = len(word)
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > L // 4:
        raise ValueError(f"k = {k} too large to observe on a length-{L} prefix")
    first: dict[str, int] = {}
    last: dict[str, int] = {}
    gap: dict[str, int] = {}
    for i in range(L - k + 1):
        f = word[i:i + k]
        if f in last:
            gap[f] = max(gap[f], i - last[f])
        else:
            first[f] = i
            gap[f] = 0
        last[f] = i
    need = k
    for f in first:
        need = max(need, first[f] + k, L - last[f], gap[f] + k - 1)
    return need if need <= L // 2 else None
