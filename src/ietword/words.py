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
    "special_factors",
]


class FactorSet:
    """Occurrence counts of all factors up to max_len of one word."""

    def __init__(self, word: str, max_len: int):
        if max_len < 1:
            raise ValueError("max_len must be >= 1")
        if max_len > len(word):
            raise ValueError(f"max_len {max_len} exceeds word length {len(word)}")
        self.word = word
        self.max_len = max_len
        self._alphabet: tuple[str, ...] | None = None
        self._counts: dict[int, Counter] = {}
        self._extensions: dict[int, dict] = {}
        self._specials: dict[int, list] = {}

    @property
    def alphabet(self) -> tuple[str, ...]:
        """The word's letters, sorted; read off the distinct blocks of the
        last level the top-level count cut."""
        if self._alphabet is None:
            self.counts(self.max_len)
        return self._alphabet

    def counts(self, n: int) -> Counter:
        """Length-n factors with their window counts, in order of first
        occurrence.

        The max_len level is counted once, on first use, by halving
        blocks (`_halvings`): the word's stride-B blocks are counted,
        then each distinct block is cut into its two half-stride blocks,
        weighted by its count, down to stride 1, where the blocks are the
        windows.  A word of complexity (k-1)n+1 has about (k-1)(s+max_len)
        distinct stride-s blocks, so each level cuts a few hundred blocks
        instead of slicing every window.  B, the least power of two with
        16 B^2 >= W, the window count (256 at 10^6 windows), balances the
        W/B block slices against the roughly 4(k-1)B slices of the
        halvings.  A word of high complexity repeats no blocks, and their
        halves outnumber them: once a halving leaves more than 1.5 times
        as many distinct blocks as it cut, the windows of those blocks
        are counted directly, weighted by each block's count.  Every
        window start lies in exactly one block of each level, so the
        counts are exact, and the keys keep their first-occurrence order,
        since a block first occurs inside the first occurrence of the
        block it was cut from.

        Every lower level is rolled down from the level above it: a
        length-n factor occurs once for each occurrence of its one-letter
        right extensions, plus once more if it is the word's last
        length-n window.
        """
        if not 0 <= n <= self.max_len:
            raise ValueError(f"length {n} outside 0..{self.max_len}")
        got = self._counts.get(n)
        if got is None:
            w = self.word
            if not self._counts:
                self._count_top()
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

    def _count_top(self) -> None:
        top = self.max_len
        before = float("inf")
        for stride, blocks in _halvings(self.word, top):
            if 2 * len(blocks) > 3 * before:
                break
            before = len(blocks)
        counted = blocks
        if stride > 1:
            counted = Counter()
            for block, c in blocks.items():
                own = (block[o:o + top] for o in range(len(block) - top + 1))
                if c == 1:
                    # Counter.update counts in C; it keeps a word of high
                    # complexity, whose blocks are nearly all distinct, as
                    # fast as counting every window
                    counted.update(own)
                else:
                    for f in own:
                        counted[f] = counted.get(f, 0) + c
        self._counts[top] = counted
        self._alphabet = tuple(sorted(set().union(*blocks)))

    def extensions(self, n: int) -> dict:
        """Every length-n factor mapped to its (left, right) frozensets of
        one-letter extensions, read off the length-(n+1) factors.

        Like the counts, the levels are rolled down: level max_len - 1
        from the keys of the max_len count, every lower level from the
        keys of the level above it.  The (n+1)-factors are distinct, so
        each (factor, letter) pair turns up once: one pass gathers the
        letters on each side of each n-factor as a string, and each
        distinct string becomes one frozenset, shared by every factor
        with those letters.  Every n-factor ends some (n+1)-factor and
        starts one, except that the word's first n-window may have no
        left extension and its last n-window no right one.
        """
        if not 0 <= n < self.max_len:
            raise ValueError(f"extensions of length-{n} factors are not indexed")
        got = self._extensions.get(n)
        if got is None:
            w = self.word
            # the cached levels always run from some length up to max_len - 1
            for m in range(min(self._extensions, default=self.max_len) - 1,
                           n - 1, -1):
                longer = (self._extensions[m + 1] if m + 1 < self.max_len
                          else self.counts(m + 1))
                lefts, rights = {w[:m]: ""}, {}
                for f in longer:
                    tail, head = f[1:], f[:-1]
                    lefts[tail] = lefts.get(tail, "") + f[0]
                    rights[head] = rights.get(head, "") + f[-1]
                rights.setdefault(w[len(w) - m:], "")
                shared = {s: frozenset(s)
                          for s in {*lefts.values(), *rights.values()}}
                self._extensions[m] = {
                    v: (shared[lefts[v]], shared[s]) for v, s in rights.items()}
            got = self._extensions[n]
        return got

    def specials(self, n: int) -> list:
        """The length-n factors with two or more extensions on a side, as
        sorted (factor, (left, right)) pairs, built once per level.  Only
        these can carry a crotch or break an interval condition."""
        got = self._specials.get(n)
        if got is None:
            got = self._specials[n] = sorted(
                (v, sides) for v, sides in self.extensions(n).items()
                if len(sides[0]) > 1 or len(sides[1]) > 1)
        return got

    def __contains__(self, factor: str) -> bool:
        if len(factor) > self.max_len:
            raise ValueError(f"factor longer than the index ({self.max_len})")
        return factor in self.counts(len(factor))


def _halvings(word: str, top: int):
    """Yield (stride, blocks) from the top stride down to stride 1.

    A stride-s block is the slice word[i:i+s+top-1] at a multiple i of
    s: it holds the length-top windows that start at i..i+s-1.  The top
    stride is the least power of two B with 16 B^2 >= W, the window
    count, and its blocks are counted off the word.  Each lower level
    cuts every distinct block of the level above into its two halves,
    each weighted by the block's count; a half too short for a window
    (of the word's last block) is dropped.  Each level's keys are in
    order of first occurrence."""
    windows = len(word) - top + 1
    stride = 1
    while 16 * stride * stride < windows:
        stride *= 2
    blocks = Counter(word[i:i + stride + top - 1]
                     for i in range(0, windows, stride))
    yield stride, blocks
    while stride > 1:
        stride //= 2
        keep = stride + top - 1
        halves = Counter()
        for block, c in blocks.items():
            head, tail = block[:keep], block[stride:]
            halves[head] = halves.get(head, 0) + c
            if len(tail) >= top:
                halves[tail] = halves.get(tail, 0) + c
        blocks = halves
        yield stride, blocks


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
    for core, sides in fs.specials(n):
        letters = tuple(sorted(sides[i]))
        if len(letters) >= 2:
            out.append((core, letters, len(letters)))
    return out


def bispecial_factors(fs: FactorSet, n: int) -> list[str]:
    return [w for w, (left, right) in fs.specials(n)
            if len(left) >= 2 and len(right) >= 2]

