"""Rebuild a candidate exchange from an accepted word and check it.

Lengths come from letter frequencies (exact rationals), the interval
orders from the order search over the whole index: the first candidate
pair, of the orders keeping every extension set contiguous, that passes
check_orders.  When none passes, as with flipped words, the same order
lists give the first irreducible candidate, else the first.  Flips are
taken where the accepted labeling carries minus marks.  The initial
point is pinned by walking the word's longest admissible prefix through
the candidate's cylinder tree and taking a midpoint.

Nothing irrational survives a finite sample, so the candidate is
rational by construction and judged by how far its exact cylinder
measures sit from the empirical ones (residual) and how long its
regenerated coding tracks the input (verify_roundtrip).
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import takewhile

from .exact import rational
from .iet import (
    CodingConfig,
    IETSpec,
    build_iet,
    cylinder_lengths,
    longest_cylinder,
    natural_coding,
)
from .orders import OrderPair, candidate_orders, passing_pairs
from .rauzy import EvolutionReport
from .words import FactorSet

__all__ = ["SYMBOLS_PER_LEVEL", "cylinder_measures", "reconstruct_iet", "verify_roundtrip"]

# the word length a reconstruction needs per level of cylinder measures
SYMBOLS_PER_LEVEL = 100


def cylinder_measures(fs: FactorSet, depth: int) -> dict:
    """Sliding-window factor frequencies, exact over the indexed word:
    {factor: Fraction} for every factor of length 1..depth."""
    _check_depth(fs, depth)
    size = len(fs.word)
    weights = {}
    for n in range(1, depth + 1):
        windows = size - n + 1
        for w, c in fs.counts(n).items():
            weights[w] = Fraction(c, windows)
    return weights


def _check_depth(fs: FactorSet, depth: int) -> None:
    if depth < 1:
        raise ValueError("depth must be positive")
    size = len(fs.word)
    if size < SYMBOLS_PER_LEVEL * depth:
        raise ValueError(f"need at least {SYMBOLS_PER_LEVEL * depth} symbols "
                         f"for depth {depth}, got {size}")


def reconstruct_iet(fs: FactorSet, report: EvolutionReport, depth: int):
    """Candidate exchange, its measure residual and its letters.

    The letters are the word's, as a string in the candidate's domain
    order: interval i of the candidate carries letter i of the string.
    """
    if not report.accepted:
        raise ValueError("reconstruction needs an accepted validator report")
    _check_depth(fs, depth)
    max_len = fs.max_len - 2
    pi0s, pi1s = candidate_orders(fs, max_len)
    pair = next(passing_pairs(fs, max_len, pi0s, pi1s), None)
    if pair is None:
        # no pair passes, as with flipped words: the first irreducible
        # candidate, else the first
        if not (pi0s and pi1s):
            raise ValueError("no letter order keeps every extension set contiguous")
        candidates = (OrderPair(p0, p1) for p0 in pi0s for p1 in pi1s)
        pair = next((p for p in candidates if p.separation() is None),
                    OrderPair(pi0s[0], pi1s[0]))
    dom, img = pair.pi0, pair.pi1
    perm = [dom.index(c) + 1 for c in img]
    marked_letters = {w[0] for ms in (report.marks or {}).values() for w in ms}
    flips = [c in marked_letters for c in dom]
    letter_counts = fs.counts(1)
    lengths = [rational(letter_counts[c], len(fs.word)) for c in dom]
    T = build_iet(lengths, perm, flips)
    letters = "".join(dom)
    return T, _measure_residual(T, fs, depth, letters), letters


def _measure_residual(T: IETSpec, fs: FactorSet, depth: int, letters: str) -> Fraction:
    """The largest total-variation distance, over lengths 1..depth,
    between the empirical measures and the candidate's cylinder lengths,
    which are rational because its interval lengths are.

    A length-n factor w with c_w of the W_n = len(word) - n + 1 windows
    has measure c_w / W_n.  Over one denominator D, a multiple of
    len(word) and of every cylinder length's den, a cylinder length is
    s_w / D, and level n's distance is sum |c_w*D - s_w*W_n| / (W_n*D)
    over its factors and nonempty cylinders: integer sums, and one
    Fraction per level."""
    cand = cylinder_lengths(T, CodingConfig.natural(T, letters), depth)
    size = len(fs.word)
    D = math.lcm(size, *{x.den for x in cand.values()})
    counts = [None, *(fs.counts(n) for n in range(1, depth + 1))]
    diff = [0] * (depth + 1)
    for w, x in cand.items():
        n = len(w)
        diff[n] += abs(counts[n].get(w, 0) * D - x.num * (D // x.den) * (size - n + 1))
    for n in range(1, depth + 1):
        diff[n] += D * sum(c for w, c in counts[n].items() if w not in cand)
    return max(Fraction(diff[n], (size - n + 1) * D)
               for n in range(1, depth + 1)) / 2


def verify_roundtrip(word: str, candidate: IETSpec, n: int, letters: str):
    """Regenerate a coding from the candidate and compare it with word.

    letters names the candidate's intervals in domain order, as
    reconstruct_iet returns them.  Returns (match, n, prefix_depth, x0):
    the longest common prefix, the number of letters compared, how deep
    word[:n] walks into the candidate's cylinder tree, and the midpoint
    of that cylinder's widest interval, where the regenerated orbit
    starts.
    """
    if not 1 <= n <= len(word):
        raise ValueError(f"asked for {n} symbols, word has {len(word)}")
    config = CodingConfig.natural(candidate, letters)
    # the walk stops at the first letter the candidate has no interval for
    prefix = "".join(takewhile(config.sets.__contains__, word[:n]))
    depth, intervals = longest_cylinder(candidate, config, prefix)
    if not depth:
        raise ValueError("empty cylinder: candidate rejects the first letter")
    # max keeps the first of equally wide intervals
    widest = max(intervals, key=lambda iv: iv.length)
    x0 = widest.lo + widest.length * Fraction(1, 2)
    regen = natural_coding(candidate, x0, n, letters)
    match = 0
    for c_in, c_out in zip(word[:n], regen):
        if c_in != c_out:
            break
        match += 1
    return match, n, depth, x0
