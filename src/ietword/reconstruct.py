"""Rebuild a candidate exchange from an accepted word and check it.

Lengths come from letter frequencies (exact rationals), the interval
orders from one walk over the candidate pairs of the order search, the
pairs keeping every extension set contiguous: the first passing
check_orders over the whole index.  When none passes, as with flipped
words, the walk has kept the first irreducible candidate and the first
one, and takes the former, else the latter.  Flips are taken where the
accepted labeling carries minus marks.  The initial point is pinned by
walking the word's longest admissible prefix through the candidate's
cylinder tree and taking a midpoint.

Nothing irrational survives a finite sample, so the candidate is
rational by construction and judged by how far its exact cylinder
measures sit from the empirical ones (residual) and how long its
regenerated coding tracks the input (verify_roundtrip).
"""
from __future__ import annotations

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
from .orders import candidate_pairs, check_orders
from .rauzy import EvolutionReport
from .words import FactorSet

__all__ = ["cylinder_measures", "reconstruct_iet", "verify_roundtrip"]


def cylinder_measures(fs: FactorSet, depth: int) -> dict:
    """Sliding-window factor frequencies, exact over the indexed word:
    {factor: Fraction} for every factor of length 1..depth."""
    if depth < 1:
        raise ValueError("depth must be positive")
    size = len(fs.word)
    if size < 100 * depth:
        raise ValueError(
            f"need at least {100 * depth} symbols for depth {depth}, got {size}")
    weights = {}
    for n in range(1, depth + 1):
        windows = size - n + 1
        for w, c in fs.counts(n).items():
            weights[w] = Fraction(c, windows)
    return weights


def reconstruct_iet(fs: FactorSet, report: EvolutionReport, depth: int):
    """Candidate exchange, its measure residual and its letters.

    The letters are the word's, as a string in the candidate's domain
    order: interval i of the candidate carries letter i of the string.
    """
    if not report.accepted:
        raise ValueError("reconstruction needs an accepted validator report")
    weights = cylinder_measures(fs, depth)
    max_len = fs.max_len - 2
    first = irreducible = None
    for pair in candidate_pairs(fs, max_len):
        if check_orders(fs, pair, max_len).passed:
            break
        if first is None:
            first = pair
        if irreducible is None and pair.separation() is None:
            irreducible = pair
    else:
        # no pair passes, as with flipped words: the first irreducible
        # candidate, else the first
        pair = irreducible or first
        if pair is None:
            raise ValueError("no letter order keeps every extension set contiguous")
    dom, img = pair.pi0, pair.pi1
    perm = [dom.index(c) + 1 for c in img]
    marked_letters = {w[0] for ms in (report.marks or {}).values() for w in ms}
    flips = [c in marked_letters for c in dom]
    lengths = [rational(weights[c].numerator, weights[c].denominator)
               for c in dom]
    T = build_iet(lengths, perm, flips)
    residual = _measure_residual(T, weights, depth, dom)
    return T, residual, "".join(dom)


def _measure_residual(T: IETSpec, weights: dict, depth: int, dom) -> Fraction:
    """The largest total-variation distance, over lengths 1..depth,
    between the empirical measures and the candidate's cylinder lengths,
    which are rational because its interval lengths are."""
    cand = cylinder_lengths(T, CodingConfig.natural(T, "".join(dom)), depth)
    diff = [Fraction(0)] * depth
    for w in weights.keys() | cand.keys():
        got = cand[w].rat if w in cand else 0
        diff[len(w) - 1] += abs(weights.get(w, 0) - got)
    return max(diff) / 2


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
