"""Rebuild a candidate exchange from an accepted word and check it.

Lengths come from letter frequencies (exact rationals), the interval
orders from the first order pair passing check_orders over the whole
index.  When no pair passes, as with flipped words, they come from the
same search's candidates, the pairs keeping every extension set
contiguous: the first irreducible one, else the first.  Flips are taken
where the accepted labeling carries minus marks.  The initial point is
pinned by walking the word's longest admissible prefix through the
candidate's cylinder tree and taking a midpoint.

Nothing irrational survives a finite sample, so the candidate is
rational by construction and judged by how far its exact cylinder
measures sit from the empirical ones (residual) and how long its
regenerated coding tracks the input (verify_roundtrip).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, takewhile

from .exact import rational
from .iet import (
    CodingConfig,
    IETSpec,
    build_iet,
    cylinder_lengths,
    longest_cylinder,
    natural_coding,
)
from .orders import candidate_pairs, order_pairs
from .rauzy import EvolutionReport
from .words import FactorSet

__all__ = ["EmpiricalMeasure", "cylinder_measures", "reconstruct_iet",
           "verify_roundtrip"]


@dataclass(frozen=True)
class EmpiricalMeasure:
    depth: int
    weights: dict  # factor -> Fraction, all lengths 1..depth

    def level(self, n: int) -> dict:
        return {w: f for w, f in self.weights.items() if len(w) == n}


def cylinder_measures(fs: FactorSet, depth: int) -> EmpiricalMeasure:
    """Sliding-window factor frequencies, exact over the indexed word."""
    if depth < 1:
        raise ValueError("depth must be positive")
    if fs.source_len < 100 * depth:
        raise ValueError(
            f"need at least {100 * depth} symbols for depth {depth}, "
            f"got {fs.source_len}")
    weights = {}
    for n in range(1, depth + 1):
        windows = fs.source_len - n + 1
        for w, c in fs.counts(n).items():
            weights[w] = Fraction(c, windows)
    return EmpiricalMeasure(depth, weights)


def reconstruct_iet(fs: FactorSet, report: EvolutionReport, depth: int):
    """Candidate exchange, its measure residual and its letters.

    The letters are the word's, as a string in the candidate's domain
    order: interval i of the candidate carries letter i of the string.
    """
    if not report.accepted:
        raise ValueError("reconstruction needs an accepted validator report")
    em = cylinder_measures(fs, depth)
    max_len = fs.max_len - 2
    pair = next(order_pairs(fs, max_len), None)
    if pair is None:
        # no pair passes, as with flipped words: the first irreducible
        # candidate, else the first
        candidates = candidate_pairs(fs, max_len)
        first = next(candidates, None)
        if first is None:
            raise ValueError("no letter order keeps every extension set contiguous")
        pair = next((p for p in chain([first], candidates)
                     if p.separation() is None), first)
    dom, img = pair.pi0, pair.pi1
    perm = [dom.index(c) + 1 for c in img]
    marked_letters = {w[0] for ms in (report.marks or {}).values() for w in ms}
    flips = [c in marked_letters for c in dom]
    lengths = [rational(em.weights[c].numerator, em.weights[c].denominator)
               for c in dom]
    T = build_iet(lengths, perm, flips)
    residual = _measure_residual(T, em, dom)
    return T, residual, "".join(dom)


def _as_fraction(x) -> Fraction:
    if x.coef:
        raise ValueError("expected a rational scalar")
    return x.rat


def _measure_residual(T: IETSpec, em: EmpiricalMeasure, dom) -> Fraction:
    cand = cylinder_lengths(T, CodingConfig.natural(T, "".join(dom)), em.depth)
    worst = Fraction(0)
    for n in range(1, em.depth + 1):
        emp = em.level(n)
        level = {w: _as_fraction(x) for w, x in cand.items() if len(w) == n}
        diff = Fraction(0)
        for w in set(emp) | set(level):
            diff += abs(emp.get(w, Fraction(0)) - level.get(w, Fraction(0)))
        worst = max(worst, diff / 2)
    return worst


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
