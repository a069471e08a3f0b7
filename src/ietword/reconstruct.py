"""Rebuild a candidate exchange from an accepted word and check it.

Lengths come from letter frequencies (exact rationals), the interval
orders from the first order pair passing check_orders over the whole
index.  When no pair passes, as with flipped words, they come from
adjacency constraints read off special factors: a right-special
factor's two extensions are the two intervals meeting at a domain
discontinuity, so they must sit side by side; left-special factors
force the same in the image.  Flips are taken where the
accepted labeling carries minus marks.  The initial point is pinned by
walking the word's longest admissible prefix through the candidate's
cylinder tree and taking a midpoint.

Nothing irrational survives a finite sample, so the candidate is
rational by construction and judged by how far its exact cylinder
measures sit from the empirical ones (residual) and how long its
regenerated coding tracks the input (verify_roundtrip).
"""
from __future__ import annotations

from dataclasses import dataclass
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
from .orders import OrderPair, interval_orders, order_pairs
from .rauzy import EvolutionReport
from .words import FactorSet

__all__ = ["AdjacencyError", "EmpiricalMeasure", "cylinder_measures",
           "reconstruct_iet", "verify_roundtrip"]


class AdjacencyError(ValueError):
    """No letter order makes every constrained pair adjacent."""

    def __init__(self, side: str, pairs):
        self.side = side
        self.pairs = frozenset(pairs)
        listing = ", ".join(sorted("{%s}" % ",".join(sorted(p)) for p in pairs))
        super().__init__(f"no {side} order keeps {listing} adjacent")


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


def _special_factor_orders(fs: FactorSet, depth: int):
    """Domain and image orders keeping every special factor's pair adjacent.

    The domain order is the first such order; the image order is the
    first one giving an irreducible permutation, else the first.
    """
    dom_pairs = set()
    img_pairs = set()
    for n in range(1, depth):
        for left, right in fs.extensions(n).values():
            if len(right) == 2:
                dom_pairs.add(right)
            if len(left) == 2:
                img_pairs.add(left)
    dom = next(interval_orders(fs.alphabet, dom_pairs), None)
    if dom is None:
        raise AdjacencyError("domain", dom_pairs)
    first = None
    for img in interval_orders(fs.alphabet, img_pairs):
        if OrderPair(dom, img).separation() is None:
            return dom, img
        if first is None:
            first = img
    if first is None:
        raise AdjacencyError("image", img_pairs)
    return dom, first


def reconstruct_iet(fs: FactorSet, report: EvolutionReport, depth: int):
    """Candidate exchange, its measure residual and its letters.

    The letters are the word's, as a string in the candidate's domain
    order: interval i of the candidate carries letter i of the string.
    """
    if not report.accepted:
        raise ValueError("reconstruction needs an accepted validator report")
    em = cylinder_measures(fs, depth)
    k = len(fs.alphabet)
    if k > 6:
        raise ValueError(f"alphabet of size {k} is too large")
    # an index of max_len 1 checks letters and separation only, which
    # picks what the adjacency fallback would: no special factor is indexed
    pair = next(order_pairs(fs, fs.max_len - 2), None)
    if pair is not None:
        dom, img = pair.pi0, pair.pi1
    else:
        dom, img = _special_factor_orders(fs, depth)
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
