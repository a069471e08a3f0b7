"""Rebuild a candidate exchange from an accepted word and check it.

Lengths come from letter frequencies (exact rationals), the interval
order from adjacency constraints read off special factors: a
right-special factor's two extensions are the two intervals meeting at
a domain discontinuity, so they must sit side by side; left-special
factors force the same in the image.  Flips are taken where the
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
from itertools import permutations

from .exact import Interval, ZERO, ONE, rational
from .iet import (
    CodingConfig,
    IETSpec,
    _advance_pieces,
    _merge_intervals,
    _piece_source,
    _restrict_pieces,
    build_iet,
    natural_coding,
)
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


def _adjacent_orders(letters, pairs):
    """Orders of letters keeping each pair adjacent, lexicographically."""
    for cand in permutations(letters):
        if all(abs(cand.index(a) - cand.index(b)) == 1 for a, b in pairs):
            yield cand


def _irreducible(perm) -> bool:
    return all(set(perm[:j]) != set(range(1, j + 1)) for j in range(1, len(perm)))


def reconstruct_iet(fs: FactorSet, report: EvolutionReport, depth: int):
    """Candidate exchange and its measure residual, from an accepted word."""
    if not report.accepted:
        raise ValueError("reconstruction needs an accepted validator report")
    em = cylinder_measures(fs, depth)
    letters = fs.alphabet
    k = len(letters)
    if k > 6:
        raise ValueError(f"alphabet of size {k} is too large")
    dom_pairs = set()
    img_pairs = set()
    for n in range(1, depth):
        for left, right in fs.extensions(n).values():
            if len(right) == 2:
                dom_pairs.add(right)
            if len(left) == 2:
                img_pairs.add(left)
    dom = next(_adjacent_orders(letters, dom_pairs), None)
    if dom is None:
        raise AdjacencyError("domain", dom_pairs)
    perms = [[dom.index(c) + 1 for c in img]
             for img in _adjacent_orders(letters, img_pairs)]
    if not perms:
        raise AdjacencyError("image", img_pairs)
    perm = next((p for p in perms if _irreducible(p)), perms[0])
    marked_letters = {w[0] for ms in (report.marks or {}).values() for w in ms}
    flips = [c in marked_letters for c in dom]
    lengths = [rational(em.weights[c].numerator, em.weights[c].denominator)
               for c in dom]
    T = build_iet(lengths, perm, flips)
    residual = _measure_residual(T, em, dom)
    return T, residual


def _as_fraction(x) -> Fraction:
    if x.coef:
        raise ValueError("expected a rational scalar")
    return x.rat


def _candidate_levels(T: IETSpec, depth: int, dom):
    """Exact cylinder measures of the candidate, keyed by word letters."""
    config = CodingConfig.natural(T)
    levels = {}
    state = [("", [(Interval(ZERO, ONE), 1, ZERO)])]
    for n in range(1, depth + 1):
        out = {}
        nxt = []
        for w, pieces in state:
            for i in range(1, T.k + 1):
                hit = _restrict_pieces(config, str(i), pieces)
                if not hit:
                    continue
                total = Fraction(0)
                for img, _, _ in hit:
                    total += _as_fraction(img.hi - img.lo)
                label = w + dom[i - 1]
                out[label] = total
                nxt.append((label, _advance_pieces(T, hit)))
        levels[n] = out
        state = nxt
    return levels


def _measure_residual(T: IETSpec, em: EmpiricalMeasure, dom) -> Fraction:
    cand = _candidate_levels(T, em.depth, dom)
    worst = Fraction(0)
    for n in range(1, em.depth + 1):
        emp = em.level(n)
        diff = Fraction(0)
        for w in set(emp) | set(cand[n]):
            diff += abs(emp.get(w, Fraction(0)) - cand[n].get(w, Fraction(0)))
        worst = max(worst, diff / 2)
    return worst


def verify_roundtrip(word: str, candidate: IETSpec, n: int):
    """Regenerate a coding from the candidate and compare it with word.

    Returns (match, n, prefix_depth, x0): the longest common prefix,
    the number of letters compared, how deep word[:n] walks into the
    candidate's cylinder tree, and the midpoint of that cylinder's
    widest interval, where the regenerated orbit starts.
    """
    if not 1 <= n <= len(word):
        raise ValueError(f"asked for {n} symbols, word has {len(word)}")
    letters = sorted(set(word))
    to_candidate = {c: str(i + 1) for i, c in enumerate(letters)}
    from_candidate = {v: c for c, v in to_candidate.items()}
    config = CodingConfig.natural(candidate)
    pieces = [(Interval(ZERO, ONE), 1, ZERO)]
    depth = 0
    best = None
    for c in word[:n]:
        letter = to_candidate[c]
        if letter not in config.sets:
            break
        hit = _restrict_pieces(config, letter, pieces)
        if not hit:
            break
        depth += 1
        best = hit
        pieces = _advance_pieces(candidate, hit)
    if best is None:
        raise ValueError("empty cylinder: candidate rejects the first letter")
    intervals = _merge_intervals([_piece_source(p) for p in best])
    widest = intervals[0]
    for iv in intervals[1:]:
        if ((iv.hi - iv.lo) - (widest.hi - widest.lo)).sign() > 0:
            widest = iv
    x0 = widest.lo + (widest.hi - widest.lo) * Fraction(1, 2)
    regen = natural_coding(candidate, x0, n)
    match = 0
    for c_in, c_out in zip(word[:n], regen):
        if from_candidate.get(c_out) != c_in:
            break
        match += 1
    return match, n, depth, x0
