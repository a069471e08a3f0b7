"""Interval conditions on extension sets under a pair of letter orders.

A word drawn on k letters can only be the coding of a length-k interval
exchange if, once the letters are ordered as the intervals sit in the
domain (pi0) and as they sit in the image (pi1), every factor's left
extensions form a pi1-interval, its right extensions form a
pi0-interval, and adjacent left extensions hand over exactly one shared
right extension.  check_orders tests a single order pair against every
factor up to a length bound.  The first condition constrains each order
on its own, so interval_orders lists the orders keeping every extension
set contiguous, and candidate_pairs forms the product of the domain and
image survivors, at most 720 a side.  search_orders keeps the candidates
passing check_orders; reconstruction walks the same candidates, checks
them in turn and falls back on one when none passes.  This is the
package's one letter-order search.

A pass is evidence, not proof: only factors of the indexed prefix are
inspected, so the verdict reads "consistent up to N".
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .words import FactorSet

__all__ = ["OrderPair", "OrderReport", "candidate_pairs", "check_orders",
           "interval_orders", "search_orders"]


@dataclass(frozen=True)
class OrderPair:
    pi0: tuple  # letters in domain order
    pi1: tuple  # letters in image order

    def __post_init__(self):
        for name, pi in (("pi0", self.pi0), ("pi1", self.pi1)):
            if len(set(pi)) != len(pi):
                raise ValueError(f"{name} repeats a letter")
        if set(self.pi0) != set(self.pi1):
            raise ValueError("orders are over different letter sets")

    @property
    def k(self) -> int:
        return len(self.pi0)

    def rank0(self, x) -> int:
        return self.pi0.index(x)

    def rank1(self, x) -> int:
        return self.pi1.index(x)

    def separation(self) -> int | None:
        """The first j < k whose first j letters are the same in both
        orders, or None: the orders of an irreducible exchange have none."""
        for j in range(1, self.k):
            if set(self.pi0[:j]) == set(self.pi1[:j]):
                return j
        return None


@dataclass(frozen=True)
class OrderReport:
    passed: bool
    condition: str | None  # "1" | "2" | "3" | "letters" | "separation"
    witness: tuple | None
    max_len: int

    def __str__(self) -> str:
        if self.passed:
            return f"consistent up to length {self.max_len}"
        return f"fails condition {self.condition}: {self.witness}"


def _is_interval(letters, rank) -> bool:
    if not letters:
        return True
    ranks = sorted(rank(x) for x in letters)
    return ranks[-1] - ranks[0] + 1 == len(ranks)


def _check_window(fs: FactorSet, max_len: int) -> None:
    if max_len + 2 > fs.max_len:
        raise ValueError(
            f"checking to length {max_len} inspects factors of length "
            f"{max_len + 2}, index stops at {fs.max_len}")


def check_orders(fs: FactorSet, orders: OrderPair, max_len: int) -> OrderReport:
    """First violated condition wins; factors scanned short-to-long."""
    _check_window(fs, max_len)
    if set(orders.pi0) != set(fs.alphabet):
        return OrderReport(False, "letters",
                           (tuple(fs.alphabet), orders.pi0), max_len)
    j = orders.separation()
    if j is not None:
        return OrderReport(False, "separation", (j,), max_len)
    for n in range(max_len + 1):
        longer = fs.extensions(n + 1)
        for w, (left, right) in sorted(fs.extensions(n).items()):
            if not _is_interval(left, orders.rank1):
                return OrderReport(False, "1", (w, "left", tuple(sorted(left))),
                                   max_len)
            if not _is_interval(right, orders.rank0):
                return OrderReport(False, "1", (w, "right", tuple(sorted(right))),
                                   max_len)
            block = [x for x in orders.pi1 if x in left]
            rights = {x: longer[x + w][1] for x in block}
            for x, y in zip(block, block[1:]):
                common = rights[x] & rights[y]
                if len(common) != 1:
                    return OrderReport(False, "3",
                                       (w, x, y, tuple(sorted(common))),
                                       max_len)
            for i, x in enumerate(block):
                for y in block[i + 1:]:
                    # truncation can empty a right-extension set, so the
                    # pairwise check is not collapsed to adjacent pairs
                    for z in rights[x]:
                        for t in rights[y]:
                            if orders.rank0(z) > orders.rank0(t):
                                return OrderReport(False, "2", (w, x, y, z, t),
                                                   max_len)
    return OrderReport(True, None, None, max_len)


def interval_orders(letters, blocks):
    """Every order of letters in which each block is contiguous.

    Orders come in the order permutations(letters) gives them.  Letters
    are placed by backtracking, and a prefix is dropped as soon as it
    leaves a block before the block is complete: that block cannot end
    up contiguous, and since no kept prefix leaves a block unfinished,
    none re-enters one after a gap.
    """
    letters = tuple(letters)
    bit = {x: 1 << i for i, x in enumerate(letters)}
    full = (1 << len(letters)) - 1
    masks = set()
    for block in blocks:
        mask = 0
        for x in block:
            if x not in bit:
                raise ValueError(f"block letter {x!r} is not among {letters}")
            mask |= bit[x]
        masks.add(mask)
    order = []

    def extend(placed, last):
        if placed == full:
            yield tuple(order)
            return
        for x in letters:
            b = bit[x]
            if placed & b or any(m & last and not m & b and placed & m != m
                                 for m in masks):
                continue
            order.append(x)
            yield from extend(placed | b, b)
            order.pop()

    return extend(0, 0)


_MAX_ORDERS = 720  # 6!: every order of six letters


def candidate_pairs(fs: FactorSet, max_len: int):
    """Iterator over the order pairs worth checking, lexicographically.

    pi0 ranges over the orders keeping every right-extension set of
    lengths 0..max_len contiguous, pi1 over those keeping every
    left-extension set contiguous.  Each side may keep at most
    _MAX_ORDERS, so any word on six letters or fewer is searched and a
    longer alphabet only when its extension sets pin the orders down.
    Both guards raise here, before any pair is formed; the pairs
    themselves are formed lazily.
    """
    letters = tuple(fs.alphabet)
    _check_window(fs, max_len)
    lefts, rights = set(), set()
    for n in range(max_len + 1):
        for left, right in fs.extensions(n).values():
            lefts.add(left)
            rights.add(right)
    pi0s, pi1s = (list(islice(interval_orders(letters, blocks), _MAX_ORDERS + 1))
                  for blocks in (rights, lefts))
    if len(pi0s) > _MAX_ORDERS or len(pi1s) > _MAX_ORDERS:
        raise ValueError(f"alphabet of size {len(letters)} keeps more than "
                         f"{_MAX_ORDERS} orders on a side, too many to search")
    return (OrderPair(p0, p1) for p0 in pi0s for p1 in pi1s)


def search_orders(fs: FactorSet, max_len: int):
    """Every order pair passing check_orders, in lexicographic order."""
    return [pair for pair in candidate_pairs(fs, max_len)
            if check_orders(fs, pair, max_len).passed]
