"""Interval conditions on extension sets under a pair of letter orders.

A word drawn on k letters can only be the coding of a length-k interval
exchange if, once the letters are ordered as the intervals sit in the
domain (pi0) and as they sit in the image (pi1), every factor's left
extensions form a pi1-interval, its right extensions form a
pi0-interval, and adjacent left extensions hand over exactly one shared
right extension.  Only special factors, two or more extensions on a
side, can break a condition, and each condition reads one order at a
time: an image scan of pi1 finds its first condition-3 failure and
turns condition 2 into constraints "z before t in pi0", and a domain
scan of pi0 finds its first condition-1 (right) failure.  Condition 1
on the left needs no test of its own: the constraints already fail
there (see _scan_image).  check_orders merges the two scans of one
pair.

The first condition constrains each order on its own, so
interval_orders lists the orders keeping every extension set
contiguous, and candidate_orders keeps the domain and image survivors,
at most 720 a side.  passing_pairs scans each candidate order once and
tests a pair by its separation and by pi0's ranks against pi1's
constraints; search_orders lists what it yields, and reconstruction
takes its first pair.  This is the package's one letter-order search.

A pass is evidence, not proof: only factors of the indexed prefix are
inspected, so the verdict reads "consistent up to N".
"""
from __future__ import annotations

from itertools import islice

from .record import Record
from .words import FactorSet

__all__ = ["OrderPair", "OrderReport", "TooManyOrders", "candidate_orders",
           "check_orders", "interval_orders", "passing_pairs", "search_orders"]


class TooManyOrders(ValueError):
    """The extension sets keep more orders on a side than the search
    takes: the search is refused, which says nothing of the word."""


class OrderPair(Record):
    __slots__ = _fields = ("pi0", "pi1")

    def __init__(self, pi0: tuple, pi1: tuple) -> None:
        # pi0: letters in domain order; pi1: letters in image order
        for name, pi in (("pi0", pi0), ("pi1", pi1)):
            if len(set(pi)) != len(pi):
                raise ValueError(f"{name} repeats a letter")
        if set(pi0) != set(pi1):
            raise ValueError("orders are over different letter sets")
        super().__init__(pi0, pi1)

    @property
    def k(self) -> int:
        return len(self.pi0)

    def separation(self) -> int | None:
        """The first j < k whose first j letters are the same in both
        orders, or None: the orders of an irreducible exchange have none."""
        for j in range(1, self.k):
            if set(self.pi0[:j]) == set(self.pi1[:j]):
                return j
        return None


class OrderReport(Record):
    # condition: "1" | "2" | "3" | "letters" | "separation", or None
    __slots__ = _fields = ("passed", "condition", "witness", "max_len")

    def __str__(self) -> str:
        if self.passed:
            return f"consistent up to length {self.max_len}"
        return f"fails condition {self.condition}: {self.witness}"


def _is_interval(letters, rank) -> bool:
    if not letters:
        return True
    ranks = sorted(rank[x] for x in letters)
    return ranks[-1] - ranks[0] + 1 == len(ranks)


def _check_window(fs: FactorSet, max_len: int) -> None:
    if max_len + 2 > fs.max_len:
        raise ValueError(
            f"checking to length {max_len} inspects factors of length "
            f"{max_len + 2}, index stops at {fs.max_len}")


def _specials(fs: FactorSet, max_len: int) -> list:
    """The special factors of lengths 0..max_len, short to long and
    sorted within a length, as (w, left, right, rights) with rights
    mapping each left extension x to the right extensions of xw.  A
    factor with at most one extension a side meets every condition, so
    only these are scanned; a failure's position is its index here."""
    specials = []
    for n in range(max_len + 1):
        longer = fs.extensions(n + 1)
        specials += [(w, left, right, {x: longer[x + w][1] for x in left})
                     for w, (left, right) in fs.specials(n)]
    return specials


# a failure is (position, rank, condition, witness): the earliest factor
# wins, and at one factor the conditions rank 1 (right), 3, 2
def _scan_image(specials: list, pi1) -> tuple:
    """The first condition-3 failure under pi1, or None, and the
    constraints of condition 2 before it.

    Under pi1 the left extensions x < y of a factor w are fixed, and
    condition 2 asks every z in right(xw) to come before every t in
    right(yw) in pi0.  The constraints map each (z, t), z != t, to the
    failure its first witness would be, in the order the witnesses are
    met: x before y in pi1, then z and t in sorted order.

    Condition 1 on the left never decides a report, so it is not tested.
    Take the first w = w'y whose left(w) is no pi1-interval: a < x < b in
    pi1 with a, b in left(w) and x not.  w' comes earlier, and left(w')
    holds a and b, so it is a pi1-interval holding x; since xw'y is no
    factor, right(xw') lacks y.  If right(xw') is empty, x and its
    successor in left(w') share no right extension, and condition 3
    fails at w'.  Else it holds some r != y, and with y in right(aw') and
    right(bw') the constraints at w' ask for y before r (from a < x) and
    r before y (from x < b), so every pi0 breaks condition 2 at w' or
    earlier.  Either way a failure precedes w.
    """
    rank = {x: i for i, x in enumerate(pi1)}
    constraints = {}
    for pos, (w, left, _, rights) in enumerate(specials):
        block = sorted(left, key=rank.__getitem__)
        for x, y in zip(block, block[1:]):
            common = rights[x] & rights[y]
            if len(common) != 1:
                return (pos, 1, "3", (w, x, y, tuple(sorted(common)))), constraints
        for i, x in enumerate(block):
            # truncation can empty a right-extension set, so the pairwise
            # constraints are not collapsed to adjacent pairs
            for y in block[i + 1:]:
                for z in sorted(rights[x]):
                    for t in sorted(rights[y]):
                        if z != t:
                            constraints.setdefault(
                                (z, t), (pos, 2, "2", (w, x, y, z, t)))
    return None, constraints


def _scan_domain(specials: list, pi0) -> tuple:
    """The first condition-1 (right) failure under pi0, or None, and
    pi0's ranks."""
    rank = {x: i for i, x in enumerate(pi0)}
    for pos, (w, _, right, _) in enumerate(specials):
        if not _is_interval(right, rank):
            return (pos, 0, "1", (w, "right", tuple(sorted(right)))), rank
    return None, rank


def check_orders(fs: FactorSet, orders: OrderPair, max_len: int) -> OrderReport:
    """First violated condition wins; factors scanned short-to-long, and
    at one factor condition 1 (right), 3, then 2.  Condition 1 on the
    left is never the first (see _scan_image)."""
    _check_window(fs, max_len)
    if set(orders.pi0) != set(fs.alphabet):
        return OrderReport(False, "letters",
                           (tuple(fs.alphabet), orders.pi0), max_len)
    j = orders.separation()
    if j is not None:
        return OrderReport(False, "separation", (j,), max_len)
    specials = _specials(fs, max_len)
    image, constraints = _scan_image(specials, orders.pi1)
    domain, rank0 = _scan_domain(specials, orders.pi0)
    # the constraints come in witness order, so the first one broken
    # holds the first condition-2 failure
    broken = next((failure for (z, t), failure in constraints.items()
                   if rank0[z] > rank0[t]), None)
    failures = [f for f in (image, domain, broken) if f is not None]
    if not failures:
        return OrderReport(True, None, None, max_len)
    _, _, condition, witness = min(failures)
    return OrderReport(False, condition, witness, max_len)


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


def candidate_orders(fs: FactorSet, max_len: int) -> tuple[list, list]:
    """The domain and the image orders worth pairing, each list in the
    order permutations(fs.alphabet) gives them.

    pi0 ranges over the orders keeping every right-extension set of
    lengths 0..max_len contiguous, pi1 over those keeping every
    left-extension set contiguous.  Only the special factors' sets are
    read: a set of one letter or none never prunes an order.  Each side
    may keep at most _MAX_ORDERS, so any word on six letters or fewer is
    searched and a longer alphabet only when its extension sets pin the
    orders down; a longer list raises TooManyOrders.  Both guards raise
    here, before any pair is formed.
    """
    letters = tuple(fs.alphabet)
    _check_window(fs, max_len)
    lefts, rights = set(), set()
    for n in range(max_len + 1):
        for _, (left, right) in fs.specials(n):
            lefts.add(left)
            rights.add(right)
    pi0s, pi1s = (list(islice(interval_orders(letters, blocks), _MAX_ORDERS + 1))
                  for blocks in (rights, lefts))
    if len(pi0s) > _MAX_ORDERS or len(pi1s) > _MAX_ORDERS:
        raise TooManyOrders(f"alphabet of size {len(letters)} keeps more than "
                            f"{_MAX_ORDERS} orders on a side, too many to search")
    return pi0s, pi1s


def passing_pairs(fs: FactorSet, max_len: int, pi0s, pi1s):
    """Iterator over the pairs of pi0s x pi1s passing check_orders, in
    lexicographic order; pi0s and pi1s are orders of the word's letters.

    Every image order is scanned once, up front, and one whose scan
    fails is dropped before any pair is formed.  Each domain order is
    scanned once, when its first pair is due, and a pair then passes
    when its pi0 keeps every constraint of its pi1 and the two orders
    have no separation.
    """
    specials = _specials(fs, max_len)
    survivors = []
    for pi1 in pi1s:
        failure, constraints = _scan_image(specials, pi1)
        if failure is None:
            survivors.append((pi1, tuple(constraints)))
    if not survivors:
        return
    for pi0 in pi0s:
        failure, rank = _scan_domain(specials, pi0)
        if failure is not None:
            continue
        for pi1, constraints in survivors:
            if all(rank[z] < rank[t] for z, t in constraints):
                pair = OrderPair(pi0, pi1)
                if pair.separation() is None:
                    yield pair


def search_orders(fs: FactorSet, max_len: int):
    """Every order pair passing check_orders, in lexicographic order."""
    return list(passing_pairs(fs, max_len, *candidate_orders(fs, max_len)))
