"""One reference per core job, written from the definitions, for the
differential tests to compare the library with.

The orbit references (the point maps, orbits, codings, one-sided
codings, the regularity checks and the cylinder walk) read only an
exchange's lengths, permutation and flips, a config's cuts, piece
letters and letters, and the rat, coef and d of a scalar. From these
they build their own integer pairs over their own denominator, their own
interval ends and image slots, and their own sign test, so they share
no table, step rule or comparison with the library's kernel. The
Rauzy-level, label-rule, order and factor references read the library's
public factor index and graphs. tests/test_seams.py checks that this
module reads nothing private of ietword.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from itertools import accumulate

from ietword.exact import ExactScalar, Interval
from ietword.orders import OrderReport
from ietword.rauzy import Witness, build_k_graph

# ------------------------------------------------------------ orbits

def sign(u, v, d):
    """The sign of u + v*sqrt(d), for u and v rational and d no perfect
    square (v = 0 when d = 0)."""
    if not v:
        return (u > 0) - (u < 0)
    if u * v >= 0:
        return 1 if v > 0 else -1
    # opposite signs: the larger square decides, and the two are never equal
    return (1 if u > 0 else -1) if u * u > v * v * d else (1 if v > 0 else -1)


def _plus(p, q):
    return p[0] + q[0], p[1] + q[1]


def _minus(p, q):
    return p[0] - q[0], p[1] - q[1]


def _times(s, p):
    return s * p[0], s * p[1]


@lru_cache(maxsize=None)
def _lengths(T):
    """T's lengths as (rat, coef, d) triples, read once per exchange."""
    return tuple((s.rat, s.coef, s.d) for s in T.lengths)


class Exchange:
    """An exchange T on integer pairs: (u, v) stands for (u + v*sqrt(d))/D,
    over one field d and one denominator D for T's lengths and the given
    scalars (the points and cuts a walk reads)."""

    def __init__(self, T, *scalars):
        lengths = _lengths(T)
        triples = lengths + tuple((s.rat, s.coef, s.d) for s in scalars)
        fields = {d for _, _, d in triples} - {0}
        assert len(fields) <= 1, "scalars of two quadratic fields"
        self.d = fields.pop() if fields else 0
        self.D = math.lcm(*(f.denominator for rat, coef, _ in triples for f in (rat, coef)))
        self.permutation, self.flips = T.permutation, T.flips
        sizes = [self.pair(rat, coef) for rat, coef, _ in lengths]
        # the interval ends a_1 = 0 .. a_(k+1) = 1, and the image slots'
        # starts, slot j holding the image of interval permutation[j-1]
        self.ends = list(accumulate(sizes, _plus, initial=(0, 0)))
        self.slots = list(accumulate((sizes[i - 1] for i in T.permutation), _plus, initial=(0, 0)))
        # where each interval's image starts; T adds shift[i-1] to a point
        # of an unflipped interval i, and sends a point x of a flipped one,
        # its owned left end aside, to mirror[i-1] - x
        self.dest = [self.slots[T.permutation.index(i)] for i in range(1, len(sizes) + 1)]
        self.shift = [_minus(t, a) for t, a in zip(self.dest, self.ends)]
        self.mirror = [_plus(t, b) for t, b in zip(self.dest, self.ends[1:])]

    def pair(self, rat, coef):
        D = self.D
        return rat.numerator * (D // rat.denominator), coef.numerator * (D // coef.denominator)

    def encode(self, s):
        return self.pair(s.rat, s.coef)

    def decode(self, p):
        return ExactScalar(Fraction(p[0], self.D), Fraction(p[1], self.D), self.d)

    def compare(self, p, q):
        return sign(p[0] - q[0], p[1] - q[1], self.d)

    def start(self, x, side=0):
        """x encoded, asserted to lie in [0,1), and so every point of its orbit."""
        p = self.encode(x)
        assert (self.compare(p, (0, 0)) or side) >= 0, f"point {x} (side {side}) below 0"
        self.locate(self.ends, p, side)
        return p

    def locate(self, cuts, p, side=0):
        """By a linear scan, the 1-based j with cuts[j-1] <= p +
        side*epsilon < cuts[j], for cuts from 0 to 1 and p + side*epsilon
        >= 0."""
        (u, v), d = p, self.d
        for j in range(1, len(cuts)):
            c = cuts[j]
            if (sign(u - c[0], v - c[1], d) or side) < 0:
                return j
        raise AssertionError(f"point {self.decode(p)} (side {side}) not below 1")

    def step(self, p, side=0):
        """T(p + side*epsilon), as (point, side).  A flipped interval [a, b)
        sends its owned left end a to its slot start t and any other point
        x to t + b - x, with side negated; any other interval translates."""
        i = self.locate(self.ends, p, side) - 1
        if not self.flips[i]:
            return _plus(p, self.shift[i]), side
        if p == self.ends[i] and not side:
            return self.dest[i], 0
        return _minus(self.mirror[i], p), -side

    def back(self, p):
        """T^-1(p), through the image slot p lies in."""
        i = self.permutation[self.locate(self.slots, p) - 1] - 1
        if not self.flips[i]:
            return _minus(p, self.shift[i])
        if p == self.dest[i]:
            return self.ends[i]
        return _minus(self.mirror[i], p)

    # the cylinder walk: a piece (image, s, b) is an interval of points y,
    # each the image of the source point s*y + b

    def intersect(self, x, y):
        """The points of pair interval x that lie in pair interval y, or None."""
        c = self.compare(x[0], y[0])
        lo, lo_closed = (x[0], x[2]) if c > 0 else (y[0], y[2]) if c < 0 else (x[0], x[2] and y[2])
        c = self.compare(x[1], y[1])
        hi, hi_closed = (x[1], x[3]) if c < 0 else (y[1], y[3]) if c > 0 else (x[1], x[3] and y[3])
        c = self.compare(lo, hi)
        if c > 0 or (c == 0 and not (lo_closed and hi_closed)):
            return None
        return lo, hi, lo_closed, hi_closed

    def advance(self, pieces):
        """The pieces one step of T further, split at the interval ends."""
        out = []
        for img, s, b in pieces:
            for i in range(1, len(self.ends)):
                a, e, t = self.ends[i - 1], self.ends[i], self.dest[i - 1]
                part = self.intersect(img, (a, e, True, False))
                if part is None:
                    continue
                lo, hi, lo_closed, hi_closed = part
                if not self.flips[i - 1]:
                    shift = self.shift[i - 1]
                    out.append(((_plus(lo, shift), _plus(hi, shift), lo_closed, hi_closed),
                                s, _minus(b, _times(s, shift))))
                    continue
                if lo == a and lo_closed:
                    # the owned left end goes to t on its own
                    out.append(((t, t, True, True), 1, _minus(_plus(_times(s, a), b), t)))
                    if lo == hi:
                        continue
                    lo_closed = False
                r = self.mirror[i - 1]
                out.append(((_minus(r, hi), _minus(r, lo), hi_closed, lo_closed),
                            -s, _plus(b, _times(s, r))))
        return out

    def clip(self, pieces, letter_set):
        """The parts of the pieces that lie in one letter's pair intervals."""
        return [(part, s, b) for img, s, b in pieces for u in letter_set
                if (part := self.intersect(img, u)) is not None]

    def intervals(self, pieces):
        """The source points of the pieces, which are disjoint, as
        Intervals in order, two joined where they meet at a point."""
        ivs = []
        for (lo, hi, lo_closed, hi_closed), s, b in pieces:
            if s == 1:
                ivs.append((_plus(lo, b), _plus(hi, b), lo_closed, hi_closed))
            else:
                ivs.append((_minus(b, hi), _minus(b, lo), hi_closed, lo_closed))
        ivs.sort(key=cmp_to_key(lambda x, y: self.compare(x[0], y[0]) or y[2] - x[2]))
        merged = []
        for lo, hi, lo_closed, hi_closed in ivs:
            if merged and merged[-1][1] == lo and (merged[-1][3] or lo_closed):
                merged[-1] = (merged[-1][0], hi, merged[-1][2], hi_closed)
            else:
                merged.append((lo, hi, lo_closed, hi_closed))
        return tuple(Interval(self.decode(lo), self.decode(hi), lo_closed, hi_closed)
                     for lo, hi, lo_closed, hi_closed in merged)

    def length(self, pieces):
        total = (0, 0)
        for (lo, hi, _, _), _, _ in pieces:
            total = _plus(total, _minus(hi, lo))
        return self.decode(total)


def apply(T, x):
    E = Exchange(T, x)
    return E.decode(E.step(E.start(x))[0])


def apply_inverse(T, y):
    E = Exchange(T, y)
    return E.decode(E.back(E.start(y)))


def index_of(T, x):
    E = Exchange(T, x)
    return E.locate(E.ends, E.start(x))


def orbit(T, x0, n):
    E = Exchange(T, x0)
    p, points = E.start(x0), []
    for _ in range(n):
        points.append(E.decode(p))
        p, _ = E.step(p)
    return points


def coding(T, config, x0, n, side=0):
    """The first n letters of the coding of x0 + side*epsilon (x0 itself
    for side 0) by config's pieces, or by T's own intervals, lettered
    1, 2, .., when config is None."""
    if config is None:
        E = Exchange(T, x0)
        cuts, letters = E.ends, "123456789"
    else:
        E = Exchange(T, x0, *config.cuts)
        cuts, letters = [E.encode(c) for c in config.cuts], config.piece_letters
    p, out = E.start(x0, side), []
    for _ in range(n):
        out.append(letters[E.locate(cuts, p, side) - 1])
        p, side = E.step(p, side)
    return "".join(out)


def essential_codings(T, config, x0, n):
    """The codings of x0 + epsilon and x0 - epsilon, or at 0 of 0 + epsilon."""
    sides = (1,) if not (x0.rat or x0.coef) else (1, -1)
    return frozenset(coding(T, config, x0, n, side) for side in sides)


def check_regular(T, depth):
    """check_regular's (verdict, witness): the forward orbit of each left
    end a_i, walked depth steps, against the interior ends a_2..a_k."""
    E, k = Exchange(T), len(T.lengths)
    targets = {E.ends[j - 1]: j for j in range(2, k + 1)}
    for i in range(1, k + 1):
        p = E.ends[i - 1]
        for n in range(1, depth + 1):
            p, _ = E.step(p)
            if p in targets:
                return "collision", (i, n, targets[p])
    return "no-collision-up-to-depth", None


def check_idoc(T, depth):
    """check_idoc's (verdict, witness): the backward orbits of the
    interior ends a_2..a_k, each point against every point seen before."""
    E, k = Exchange(T), len(T.lengths)
    seen = {E.ends[i - 1]: (i, 0) for i in range(2, k + 1)}
    for i in range(2, k + 1):
        p = E.ends[i - 1]
        for n in range(1, depth + 1):
            p = E.back(p)
            if p in seen:
                return "collision", ((i, n), seen[p])
            seen[p] = (i, n)
    return "no-collision-up-to-depth", None


# --------------------------------------------------------- cylinders

def _walk(T, config):
    """The exchange over config's cuts, each letter's pair intervals, and
    the piece of every point of [0,1)."""
    E = Exchange(T, *config.cuts)
    cuts = [E.encode(c) for c in config.cuts]
    sets = {}
    for letter, lo, hi in zip(config.piece_letters, cuts, cuts[1:]):
        sets.setdefault(letter, []).append((lo, hi, True, False))
    return E, sets, [((cuts[0], cuts[-1], True, False), 1, (0, 0))]


def cylinders(T, config, depth):
    """(intervals, length) of every nonempty cylinder of length 1..depth,
    by word, each level's words grown from the level before in
    config.letters order."""
    E, sets, whole = _walk(T, config)
    tree, frontier = {}, [("", whole)]
    for n in range(depth):
        grown = []
        for w, hit in frontier:
            pieces = E.advance(hit) if n else hit
            for letter in config.letters:
                part = E.clip(pieces, sets[letter])
                if part:
                    grown.append((w + letter, part))
        tree.update(grown)
        frontier = grown
    return {w: (E.intervals(part), E.length(part)) for w, part in tree.items()}


def longest(T, config, w):
    """longest_cylinder's (n, intervals): the longest prefix of w with a
    nonempty cylinder.  A letter outside config raises KeyError."""
    E, sets, hit = _walk(T, config)
    n = 0
    for letter in w:
        part = E.clip(E.advance(hit) if n else hit, sets[letter])
        if not part:
            break
        n, hit = n + 1, part
    return n, E.intervals(hit) if n else ()


# ----------------------------------------------------- factor index

def window_counts(word, n):
    """Reference: slice every length-n window of the word again."""
    return Counter(word[i:i + n] for i in range(len(word) - n + 1))


def probed_extensions(fs, n):
    """Reference: probe every alphabet letter on each side of each factor."""
    longer = fs.counts(n + 1)
    return {w: (frozenset(x for x in fs.alphabet if x + w in longer),
                frozenset(y for y in fs.alphabet if w + y in longer))
            for w in fs.counts(n)}


# ----------------------------------------------- graphs and levels

def adjacency(g):
    """The in-arcs and out-arcs of every vertex of g, in arc order: an arc
    leaves its k-prefix and enters its k-suffix."""
    ins = {v: [] for v in g.vertices}
    outs = {v: [] for v in g.vertices}
    for a in g.arcs:
        outs[a[:-1]].append(a)
        ins[a[1:]].append(a)
    return ins, outs


def _reached(start, neighbors) -> set:
    seen, frontier = {start}, [start]
    while frontier:
        for u in neighbors(frontier.pop()):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen


def strongly_connected(g) -> bool:
    """Whether every vertex of the RauzyGraph g reaches every other: two
    full searches from one vertex, forward and backward."""
    ins, outs = adjacency(g)
    start, n = g.vertices[0], len(g.vertices)
    return (len(_reached(start, lambda v: [a[1:] for a in outs[v]])) == n
            and len(_reached(start, lambda v: [a[:-1] for a in ins[v]])) == n)


class LevelGraphs:
    """The validator's levels, one RauzyGraph a level: static violations,
    deletions by vertex, the crotches and out-arcs the label search
    reads, off each graph's adjacency, and each deletion vertex's
    nearest prefix with deletions."""

    def __init__(self, fs, k_min: int, k_max: int):
        self.graphs, self.adjacency, self.static = {}, {}, {}
        self.events, self.in_crotches, self.out_crotches = {}, {}, {}
        for k in range(k_min, k_max + 1):
            g = build_k_graph(fs, k)
            self.graphs[k] = g
            self.adjacency[k] = ins, outs = adjacency(g)
            self.in_crotches[k] = [tuple(sorted(ins[v]))
                                   for v in g.vertices if len(ins[v]) == 2]
            self.out_crotches[k] = [tuple(sorted(outs[v]))
                                    for v in g.vertices if len(outs[v]) == 2]
            viol = []
            for v in g.vertices:
                din, dout = len(ins[v]), len(outs[v])
                if din > 2 or dout > 2:
                    viol.append(Witness(
                        "valence", k, (v,),
                        f"in-degree {din}, out-degree {dout}"))
            if k < k_max:
                # the follower arcs a -> b whose word a + b[-1] is no factor
                ext = fs.extensions(k + 1)
                by_vertex = {}
                for a in g.arcs:
                    w = a[1:]
                    for b in outs[w]:
                        if b[-1] in ext[a][1]:
                            continue
                        if len(ins[w]) == 2 and len(outs[w]) == 2:
                            by_vertex.setdefault(w, []).append((a, b))
                        else:
                            viol.append(Witness(
                                "unlicensed-deletion", k, (a + b[-1],),
                                f"vertex {w!r} is not bispecial"))
                deleted_at = set(by_vertex)
                for v in g.vertices:
                    if len(ins[v]) == 2 and len(outs[v]) == 2 and v not in deleted_at:
                        viol.append(Witness(
                            "strong-bispecial", k, (v,),
                            "all four follower arcs survive"))
                self.events[k] = by_vertex
            if not strongly_connected(g):
                viol.append(Witness("not-strongly-connected", k, (), ""))
            self.static[k] = viol
        # the deletion vertices' longest proper prefixes that are ones too
        self.below = {}
        for k, by_vertex in self.events.items():
            for w in by_vertex:
                prefixes = [w[:j] for j in range(k_min, k) if w[:j] in self.events[j]]
                if prefixes:
                    self.below[w] = prefixes[-1]

    def out_arcs(self, k, v):
        return self.adjacency[k][1][v]


# ------------------------------------------------------- label rules
# the label rules on one base labeling at a time, with its labels as l/r
# dicts and its marks as sets, built level by level

def base_labels(K: int, sides, mask: int):
    """The level-K labeling that bit i of mask picks for side i."""
    in_l = {K: {}}
    out_l = {K: {}}
    for bit, (side, arcs) in enumerate(sides):
        a, b = arcs
        if mask >> bit & 1:
            a, b = b, a
        (in_l if side == "in" else out_l)[K][a] = "l"
        (in_l if side == "in" else out_l)[K][b] = "r"
    return in_l, out_l


def check_assignment(levels, K, k_max, oriented, in_l, out_l):
    marks = {}
    prev_marks = frozenset()
    for k in range(K, k_max + 1):
        if k > K:
            p_in, p_out = in_l[k - 1], out_l[k - 1]
            in_l[k] = {w: p_in[w[:-1]]
                       for arcs in levels.in_crotches[k] for w in arcs}
            out_l[k] = {w: p_out[w[1:]]
                        for arcs in levels.out_crotches[k] for w in arcs}
        must_mark = set()
        must_unmark = set()
        for w, pairs in levels.events.get(k, {}).items():
            kinds = set()
            for a, b in pairs:
                kinds.add(in_l[k][a] == out_l[k][b])
            if kinds == {True, False}:
                return Witness(
                    "label-contradiction", k, (w,),
                    "deletions of both mixed and equal label pairs")
            if True in kinds:
                must_mark.add(w)
            else:
                must_unmark.add(w)
        if oriented and must_mark:
            w = sorted(must_mark)[0]
            return Witness(
                "label-contradiction", k, (w,),
                "equal-label deletion requires a minus mark, oriented mode")
        level_marks = set(must_mark)
        for v in prev_marks:
            level_marks.update(levels.out_arcs(k - 1, v))
        clash = level_marks & must_unmark
        if clash:
            w = sorted(clash)[0]
            return Witness(
                "label-contradiction", k, (w,),
                "mark forced forward onto a vertex with mixed-pair deletions")
        marks[k] = frozenset(level_marks)
        prev_marks = marks[k]
    return in_l, out_l, marks


def search_one_by_one(levels, K, k_max, oriented):
    # check every base labeling in mask order, first clean success wins,
    # then the first marked one, then the deepest failure; each crotch
    # side of level K is one bit
    sides = ([("in", arcs) for arcs in levels.in_crotches[K]]
             + [("out", arcs) for arcs in levels.out_crotches[K]])
    best_fail, best_k, marked_success = None, -1, None
    for mask in range(1 << len(sides)):
        in_l, out_l = base_labels(K, sides, mask)
        result = check_assignment(levels, K, k_max, oriented, in_l, out_l)
        if isinstance(result, Witness):
            if result.k > best_k:
                best_k, best_fail = result.k, result
        elif not any(result[2].values()):
            return result
        elif marked_success is None:
            marked_success = result
    return marked_success if marked_success is not None else best_fail


# -------------------------------------------------- order conditions

def check_orders(fs, orders, max_len):
    """The per-pair loop check_orders ran before its scans: every factor
    of every length, each order pair on its own.  z and t are taken in
    sorted order, so the condition-2 witness does not follow hashing."""
    if max_len + 2 > fs.max_len:
        raise ValueError("window too long")

    def interval(letters, rank):
        ranks = sorted(rank(x) for x in letters)
        return not ranks or ranks[-1] - ranks[0] + 1 == len(ranks)

    def fail(condition, witness):
        return OrderReport(False, condition, witness, max_len)

    if set(orders.pi0) != set(fs.alphabet):
        return fail("letters", (tuple(fs.alphabet), orders.pi0))
    j = orders.separation()
    if j is not None:
        return fail("separation", (j,))
    for n in range(max_len + 1):
        longer = fs.extensions(n + 1)
        for w, (left, right) in sorted(fs.extensions(n).items()):
            if not interval(left, orders.pi1.index):
                return fail("1", (w, "left", tuple(sorted(left))))
            if not interval(right, orders.pi0.index):
                return fail("1", (w, "right", tuple(sorted(right))))
            block = [x for x in orders.pi1 if x in left]
            rights = {x: longer[x + w][1] for x in block}
            for x, y in zip(block, block[1:]):
                common = rights[x] & rights[y]
                if len(common) != 1:
                    return fail("3", (w, x, y, tuple(sorted(common))))
            for i, x in enumerate(block):
                for y in block[i + 1:]:
                    for z in sorted(rights[x]):
                        for t in sorted(rights[y]):
                            if orders.pi0.index(z) > orders.pi0.index(t):
                                return fail("2", (w, x, y, z, t))
    return OrderReport(True, None, None, max_len)
