"""Factor graphs of a word and the admissibility validator.

The k-graph has the length-k factors as vertices and the length-(k+1)
factors as arcs (an arc runs from its k-prefix to its k-suffix).  The
follower of a graph is its line graph.  As k grows the (k+1)-graph is a
subgraph of the follower of the k-graph, and which follower arcs are
allowed to disappear is governed by a label discipline on branching
vertices.  Whether a consistent discipline exists is decidable by
finite search, and deciding it is what validate_evolution does.

The validator reads its levels off the extension sets of the factor
index (FactorSet.extensions): a vertex's in- and out-degree are the
sizes of its left and right sets, and a follower arc disappears at
level k when a (k+1)-factor a lacks a right extension of a[1:].  A
level changes from the one below only at its special (branching)
vertices, so the validator walks those alone: their crotches, their
valences, and the deletions through their left extensions, plus the
one deletion the end of a finite prefix can make elsewhere.  Strong
connectivity is read off the same extension sets (strongly_connected),
on the top level only, walking down the levels only when that check
fails: a strongly connected (k+1)-graph makes the k-graph strongly
connected too.  Both claims are proved in _Levels.  RauzyGraph serves
only the DOT export of `ietword rauzy`.

Label bookkeeping, spelled out once:

* a vertex with two incoming arcs (an in-crotch) has its two arcs
  labeled l and r, likewise for outgoing (out-crotch);
* labels at level k+1 are inherited: an arc W gets its in-label from
  W[:-1] and its out-label from W[1:] one level down, so only the
  lowest level of a window carries free choices;
* a follower arc that disappears at a branching vertex must carry
  mixed labels (lr or rl) at an unmarked vertex, equal labels (ll or
  rr) at a minus-marked vertex;
* a minus mark on a vertex forces marks on all arcs leaving it, seen
  as vertices one level up (marks flow forward only);
* oriented mode forbids marks entirely;
* in a searched window a vertex's deleted pairs all have mixed labels
  or all equal ones, whatever the labeling (proved in _walk).

_walk is the one implementation of these rules, on many base labelings
at once as bitsets; the report of the chosen one is read off the same
walk, one bit of its bitsets.
"""
from __future__ import annotations

from .record import Record
from .words import FactorSet

__all__ = [
    "EvolutionReport",
    "RauzyGraph",
    "Witness",
    "build_k_graph",
    "export_dot",
    "strongly_connected",
    "validate_evolution",
]


class RauzyGraph:
    """Directed graph of k-factors connected by (k+1)-factors."""

    def __init__(self, k: int, vertices, arcs):
        self.k = k
        self.vertices = tuple(sorted(vertices))
        self.arcs = tuple(sorted(arcs))
        vset = set(self.vertices)
        for a in self.arcs:
            if len(a) != k + 1:
                raise ValueError(f"arc {a!r} is not a length-{k + 1} factor")
            if a[:-1] not in vset or a[1:] not in vset:
                raise ValueError(f"arc {a!r} has a missing endpoint vertex")


def _check_level(fs: FactorSet, k: int) -> None:
    if k < 1 or k + 1 > fs.max_len:
        raise ValueError(f"k = {k} outside the indexed window")


def build_k_graph(fs: FactorSet, k: int) -> RauzyGraph:
    _check_level(fs, k)
    return RauzyGraph(k, fs.counts(k).keys(), fs.counts(k + 1).keys())


def strongly_connected(fs: FactorSet, k: int) -> bool:
    """True when every vertex of the k-graph reaches every other; a lone
    vertex passes.  The graph is read off the extension sets: a k-factor
    v has successors v[1:] + y for y in right(v).

    The word walks its own graph: every vertex is one of its k-windows,
    and consecutive windows w[i:i+k], w[i+1:i+k+1] are joined by the arc
    w[i:i+k+1].  So every vertex is reached from the first window w[:k]
    and reaches the last, w[-k:].  If w[-k:] reaches w[:k], any u then
    reaches any v through w[-k:] and w[:k]; so one forward search from
    w[-k:] that stops at w[:k] decides the graph."""
    _check_level(fs, k)
    ext = fs.extensions(k)
    w = fs.word
    first, last = w[:k], w[len(w) - k:]
    seen, frontier = {last}, [last]
    while frontier:
        v = frontier.pop()
        if v == first:
            return True
        for y in ext[v][1]:
            u = v[1:] + y
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return False


class Witness(Record):
    # kind: valence | not-strongly-connected | unlicensed-deletion |
    #       strong-bispecial | label-contradiction | complexity (oriented
    #       mode only: p(n) > (k-1)n + 1 for the word's k letters, a bound
    #       every flip-free k-IET coding keeps, Keane 1975)
    __slots__ = _fields = ("kind", "k", "factors", "detail")

    def __init__(self, kind: str, k: int, factors: tuple, detail: str = "") -> None:
        super().__init__(kind, k, factors, detail)

    def __str__(self) -> str:
        body = ",".join(str(f) for f in self.factors)
        if self.detail:
            body = f"{body} ({self.detail})" if body else self.detail
        return f"{self.kind} at k={self.k}: {body}"


class EvolutionReport(Record):
    """Unlike the other records, its fields can be reassigned, and it
    keeps them in an instance __dict__ rather than slots."""

    _fields = ("window", "verdict", "K", "oriented", "witness",
               "in_labels", "out_labels", "marks")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(self, window: tuple, verdict: str, K: int | None, oriented: bool,
                 witness: Witness | None, in_labels: dict | None = None,
                 out_labels: dict | None = None, marks: dict | None = None) -> None:
        # verdict: accepted | accepted-from-K | rejected; in_labels and
        # out_labels: level -> {arc: l/r}; marks: level -> frozenset of vertices
        super().__init__(window, verdict, K, oriented, witness,
                         in_labels, out_labels, marks)

    @property
    def accepted(self) -> bool:
        return self.verdict in ("accepted", "accepted-from-K")


class _Levels:
    """Per-level static violations, deletions and crotches of a window.

    Every level is read straight off the extension sets of the index:
    the k-graph's vertices are the keys of fs.extensions(k), a vertex
    v has in-arcs x + v for x in its left set and out-arcs v + y for y
    in its right set, and the follower arcs deleted at level k are
    (a, a[1:] + y) for each (k+1)-factor a and each y in
    right(a[1:]) - right(a).  Only the special vertices (two or more
    arcs on a side) can carry a crotch or a valence violation, so only
    they are walked, in the sorted order fs.specials(k) lists them in.
    Deletions are looked for only through a = x + w, x in left(w), for w
    right-special or the word's last k-window.  That finds them all:
      right(a) lies inside right(a[1:]), so only right(a) empty deletes
      at a[1:] with one out-arc, and only the last window has it empty.
    The (a, y) hits are sorted, which fixes the order of the witnesses
    and events.

    Strong connectivity is checked on the extension sets of level k_max
    only, and the levels below are checked only when it fails.  That is
    enough: for k < k_max, if the (k+1)-graph is strongly connected, so
    is the k-graph.  The vertices of the (k+1)-graph are the arcs of the
    k-graph, and its arc u -> u' joins two arcs u, u' of the k-graph with
    head(u) = tail(u').  The word is longer than k + 1, so the
    (k+1)-graph has an arc, and being strongly connected it has a closed
    walk through every vertex.  Read in the k-graph, that walk is a
    closed walk along every arc, so through every vertex, since each
    k-factor is an end of some (k+1)-factor.  The levels that fail are
    therefore k_max and those just below it, down to the first that
    passes.
    """

    def __init__(self, fs: FactorSet, k_min: int, k_max: int):
        self.ext = {k: fs.extensions(k) for k in range(k_min, k_max + 1)}
        word = fs.word
        self.in_crotches = {}
        self.out_crotches = {}
        self.static = {}
        self.events = {}
        for k in range(k_min, k_max + 1):
            ext = self.ext[k]
            viol = []
            ins, outs, bispecial = [], [], []
            may_lose = {word[len(word) - k:]}
            for v, (left, right) in fs.specials(k):
                din, dout = len(left), len(right)
                if din > 2 or dout > 2:
                    viol.append(Witness(
                        "valence", k, (v,),
                        f"in-degree {din}, out-degree {dout}"))
                if din == 2:
                    ins.append(tuple(x + v for x in sorted(left)))
                if dout > 1:
                    may_lose.add(v)
                    if dout == 2:
                        outs.append(tuple(v + y for y in sorted(right)))
                        if din == 2:
                            bispecial.append(v)
            self.in_crotches[k] = ins
            self.out_crotches[k] = outs
            if k < k_max:
                ext1 = self.ext[k + 1]
                hits = []
                for w in may_lose:
                    left, right = ext[w]
                    for x in left:
                        a = x + w
                        hits.extend((a, y) for y in right - ext1[a][1])
                by_vertex = {}
                for a, y in sorted(hits):
                    w = a[1:]
                    left, right = ext[w]
                    if len(left) == 2 and len(right) == 2:
                        by_vertex.setdefault(w, []).append((a, w + y))
                    else:
                        viol.append(Witness(
                            "unlicensed-deletion", k, (a + y,),
                            f"vertex {w!r} is not bispecial"))
                for v in bispecial:
                    if v not in by_vertex:
                        viol.append(Witness(
                            "strong-bispecial", k, (v,),
                            "all four follower arcs survive"))
                self.events[k] = by_vertex
            self.static[k] = viol
        k = k_max
        while k >= k_min and not strongly_connected(fs, k):
            self.static[k].append(Witness("not-strongly-connected", k, (), ""))
            k -= 1

    def out_arcs(self, k: int, v: str) -> list[str]:
        return [v + y for y in self.ext[k][v][1]]


def _free_choices(levels: _Levels, K: int):
    """Crotch sides of the base level, each a binary labeling choice."""
    return ([("in", arcs) for arcs in levels.in_crotches[K]]
            + [("out", arcs) for arcs in levels.out_crotches[K]])


# masks are screened in blocks of at most 2**_BLOCK_BITS, one bit each
_BLOCK_BITS = 16


def _bit_pattern(bit: int, width: int) -> int:
    """Bitset over masks 0..2**width - 1 holding those with `bit` set."""
    span = 1 << bit
    pattern = ((1 << span) - 1) << span
    size = 2 * span
    while size < 1 << width:
        pattern |= pattern << size
        size *= 2
    return pattern


def _side_sets(sides, base: int, width: int):
    """Masks base..base + 2**width - 1 as bits of an int: all of them,
    and per (side, base arc) those labeling it r.  Bit i of a mask picks
    side i's labeling: first arc l, second r when clear."""
    full = (1 << (1 << width)) - 1
    side_of = {}
    for i, (side, arcs) in enumerate(sides):
        if i < width:
            pattern = _bit_pattern(i, width)
        else:
            pattern = full if base >> i & 1 else 0
        for flip, a in enumerate(arcs):
            side_of[side, a] = pattern ^ (full if flip else 0)
    return full, side_of


def _walk(levels: _Levels, K: int, k_max: int, oriented: bool,
          full: int, side_of: dict):
    """Apply the label rules to a set of base labelings at once.

    A set of labelings is an int, bit m standing for one: full holds
    them all, side_of[side, a] those labeling base arc a r (_side_sets).
    Labels are inherited from level K (an arc's in-label from its
    (K+1)-prefix, its out-label from its (K+1)-suffix), so whether a
    deleted pair's labels are equal is a parity of two bits.  A vertex
    whose pair is equal-labeled is marked, and fails in oriented mode;
    live labelings' marks go forward to the arcs leaving their vertex,
    as vertices one level up, and a labeling fails where its mark
    reaches a vertex whose pair is mixed.  The walk stops once no
    labeling is alive.

    A vertex is read from its first deleted pair, for its pairs are
    mixed or equal-labeled together, whatever the labeling.  Say w has
    deletions at level k < k_max.  The window has no static violation,
    so w is bispecial and the (k+1)-graph is strongly connected; its
    vertices include the two in-arcs of w, so each vertex has an arc in
    and an arc out.  Every arc xw of w thus has a right extension, and
    as a deleted pair (xw, wy) says xwy is no factor, at most one of its
    two pairs is deleted; likewise for every arc wy.  So w has one pair,
    or two sharing no arc, (x1w, wy1) and (x2w, wy2): x1w and x2w differ
    in in-label, wy1 and wy2 in out-label, so the pairs are of one kind.

    Returns the labelings that succeed, those of them that carry a
    mark, the deepest level at which some fail with those failing there
    (-1, 0 if none fails), {vertex: the labelings failing there} at that
    level, and per level walked {vertex: the live labelings marking it}.
    """
    alive = full
    marked_any = 0
    marked = {}
    marks = {}
    fail_k, failed, failing = -1, 0, {}
    for k in range(K, k_max + 1):
        fail = 0
        bad_at = {}
        level_marked = {}
        for w, pairs in levels.events.get(k, {}).items():
            a, b = pairs[0]
            ne = side_of["in", a[:K + 1]] ^ side_of["out", b[-K - 1:]]
            eq = full ^ ne
            bad = eq & alive if oriented else marked.get(w[:-1], 0) & ne
            if bad:
                fail |= bad
                bad_at[w] = bad
            marked_any |= eq
            level_marked[w] = eq
        if fail:
            alive &= ~fail
            fail_k, failed, failing = k, fail, bad_at
            if not alive:
                break
        for v, m in marked.items():
            for u in levels.out_arcs(k - 1, v):
                level_marked[u] = level_marked.get(u, 0) | m
        # no later level reads a failed labeling, so only live marks go on
        marks[k] = marked = {v: live for v, m in level_marked.items()
                             if (live := m & alive)}
    return alive, alive & marked_any, fail_k, failed, failing, marks


def _report(levels: _Levels, K: int, oriented: bool, side_of: dict, walk, bit: int):
    """Labeling `bit` of a block's walk: its labels and marks per level,
    else the witness of its failure; its labels are its own bits."""
    alive, _, k, _, failing, marks = walk
    if not alive >> bit & 1:
        return Witness(
            "label-contradiction", k,
            (min(w for w, bad in failing.items() if bad >> bit & 1),),
            "equal-label deletion requires a minus mark, oriented mode"
            if oriented else
            "mark forced forward onto a vertex with mixed-pair deletions")
    in_l = {k: {w: "lr"[side_of["in", w[:K + 1]] >> bit & 1]
                for arcs in levels.in_crotches[k] for w in arcs}
            for k in marks}
    out_l = {k: {w: "lr"[side_of["out", w[-K - 1:]] >> bit & 1]
                 for arcs in levels.out_crotches[k] for w in arcs}
             for k in marks}
    return in_l, out_l, {k: frozenset(v for v, m in level.items() if m >> bit & 1)
                         for k, level in marks.items()}


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _search_labels(levels: _Levels, K: int, k_max: int, oriented: bool):
    """The first base labeling that succeeds, else the deepest failure.

    Among successes, one without minus marks wins: marks are only
    warranted when no orientation-preserving reading exists.  Of equal
    candidates the lowest mask wins.  _walk screens the masks a block
    at a time, each block once; the walks a candidate was picked from
    are kept, and the report is read off the chosen one's.
    """
    sides = _free_choices(levels, K)
    width = min(len(sides), _BLOCK_BITS)
    marked_at = fail_at = None
    fail_k = -1
    for base in range(0, 1 << len(sides), 1 << width):
        full, side_of = _side_sets(sides, base, width)
        walk = _walk(levels, K, k_max, oriented, full, side_of)
        alive, marked, k, failed = walk[:4]
        if alive != marked:
            chosen = side_of, walk, _lowest(alive & ~marked)
            break
        if marked and marked_at is None:
            marked_at = side_of, walk, _lowest(marked)
        if k > fail_k:
            fail_k, fail_at = k, (side_of, walk, _lowest(failed))
    else:
        chosen = fail_at if marked_at is None else marked_at
    return _report(levels, K, oriented, *chosen)


def _complexity_excess(fs: FactorSet, top: int) -> Witness | None:
    """The first n in 1..top where p(n), the number of length-n factors,
    exceeds (k-1)n + 1 for the word's k letters, as a witness; None if
    none does.  The n-letter codings of a flip-free k-IET are cut out by
    at most (k-1)n preimages of its k-1 cuts, so no such coding exceeds
    the bound (Keane 1975).  p(n) is read off the extension sets below
    the index's top level and off its counts at the top, so no level of
    counts is rolled down."""
    k = len(fs.alphabet)
    for n in range(1, top + 1):
        p = len(fs.extensions(n) if n < fs.max_len else fs.counts(n))
        if p > (k - 1) * n + 1:
            return Witness("complexity", n, (), f"p({n}) = {p} > {(k - 1) * n + 1}")
    return None


def validate_evolution(fs: FactorSet, k_min: int, k_max: int,
                       oriented: bool = False) -> EvolutionReport:
    if k_min < 1 or k_max < k_min:
        raise ValueError(f"bad window [{k_min}, {k_max}]")
    if k_max + 1 > fs.max_len:
        raise ValueError(
            f"window [{k_min}, {k_max}] needs factors of length {k_max + 1}, "
            f"index stops at {fs.max_len}")
    levels = _Levels(fs, k_min, k_max)
    cap = max(k_min, k_max // 2)
    window = (k_min, k_max)
    K = k_min
    last_witness = None
    while K <= cap:
        bad = [k for k in range(K, k_max + 1) if levels.static[k]]
        if bad:
            last_witness = levels.static[bad[0]][0]
            K = max(bad) + 1
            continue
        found = _search_labels(levels, K, k_max, oriented)
        if not isinstance(found, Witness):
            if oriented:
                excess = _complexity_excess(fs, k_max + 1)
                if excess is not None:
                    return EvolutionReport(window, "rejected", None, oriented, excess)
            in_l, out_l, marks = found
            verdict = "accepted" if K == k_min else "accepted-from-K"
            return EvolutionReport(window, verdict, K, oriented, None,
                                   in_l, out_l, marks)
        last_witness = found
        K += 1
    return EvolutionReport(window, "rejected", None, oriented, last_witness)


def _dot_name(x: str) -> str:
    """x as a quoted DOT string; a backslash is escaped before a quote is."""
    return '"' + x.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(g: RauzyGraph) -> str:
    """Deterministic DOT text: vertices, then arcs, both sorted."""
    lines = ["digraph rauzy {"]
    lines += [f"  {_dot_name(v)};" for v in g.vertices]
    # arcs of one length sort as their (tail, head) pairs do
    lines += [f"  {_dot_name(a[:-1])} -> {_dot_name(a[1:])};" for a in g.arcs]
    lines.append("}")
    return "\n".join(lines) + "\n"
