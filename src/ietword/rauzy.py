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
* oriented mode forbids marks entirely.

_check_assignment is the one implementation of these rules;
_screen_masks applies them to many base labelings at once, as bitsets.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def _bfs(start, neighbors) -> set:
    seen = {start}
    frontier = [start]
    while frontier:
        v = frontier.pop()
        for u in neighbors(v):
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return seen


def strongly_connected(fs: FactorSet, k: int) -> bool:
    """True when every vertex of the k-graph reaches every other; a lone
    vertex passes.  The graph is read off the extension sets: a k-factor
    v has successors v[1:] + y for y in right(v) and predecessors
    x + v[:-1] for x in left(v)."""
    _check_level(fs, k)
    ext = fs.extensions(k)
    start = next(iter(ext))
    n = len(ext)
    return (len(_bfs(start, lambda v: [v[1:] + y for y in ext[v][1]])) == n
            and len(_bfs(start, lambda v: [x + v[:-1] for x in ext[v][0]])) == n)


@dataclass(frozen=True)
class Witness:
    kind: str  # valence | not-strongly-connected | unlicensed-deletion |
               # strong-bispecial | label-contradiction
    k: int
    factors: tuple
    detail: str = ""

    def __str__(self) -> str:
        body = ",".join(str(f) for f in self.factors)
        extra = f" ({self.detail})" if self.detail else ""
        return f"{self.kind} at k={self.k}: {body}{extra}"


@dataclass
class EvolutionReport:
    window: tuple
    verdict: str  # accepted | accepted-from-K | rejected
    K: int | None
    oriented: bool
    witness: Witness | None
    in_labels: dict | None = None   # level -> {arc: l/r}
    out_labels: dict | None = None
    marks: dict | None = None       # level -> frozenset of vertices

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
        return [v + y for y in sorted(self.ext[k][v][1])]


def _free_choices(levels: _Levels, K: int):
    """Crotch sides of the base level, each a binary labeling choice."""
    return ([("in", arcs) for arcs in levels.in_crotches[K]]
            + [("out", arcs) for arcs in levels.out_crotches[K]])


def _base_labels(K: int, sides, mask: int):
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


def _screen_masks(levels: _Levels, K: int, k_max: int, oriented: bool,
                  sides, base: int, width: int):
    """Run _check_assignment on masks base..base + 2**width - 1 at once.

    Every set of masks is an int with bit m standing for mask base + m.
    A label at level k is inherited from level K (the in-label of an arc
    from its (K+1)-prefix, the out-label from its (K+1)-suffix), so the
    comparison of two labels is a parity of two mask bits.  Returns the
    masks that succeed without marks, those that succeed with marks, and
    for each level the masks whose first failure is there.
    """
    full = (1 << (1 << width)) - 1
    side_of = {}
    for i, (side, arcs) in enumerate(sides):
        if i < width:
            pattern = _bit_pattern(i, width)
        else:
            pattern = full if base >> i & 1 else 0
        for flip, a in enumerate(arcs):
            side_of[side, a] = pattern ^ (full if flip else 0)
    alive = full
    marked_any = 0
    marked = {}
    failed = {}
    for k in range(K, k_max + 1):
        fail = 0
        level_marked = {}
        for w, pairs in levels.events.get(k, {}).items():
            any_eq = 0
            any_ne = 0
            for a, b in pairs:
                ne = side_of["in", a[:K + 1]] ^ side_of["out", b[-K - 1:]]
                any_ne |= ne
                any_eq |= full ^ ne
            fail |= any_eq & any_ne
            if oriented:
                fail |= any_eq
            fail |= marked.get(w[:-1], 0) & any_ne
            marked_any |= any_eq
            level_marked[w] = any_eq
        for v, m in marked.items():
            for u in levels.out_arcs(k - 1, v):
                level_marked[u] = level_marked.get(u, 0) | m
        failed[k] = alive & fail
        alive &= ~fail
        # no later level reads a failed mask, so only live marks go on
        marked = {v: live for v, m in level_marked.items()
                  if (live := m & alive)}
    return alive & ~marked_any, alive & marked_any, failed


def _lowest(bits: int) -> int:
    return (bits & -bits).bit_length() - 1


def _search_labels(levels: _Levels, K: int, k_max: int, oriented: bool):
    """The first base labeling that succeeds, else the deepest failure.

    Among successes, one without minus marks wins: marks are only
    warranted when no orientation-preserving reading exists.  Of equal
    candidates the lowest mask wins; _screen_masks classifies them and
    _check_assignment builds the report of the one chosen.
    """
    sides = _free_choices(levels, K)
    width = min(len(sides), _BLOCK_BITS)
    marked_mask = None
    fail_k, fail_mask = -1, None
    for base in range(0, 1 << len(sides), 1 << width):
        clean, marked, failed = _screen_masks(
            levels, K, k_max, oriented, sides, base, width)
        if clean:
            chosen = base + _lowest(clean)
            break
        if marked and marked_mask is None:
            marked_mask = base + _lowest(marked)
        for k, bits in failed.items():
            if bits and k > fail_k:
                fail_k, fail_mask = k, base + _lowest(bits)
    else:
        chosen = fail_mask if marked_mask is None else marked_mask
    in_l, out_l = _base_labels(K, sides, chosen)
    return _check_assignment(levels, K, k_max, oriented, in_l, out_l)


def _check_assignment(levels, K, k_max, oriented, in_l, out_l):
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
