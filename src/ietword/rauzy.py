"""Factor graphs of a word and the admissibility validator.

The k-graph has the length-k factors as vertices and the length-(k+1)
factors as arcs (an arc runs from its k-prefix to its k-suffix).  The
follower of a graph is its line graph.  As k grows the (k+1)-graph is a
subgraph of the follower of the k-graph, and which follower arcs are
allowed to disappear is governed by a label discipline on branching
vertices.  Whether a consistent discipline exists is decidable by
finite search, and deciding it is what validate_evolution does.

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
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .words import FactorSet

__all__ = [
    "DiGraph",
    "EvolutionReport",
    "LabeledDiGraph",
    "LabeledRauzyGraph",
    "RauzyGraph",
    "Witness",
    "build_k_graph",
    "export_dot",
    "follower",
    "is_subgraph_of_follower",
    "label_follower",
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
        self._in = {v: [] for v in self.vertices}
        self._out = {v: [] for v in self.vertices}
        for a in self.arcs:
            if len(a) != k + 1:
                raise ValueError(f"arc {a!r} is not a length-{k + 1} factor")
            if a[:-1] not in vset or a[1:] not in vset:
                raise ValueError(f"arc {a!r} has a missing endpoint vertex")
            self._out[a[:-1]].append(a)
            self._in[a[1:]].append(a)

    @staticmethod
    def tail(arc: str) -> str:
        return arc[:-1]

    @staticmethod
    def head(arc: str) -> str:
        return arc[1:]

    def in_arcs(self, v: str) -> list[str]:
        return self._in[v]

    def out_arcs(self, v: str) -> list[str]:
        return self._out[v]

    def in_degree(self, v: str) -> int:
        return len(self._in[v])

    def out_degree(self, v: str) -> int:
        return len(self._out[v])

    def successors(self, v: str):
        return [a[1:] for a in self._out[v]]

    def predecessors(self, v: str):
        return [a[:-1] for a in self._in[v]]


class DiGraph:
    """Generic digraph over hashable vertices with explicit arc pairs."""

    def __init__(self, vertices, arcs):
        self.vertices = tuple(vertices)
        self.arcs = tuple(arcs)
        self._succ = {v: [] for v in self.vertices}
        self._pred = {v: [] for v in self.vertices}
        for u, v in self.arcs:
            self._succ[u].append(v)
            self._pred[v].append(u)

    def successors(self, v):
        return self._succ[v]

    def predecessors(self, v):
        return self._pred[v]


def build_k_graph(fs: FactorSet, k: int) -> RauzyGraph:
    if k < 1 or k + 1 > fs.max_len:
        raise ValueError(f"k = {k} outside the indexed window")
    return RauzyGraph(k, fs.counts(k).keys(), fs.counts(k + 1).keys())


def follower(g: RauzyGraph) -> DiGraph:
    """Line graph: vertices are g's arcs, adjacency is head-meets-tail."""
    arcs = []
    for a in g.arcs:
        for b in g.out_arcs(g.head(a)):
            arcs.append((a, b))
    return DiGraph(g.arcs, arcs)


def is_subgraph_of_follower(g_k: RauzyGraph, g_k1: RauzyGraph) -> bool:
    if g_k1.k != g_k.k + 1:
        raise ValueError(f"graphs are levels {g_k.k} and {g_k1.k}, not consecutive")
    arcset = set(g_k.arcs)
    return all(w[:-1] in arcset and w[1:] in arcset for w in g_k1.arcs)


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


def strongly_connected(g) -> bool:
    """True when every vertex reaches every other; singletons pass."""
    if len(g.vertices) <= 1:
        return True
    start = g.vertices[0]
    n = len(set(g.vertices))
    return len(_bfs(start, g.successors)) == n and len(_bfs(start, g.predecessors)) == n


@dataclass(frozen=True)
class LabeledRauzyGraph:
    base: RauzyGraph
    in_labels: dict
    out_labels: dict
    marks: frozenset = frozenset()

    def __post_init__(self):
        g = self.base
        for v in g.vertices:
            if g.in_degree(v) > 2 or g.out_degree(v) > 2:
                raise ValueError(f"vertex {v!r} has a side of degree > 2")
        self._check_side(g, "in", self.in_labels, g.in_arcs, g.in_degree)
        self._check_side(g, "out", self.out_labels, g.out_arcs, g.out_degree)

    @staticmethod
    def _check_side(g, name, labels, arcs_of, degree):
        labeled = set(labels)
        expected = set()
        for v in g.vertices:
            if degree(v) == 2:
                a, b = arcs_of(v)
                expected.update((a, b))
                if {labels.get(a), labels.get(b)} != {"l", "r"}:
                    raise ValueError(
                        f"{name}-arcs of {v!r} must carry distinct l/r labels")
        if labeled != expected:
            raise ValueError(f"{name}-labels exist away from degree-2 sides")


@dataclass(frozen=True)
class LabeledDiGraph:
    graph: DiGraph
    in_labels: dict
    out_labels: dict
    marks: frozenset = frozenset()


def label_follower(lg: LabeledRauzyGraph) -> LabeledDiGraph:
    """Push labels one level up; inheritance is deterministic."""
    g = lg.base
    fol = follower(g)
    in_labels = {}
    out_labels = {}
    for a, b in fol.arcs:
        # (a, b) enters follower-vertex b whose in-side mirrors the
        # in-side of b's tail vertex; same for the out-side of a's head
        if g.in_degree(g.tail(b)) == 2:
            in_labels[(a, b)] = lg.in_labels[a]
        if g.out_degree(g.head(a)) == 2:
            out_labels[(a, b)] = lg.out_labels[b]
    marks = frozenset(u for u in fol.vertices if g.tail(u) in lg.marks)
    return LabeledDiGraph(fol, in_labels, out_labels, marks)


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
    """Precomputed per-level graphs, static violations and deletions."""

    def __init__(self, fs: FactorSet, k_min: int, k_max: int):
        self.graphs = {}
        self.static = {}
        self.events = {}
        for k in range(k_min, k_max + 1):
            g = build_k_graph(fs, k)
            self.graphs[k] = g
            viol = []
            for v in g.vertices:
                din, dout = g.in_degree(v), g.out_degree(v)
                if din > 2 or dout > 2:
                    viol.append(Witness(
                        "valence", k, (v,),
                        f"in-degree {din}, out-degree {dout}"))
            if k < k_max:
                deletions = []
                ext = fs.extensions(k + 1)
                for a in g.arcs:
                    right = ext[a][1]
                    for b in g.out_arcs(g.head(a)):
                        if b[-1] not in right:
                            deletions.append((a, b))
                by_vertex = {}
                for a, b in deletions:
                    w = g.head(a)
                    if g.in_degree(w) == 2 and g.out_degree(w) == 2:
                        by_vertex.setdefault(w, []).append((a, b))
                    else:
                        viol.append(Witness(
                            "unlicensed-deletion", k, (a + b[-1],),
                            f"vertex {w!r} is not bispecial"))
                deleted_at = set(by_vertex)
                for v in g.vertices:
                    if (g.in_degree(v) == 2 and g.out_degree(v) == 2
                            and v not in deleted_at):
                        viol.append(Witness(
                            "strong-bispecial", k, (v,),
                            "all four follower arcs survive"))
                self.events[k] = by_vertex
            if not strongly_connected(g):
                viol.append(Witness("not-strongly-connected", k, (), ""))
            self.static[k] = viol


def _free_choices(g: RauzyGraph):
    """Crotch sides of the base level, each a binary labeling choice."""
    sides = []
    for v in g.vertices:
        if g.in_degree(v) == 2:
            sides.append(("in", tuple(sorted(g.in_arcs(v)))))
    for v in g.vertices:
        if g.out_degree(v) == 2:
            sides.append(("out", tuple(sorted(g.out_arcs(v)))))
    return sides


def _search_labels(levels: _Levels, K: int, k_max: int, oriented: bool):
    """Try every base labeling; success or the deepest-failure witness.

    Among successes, one without minus marks wins: marks are only
    warranted when no orientation-preserving reading exists.
    """
    sides = _free_choices(levels.graphs[K])
    best_fail = None
    best_k = -1
    marked_success = None
    for mask in range(1 << len(sides)):
        in_l = {K: {}}
        out_l = {K: {}}
        for bit, (side, arcs) in enumerate(sides):
            a, b = arcs
            if mask >> bit & 1:
                a, b = b, a
            (in_l if side == "in" else out_l)[K][a] = "l"
            (in_l if side == "in" else out_l)[K][b] = "r"
        result = _check_assignment(levels, K, k_max, oriented, in_l, out_l)
        if isinstance(result, Witness):
            if result.k > best_k:
                best_k, best_fail = result.k, result
        elif not any(result[2].values()):
            return result
        elif marked_success is None:
            marked_success = result
    if marked_success is not None:
        return marked_success
    return best_fail


def _check_assignment(levels, K, k_max, oriented, in_l, out_l):
    marks = {}
    prev_marks = frozenset()
    for k in range(K, k_max + 1):
        g = levels.graphs[k]
        if k > K:
            cur_in, cur_out = {}, {}
            p_in, p_out = in_l[k - 1], out_l[k - 1]
            for v in g.vertices:
                if g.in_degree(v) == 2:
                    for w in g.in_arcs(v):
                        cur_in[w] = p_in[w[:-1]]
                if g.out_degree(v) == 2:
                    for w in g.out_arcs(v):
                        cur_out[w] = p_out[w[1:]]
            in_l[k], out_l[k] = cur_in, cur_out
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
        for v in g.vertices:
            if v[:-1] in prev_marks:
                level_marks.add(v)
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


def _dot_name(x) -> str:
    if isinstance(x, tuple):
        x = "|".join(x)
    return '"' + str(x).replace('"', r'\"') + '"'


def export_dot(g) -> str:
    """Deterministic DOT text for plain or labeled graphs."""
    in_labels = {}
    out_labels = {}
    marks = frozenset()
    if isinstance(g, (LabeledRauzyGraph, LabeledDiGraph)):
        in_labels, out_labels, marks = g.in_labels, g.out_labels, g.marks
        g = g.base if isinstance(g, LabeledRauzyGraph) else g.graph
    lines = ["digraph rauzy {"]
    for v in sorted(g.vertices):
        attr = ' [label="%s -"]' % ("|".join(v) if isinstance(v, tuple) else v) \
            if v in marks else ""
        lines.append(f"  {_dot_name(v)}{attr};")
    if isinstance(g, RauzyGraph):
        arc_ends = [(a[:-1], a[1:], a) for a in g.arcs]
    else:
        arc_ends = [(u, v, (u, v)) for u, v in g.arcs]
    for u, v, key in sorted(arc_ends):
        tags = []
        if key in in_labels:
            tags.append(f"in={in_labels[key]}")
        if key in out_labels:
            tags.append(f"out={out_labels[key]}")
        attr = f' [label="{" ".join(tags)}"]' if tags else ""
        lines.append(f"  {_dot_name(u)} -> {_dot_name(v)}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
