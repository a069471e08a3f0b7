import re

import pytest
from hypothesis import example, given, settings, strategies as st

from ietword.exact import rational
from ietword.iet import natural_coding
from ietword.rauzy import (
    RauzyGraph,
    Witness,
    build_k_graph,
    export_dot,
    strongly_connected,
    validate_evolution,
)
from ietword import rauzy
from ietword.words import FactorSet

import reference as ref
from corpus import (fibonacci_word, flipped_4iet, flipped_corpus, golden_word,
                    label_search_words, levels_corpus, mark_clash_word, near_miss,
                    random_word, silver_word, thue_morse_word, tribonacci_word)


def fib_fs(max_len=21):
    return FactorSet(fibonacci_word(4000), max_len)


# ---------------------------------------------------------------- graphs

def test_fibonacci_k1_graph():
    g = build_k_graph(fib_fs(), 1)
    assert g.vertices == ("a", "b")
    assert g.arcs == ("aa", "ab", "ba")
    ins, outs = ref.adjacency(g)
    assert ins["a"] == ["aa", "ba"]
    assert outs["a"] == ["aa", "ab"]
    assert len(ins["b"]) == 1 and len(outs["b"]) == 1


def test_fibonacci_k2_graph():
    g = build_k_graph(fib_fs(), 2)
    assert g.vertices == ("aa", "ab", "ba")
    assert g.arcs == ("aab", "aba", "baa", "bab")
    ins, outs = ref.adjacency(g)
    assert outs["aa"] == ["aab"] and ins["ab"] == ["aab", "bab"]


def test_graph_rejects_dangling_arc():
    with pytest.raises(ValueError):
        RauzyGraph(1, ["a"], ["ab"])
    with pytest.raises(ValueError):
        RauzyGraph(1, ["a", "b"], ["abc"])


def test_build_k_graph_window():
    fs = fib_fs(5)
    with pytest.raises(ValueError):
        build_k_graph(fs, 0)
    with pytest.raises(ValueError):
        build_k_graph(fs, 5)
    assert build_k_graph(fs, 4).k == 4


def inside_follower(fs: FactorSet, k: int) -> bool:
    """The (k+1)-graph sits inside the follower of the k-graph: every
    (k+2)-factor's prefix and suffix are (k+1)-factors."""
    arcs = fs.counts(k + 1)
    return all(w[:-1] in arcs and w[1:] in arcs for w in fs.counts(k + 2))


def test_next_graph_sits_inside_follower():
    fs = fib_fs()
    assert inside_follower(fs, 1)
    # exactly one follower arc is unused: aa -> aa would spell aaa
    arcs = fs.counts(2)
    follower = {a + b[-1] for a in arcs for b in arcs if a[1:] == b[:-1]}
    assert follower - set(fs.counts(3)) == {"aaa"}


def test_strongly_connected():
    assert strongly_connected(fib_fs(), 1)
    assert strongly_connected(FactorSet("aaa", 2), 1)
    # b has no out-arc, then no in-arc
    assert not strongly_connected(FactorSet("aab", 2), 1)
    assert not strongly_connected(FactorSet("baa", 2), 1)
    # a cycle through every vertex, and two cycles joined one way
    assert strongly_connected(FactorSet("abcab", 2), 1)
    assert not strongly_connected(FactorSet("aaabbb", 2), 1)
    for k in (0, 2):
        with pytest.raises(ValueError):
            strongly_connected(FactorSet("aab", 2), k)


def test_strongly_connected_matches_two_searches():
    # one search from the last window to the first decides every level
    # of genuine, substitutive, near-miss and random words
    words = [fibonacci_word(400), thue_morse_word(400), tribonacci_word(400),
             golden_word(400), silver_word(400), near_miss(silver_word(400), 200),
             *(random_word(seed, "abcd"[:2 + seed % 3], 5 + 9 * seed) for seed in range(30))]
    verdicts = {True: 0, False: 0}
    for word in words:
        fs = FactorSet(word, min(len(word), 24))
        for k in range(1, fs.max_len):
            got = strongly_connected(fs, k)
            assert got == ref.strongly_connected(build_k_graph(fs, k)), (word, k)
            verdicts[got] += 1
    assert min(verdicts.values()) > 100, verdicts


# ---------------------------------------------------------------- labels

def fib_labeling(mask, oriented=False):
    # vertex a of the Fibonacci 1-graph is bispecial, and its follower
    # arc aa -> aa is deleted: aaa is no factor.  Bit 0 of mask labels
    # its in-arcs, clear for aa l and ba r; bit 1 its out-arcs, clear for
    # aa l and ab r
    levels = rauzy._Levels(fib_fs(), 1, 3)
    sides = rauzy._free_choices(levels, 1)
    assert sides == [("in", ("aa", "ba")), ("out", ("aa", "ab"))]
    # a one-mask block: the walk's bitsets are bit 0 alone
    full, side_of = rauzy._side_sets(sides, mask, 0)
    walk = rauzy._walk(levels, 1, 3, oriented, full, side_of)
    return rauzy._report(levels, 1, oriented, side_of, walk, 0)


def test_labeling_inherits_labels():
    in_l, out_l, marks = fib_labeling(0b10)
    assert in_l[1] == {"aa": "l", "ba": "r"}
    assert out_l[1] == {"aa": "r", "ab": "l"}
    # an arc keeps the in-label of its prefix one level down, and the
    # out-label of its suffix; "ab" is the 2-graph's one in-crotch, "ba"
    # its one out-crotch, "aba" the 3-graph's two
    assert in_l[2] == {"aab": "l", "bab": "r"}
    assert out_l[2] == {"baa": "r", "bab": "l"}
    assert in_l[3] == {"aaba": "l", "baba": "r"}
    assert out_l[3] == {"abaa": "r", "abab": "l"}
    # aa -> aa carries mixed labels, so nothing is marked
    assert marks == {1: frozenset(), 2: frozenset(), 3: frozenset()}


def test_labeling_marks_flow_forward():
    # equal labels on aa -> aa mark vertex a, and the mark flows to the
    # arcs leaving each marked vertex, one level up
    in_l, out_l, marks = fib_labeling(0b00)
    assert out_l[1] == {"aa": "l", "ab": "r"}
    assert marks == {1: frozenset({"a"}), 2: frozenset({"aa", "ab"}),
                     3: frozenset({"aab", "aba"})}
    witness = fib_labeling(0b00, oriented=True)
    assert str(witness) == ("label-contradiction at k=1: a (equal-label "
                            "deletion requires a minus mark, oriented mode)")


# ------------------------------------------------------------- validator

def test_golden_coding_accepted_oriented():
    fs = FactorSet(golden_word(4000), 21)
    r = validate_evolution(fs, 1, 20, oriented=True)
    assert r.verdict == "accepted"
    assert r.K == 1
    assert r.accepted
    assert r.witness is None
    assert all(not m for m in r.marks.values())
    # the lone deleted pair 22|22 pins the two sides of vertex "2" apart
    assert r.in_labels[1]["22"] != r.out_labels[1]["22"]


def test_golden_coding_accepted_unoriented_too():
    fs = FactorSet(golden_word(4000), 21)
    r = validate_evolution(fs, 1, 20, oriented=False)
    assert r.accepted and r.K == 1


def test_window_can_start_higher():
    fs = FactorSet(golden_word(4000), 21)
    r = validate_evolution(fs, 2, 10, oriented=True)
    assert r.verdict == "accepted" and r.K == 2


def test_fibonacci_substitution_accepted():
    r = validate_evolution(fib_fs(), 1, 20, oriented=True)
    assert r.verdict == "accepted" and r.K == 1


def test_silver_coding_accepted():
    fs = FactorSet(silver_word(6000), 17)
    r = validate_evolution(fs, 1, 16, oriented=True)
    assert r.verdict == "accepted" and r.K == 1


def test_periodic_word_accepted():
    fs = FactorSet("ab" * 300, 9)
    r = validate_evolution(fs, 1, 8, oriented=True)
    assert r.verdict == "accepted" and r.K == 1


def test_thue_morse_rejected():
    fs = FactorSet(thue_morse_word(4000), 21)
    r = validate_evolution(fs, 1, 20)
    assert r.verdict == "rejected"
    assert r.K is None and not r.accepted
    assert r.witness.kind == "strong-bispecial"
    assert r.witness.k == 2
    assert r.witness.factors == ("ab",)


def test_tribonacci_rejected_on_valence():
    fs = FactorSet(tribonacci_word(4000), 21)
    r = validate_evolution(fs, 1, 20)
    assert r.verdict == "rejected"
    assert r.witness.kind == "valence"
    assert r.witness.k == 1
    assert r.witness.factors == ("a",)


def test_validator_window_validation():
    fs = fib_fs(5)
    with pytest.raises(ValueError):
        validate_evolution(fs, 0, 3)
    with pytest.raises(ValueError):
        validate_evolution(fs, 3, 2)
    with pytest.raises(ValueError):
        validate_evolution(fs, 1, 5)  # needs length-6 factors


def test_validator_one_level_window():
    r = validate_evolution(fib_fs(5), 4, 4, oriented=True)
    assert (r.window, r.verdict, r.K) == ((4, 4), "accepted", 4)
    assert list(r.in_labels) == list(r.out_labels) == [4]


def test_flipped_iet_needs_unoriented_mode():
    w = natural_coding(flipped_4iet(), rational(0), 20000)
    fs = FactorSet(w, 13)
    r_no = validate_evolution(fs, 1, 12, oriented=False)
    assert r_no.verdict == "accepted-from-K"
    assert r_no.K == 3
    assert any(r_no.marks.values())
    r_or = validate_evolution(fs, 1, 12, oriented=True)
    assert r_or.verdict == "rejected"
    assert r_or.witness.kind == "label-contradiction"
    assert r_or.witness.k == 10


# ------------------------------------------------------------------ dot

def test_export_dot_plain():
    g = build_k_graph(fib_fs(), 2)
    dot = export_dot(g)
    assert dot == export_dot(build_k_graph(fib_fs(), 2))
    assert '  "aa" -> "ab";' in dot.splitlines()
    lines = dot.strip().splitlines()
    assert lines[0] == "digraph rauzy {" and lines[-1] == "}"
    # vertices precede arcs, both lexicographic
    assert [l for l in lines if "->" not in l and l not in ("digraph rauzy {", "}")] == \
        ['  "aa";', '  "ab";', '  "ba";']


def test_export_dot_self_loop_minimal():
    dot = export_dot(RauzyGraph(1, ["a"], ["aa"]))
    assert dot.splitlines() == [
        "digraph rauzy {",
        '  "a";',
        '  "a" -> "a";',
        "}",
    ]


DOT_STRING = r'"(?:[^"\\]|\\.)*"'
DOT_LINE = re.compile(rf'  {DOT_STRING}(?: -> {DOT_STRING})?;')


def test_export_dot_escapes_backslash_and_quote():
    g = build_k_graph(FactorSet("a\\b\\ab\\a", 2), 1)
    lines = export_dot(g).splitlines()
    assert lines[1:4] == [r'  "\\";', '  "a";', '  "b";']
    assert r'  "\\" -> "a";' in lines
    quoted = export_dot(build_k_graph(FactorSet('a"ab"a', 2), 1)).splitlines()
    assert '  "\\"" -> "a";' in quoted
    for line in lines[1:-1] + quoted[1:-1]:
        assert DOT_LINE.fullmatch(line), line


# ---------------------------------------------------------- label search

@pytest.mark.parametrize("block_bits", [16, 3])
@pytest.mark.parametrize("word, k_max", label_search_words())
def test_label_search_matches_one_by_one(word, k_max, block_bits, monkeypatch):
    fs = FactorSet(word, k_max + 1)
    got = {}
    for search in ("screened", "reference"):
        if search == "reference":
            monkeypatch.setattr(rauzy, "_search_labels", ref.search_one_by_one)
        else:
            monkeypatch.setattr(rauzy, "_BLOCK_BITS", block_bits)
        got[search] = [vars(validate_evolution(fs, 1, k_max, oriented))
                       for oriented in (False, True)]
    assert got["screened"] == got["reference"]
    assert any(r["K"] not in (None, 1) for r in got["screened"])


def searched_windows(monkeypatch, corpus, check=None):
    """The (levels, K, k_max, oriented) of every label search the
    validator makes over corpus in both modes, window [1, k_max]; check
    sees each search's arguments and result."""
    seen = []
    search = rauzy._search_labels

    def spy(*args):
        seen.append(args)
        found = search(*args)
        if check:
            check(args, found)
        return found
    with monkeypatch.context() as m:
        m.setattr(rauzy, "_search_labels", spy)
        for word, k_max in corpus:
            fs = FactorSet(word, k_max + 1)
            for oriented in (False, True):
                validate_evolution(fs, 1, k_max, oriented)
    return seen


def test_label_search_matches_one_by_one_at_every_K(monkeypatch):
    # every search, not only the one a report keeps, against the
    # reference; each failure reason is reached, and some chosen
    # labelings fail at two vertices of one level, so the witness's rank
    # is compared too
    reasons = []

    def check(args, found):
        assert found == ref.search_one_by_one(*args)
        if isinstance(found, Witness):
            reasons.append(found.detail)
    corpus = [*levels_corpus(), (mark_clash_word(), 12)]
    searched_windows(monkeypatch, corpus, check)
    assert set(reasons) == {
        "equal-label deletion requires a minus mark, oriented mode",
        "mark forced forward onto a vertex with mixed-pair deletions"}


@pytest.mark.parametrize("block_bits", [16, 3])
def test_label_search_walks_each_block_once(block_bits, monkeypatch):
    # a search walks each block of masks it screens once, and its report
    # walks nothing more: every block, or when some base labeling
    # succeeds unmarked, the blocks up to the first that holds one
    walks = []
    walk = rauzy._walk

    def spy(*args):
        walks.append(args)
        return walk(*args)

    def clean(levels, K, k_max, oriented, sides, mask):
        result = ref.check_assignment(levels, K, k_max, oriented,
                                      *ref.base_labels(K, sides, mask))
        return not isinstance(result, Witness) and not any(result[2].values())

    def check(args, found):
        sides = rauzy._free_choices(*args[:2])
        size = 1 << min(len(sides), block_bits)
        first = next((mask for mask in range(1 << len(sides))
                      if clean(*args, sides, mask)), None)
        blocks = -(-(1 << len(sides)) // size) if first is None else first // size + 1
        assert len(walks) == blocks
        walks.clear()
    monkeypatch.setattr(rauzy, "_BLOCK_BITS", block_bits)
    monkeypatch.setattr(rauzy, "_walk", spy)
    searched_windows(monkeypatch, label_search_words(), check)


def test_deleted_pairs_share_no_arc(monkeypatch):
    # the lemma _walk reads each vertex from its first pair by: in a
    # searched window, no arc is in two deleted pairs at one vertex
    corpus = [*levels_corpus(), *(
        (natural_coding(T, rational(3, 11), 2000), 12)
        for T in flipped_corpus(12))]
    vertices = two_pairs = 0
    for levels, K, k_max, _ in searched_windows(monkeypatch, corpus):
        for k in range(K, k_max):
            for pairs in levels.events[k].values():
                ins, outs = zip(*pairs)
                assert len(set(ins)) == len(ins)
                assert len(set(outs)) == len(outs)
                vertices += 1
                two_pairs += len(pairs) == 2
    assert vertices > 500 and two_pairs > 100


# --------------------------------------------------------------- levels

def test_levels_match_graph_reference(monkeypatch):
    kinds, verdicts, mixed, last_window = set(), set(), 0, 0
    for word, k_max in levels_corpus():
        fs = FactorSet(word, k_max + 1)
        for k_min in (1, 3):
            got = rauzy._Levels(fs, k_min, k_max)
            graphs = ref.LevelGraphs(fs, k_min, k_max)
            assert [strongly_connected(fs, k) for k in graphs.graphs] == \
                [ref.strongly_connected(g) for g in graphs.graphs.values()]
            assert all(fs.extensions(k).keys() == fs.counts(k).keys()
                       for k in graphs.graphs)
            assert got.static == graphs.static, word
            assert got.events == graphs.events, word
            assert [list(ev) for ev in got.events.values()] == \
                [list(ev) for ev in graphs.events.values()]
            assert got.in_crotches == graphs.in_crotches
            assert got.out_crotches == graphs.out_crotches
            kinds.update(w.kind for ws in got.static.values() for w in ws)
            cut = [k for k, ws in got.static.items()
                   if any(w.kind == "not-strongly-connected" for w in ws)]
            mixed += bool(cut) and min(cut) > k_min
            # deletions at a vertex with one out-arc, which only the
            # word's last window can make
            last_window += sum(
                len(fs.extensions(w.k)[w.factors[0][1:-1]][1]) < 2
                for ws in got.static.values() for w in ws
                if w.kind == "unlicensed-deletion")
            for oriented in (False, True):
                new = vars(validate_evolution(fs, k_min, k_max, oriented))
                with monkeypatch.context() as m:
                    m.setattr(rauzy, "_Levels", ref.LevelGraphs)
                    old = vars(validate_evolution(fs, k_min, k_max, oriented))
                assert new == old, (word, k_min, oriented)
                verdicts.add(new["witness"].kind if new["witness"]
                             else new["verdict"])
    assert kinds == {"valence", "unlicensed-deletion", "strong-bispecial",
                     "not-strongly-connected"}
    assert verdicts == kinds | {"label-contradiction", "accepted",
                                "accepted-from-K", "complexity"}
    assert mixed > 10
    assert last_window > 10


def test_validator_counts_the_top_level_only():
    # connectivity fails at levels 4 to 6, so the check walks down to 3
    fs = FactorSet("aab" * 10 + "ba" * 10, 7)
    levels = rauzy._Levels(fs, 1, 6)
    assert [k for k, ws in levels.static.items()
            if any(w.kind == "not-strongly-connected" for w in ws)] == [4, 5, 6]
    assert list(fs._counts) == [7]
    # an oriented acceptance reads p(n) for the complexity bound off the
    # extension sets and the top counts
    fs = FactorSet(golden_word(3000), 13)
    assert validate_evolution(fs, 1, 12, oriented=True).verdict == "accepted"
    assert list(fs._counts) == [13]


@pytest.mark.parametrize("word, k_max, detail", [
    ("aabb" * 750, 12, "complexity at k=2: p(2) = 4 > 3"),
    ("cbbaac" * 600, 12, "complexity at k=2: p(2) = 6 > 5"),
    # the bound is checked one level past the window, at the index's top
    ("aabb" * 750, 1, "complexity at k=2: p(2) = 4 > 3"),
], ids=["aabb", "cbbaac", "aabb-top-level"])
def test_complexity_bound_vetoes_oriented_acceptance(word, k_max, detail):
    fs = FactorSet(word, k_max + 1)
    report = validate_evolution(fs, 1, k_max, oriented=True)
    assert (report.verdict, report.K, str(report.witness)) == ("rejected", None, detail)
    # flips change the complexity law, so the non-oriented verdict stands
    assert validate_evolution(fs, 1, k_max, oriented=False).verdict == "accepted"


def bound_excess(fs, top):
    """Reference: the first n <= top with more than (k-1)n + 1 factors of
    length n, counted off the word's windows."""
    k = len(set(fs.word))
    for n in range(1, top + 1):
        p = len(ref.window_counts(fs.word, n))
        if p > (k - 1) * n + 1:
            return n, p
    return None


def test_complexity_veto_matches_reference(monkeypatch):
    # with the veto off, the oriented verdict is the label search's own;
    # the veto turns exactly the acceptances that break the bound, at
    # the first n that breaks it, and non-oriented verdicts never change
    vetoed = 0
    for word, k_max in levels_corpus():
        fs = FactorSet(word, k_max + 1)
        got = {o: vars(validate_evolution(fs, 1, k_max, o)) for o in (False, True)}
        with monkeypatch.context() as m:
            m.setattr(rauzy, "_complexity_excess", lambda fs, top: None)
            plain = {o: vars(validate_evolution(fs, 1, k_max, o)) for o in (False, True)}
        assert got[False] == plain[False]
        excess = bound_excess(fs, k_max + 1)
        if plain[True]["verdict"] != "rejected" and excess is not None:
            vetoed += 1
            n, p = excess
            assert got[True]["verdict"] == "rejected" and got[True]["K"] is None
            witness = got[True]["witness"]
            assert (witness.kind, witness.k, witness.factors) == ("complexity", n, ())
            assert witness.detail == f"p({n}) = {p} > {(len(fs.alphabet) - 1) * n + 1}"
        else:
            assert got[True] == plain[True]
    assert vetoed > 10


def test_last_window_deletes_at_a_one_arc_vertex():
    # vertex ab has the one out-arc aba, but the word's last 3-window bab
    # has no right extension, so the follower arc bab -> aba is deleted
    levels = rauzy._Levels(FactorSet("aabab", 4), 1, 3)
    assert str(levels.static[2][0]) == \
        "unlicensed-deletion at k=2: baba (vertex 'ab' is not bispecial)"


# ------------------------------------------------------------ properties

words_strategy = st.text(alphabet="ab", min_size=30, max_size=120)


@settings(max_examples=50)
@given(words_strategy)
def test_graph_counts_match_complexity(w):
    fs = FactorSet(w, 8)
    for k in range(1, 7):
        g = build_k_graph(fs, k)
        assert len(g.vertices) == len(fs.counts(k))
        assert len(g.arcs) == len(fs.counts(k + 1))


@settings(max_examples=50)
@given(words_strategy)
def test_next_graph_always_inside_follower(w):
    fs = FactorSet(w, 8)
    for k in range(1, 6):
        assert inside_follower(fs, k)


@settings(max_examples=100)
@given(st.sampled_from(["ab", "abc"]).flatmap(
    lambda letters: st.text(alphabet=letters, min_size=10, max_size=120)))
@example("ab" * 20)                  # connected at every level
@example("aab" * 10 + "ba" * 10)     # connected up to k = 3 only
def test_connected_level_has_connected_level_below(w):
    # the validator checks strong connectivity at its top level only,
    # and walks down only when that check fails
    fs = FactorSet(w, 10)
    for k in range(1, 10):
        assert strongly_connected(fs, k) == ref.strongly_connected(build_k_graph(fs, k))
    for k in range(1, 9):
        if strongly_connected(fs, k + 1):
            assert strongly_connected(fs, k)


@settings(max_examples=50)
@given(words_strategy)
def test_validator_is_total(w):
    r = validate_evolution(FactorSet(w, 7), 1, 6)
    assert r.verdict in ("accepted", "accepted-from-K", "rejected")
    assert r.accepted == (r.witness is None)
    if r.accepted:
        assert 1 <= r.K <= 6
