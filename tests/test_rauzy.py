import pytest
from hypothesis import given, settings, strategies as st

from ietword.exact import make_quadratic, rational
from ietword.iet import build_iet, natural_coding
from ietword.rauzy import (
    DiGraph,
    LabeledRauzyGraph,
    RauzyGraph,
    build_k_graph,
    export_dot,
    follower,
    is_subgraph_of_follower,
    label_follower,
    strongly_connected,
    validate_evolution,
)
from ietword import rauzy
from ietword.words import FactorSet

from wordgen import fibonacci_word, thue_morse_word, tribonacci_word


def golden_word(n=4000):
    alpha = make_quadratic(-1, 2, 1, 2, 5)
    T = build_iet([rational(1) - alpha, alpha], [2, 1])
    return natural_coding(T, rational(0), n)


def silver_word(n=6000):
    s = make_quadratic(-1, 1, 1, 1, 2)
    third = rational(3) - make_quadratic(0, 1, 2, 1, 2)
    T = build_iet([s, s, third], [3, 2, 1])
    return natural_coding(T, rational(0), n)


def fib_fs(max_len=21):
    return FactorSet(fibonacci_word(4000), max_len)


# ---------------------------------------------------------------- graphs

def test_fibonacci_k1_graph():
    g = build_k_graph(fib_fs(), 1)
    assert g.vertices == ("a", "b")
    assert g.arcs == ("aa", "ab", "ba")
    assert g.in_arcs("a") == ["aa", "ba"]
    assert g.out_arcs("a") == ["aa", "ab"]
    assert g.in_degree("b") == 1 and g.out_degree("b") == 1


def test_fibonacci_k2_graph():
    g = build_k_graph(fib_fs(), 2)
    assert g.vertices == ("aa", "ab", "ba")
    assert g.arcs == ("aab", "aba", "baa", "bab")
    assert RauzyGraph.tail("aab") == "aa"
    assert RauzyGraph.head("aab") == "ab"


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


def test_follower_of_fibonacci_k1():
    fol = follower(build_k_graph(fib_fs(), 1))
    assert set(fol.vertices) == {"aa", "ab", "ba"}
    assert set(fol.arcs) == {
        ("aa", "aa"), ("aa", "ab"), ("ab", "ba"), ("ba", "aa"), ("ba", "ab")}


def test_next_graph_sits_inside_follower():
    fs = fib_fs()
    g1, g2 = build_k_graph(fs, 1), build_k_graph(fs, 2)
    assert is_subgraph_of_follower(g1, g2)
    # exactly one follower arc is unused: aa -> aa would spell aaa
    used = {(w[:-1], w[1:]) for w in g2.arcs}
    assert set(follower(g1).arcs) - used == {("aa", "aa")}


def test_subgraph_check_needs_consecutive_levels():
    fs = fib_fs()
    with pytest.raises(ValueError):
        is_subgraph_of_follower(build_k_graph(fs, 1), build_k_graph(fs, 3))


def test_strongly_connected():
    assert strongly_connected(build_k_graph(fib_fs(), 1))
    assert strongly_connected(RauzyGraph(1, ["a"], ["aa"]))
    assert not strongly_connected(DiGraph(["x", "y"], [("x", "x")]))
    assert not strongly_connected(DiGraph(["x", "y"], [("x", "y")]))


# ---------------------------------------------------------------- labels

def fib_labeling():
    g = build_k_graph(fib_fs(), 1)
    return LabeledRauzyGraph(
        g,
        in_labels={"aa": "l", "ba": "r"},
        out_labels={"aa": "l", "ab": "r"})


def test_labeling_validation():
    g = build_k_graph(fib_fs(), 1)
    fib_labeling()
    with pytest.raises(ValueError):  # missing label on a crotch arc
        LabeledRauzyGraph(g, {"aa": "l"}, {"aa": "l", "ab": "r"})
    with pytest.raises(ValueError):  # both arcs same letter
        LabeledRauzyGraph(g, {"aa": "l", "ba": "l"}, {"aa": "l", "ab": "r"})
    with pytest.raises(ValueError):  # label on a degree-1 side
        LabeledRauzyGraph(
            g, {"aa": "l", "ba": "r"},
            {"aa": "l", "ab": "r", "ba": "l"})


def test_label_follower_inherits():
    lf = label_follower(fib_labeling())
    # arcs into follower-vertex "aa" keep the in-label of their first leg
    assert lf.in_labels[("ba", "aa")] == "r"
    assert lf.in_labels[("aa", "aa")] == "l"
    # arcs out of follower-vertex "ba" keep the out-label of their last leg
    assert lf.out_labels[("ba", "aa")] == "l"
    assert lf.out_labels[("ba", "ab")] == "r"
    # "ab" enters vertex "b" of in-degree one: no label there
    assert ("ab", "ba") not in lf.in_labels
    assert lf.marks == frozenset()


def test_label_follower_marks_flow_forward():
    g = build_k_graph(fib_fs(), 1)
    lg = LabeledRauzyGraph(
        g, {"aa": "l", "ba": "r"}, {"aa": "l", "ab": "r"},
        marks=frozenset({"a"}))
    lf = label_follower(lg)
    assert lf.marks == frozenset({"aa", "ab"})


# ------------------------------------------------------------- validator

def test_golden_coding_accepted_oriented():
    fs = FactorSet(golden_word(), 21)
    r = validate_evolution(fs, 1, 20, oriented=True)
    assert r.verdict == "accepted"
    assert r.K == 1
    assert r.accepted
    assert r.witness is None
    assert all(not m for m in r.marks.values())
    # the lone deleted pair 22|22 pins the two sides of vertex "2" apart
    assert r.in_labels[1]["22"] != r.out_labels[1]["22"]


def test_golden_coding_accepted_unoriented_too():
    fs = FactorSet(golden_word(), 21)
    r = validate_evolution(fs, 1, 20, oriented=False)
    assert r.accepted and r.K == 1


def test_window_can_start_higher():
    fs = FactorSet(golden_word(), 21)
    r = validate_evolution(fs, 2, 10, oriented=True)
    assert r.verdict == "accepted" and r.K == 2


def test_fibonacci_substitution_accepted():
    r = validate_evolution(fib_fs(), 1, 20, oriented=True)
    assert r.verdict == "accepted" and r.K == 1


def test_silver_coding_accepted():
    fs = FactorSet(silver_word(), 17)
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


def flipped_witness_iet():
    # one flipped interval drives the orbit of 0 onto a periodic cycle
    # whose growth phase needs minus marks
    lengths = [
        make_quadratic(660, 2066, -63, 2066, 2),
        make_quadratic(404, 2066, -1, 2066, 2),
        make_quadratic(516, 2066, 101, 2066, 2),
        make_quadratic(486, 2066, -37, 2066, 2),
    ]
    return build_iet(lengths, [3, 4, 2, 1], [False, True, False, False])


def test_flipped_iet_needs_unoriented_mode():
    w = natural_coding(flipped_witness_iet(), rational(0), 20000)
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


def test_export_dot_labeled():
    lg = fib_labeling()
    dot = export_dot(lg)
    assert '[label="in=l out=l"]' in dot
    marked = LabeledRauzyGraph(
        lg.base, dict(lg.in_labels), dict(lg.out_labels),
        marks=frozenset({"a"}))
    assert '[label="a -"]' in export_dot(marked)


# ---------------------------------------------------------- label search

def _search_one_by_one(levels, K, k_max, oriented):
    # reference: check every base labeling in mask order, first clean
    # success wins, then the first marked one, then the deepest failure
    sides = rauzy._free_choices(levels.graphs[K])
    best_fail, best_k, marked_success = None, -1, None
    for mask in range(1 << len(sides)):
        in_l, out_l = rauzy._base_labels(K, sides, mask)
        result = rauzy._check_assignment(levels, K, k_max, oriented, in_l, out_l)
        if isinstance(result, rauzy.Witness):
            if result.k > best_k:
                best_k, best_fail = result.k, result
        elif not any(result[2].values()):
            return result
        elif marked_success is None:
            marked_success = result
    return marked_success if marked_success is not None else best_fail


@pytest.mark.parametrize("block_bits", [16, 3])
@pytest.mark.parametrize("word, k_max", [
    ("ababababbbaaabababbbbaabaaaababa", 6),            # 10 sides
    ("abbaabbaabbababbbaabbaaabbaabbabbabaabbaa", 6),   # marks / contradiction
    ("cbaacacbbbcacbbcbbbcbaac", 5),                    # 8 sides, 3 letters
    ("12222311222223122223112222231222231122222312222311222223122223112222231222231122222", 8),
])
def test_label_search_matches_one_by_one(word, k_max, block_bits, monkeypatch):
    fs = FactorSet(word, k_max + 1)
    got = {}
    for search in ("screened", "reference"):
        if search == "reference":
            monkeypatch.setattr(rauzy, "_search_labels", _search_one_by_one)
        else:
            monkeypatch.setattr(rauzy, "_BLOCK_BITS", block_bits)
        got[search] = [vars(validate_evolution(fs, 1, k_max, oriented))
                       for oriented in (False, True)]
    assert got["screened"] == got["reference"]
    assert any(r["K"] not in (None, 1) for r in got["screened"])


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
        assert is_subgraph_of_follower(
            build_k_graph(fs, k), build_k_graph(fs, k + 1))


@settings(max_examples=50)
@given(words_strategy)
def test_validator_is_total(w):
    r = validate_evolution(FactorSet(w, 7), 1, 6)
    assert r.verdict in ("accepted", "accepted-from-K", "rejected")
    assert r.accepted == (r.witness is None)
    if r.accepted:
        assert 1 <= r.K <= 6
