import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ietword.exact import rational
from ietword.iet import CodingConfig, build_iet, cylinder_lengths, natural_coding
from ietword import orders
from ietword.orders import (
    OrderPair,
    candidate_orders,
    check_orders,
    interval_orders,
    search_orders,
)
from ietword.rauzy import EvolutionReport, validate_evolution
from ietword.reconstruct import cylinder_measures, reconstruct_iet, verify_roundtrip
from ietword.words import FactorSet

from corpus import (GOLDEN_ALPHA, acceptance_corpus, fibonacci_word, five_letter_word,
                    flipped_4iet, flipped_corpus, golden_iet, golden_word, random_exact_iet,
                    silver_iet, silver_word)


def accepted_report(word, k_max=12):
    return validate_evolution(FactorSet(word, k_max + 1), 1, k_max,
                              oriented=True)


# -------------------------------------------------------------- measures

def level(weights, n):
    return {w: f for w, f in weights.items() if len(w) == n}


def test_fibonacci_letter_frequency():
    weights = cylinder_measures(FactorSet(fibonacci_word(10000), 1), 1)
    assert weights == {"a": Fraction(309, 500), "b": Fraction(191, 500)}
    assert abs(float(weights["a"]) - 0.618) < 0.01


def test_measure_levels_sum_to_one():
    weights = cylinder_measures(FactorSet(fibonacci_word(2000), 4), 4)
    assert {len(w) for w in weights} == {1, 2, 3, 4}
    for n in range(1, 5):
        assert sum(level(weights, n).values()) == 1


def test_measure_refinement_consistency():
    word = fibonacci_word(2000)
    weights = cylinder_measures(FactorSet(word, 4), 4)
    slack = Fraction(4, len(word) - 4)
    for n in range(1, 4):
        for w, f in level(weights, n).items():
            children = sum(weights.get(w + x, Fraction(0)) for x in "ab")
            assert abs(f - children) <= slack


def test_constant_and_periodic_measures():
    assert cylinder_measures(FactorSet("a" * 200, 1), 1) == {"a": 1}
    weights = cylinder_measures(FactorSet("ab" * 300, 2), 2)
    assert weights["a"] == Fraction(1, 2)
    assert weights["ab"] == Fraction(300, 599)


def test_measure_preconditions():
    with pytest.raises(ValueError):
        cylinder_measures(FactorSet("ab" * 20, 1), 1)
    with pytest.raises(ValueError):
        cylinder_measures(FactorSet("ab" * 300, 2), 0)


# -------------------------------------------------------- reconstruction

def test_reconstruct_fibonacci():
    word = fibonacci_word(10000)
    T, residual, letters = reconstruct_iet(FactorSet(word, 6), accepted_report(word), 6)
    assert [x.rat for x in T.lengths] == [Fraction(309, 500), Fraction(191, 500)]
    assert T.permutation == (2, 1)
    assert T.flips == (False, False)
    assert residual < Fraction(1, 500)
    match, total, _, _ = verify_roundtrip(word, T, 500, letters)
    assert (match, total) == (464, 500)
    assert match >= 400


def test_reconstruct_golden_coding():
    word = golden_word(10_000)
    T, residual, letters = reconstruct_iet(FactorSet(word, 6), accepted_report(word), 6)
    assert [x.rat for x in T.lengths] == [Fraction(191, 500), Fraction(309, 500)]
    assert T.permutation == (2, 1)
    assert abs(T.lengths[1] - GOLDEN_ALPHA) < Fraction(1, 100)
    assert residual < Fraction(1, 20)
    assert verify_roundtrip(word, T, 500, letters)[:2] == (465, 500)


def test_reconstruct_silver_coding():
    word = silver_word(20_000)
    T, residual, letters = reconstruct_iet(FactorSet(word, 6), accepted_report(word), 6)
    assert T.permutation == (3, 2, 1)
    for got, truth in zip(T.lengths, silver_iet().lengths):
        assert abs(got - truth) < Fraction(1, 50)
    assert residual < Fraction(1, 20)
    assert verify_roundtrip(word, T, 500, letters)[:2] == (500, 500)


@pytest.mark.parametrize("letters", ["132", "213"])
def test_roundtrip_follows_relabeled_letters(letters):
    # the silver coding with two letters swapped: interval i of the
    # candidate carries the i-th letter of its domain order, not the
    # i-th letter in sorted order
    word = natural_coding(silver_iet(), rational(0), 20000, letters)
    T, residual, order = reconstruct_iet(FactorSet(word, 6),
                                         accepted_report(word), 6)
    assert order == letters
    assert residual < Fraction(1, 20)
    assert verify_roundtrip(word, T, 500, order)[:2] == (500, 500)


def test_reconstruct_takes_first_passing_order_pair():
    word = five_letter_word()
    fs = FactorSet(word, 13)
    T, residual, letters = reconstruct_iet(fs, accepted_report(word), 6)
    assert (T.permutation, letters) == ((4, 1, 2, 5, 3), "12345")
    assert residual < Fraction(1, 20)
    assert verify_roundtrip(word, T, 500, letters)[0] > 100


def count_scans(monkeypatch):
    """The orders each scan of the order search reads, as they come."""
    scanned = {"image": [], "domain": []}
    for side in scanned:
        plain = getattr(orders, f"_scan_{side}")

        def counting(levels, order, plain=plain, seen=scanned[side]):
            seen.append(order)
            return plain(levels, order)

        monkeypatch.setattr(orders, f"_scan_{side}", counting)
    return scanned


def test_order_checks_stop_at_first_passing_pair(monkeypatch):
    word = five_letter_word()
    fs = FactorSet(word, 13)
    pi0s, pi1s = candidate_orders(fs, 11)
    cands = [OrderPair(p0, p1) for p0 in pi0s for p1 in pi1s]
    assert [i for i, p in enumerate(cands) if check_orders(fs, p, 11).passed] == [1, 2]
    assert (len(pi0s), len(pi1s)) == (2, 2)
    scanned = count_scans(monkeypatch)
    T, _, letters = reconstruct_iet(fs, accepted_report(word), 6)
    # candidate 1 is the first passing pair: both image orders are read,
    # and the second domain order, which only candidates 2 and 3 need, is not
    assert letters == "".join(cands[1].pi0)
    assert T.permutation == tuple(cands[1].pi0.index(c) + 1 for c in cands[1].pi1)
    assert scanned == {"image": pi1s, "domain": pi0s[:1]}


def test_search_scans_each_order_once(monkeypatch):
    # a periodic word constrains no order, so 720 orders a side are
    # candidates; every image order fails condition 3 at the empty factor,
    # so no pair is formed, where a check per pair would make 518 400
    fs = FactorSet("abcdef" * 20, 4)
    scanned = count_scans(monkeypatch)
    assert search_orders(fs, 2) == []
    assert len(scanned["image"]) == 720 and len(set(scanned["image"])) == 720
    assert len(scanned["domain"]) <= 720


def test_fallback_builds_order_lists_once(monkeypatch):
    # no pair passes on the flipped 4-IET's coding, and the fallback picks
    # from the candidates already walked: one interval_orders call a side
    word = natural_coding(flipped_4iet(), rational(0), 20000)
    rep = validate_evolution(FactorSet(word, 13), 1, 12, oriented=False)
    fs = FactorSet(word, 6)
    assert search_orders(fs, 4) == []
    plain, calls = orders.interval_orders, []
    monkeypatch.setattr(orders, "interval_orders",
                        lambda *args: calls.append(args) or plain(*args))
    cand, _, letters = reconstruct_iet(fs, rep, 6)
    assert len(calls) == 2
    assert (cand.permutation, letters) == ((3, 4, 2, 1), "1234")


def test_reconstruct_constant_word():
    word = "a" * 200
    T, residual, letters = reconstruct_iet(FactorSet(word, 2), accepted_report(word, 3), 2)
    assert T.k == 1 and T.permutation == (1,)
    assert residual == 0
    assert verify_roundtrip(word, T, 100, letters)[:2] == (100, 100)


def test_reconstruct_periodic_word():
    word = "ab" * 300
    T, residual, letters = reconstruct_iet(FactorSet(word, 4), accepted_report(word, 8), 4)
    assert [x.rat for x in T.lengths] == [Fraction(1, 2), Fraction(1, 2)]
    assert T.permutation == (2, 1)
    assert verify_roundtrip(word, T, 200, letters)[:2] == (200, 200)
    # an index of single letters constrains no order: the first
    # irreducible pair
    T, _, letters = reconstruct_iet(FactorSet(word, 1), accepted_report(word, 8), 1)
    assert (T.permutation, letters) == ((2, 1), "ab")


def eager_special_factor_orders(fs, depth):
    """Reference: list every image order, then take the first irreducible."""
    dom_pairs, img_pairs = set(), set()
    for n in range(1, depth):
        for left, right in fs.extensions(n).values():
            if len(right) == 2:
                dom_pairs.add(right)
            if len(left) == 2:
                img_pairs.add(left)
    dom = next(interval_orders(fs.alphabet, dom_pairs))
    imgs = list(interval_orders(fs.alphabet, img_pairs))
    return dom, next((img for img in imgs if OrderPair(dom, img).separation() is None),
                     imgs[0])


def test_fallback_matches_special_factor_reference():
    # where no pair passes, the first irreducible candidate of the one
    # order search is what the special factors' adjacency pairs picked
    accepted = fallbacks = 0
    for T in flipped_corpus(120):
        word = natural_coding(T, rational(1, 7), 10_000)
        fs = FactorSet(word, 13)
        rep = validate_evolution(fs, 1, 12, oriented=False)
        if not rep.accepted:
            continue
        accepted += 1
        if search_orders(fs, fs.max_len - 2):
            continue
        fallbacks += 1
        cand, _, letters = reconstruct_iet(fs, rep, 6)
        dom, img = eager_special_factor_orders(fs, 6)
        assert letters == "".join(dom)
        assert cand.permutation == tuple(dom.index(c) + 1 for c in img)
    assert (accepted, fallbacks) == (110, 71)


def test_reconstruct_seven_letters():
    # the fallback reads the same 720-a-side candidates as the search,
    # so the alphabet is not capped
    T = random_exact_iet(random.Random(2027), 7)
    assert T.permutation == (4, 7, 1, 5, 3, 6, 2)
    word = natural_coding(T, rational(1, 7), 10_000)
    fs = FactorSet(word, 13)
    cand, residual, letters = reconstruct_iet(fs, accepted_report(word), 6)
    assert (cand.permutation, letters) == (T.permutation, "1234567")
    assert residual < Fraction(1, 100)
    assert verify_roundtrip(word, cand, 500, letters)[:2] == (500, 500)


def test_reconstruct_needs_accepted_report():
    rejected = EvolutionReport((1, 12), "rejected", None, False, None)
    with pytest.raises(ValueError):
        reconstruct_iet(FactorSet(fibonacci_word(2000), 4), rejected, 4)


def test_adjacency_conflict_reported():
    # {a,b}, {b,c} and {a,c} are right-extension sets of length-3
    # factors, which an index of 5 checks: no domain order keeps all three
    word = "ccabcbccacabbcaacbccbbcaacacbcacaacab" * 20
    fake = EvolutionReport((1, 3), "accepted", 1, True, None, {}, {}, {})
    with pytest.raises(ValueError, match="no letter order keeps"):
        reconstruct_iet(FactorSet(word, 5), fake, 4)


def test_flip_marks_carry_into_candidate():
    word = natural_coding(flipped_4iet(), rational(0), 20000)
    rep = validate_evolution(FactorSet(word, 13), 1, 12, oriented=False)
    cand, residual, letters = reconstruct_iet(FactorSet(word, 6), rep, 6)
    # the accepted labeling marks vertices in the letter-3 cylinder
    assert cand.flips == (False, False, True, False)
    # an eventually periodic orbit's frequencies are not interval lengths,
    # so the candidate is honest about being far off
    assert residual > Fraction(1, 2)
    match = verify_roundtrip(word, cand, 300, letters)[0]
    assert match < 50


def fraction_residual(fs, T, letters, depth):
    """Reference: the residual in Fractions, each empirical measure from
    cylinder_measures against the candidate's cylinder lengths."""
    weights = cylinder_measures(fs, depth)
    cand = cylinder_lengths(T, CodingConfig.natural(T, letters), depth)
    diff = [Fraction(0)] * depth
    for w in weights.keys() | cand.keys():
        got = cand[w].rat if w in cand else 0
        diff[len(w) - 1] += abs(weights.get(w, 0) - got)
    return max(diff) / 2


def residual_cases():
    """(word, oriented, depth) triples: genuine codings, flipped ones and
    periodic words."""
    for _, word in acceptance_corpus():
        yield word, True, 6
    for T in flipped_corpus(40):
        yield natural_coding(T, rational(1, 7), 10_000), False, 6
    yield "aabb" * 750, False, 6
    yield "ab" * 300, True, 4
    yield "abc" * 3000, True, 6
    yield "a" * 200, True, 2


def test_residual_matches_fraction_reference():
    residuals = []
    for word, oriented, depth in residual_cases():
        fs = FactorSet(word, max(13, depth))
        rep = validate_evolution(fs, 1, 12, oriented)
        if not rep.accepted:
            continue
        T, residual, letters = reconstruct_iet(fs, rep, depth)
        assert residual == fraction_residual(fs, T, letters, depth), word[:40]
        letter_measures = cylinder_measures(fs, 1)
        assert [x.rat for x in T.lengths] == [letter_measures[c] for c in letters]
        residuals.append(residual)
    assert len(residuals) == 50
    # "aabb" repeated is rebuilt as the rotation by 1/2, whose cylinders
    # of length 3 are aba and bab: no factor of the word
    assert residuals[-4] == 1
    assert residuals[-1] == 0
    assert len(set(residuals)) > 25


def test_reconstruct_keeps_depth_preconditions():
    report = accepted_report(fibonacci_word(2000))
    with pytest.raises(ValueError, match="depth must be positive"):
        reconstruct_iet(FactorSet(fibonacci_word(2000), 13), report, 0)
    with pytest.raises(ValueError, match="need at least 600 symbols for depth 6, got 599"):
        reconstruct_iet(FactorSet(fibonacci_word(599), 13), report, 6)


def test_residual_shrinks_with_longer_prefixes():
    residuals = []
    for n in (1000, 10000, 100000):
        word = fibonacci_word(n)
        rep = validate_evolution(FactorSet(word, 9), 1, 8, oriented=True)
        residuals.append(reconstruct_iet(FactorSet(word, 5), rep, 5)[1])
    assert residuals[0] >= residuals[1] >= residuals[2]
    assert residuals[2] < residuals[0]


# ------------------------------------------------------------- roundtrip

def test_roundtrip_self_consistency():
    T = golden_iet()
    word = natural_coding(T, rational(0), 2000)
    match, total, depth, x0 = verify_roundtrip(word, T, 300, "12")
    assert (match, total, depth) == (300, 300, 300)
    # x0 sits in the depth-300 cylinder of the word, so it codes the same
    assert natural_coding(T, x0, 300) == word[:300]


def test_roundtrip_wrong_permutation_dies_fast():
    wrong = build_iet([rational(309, 500), rational(191, 500)], [1, 2])
    match, total, _, _ = verify_roundtrip(fibonacci_word(10000), wrong, 500, "ab")
    assert total == 500
    assert match == 1
    assert match < 10


def test_roundtrip_compares_one_letter_up_to_the_whole_word():
    T = golden_iet()
    word = natural_coding(T, rational(0), 300)
    assert verify_roundtrip(word, T, 1, "12")[:3] == (1, 1, 1)
    assert verify_roundtrip(word, T, len(word), "12")[:3] == (300, 300, 300)


def test_roundtrip_errors():
    T = golden_iet()
    for n in (3, 0, -5):
        with pytest.raises(ValueError):
            verify_roundtrip("12", T, n, "12")
    one = build_iet([rational(1)], [1])
    # "b" names no interval of a 1-IET whose one interval carries "a"
    with pytest.raises(ValueError):
        verify_roundtrip("ba", one, 2, "a")


# ------------------------------------------------------------ properties

@settings(max_examples=40)
@given(st.text(alphabet="abc", min_size=100, max_size=180))
def test_letter_measures_sum_to_one(w):
    weights = cylinder_measures(FactorSet(w, 1), 1)
    assert sum(level(weights, 1).values()) == 1
    assert all(0 < f <= 1 for f in level(weights, 1).values())
