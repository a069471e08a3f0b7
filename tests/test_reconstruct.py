import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ietword import reconstruct
from ietword.exact import make_quadratic, rational
from ietword.iet import build_iet, natural_coding
from ietword.orders import OrderPair, interval_orders
from ietword.rauzy import EvolutionReport, validate_evolution
from ietword.reconstruct import (
    AdjacencyError,
    cylinder_measures,
    reconstruct_iet,
    verify_roundtrip,
)
from ietword.words import FactorSet

from wordgen import fibonacci_word

GOLDEN_ALPHA = make_quadratic(-1, 2, 1, 2, 5)


def golden_iet():
    return build_iet([rational(1) - GOLDEN_ALPHA, GOLDEN_ALPHA], [2, 1])


def silver_iet():
    s = make_quadratic(-1, 1, 1, 1, 2)
    return build_iet(
        [s, s, rational(3) - make_quadratic(0, 1, 2, 1, 2)], [3, 2, 1])


def accepted_report(word, k_max=12):
    return validate_evolution(FactorSet(word, k_max + 1), 1, k_max,
                              oriented=True)


# -------------------------------------------------------------- measures

def test_fibonacci_letter_frequency():
    em = cylinder_measures(FactorSet(fibonacci_word(10000), 1), 1)
    assert em.weights["a"] == Fraction(309, 500)
    assert abs(float(em.weights["a"]) - 0.618) < 0.01


def test_measure_levels_sum_to_one():
    em = cylinder_measures(FactorSet(fibonacci_word(2000), 4), 4)
    for n in range(1, 5):
        assert sum(em.level(n).values()) == 1


def test_measure_refinement_consistency():
    word = fibonacci_word(2000)
    em = cylinder_measures(FactorSet(word, 4), 4)
    slack = Fraction(4, len(word) - 4)
    for n in range(1, 4):
        for w, f in em.level(n).items():
            children = sum(em.weights.get(w + x, Fraction(0)) for x in "ab")
            assert abs(f - children) <= slack


def test_constant_and_periodic_measures():
    assert cylinder_measures(FactorSet("a" * 200, 1), 1).weights["a"] == 1
    em = cylinder_measures(FactorSet("ab" * 300, 2), 2)
    assert em.weights["a"] == Fraction(1, 2)
    assert em.weights["ab"] == Fraction(300, 599)


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
    word = natural_coding(golden_iet(), rational(0), 10000)
    T, residual, letters = reconstruct_iet(FactorSet(word, 6), accepted_report(word), 6)
    assert [x.rat for x in T.lengths] == [Fraction(191, 500), Fraction(309, 500)]
    assert T.permutation == (2, 1)
    assert abs(T.lengths[1] - GOLDEN_ALPHA) < Fraction(1, 100)
    assert residual < Fraction(1, 20)
    assert verify_roundtrip(word, T, 500, letters)[:2] == (465, 500)


def test_reconstruct_silver_coding():
    word = natural_coding(silver_iet(), rational(0), 20000)
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
    # several image orders keep this 5-IET's left-special pairs adjacent;
    # only the true one passes every order condition
    lengths = [
        make_quadratic(41, 233, 5, 233, 2),
        make_quadratic(1256, 3961, -23, 3961, 2),
        make_quadratic(311, 3961, -53, 3961, 2),
        make_quadratic(575, 3961, 144, 3961, 2),
        make_quadratic(66, 233, -9, 233, 2),
    ]
    word = natural_coding(build_iet(lengths, [4, 1, 2, 5, 3]), rational(0), 10000)
    fs = FactorSet(word, 13)
    T, residual, letters = reconstruct_iet(fs, accepted_report(word), 6)
    assert (T.permutation, letters) == ((4, 1, 2, 5, 3), "12345")
    assert residual < Fraction(1, 20)
    assert verify_roundtrip(word, T, 500, letters)[0] > 100


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


@pytest.mark.parametrize("word,depth", [
    ("ab" * 300, 1), ("ab" * 300, 4), ("abc" * 300, 4), ("abcdef" * 100, 3),
    (natural_coding(silver_iet(), rational(0), 3000), 5),
    (natural_coding(golden_iet(), rational(0), 3000, "ba"), 6),
])
def test_special_factor_orders_match_eager_pick(word, depth):
    fs = FactorSet(word, depth)
    assert (reconstruct._special_factor_orders(fs, depth)
            == eager_special_factor_orders(fs, depth))


def test_special_factor_orders_stop_at_first_irreducible(monkeypatch):
    pulled = []

    def counted(letters, blocks):
        for order in interval_orders(letters, blocks):
            pulled.append(order)
            yield order

    monkeypatch.setattr(reconstruct, "interval_orders", counted)
    # nine letters and no special factor: every one of the 9! orders
    # fits, and the 8! image orders that start with the domain's first
    # letter are reducible
    fs = FactorSet("abcdefghi" * 20, 1)
    dom, img = reconstruct._special_factor_orders(fs, 1)
    assert OrderPair(dom, img).separation() is None
    assert math.factorial(8) < len(pulled) < math.factorial(9) // 4


def test_reconstruct_needs_accepted_report():
    rejected = EvolutionReport((1, 12), "rejected", None, False, None)
    with pytest.raises(ValueError):
        reconstruct_iet(FactorSet(fibonacci_word(2000), 4), rejected, 4)


def test_adjacency_conflict_reported():
    word = "ccabcbccacabbcaacbccbbcaacacbcacaacab" * 20
    fake = EvolutionReport((1, 3), "accepted", 1, True, None, {}, {}, {})
    with pytest.raises(AdjacencyError) as exc:
        reconstruct_iet(FactorSet(word, 4), fake, 4)
    assert exc.value.side == "domain"
    assert frozenset({"a", "b"}) in exc.value.pairs
    assert len(exc.value.pairs) == 3


def test_flip_marks_carry_into_candidate():
    lengths = [
        make_quadratic(660, 2066, -63, 2066, 2),
        make_quadratic(404, 2066, -1, 2066, 2),
        make_quadratic(516, 2066, 101, 2066, 2),
        make_quadratic(486, 2066, -37, 2066, 2),
    ]
    T = build_iet(lengths, [3, 4, 2, 1], [False, True, False, False])
    word = natural_coding(T, rational(0), 20000)
    rep = validate_evolution(FactorSet(word, 13), 1, 12, oriented=False)
    cand, residual, letters = reconstruct_iet(FactorSet(word, 6), rep, 6)
    # the accepted labeling marks vertices in the letter-3 cylinder
    assert cand.flips == (False, False, True, False)
    # an eventually periodic orbit's frequencies are not interval lengths,
    # so the candidate is honest about being far off
    assert residual > Fraction(1, 2)
    match = verify_roundtrip(word, cand, 300, letters)[0]
    assert match < 50


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
    em = cylinder_measures(FactorSet(w, 1), 1)
    assert sum(em.level(1).values()) == 1
    assert all(0 < f <= 1 for f in em.level(1).values())
