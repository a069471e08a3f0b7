import random

import pytest
from hypothesis import given, settings, strategies as st

from ietword.exact import make_quadratic, rational
from ietword.iet import build_iet, natural_coding
from ietword.words import (
    FactorSet,
    bispecial_factors,
    complexity,
    factors,
    is_balanced,
    recurrence_window,
    special_factors,
    sturmian_check,
)
from wordgen import fibonacci_word, thue_morse_word, tribonacci_word

FIB = fibonacci_word(2000)
TM = thue_morse_word(1024)
TRI = tribonacci_word(2000)


def silver_word(n):
    s = make_quadratic(-1, 1, 1, 1, 2)
    T = build_iet([s, s, rational(3) - make_quadratic(0, 1, 2, 1, 2)], [3, 2, 1])
    return natural_coding(T, rational(0), n)


def probed_extensions(fs, n):
    """Reference: probe every alphabet letter on each side of each factor."""
    longer = fs.counts(n + 1)
    return {w: (frozenset(x for x in fs.alphabet if x + w in longer),
                frozenset(y for y in fs.alphabet if w + y in longer))
            for w in fs.counts(n)}


def test_counts_small_examples():
    assert dict(factors("abaab", 2).counts(2)) == {"ab": 2, "ba": 1, "aa": 1}
    assert dict(factors("aaaa", 3).counts(3)) == {"aaa": 2}
    with pytest.raises(ValueError):
        factors("ab", 3)


def test_counts_sum_to_window_count():
    fs = factors(FIB[:500], 20)
    for n in range(21):
        assert sum(fs.counts(n).values()) == 500 - n + 1


def test_contains_and_range_checks():
    fs = factors("abaab", 3)
    assert "aba" in fs
    assert "bb" not in fs
    with pytest.raises(ValueError):
        "abaa" in fs
    with pytest.raises(ValueError):
        fs.counts(4)


def test_complexity_fibonacci():
    fs = factors(fibonacci_word(1000), 12)
    assert complexity(fs, 10) == 11
    assert complexity(fs, 0) == 1


def test_complexity_constant():
    fs = factors("a" * 100, 10)
    assert all(complexity(fs, n) == 1 for n in range(11))


def test_special_factors_fibonacci():
    fs = factors(FIB, 10)
    assert special_factors(fs, 1, "right") == [("a", ("a", "b"), 2)]
    assert special_factors(fs, 1, "left") == [("a", ("a", "b"), 2)]
    # Sturmian words have exactly one special factor per length and side
    for n in range(9):
        assert len(special_factors(fs, n, "right")) == 1
        assert len(special_factors(fs, n, "left")) == 1


def test_special_factors_constant_empty():
    fs = factors("a" * 50, 6)
    assert special_factors(fs, 2, "left") == []


def test_special_factors_tribonacci_valence3():
    fs = factors(TRI, 6)
    triples = special_factors(fs, 1, "left")
    assert ("a", ("a", "b", "c"), 3) in triples


def test_special_factors_validation():
    fs = factors("abab", 3)
    with pytest.raises(ValueError):
        special_factors(fs, 3, "left")
    with pytest.raises(ValueError):
        special_factors(fs, 1, "middle")


@pytest.mark.parametrize("word", [FIB, TM, TRI, silver_word(6000)],
                         ids=["fibonacci", "thue-morse", "tribonacci", "silver"])
def test_extensions_match_letter_probe(word):
    fs = factors(word, 24)
    for n in range(24):
        assert fs.extensions(n) == probed_extensions(fs, n)
    for n in (-1, 24):
        with pytest.raises(ValueError):
            fs.extensions(n)


@settings(max_examples=60)
@given(st.text(alphabet="abc", min_size=1, max_size=60))
def test_extensions_match_letter_probe_random(w):
    fs = factors(w, len(w))
    for n in range(len(w)):
        assert fs.extensions(n) == probed_extensions(fs, n)


def test_bispecial_fibonacci_lengths():
    fs = factors(FIB, 14)
    hits = {n for n in range(13) if bispecial_factors(fs, n)}
    assert hits == {0, 1, 3, 6, 11}
    assert bispecial_factors(fs, 3) == ["aba"]
    assert bispecial_factors(fs, 0) == [""]


def test_bispecial_thue_morse_pair():
    fs = factors(TM, 4)
    assert bispecial_factors(fs, 2) == ["ab", "ba"]


def test_balanced_fibonacci():
    fs = factors(FIB, 30)
    assert is_balanced(fs, 30, "a") == (True, None)
    assert is_balanced(fs, 30, "b") == (True, None)


def test_balanced_thue_morse_witness():
    fs = factors(TM, 6)
    ok, pair = is_balanced(fs, 6, "a")
    assert not ok
    u, v = pair
    assert len(u) == len(v) == 2
    assert u.count("a") - v.count("a") > 1


def test_balanced_constant():
    fs = factors("a" * 40, 8)
    assert is_balanced(fs, 8, "a") == (True, None)


def test_balanced_letter_validation():
    fs = factors("abab", 2)
    with pytest.raises(ValueError):
        is_balanced(fs, 2, "c")


def test_sturmian_check_fibonacci():
    fs = factors(FIB, 101)
    assert sturmian_check(fs, 50) == "consistent"


def test_sturmian_check_thue_morse():
    fs = factors(TM, 10)
    assert sturmian_check(fs, 10) == "violated-at-2"


def test_sturmian_check_periodic():
    fs = factors("ab" * 100, 10)
    assert sturmian_check(fs, 10).startswith("violated-at-")


def test_recurrence_periodic():
    assert recurrence_window("ab" * 20, 2) == 3


def test_recurrence_fibonacci():
    w = fibonacci_word(10**4)
    assert recurrence_window(w, 1) == 3
    assert recurrence_window(w, 2) == 6
    assert recurrence_window(w, 3) == 10


def test_recurrence_random_absent():
    rng = random.Random(1)
    w = "".join(rng.choice("ab") for _ in range(2000))
    assert recurrence_window(w, 8) is None


def test_recurrence_precondition():
    with pytest.raises(ValueError):
        recurrence_window("abab", 2)


def test_fibonacci_vs_mechanical_balance_consistency():
    # balanced and aperiodic on the window implies Sturmian counts
    fs = factors(FIB, 40)
    assert is_balanced(fs, 30, "a")[0]
    assert sturmian_check(fs, 30) == "consistent"


words_strategy = st.text(alphabet="ab", min_size=30, max_size=120)


@settings(max_examples=50)
@given(words_strategy)
def test_first_difference_law(w):
    fs = factors(w, 12)
    for n in range(11):
        rs = special_factors(fs, n, "right")
        growth = complexity(fs, n + 1) - complexity(fs, n)
        # finite-prefix edge: the final window's factor may lack a right
        # extension, losing at most one from the pure identity
        slack = sum(v - 1 for _, _, v in rs) - growth
        assert 0 <= slack <= 1


@settings(max_examples=50)
@given(words_strategy)
def test_subfactor_closure(w):
    fs = factors(w, 10)
    for n in range(2, 11):
        shorter = fs.counts(n - 1)
        for f in fs.counts(n):
            assert f[:-1] in shorter
            assert f[1:] in shorter


@settings(max_examples=30)
@given(words_strategy, st.integers(min_value=1, max_value=6))
def test_recurrence_window_sound(w, k):
    if k > len(w) // 4:
        return
    n = recurrence_window(w, k)
    if n is None:
        return
    all_factors = {w[i:i + k] for i in range(len(w) - k + 1)}
    for i in range(len(w) - n + 1):
        window = w[i:i + n]
        present = {window[j:j + k] for j in range(len(window) - k + 1)}
        assert present == all_factors
