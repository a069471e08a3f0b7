import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from ietword.exact import make_quadratic, rational
from ietword.iet import build_iet, natural_coding
from ietword.words import (
    FactorSet,
    bispecial_factors,
    complexity,
    recurrence_window,
    special_factors,
)
from wordgen import fibonacci_word, thue_morse_word, tribonacci_word

FIB = fibonacci_word(2000)
TM = thue_morse_word(1024)
TRI = tribonacci_word(2000)


def silver_word(n):
    s = make_quadratic(-1, 1, 1, 1, 2)
    T = build_iet([s, s, rational(3) - make_quadratic(0, 1, 2, 1, 2)], [3, 2, 1])
    return natural_coding(T, rational(0), n)


def golden_word(n):
    T = build_iet([make_quadratic(3, 2, -1, 2, 5), make_quadratic(-1, 2, 1, 2, 5)],
                  [2, 1])
    return natural_coding(T, rational(0), n)


def window_counts(word, n):
    """Reference: slice every length-n window of the word again."""
    return Counter(word[i:i + n] for i in range(len(word) - n + 1))


def assert_counts_match(fs, levels):
    for n in levels:
        # same counts, and the same first-occurrence key order
        assert list(fs.counts(n).items()) == list(window_counts(fs.word, n).items())


def block_size(windows):
    """The block length the top-level count documents: the least B with
    4 B^3 >= the window count."""
    b = 1
    while 4 * b ** 3 < windows:
        b += 1
    return b


def assert_index_matches_slicing(word, max_len):
    fs = FactorSet(word, max_len)
    assert_counts_match(fs, range(max_len, -1, -1))
    assert fs.alphabet == tuple(sorted(set(word)))


def random_word(seed, letters, n):
    rng = random.Random(seed)
    return "".join(rng.choice(letters) for _ in range(n))


def probed_extensions(fs, n):
    """Reference: probe every alphabet letter on each side of each factor."""
    longer = fs.counts(n + 1)
    return {w: (frozenset(x for x in fs.alphabet if x + w in longer),
                frozenset(y for y in fs.alphabet if w + y in longer))
            for w in fs.counts(n)}


def assert_extensions_any_order(word, max_len, shuffle):
    """Roll the extension sets down from each first level: 0, the top and
    one in the middle, then the rest in shuffled order, each on a fresh
    index; every level must match the letter probe, and a second call
    must hand back the cached dict."""
    for first in (0, max_len - 1, max_len // 2):
        fs = FactorSet(word, max_len)
        rest = [n for n in range(max_len) if n != first]
        shuffle(rest)
        got = {n: fs.extensions(n) for n in [first, *rest]}
        for n, ext in got.items():
            assert ext == probed_extensions(fs, n)
            assert fs.extensions(n) is ext


def test_counts_small_examples():
    assert dict(FactorSet("abaab", 2).counts(2)) == {"ab": 2, "ba": 1, "aa": 1}
    assert dict(FactorSet("aaaa", 3).counts(3)) == {"aaa": 2}
    with pytest.raises(ValueError):
        FactorSet("ab", 3)


@pytest.mark.parametrize("word,max_len", [
    (FIB, 40), (TM, 40), (TRI, 40), (silver_word(6000), 40),
    (random_word(1, "ab", 3000), 30), (random_word(2, "abc", 3000), 25),
    (random_word(3, "abcd", 3000), 25), (random_word(4, "ab", 200), 200),
    (random_word(5, "abcd", 97), 97), ("abaab", 5), ("a", 1), ("b" * 50, 50),
    # long enough for blocks of B > 1 windows; the short top levels of the
    # random words mix blocks seen once with repeated ones
    (silver_word(100000), 21), (golden_word(100000), 21),
    ("abc" * 4000, 21), ("b" * 12000, 21),
    (random_word(7, "ab", 6000), 8), (random_word(8, "abc", 6000), 6),
    (random_word(9, "abcd", 6000), 5), (random_word(10, "abcde", 6000), 12),
    (random_word(11, "abcdef", 6000), 4), (random_word(12, "abcdef", 6000), 21),
], ids=["fibonacci", "thue-morse", "tribonacci", "silver", "random-ab",
        "random-abc", "random-abcd", "random-ab-full", "random-abcd-full",
        "abaab-full", "one-letter", "constant-full", "silver-1e5",
        "golden-1e5", "abc-periodic", "constant", "random2", "random3",
        "random4", "random5", "random6-short", "random6-long"])
def test_counts_match_window_slicing(word, max_len):
    assert_index_matches_slicing(word, max_len)


@pytest.mark.parametrize("source", ["silver", "random2", "random3"])
def test_block_count_every_last_block_length(source):
    # window counts 1000..1012 run through every residue mod B = 7, so the
    # last block holds B, 1 or B - 1 windows among others
    top = 9
    counts = range(1000, 1013)
    b = block_size(1000)
    assert all(block_size(n) == b for n in counts)
    assert {0, 1, b - 1} <= {n % b for n in counts}
    long = {"silver": silver_word(1100), "random2": random_word(14, "ab", 1100),
            "random3": random_word(15, "abc", 1100)}[source]
    for n in counts:
        assert_index_matches_slicing(long[:n + top - 1], top)


@pytest.mark.parametrize("letters", ["ab", "abc", "abcd"])
def test_random_words_have_high_complexity(letters):
    # the corpus above exercises a top level with about one key per window
    word = random_word(len(letters) - 1, letters, 3000)
    fs = FactorSet(word, 25)
    assert len(fs.counts(25)) > 0.95 * (3000 - 25 + 1)


@pytest.mark.parametrize("order", [(3, 7), (7, 3), (0, 12, 5, 11, 1),
                                   (12, 0), (6, 6, 2, 9)])
def test_counts_any_level_order(order):
    for word in (TRI[:800], random_word(6, "abc", 800)):
        fs = FactorSet(word, 12)
        assert_counts_match(fs, order)
        assert_counts_match(fs, range(13))


@settings(max_examples=80)
@given(st.text(alphabet="abc", min_size=1, max_size=60), st.data())
def test_counts_match_window_slicing_random(w, data):
    max_len = data.draw(st.integers(min_value=1, max_value=len(w)))
    first = data.draw(st.integers(min_value=0, max_value=max_len))
    fs = FactorSet(w, max_len)
    assert_counts_match(fs, [first, *range(max_len + 1)])
    assert fs.alphabet == tuple(sorted(set(w)))


def test_counts_sum_to_window_count():
    fs = FactorSet(FIB[:500], 20)
    for n in range(21):
        assert sum(fs.counts(n).values()) == 500 - n + 1


def test_contains_and_range_checks():
    fs = FactorSet("abaab", 3)
    assert "aba" in fs
    assert "bb" not in fs
    with pytest.raises(ValueError):
        "abaa" in fs
    with pytest.raises(ValueError):
        fs.counts(4)


def test_complexity_fibonacci():
    fs = FactorSet(fibonacci_word(1000), 12)
    assert complexity(fs, 10) == 11
    assert complexity(fs, 0) == 1


def test_complexity_constant():
    fs = FactorSet("a" * 100, 10)
    assert all(complexity(fs, n) == 1 for n in range(11))


def test_special_factors_fibonacci():
    fs = FactorSet(FIB, 10)
    assert special_factors(fs, 1, "right") == [("a", ("a", "b"), 2)]
    assert special_factors(fs, 1, "left") == [("a", ("a", "b"), 2)]
    # Sturmian words have exactly one special factor per length and side
    for n in range(9):
        assert len(special_factors(fs, n, "right")) == 1
        assert len(special_factors(fs, n, "left")) == 1


def test_special_factors_constant_empty():
    fs = FactorSet("a" * 50, 6)
    assert special_factors(fs, 2, "left") == []


def test_special_factors_tribonacci_valence3():
    fs = FactorSet(TRI, 6)
    triples = special_factors(fs, 1, "left")
    assert ("a", ("a", "b", "c"), 3) in triples


def test_special_factors_validation():
    fs = FactorSet("abab", 3)
    with pytest.raises(ValueError):
        special_factors(fs, 3, "left")
    with pytest.raises(ValueError):
        special_factors(fs, 1, "middle")


@pytest.mark.parametrize("word", [FIB, TM, TRI, silver_word(6000)],
                         ids=["fibonacci", "thue-morse", "tribonacci", "silver"])
def test_extensions_match_letter_probe(word):
    assert_extensions_any_order(word, 24, random.Random(len(word)).shuffle)
    fs = FactorSet(word, 24)
    for n in (-1, 24):
        with pytest.raises(ValueError):
            fs.extensions(n)


@settings(max_examples=60)
@given(st.text(alphabet="abc", min_size=1, max_size=60), st.randoms())
def test_extensions_match_letter_probe_random(w, rng):
    assert_extensions_any_order(w, len(w), rng.shuffle)


def test_bispecial_fibonacci_lengths():
    fs = FactorSet(FIB, 14)
    hits = {n for n in range(13) if bispecial_factors(fs, n)}
    assert hits == {0, 1, 3, 6, 11}
    assert bispecial_factors(fs, 3) == ["aba"]
    assert bispecial_factors(fs, 0) == [""]


def test_bispecial_thue_morse_pair():
    fs = FactorSet(TM, 4)
    assert bispecial_factors(fs, 2) == ["ab", "ba"]


def balance_witness(fs: FactorSet, up_to: int, letter: str):
    """Two factors of one length n <= up_to whose counts of letter differ
    by more than 1, the heavier first; None when the factors are balanced."""
    for n in range(1, up_to + 1):
        level = fs.counts(n)
        heavy = max(level, key=lambda f: f.count(letter))
        light = min(level, key=lambda f: f.count(letter))
        if heavy.count(letter) - light.count(letter) > 1:
            return heavy, light
    return None


def test_balanced_fibonacci():
    fs = FactorSet(FIB, 30)
    assert balance_witness(fs, 30, "a") is None
    assert balance_witness(fs, 30, "b") is None


def test_balanced_thue_morse_witness():
    u, v = balance_witness(FactorSet(TM, 6), 6, "a")
    assert len(u) == len(v) == 2
    assert u.count("a") - v.count("a") > 1


def test_balanced_constant():
    assert balance_witness(FactorSet("a" * 40, 8), 8, "a") is None


def test_sturmian_check_fibonacci():
    fs = FactorSet(FIB, 101)
    assert all(complexity(fs, n) == n + 1 for n in range(1, 51))


def test_sturmian_check_thue_morse():
    fs = FactorSet(TM, 10)
    assert [complexity(fs, n) for n in (1, 2)] == [2, 4]


def test_sturmian_check_periodic():
    fs = FactorSet("ab" * 100, 10)
    assert any(complexity(fs, n) != n + 1 for n in range(1, 11))


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
    fs = FactorSet(FIB, 40)
    assert balance_witness(fs, 30, "a") is None
    assert all(complexity(fs, n) == n + 1 for n in range(1, 31))


words_strategy = st.text(alphabet="ab", min_size=30, max_size=120)


@settings(max_examples=50)
@given(words_strategy)
def test_first_difference_law(w):
    fs = FactorSet(w, 12)
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
    fs = FactorSet(w, 10)
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
