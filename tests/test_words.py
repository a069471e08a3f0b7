import random

import pytest
from hypothesis import given, settings, strategies as st

from ietword.words import (
    FactorSet,
    _halvings,
    bispecial_factors,
    complexity,
    special_factors,
)
from reference import probed_extensions, window_counts
from corpus import (balance_witness, fibonacci_word, golden_word, random_word,
                    silver_word, thue_morse_word, tribonacci_word)

FIB = fibonacci_word(2000)
TM = thue_morse_word(1024)
TRI = tribonacci_word(2000)


def assert_counts_match(fs, levels):
    for n in levels:
        # same counts, and the same first-occurrence key order
        assert list(fs.counts(n).items()) == list(window_counts(fs.word, n).items())


def block_size(windows):
    """The top stride the top-level count documents: the least power of
    two B with 16 B^2 >= the window count."""
    b = 1
    while 16 * b * b < windows:
        b *= 2
    return b


def handover(word, top):
    """The stride at which the documented rule stops halving and counts
    windows directly: the first level with more than 1.5 times as many
    distinct blocks as the level it was cut from, or 1 if none has."""
    before = None
    for stride, blocks in _halvings(word, top):
        if before is not None and 2 * len(blocks) > 3 * before:
            return stride
        before = len(blocks)
    return 1


def assert_index_matches_slicing(word, max_len):
    fs = FactorSet(word, max_len)
    assert_counts_match(fs, range(max_len, -1, -1))
    assert fs.alphabet == tuple(sorted(set(word)))


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
    # window counts 1000..1015 all take the top stride B = 8 and run
    # through every residue mod 8, so the word's last block holds 1 to 8
    # windows: fewer than a half of 4 (its second half holds none and is
    # dropped), exactly a half, or a half and a second half of 1 to 3.
    # At top 10 every block has odd length.  The silver source halves
    # down to the windows; the random ones hand over to the direct count
    # at stride 4
    counts = range(1000, 1016)
    b = block_size(1000)
    assert b == 8 and all(block_size(n) == b for n in counts)
    assert {n % b for n in counts} == set(range(b))
    long = {"silver": silver_word(1100), "random2": random_word(14, "ab", 1100),
            "random3": random_word(15, "abc", 1100)}[source]
    for top in (9, 10):
        for n in counts:
            word = long[:n + top - 1]
            assert next(_halvings(word, top))[0] == b
            assert handover(word, top) == (1 if source == "silver" else 4)
            assert_index_matches_slicing(word, top)


def mixed_word(n, silver_share, first, tail_letters):
    """A silver prefix then a random tail, or the random part first."""
    silver = silver_word(n)[:round(n * silver_share)]
    rest = random_word(n, tail_letters, n - len(silver))
    return silver + rest if first == "silver" else rest + silver


# silver with a random part of 50, 10, 3, 1 and 0.5 % of its letters: the
# halving keeps its sharing for some levels, then hands over to counting
# windows directly where the random blocks take over
MIXED = [(n, share, first, letters)
         for n, share in [(10_000, 0.5), (10_000, 0.9), (10_000, 0.97),
                          (10_000, 0.99), (100_000, 0.5), (100_000, 0.9),
                          (100_000, 0.97), (100_000, 0.995)]
         for first in ("silver", "random")
         for letters in ("123", "1234")]


@pytest.mark.parametrize("n,share,first,letters", MIXED)
def test_counts_match_slicing_across_handover(n, share, first, letters):
    word = mixed_word(n, share, first, letters)
    fs = FactorSet(word, 21)
    assert_counts_match(fs, [21, 20])
    assert fs.alphabet == tuple(sorted(set(word)))


def test_mixed_words_hand_over_at_many_levels():
    # the corpus above hands over to the direct count at five different
    # strides, and some of its words halve all the way down to the windows
    strides = {handover(mixed_word(*case), 21) for case in MIXED}
    assert {64, 16, 8, 4, 2, 1} <= strides


def test_halvings_share_blocks_of_silver():
    # a word of complexity (k - 1)n + 1 has at most (k - 1)(s + top - 1) + 1
    # distinct stride-s blocks of full length, and the word's last block
    # may add one, within (k - 1)(s + top) + 1: every level of the silver
    # 3-IET's coding stays under that bound, down to the windows, so no
    # level hands over
    word, top, k = silver_word(100000), 21, 3
    levels = list(_halvings(word, top))
    assert [s for s, _ in levels] == [128, 64, 32, 16, 8, 4, 2, 1]
    assert handover(word, top) == 1
    for stride, blocks in levels:
        assert len(blocks) <= (k - 1) * (stride + top) + 1
        assert sum(blocks.values()) == -(-(len(word) - top + 1) // stride)
    assert list(levels[-1][1].items()) == list(window_counts(word, top).items())


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
