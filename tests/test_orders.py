import random
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from ietword import orders
from ietword.exact import make_quadratic, rational
from ietword.iet import build_iet, check_regular, natural_coding
from ietword.orders import (
    OrderPair,
    OrderReport,
    check_orders,
    interval_orders,
    search_orders,
)
from ietword.rauzy import validate_evolution
from ietword.words import FactorSet

from wordgen import (
    fibonacci_word,
    random_exact_iet,
    thue_morse_word,
    tribonacci_word,
)

GOOD = OrderPair(("a", "b"), ("b", "a"))


def fib_fs(max_len=16):
    return FactorSet(fibonacci_word(4000), max_len)


def golden_fs(max_len=16):
    alpha = make_quadratic(-1, 2, 1, 2, 5)
    T = build_iet([rational(1) - alpha, alpha], [2, 1])
    return FactorSet(natural_coding(T, rational(0), 4000), max_len)


def silver_fs(max_len=14):
    s = make_quadratic(-1, 1, 1, 1, 2)
    T = build_iet([s, s, rational(3) - make_quadratic(0, 1, 2, 1, 2)], [3, 2, 1])
    return FactorSet(natural_coding(T, rational(0), 6000), max_len)


def test_extension_sets_fibonacci():
    fs = fib_fs()
    assert fs.extensions(1)["a"] == (frozenset("ab"), frozenset("ab"))
    assert fs.extensions(1)["b"] == (frozenset("a"), frozenset("a"))
    # the empty factor extends by every letter on both sides
    assert fs.extensions(0)[""] == (frozenset("ab"), frozenset("ab"))


def test_extension_sets_errors():
    fs = fib_fs(6)
    assert "bb" not in fs.extensions(2)
    with pytest.raises(ValueError):
        fs.extensions(6)


def test_order_pair_validation():
    with pytest.raises(ValueError):
        OrderPair(("a", "a"), ("a", "a"))
    with pytest.raises(ValueError):
        OrderPair(("a", "b"), ("a", "c"))
    assert GOOD.k == 2


def test_check_orders_window_precondition():
    fs = fib_fs(6)
    with pytest.raises(ValueError):
        check_orders(fs, GOOD, 5)
    assert check_orders(fs, GOOD, 4).passed


def test_fibonacci_passes_and_is_monotone():
    fs = fib_fs()
    long = check_orders(fs, GOOD, 14)
    assert long.passed and long.condition is None
    assert "consistent" in str(long)
    assert check_orders(fs, GOOD, 5).passed


def test_identity_orders_fail_separation():
    r = check_orders(fib_fs(), OrderPair(("a", "b"), ("a", "b")), 10)
    assert not r.passed
    assert r.condition == "separation"
    assert r.witness == (1,)


def test_wrong_alphabet_fails_letters():
    r = check_orders(fib_fs(), OrderPair(("a", "c"), ("c", "a")), 10)
    assert r.condition == "letters"


def test_thue_morse_fails_with_doubleton():
    fs = FactorSet(thue_morse_word(4000), 16)
    r = check_orders(fs, GOOD, 14)
    assert not r.passed
    assert r.condition == "3"
    assert r.witness == ("", "b", "a", ("a", "b"))


def test_periodic_word_fails_with_empty_overlap():
    # adjacent extension blocks of a degenerate exchange share nothing
    fs = FactorSet("ab" * 300, 10)
    r = check_orders(fs, GOOD, 6)
    assert r.condition == "3"
    assert r.witness == ("", "b", "a", ())


def test_silver_orders():
    fs = silver_fs()
    assert check_orders(fs, OrderPair(("1", "2", "3"), ("3", "2", "1")), 12).passed
    r = check_orders(fs, OrderPair(("1", "3", "2"), ("3", "2", "1")), 10)
    assert r.condition == "2"
    assert r.witness == ("", "2", "1", "2", "3")


def test_gap_in_extension_block_fails_interval_condition():
    fs = FactorSet("bcabbabbbabbba", 8)
    r = check_orders(fs, OrderPair(("a", "c", "b"), ("c", "b", "a")), 4)
    assert r.condition == "1"
    assert r.witness == ("bb", "right", ("a", "b"))


def test_search_orders_fibonacci():
    pairs = search_orders(fib_fs(), 12)
    assert [(p.pi0, p.pi1) for p in pairs] == [
        (("a", "b"), ("b", "a")),
        (("b", "a"), ("a", "b")),
    ]


def test_search_orders_golden_and_silver():
    assert [(p.pi0, p.pi1) for p in search_orders(golden_fs(), 12)] == [
        (("1", "2"), ("2", "1")),
        (("2", "1"), ("1", "2")),
    ]
    assert [(p.pi0, p.pi1) for p in search_orders(silver_fs(), 12)] == [
        (("1", "2", "3"), ("3", "2", "1")),
        (("3", "2", "1"), ("1", "2", "3")),
    ]


def test_search_orders_rejects_non_iet_words():
    assert search_orders(FactorSet(thue_morse_word(4000), 16), 12) == []
    assert search_orders(FactorSet(tribonacci_word(4000), 16), 12) == []


def test_search_orders_single_letter_vacuous():
    pairs = search_orders(FactorSet("a" * 50, 6), 3)
    assert [(p.pi0, p.pi1) for p in pairs] == [(("a",), ("a",))]


def test_search_orders_alphabet_guard():
    fs = FactorSet("abcdefg" * 4, 4)
    with pytest.raises(ValueError):
        search_orders(fs, 2)


def test_search_orders_finds_seven_letter_pair():
    # a genuine 7-letter coding whose extension sets leave 2 domain and
    # 4 image orders: the cap counts orders kept, not letters
    T = random_exact_iet(random.Random(2026), 7)
    assert T.permutation == (6, 2, 5, 4, 7, 3, 1)
    fs = FactorSet(natural_coding(T, rational(1, 7), 10_000), 10)
    true = OrderPair(tuple("1234567"), tuple("6254731"))
    assert search_orders(fs, 8) == [true, OrderPair(true.pi0[::-1], true.pi1[::-1])]


def test_order_cap_counts_orders_per_side(monkeypatch):
    plain, pulled = orders.interval_orders, []

    def counting(letters, blocks):
        pulled.append(0)
        for order in plain(letters, blocks):
            pulled[-1] += 1
            yield order

    monkeypatch.setattr(orders, "interval_orders", counting)
    # a periodic word constrains no order: 6! = 720 a side is searched,
    # 9! is refused after 721 orders a side and before any pair is formed
    pi0s, pi1s = orders.candidate_orders(FactorSet("abcdef" * 20, 4), 2)
    assert pulled == [720, 720]
    assert pi0s[0] == tuple("abcdef")
    assert pi1s[:2] == [tuple("abcdef"), tuple("abcdfe")]
    pulled.clear()
    with pytest.raises(ValueError, match="more than 720 orders"):
        orders.candidate_orders(FactorSet("abcdefghi" * 20, 4), 2)
    assert pulled == [721, 721]


def test_agrees_with_evolution_validator():
    # both sides characterize codings of orientation-preserving exchanges
    for fs, expect in [
        (fib_fs(), True),
        (golden_fs(), True),
        (silver_fs(), True),
        (FactorSet(thue_morse_word(4000), 16), False),
        (FactorSet(tribonacci_word(4000), 16), False),
    ]:
        nonempty = bool(search_orders(fs, 10))
        accepted = validate_evolution(fs, 1, 12, oriented=True).accepted
        assert nonempty == expect and accepted == expect


def test_slices_of_golden_word_still_pass():
    w = natural_coding(
        build_iet([rational(1) - make_quadratic(-1, 2, 1, 2, 5),
                   make_quadratic(-1, 2, 1, 2, 5)], [2, 1]),
        rational(0), 3000)
    pair = OrderPair(("1", "2"), ("2", "1"))
    for start in (0, 137, 991):
        fs = FactorSet(w[start:start + 800], 8)
        assert check_orders(fs, pair, 6).passed


# ------------------------------------------- differential: slow references

def check_orders_reference(fs, orders, max_len):
    """The per-pair loop check_orders ran before its scans: every factor
    of every length, each order pair on its own.  z and t are taken in
    sorted order, so the condition-2 witness does not follow hashing."""
    if max_len + 2 > fs.max_len:
        raise ValueError("window too long")

    def interval(letters, rank):
        ranks = sorted(rank(x) for x in letters)
        return not ranks or ranks[-1] - ranks[0] + 1 == len(ranks)

    def fail(condition, witness):
        return OrderReport(False, condition, witness, max_len)

    if set(orders.pi0) != set(fs.alphabet):
        return fail("letters", (tuple(fs.alphabet), orders.pi0))
    j = orders.separation()
    if j is not None:
        return fail("separation", (j,))
    for n in range(max_len + 1):
        longer = fs.extensions(n + 1)
        for w, (left, right) in sorted(fs.extensions(n).items()):
            if not interval(left, orders.pi1.index):
                return fail("1", (w, "left", tuple(sorted(left))))
            if not interval(right, orders.pi0.index):
                return fail("1", (w, "right", tuple(sorted(right))))
            block = [x for x in orders.pi1 if x in left]
            rights = {x: longer[x + w][1] for x in block}
            for x, y in zip(block, block[1:]):
                common = rights[x] & rights[y]
                if len(common) != 1:
                    return fail("3", (w, x, y, tuple(sorted(common))))
            for i, x in enumerate(block):
                for y in block[i + 1:]:
                    for z in sorted(rights[x]):
                        for t in sorted(rights[y]):
                            if orders.pi0.index(z) > orders.pi0.index(t):
                                return fail("2", (w, x, y, z, t))
    return OrderReport(True, None, None, max_len)


def brute_search(fs, max_len):
    """The (k!)^2 loop search_orders ran before, kept as its reference."""
    letters = tuple(fs.alphabet)
    out = []
    for p0 in permutations(letters):
        for p1 in permutations(letters):
            pair = OrderPair(p0, p1)
            if check_orders_reference(fs, pair, max_len).passed:
                out.append(pair)
    return out


def filtered_orders(letters, blocks):
    """Orders of letters keeping each block contiguous, by filtering."""
    def contiguous(order, block):
        ranks = sorted(order.index(x) for x in block)
        return not ranks or ranks[-1] - ranks[0] + 1 == len(ranks)
    return [order for order in permutations(letters)
            if all(contiguous(order, b) for b in blocks)]


def test_interval_orders_match_permutation_filter():
    rng = random.Random(20071)
    survivors = 0
    for k in range(1, 7):
        for _ in range(40):
            # a shuffled alphabet: the order is that of permutations(letters)
            letters = rng.sample("abcdef"[:k], k)
            blocks = [rng.sample(letters, rng.randint(0, k))
                      for _ in range(rng.randint(0, 4))]
            got = list(interval_orders(letters, blocks))
            assert got == filtered_orders(letters, blocks)
            survivors += bool(got)
    assert 0 < survivors < 240


def test_interval_orders_edges():
    assert list(interval_orders("", [])) == [()]
    assert list(interval_orders("ab", [])) == [("a", "b"), ("b", "a")]
    # conflicting pairs: abc admits no order keeping all three adjacent
    assert list(interval_orders("abc", ["ab", "bc", "ac"])) == []
    with pytest.raises(ValueError):
        interval_orders("ab", ["ac"])


def near_miss(word, i):
    """word with letter i replaced by another letter of its alphabet."""
    other = next(c for c in sorted(set(word)) if c != word[i])
    return word[:i] + other + word[i + 1:]


def search_corpus():
    """(word, index length, max_len) triples, k <= 5 so the brute force runs."""
    rng = random.Random(20072)
    words = [fibonacci_word(3000), thue_morse_word(2000),
             tribonacci_word(2000), golden_fs(16).word, silver_fs(14).word]
    exchanges = []
    for k in (3, 4, 5, 3, 4):
        T = random_exact_iet(rng, k)
        while check_regular(T, 500).collided:
            T = random_exact_iet(rng, k)
        exchanges.append(T)
    for T in exchanges:
        word = natural_coding(T, rational(0), 3000)
        words += [word, near_miss(word, rng.randrange(100, 3000))]
    flipped = build_iet([make_quadratic(660, 2066, -63, 2066, 2),
                         make_quadratic(404, 2066, -1, 2066, 2),
                         make_quadratic(516, 2066, 101, 2066, 2),
                         make_quadratic(486, 2066, -37, 2066, 2)],
                        [3, 4, 2, 1], [False, True, False, False])
    words.append(natural_coding(flipped, rational(0), 3000))
    words += ["".join(rng.choice(alpha) for _ in range(rng.randint(30, 150)))
              for alpha in ("ab", "abc", "abcd") for _ in range(3)]
    cases = []
    for word in words:
        for max_len in (0, 3, 8):
            cases.append((word, max_len + 2, max_len))
        # a short prefix indexed to its whole length: the last factors
        # have empty extension sets
        cases.append((word[:12], 12, 10))
        cases.append((word[:7], 6, 4))
    return cases


def test_search_orders_matches_brute_force():
    cases = search_corpus()
    found = 0
    for word, index_len, max_len in cases:
        fs = FactorSet(word, index_len)
        got = search_orders(fs, max_len)
        assert got == brute_search(fs, max_len), (word[:20], max_len)
        found += bool(got)
    assert 0 < found < len(cases)


def test_check_orders_matches_reference_on_every_pair():
    # every pair of permutations, so each condition's witness is compared
    # wherever it can occur, not only on the candidates; the short word
    # breaks condition 1 at a truncated factor
    seen = Counter()
    gap = [("bcabbabbbabbba", 8, 4), ("bcabbabbbabbba", 14, 12)]
    for word, index_len, max_len in search_corpus() + gap:
        fs = FactorSet(word, index_len)
        if len(fs.alphabet) > 4:
            continue
        for p0 in permutations(fs.alphabet):
            for p1 in permutations(fs.alphabet):
                pair = OrderPair(p0, p1)
                got = check_orders(fs, pair, max_len)
                assert got == check_orders_reference(fs, pair, max_len), \
                    (word[:20], max_len, pair)
                seen[got.condition] += 1
    assert set(seen) == {None, "separation", "1", "2", "3"}


def test_check_orders_matches_reference_on_sampled_pairs():
    # five and six letters: a seeded sample of all pairs, and of the
    # candidates, which pass condition 1 and so reach conditions 2 and 3
    rng = random.Random(20073)
    words = [w for w, _, _ in search_corpus() if len(set(w)) == 5]
    six = six_letter_fs().word
    words += [six, near_miss(six, 4321),
              "".join(rng.choice("abcdef") for _ in range(400))]
    seen = Counter()
    for word in words:
        for index_len, max_len in ((5, 3), (10, 8)):
            fs = FactorSet(word, index_len)
            letters = fs.alphabet
            pairs = [OrderPair(tuple(rng.sample(letters, len(letters))),
                               tuple(rng.sample(letters, len(letters))))
                     for _ in range(60)]
            pi0s, pi1s = orders.candidate_orders(fs, max_len)
            if pi0s and pi1s:
                pairs += [OrderPair(rng.choice(pi0s), rng.choice(pi1s))
                          for _ in range(60)]
            for pair in pairs:
                got = check_orders(fs, pair, max_len)
                assert got == check_orders_reference(fs, pair, max_len), \
                    (word[:20], max_len, pair)
                seen[got.condition] += 1
    assert set(seen) == {None, "separation", "2", "3"}


def six_letter_fs():
    # a random 6-IET with irreducible permutation; 10^4 letters show all
    # 5n + 1 factors of every length up to 10, so extension sets are exact
    third = make_quadratic(6, 23, -1, 23, 2)
    T = build_iet([make_quadratic(16, 69, 3, 69, 2), rational(8, 69), third,
                   make_quadratic(19, 69, -2, 69, 2),
                   make_quadratic(1, 69, 2, 69, 2), rational(7, 69)],
                  [5, 6, 1, 4, 2, 3])
    return FactorSet(natural_coding(T, rational(0), 10_000), 10)


def test_search_orders_finds_six_letter_pair():
    fs = six_letter_fs()
    assert all(len(fs.counts(n)) == 5 * n + 1 for n in range(1, 11))
    true = OrderPair(tuple("123456"), tuple("561423"))
    assert search_orders(fs, 8) == [true, OrderPair(true.pi0[::-1],
                                                    true.pi1[::-1])]


def test_short_index_raises_when_no_order_survives():
    word = "ccabcbccacabbcaacbccbbcaacacbcacaacab" * 20
    rights = set()
    fs = FactorSet(word, 5)
    for n in range(4):
        rights |= {right for _, right in fs.extensions(n).values()}
    assert list(interval_orders(fs.alphabet, rights)) == []
    assert search_orders(fs, 3) == []
    with pytest.raises(ValueError):
        search_orders(fs, 4)
    with pytest.raises(ValueError):
        search_orders(FactorSet(word, 2), 1)


# ------------------------------------------------------------ properties

words_strategy = st.text(alphabet="ab", min_size=30, max_size=120)


@settings(max_examples=50)
@given(words_strategy)
def test_check_orders_is_total(w):
    report = check_orders(FactorSet(w, 8), GOOD, 6)
    assert report.condition in (None, "letters", "separation", "1", "2", "3")
    assert report.passed == (report.condition is None)
    if not report.passed and report.condition not in ("letters",):
        assert report.witness is not None


@settings(max_examples=25)
@given(words_strategy)
def test_search_results_self_consistent(w):
    fs = FactorSet(w, 8)
    for pair in search_orders(fs, 6):
        assert check_orders(fs, pair, 6).passed
