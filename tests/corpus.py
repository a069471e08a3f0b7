"""Test inputs: the named exchanges, their codings at the lengths the
tests read, the builders that draw random exchanges, points and words,
the named seeded corpora of the differential tests, and a predicate
that more than one test module reads.

Each family is a plain function with its seed inside it, built once per
session and returned as immutable values (tuples, strings, IETSpec), so
no test can change what another one reads. tests/test_corpus.py pins a
sha256 of every family: a re-seeded or changed draw fails there. A new
test that needs new data adds a family here, not a builder of its own; a
test that interleaves its own draws with builder calls keeps its seeded
stream inline.
"""

import math
import random
from functools import lru_cache

from ietword.exact import ONE, ZERO, Interval, make_quadratic, rational
from ietword.iet import CodingConfig, build_iet, check_regular, coding_with_sets, natural_coding

GOLDEN_ALPHA = make_quadratic(-1, 2, 1, 2, 5)      # (sqrt5 - 1)/2

# the golden rotation as a config file
GOLDEN_CFG = """\
k 2
d 5
lengths (3-1*sqrt(5))/2 (-1+1*sqrt(5))/2
perm 2 1
flips 0 0
"""


@lru_cache(maxsize=None)
def golden_iet():
    """The rotation by GOLDEN_ALPHA as a 2-IET."""
    return build_iet([ONE - GOLDEN_ALPHA, GOLDEN_ALPHA], (2, 1))


@lru_cache(maxsize=None)
def silver_iet(flips=None):
    """The 3-IET with lengths sqrt2 - 1, sqrt2 - 1, 3 - 2 sqrt2, reversed."""
    sqrt2 = make_quadratic(0, 1, 1, 1, 2)
    return build_iet([sqrt2 - 1, sqrt2 - 1, rational(3) - 2 * sqrt2], (3, 2, 1), flips)


@lru_cache(maxsize=None)
def flipped_4iet():
    """A 4-IET with one flipped interval: it drives the orbit of 0 onto a
    periodic cycle whose growth phase needs minus marks."""
    lengths = [
        make_quadratic(660, 2066, -63, 2066, 2),
        make_quadratic(404, 2066, -1, 2066, 2),
        make_quadratic(516, 2066, 101, 2066, 2),
        make_quadratic(486, 2066, -37, 2066, 2),
    ]
    return build_iet(lengths, [3, 4, 2, 1], [False, True, False, False])


@lru_cache(maxsize=None)
def five_letter_word():
    """10^4 letters from 0 of a 5-IET: several image orders keep its
    left-special pairs adjacent; only the true one and its mirror pass
    every order condition."""
    lengths = [
        make_quadratic(41, 233, 5, 233, 2),
        make_quadratic(1256, 3961, -23, 3961, 2),
        make_quadratic(311, 3961, -53, 3961, 2),
        make_quadratic(575, 3961, 144, 3961, 2),
        make_quadratic(66, 233, -9, 233, 2),
    ]
    return natural_coding(build_iet(lengths, [4, 1, 2, 5, 3]), ZERO, 10_000)


@lru_cache(maxsize=None)
def six_letter_word():
    """10^4 letters from 0 of a 6-IET with irreducible permutation: they
    show all 5n + 1 factors of every length up to 10."""
    T = build_iet([make_quadratic(16, 69, 3, 69, 2), rational(8, 69),
                   make_quadratic(6, 23, -1, 23, 2), make_quadratic(19, 69, -2, 69, 2),
                   make_quadratic(1, 69, 2, 69, 2), rational(7, 69)],
                  [5, 6, 1, 4, 2, 3])
    return natural_coding(T, ZERO, 10_000)


@lru_cache(maxsize=None)
def seven_letter_iet():
    """A random exact 7-IET, permutation (6, 2, 5, 4, 7, 3, 1)."""
    return random_exact_iet(random.Random(2026), 7)


def substitution_word(rules: dict[str, str], seed: str, n: int) -> str:
    w = seed
    while len(w) < n:
        w = "".join(rules[c] for c in w)
        if len(w) == len(seed):
            raise ValueError("substitution does not grow")
    return w[:n]


@lru_cache(maxsize=None)
def fibonacci_word(n: int) -> str:
    return substitution_word({"a": "ab", "b": "a"}, "a", n)


@lru_cache(maxsize=None)
def thue_morse_word(n: int) -> str:
    return substitution_word({"a": "ab", "b": "ba"}, "a", n)


@lru_cache(maxsize=None)
def tribonacci_word(n: int) -> str:
    return substitution_word({"a": "ab", "b": "ac", "c": "a"}, "a", n)


@lru_cache(maxsize=None)
def mechanical_word(alpha, x0, u_len, n: int) -> str:
    """Coding of the rotation x -> x + alpha by the arc U = [0, u_len),
    for 0 < alpha, u_len < 1."""
    T = build_iet([ONE - alpha, alpha], (2, 1))
    config = CodingConfig([
        ("a", (Interval(ZERO, u_len),)),
        ("b", (Interval(u_len, ONE),)),
    ])
    # rational alpha makes orbits hit the arc boundary; under the
    # half-open convention a point on it takes the letter of the arc it starts
    return coding_with_sets(T, config, x0, n)


def golden_mechanical_word(n: int) -> str:
    """The golden rotation from 0, coded by the arc [0, GOLDEN_ALPHA)."""
    return mechanical_word(GOLDEN_ALPHA, ZERO, GOLDEN_ALPHA, n)


@lru_cache(maxsize=None)
def golden_word(n: int) -> str:
    return natural_coding(golden_iet(), ZERO, n)


@lru_cache(maxsize=None)
def silver_word(n: int) -> str:
    return natural_coding(silver_iet(), ZERO, n)


@lru_cache(maxsize=None)
def seven_letter_word() -> str:
    """10^4 letters of seven_letter_iet from 1/7."""
    return natural_coding(seven_letter_iet(), rational(1, 7), 10_000)


@lru_cache(maxsize=None)
def random_word(seed, letters, n) -> str:
    rng = random.Random(seed)
    return "".join(rng.choice(letters) for _ in range(n))


def near_miss(word, i):
    """word with letter i replaced by the least other letter of its alphabet."""
    other = next(c for c in sorted(set(word)) if c != word[i])
    return word[:i] + other + word[i + 1:]


def random_exact_iet(rng, k):
    """Exact-parameter IET with lengths (a + b*sqrt2)/total, irreducible
    permutation; retries until all lengths are positive."""
    while True:
        vals = []
        for _ in range(k):
            a, b = rng.randint(1, 20), rng.randint(-3, 3)
            v = make_quadratic(a, 1, b, 1, 2)
            if v.sign() <= 0:
                break
            vals.append(v)
        else:
            total = sum(vals[1:], vals[0])
            lengths = [v / total for v in vals]
            while True:
                perm = list(range(1, k + 1))
                rng.shuffle(perm)
                if all(set(perm[:j]) != set(range(1, j + 1))
                       for j in range(1, k)):
                    break
            return build_iet(lengths, perm)


def random_point(rng, d):
    """A point of [0,1) in Q (d = 0) or Q(sqrt d), small denominators."""
    y = rational(rng.randrange(1, 60), rng.randrange(2, 30))
    if d:
        y = y + rational(rng.randrange(-20, 21), rng.randrange(1, 15)) * \
            make_quadratic(0, 1, 1, 1, d)
    return y - math.floor(y)


def far_point(rng, d):
    """A point of [0,1) over the primes 9973 and 9967, which divide no
    denominator of a random_exchange."""
    y = rational(rng.randrange(1, 10 ** 5), 9973)
    if d:
        y = y + rational(rng.randrange(-99, 100), 9967) * make_quadratic(0, 1, 1, 1, d)
    return y - math.floor(y)


def random_exchange(rng, k, d, flip_p=0.3):
    """k intervals cut at random_points over Q(sqrt d), in random order,
    each flipped with probability flip_p."""
    cuts = set()
    while len(cuts) < k - 1:
        x = random_point(rng, d)
        if x != ZERO:
            cuts.add(x)
    ends = [ZERO, *sorted(cuts), ONE]
    perm = list(range(1, k + 1))
    rng.shuffle(perm)
    flips = [rng.random() < flip_p for _ in range(k)]
    return build_iet([b - a for a, b in zip(ends, ends[1:])], perm, flips)


def scattered_config(rng, d, letters, T=None):
    """Letters cycling over the pieces between random cuts, so that each
    letter owns several pieces and no cut need be an exchange endpoint.
    Given the exchange T, about one cut in three is one of its interval
    ends or image slot starts."""
    on_exchange = [*T.left[1:-1], *T.slot_start[1:-1]] if T else []
    cuts = set()
    while len(cuts) < 2 * len(letters):
        if on_exchange and rng.random() < 0.35:
            x = rng.choice(on_exchange)
        else:
            x = random_point(rng, d if rng.random() < 0.5 else 0)
        if x != ZERO:
            cuts.add(x)
    ends = [ZERO, *sorted(cuts), ONE]
    sets = {c: [] for c in letters}
    for j, (a, b) in enumerate(zip(ends, ends[1:])):
        sets[letters[j % len(letters)]].append(Interval(a, b))
    return CodingConfig(sets.items())


@lru_cache(maxsize=None)
def flipped_corpus(draws):
    """Seeded exchanges on 3..6 letters with random flips; fewer draws
    give a prefix of more."""
    rng = random.Random(2027)
    out = []
    for _ in range(draws):
        k = rng.randint(3, 6)
        vals = []
        while len(vals) < k:
            v = make_quadratic(rng.randint(1, 20), 1, rng.randint(-3, 3), 1, 2)
            if v.sign() > 0:
                vals.append(v)
        total = sum(vals[1:], vals[0])
        perm = list(range(1, k + 1))
        rng.shuffle(perm)
        flips = [rng.random() < 0.35 for _ in range(k)]
        out.append(build_iet([v / total for v in vals], perm, flips))
    return tuple(out)


@lru_cache(maxsize=None)
def acceptance_corpus():
    """Ten regular exact IETs (k cycling 2,3,4) with 2 * 10^4 letters of
    their codings from 0."""
    rng = random.Random(20260823)
    out = []
    tried = 0
    while len(out) < 10:
        k = [2, 3, 4][tried % 3]
        tried += 1
        T = random_exact_iet(rng, k)
        if check_regular(T, 2000).collided:
            continue
        out.append((T, natural_coding(T, ZERO, 20_000)))
    return tuple(out)


@lru_cache(maxsize=None)
def search_corpus():
    """(word, index length, max_len) triples for the order search, k <= 5
    so the brute force runs."""
    rng = random.Random(20072)
    words = [fibonacci_word(3000), thue_morse_word(2000),
             tribonacci_word(2000), golden_word(4000), silver_word(6000)]
    exchanges = []
    for k in (3, 4, 5, 3, 4):
        T = random_exact_iet(rng, k)
        while check_regular(T, 500).collided:
            T = random_exact_iet(rng, k)
        exchanges.append(T)
    for T in exchanges:
        word = natural_coding(T, ZERO, 3000)
        words += [word, near_miss(word, rng.randrange(100, 3000))]
    words.append(natural_coding(flipped_4iet(), ZERO, 3000))
    words += ["".join(rng.choice(alpha) for _ in range(rng.randint(30, 150)))
              for alpha in ("ab", "abc", "abcd") for _ in range(3)]
    # each word indexed two letters past max_len = 0, 3 and 8, then short
    # prefixes indexed to their whole length, whose last factors have
    # empty extension sets
    return tuple(case for word in words for case in (
        (word, 2, 0), (word, 5, 3), (word, 10, 8), (word[:12], 12, 10), (word[:7], 6, 4)))


@lru_cache(maxsize=None)
def label_search_words():
    """(word, k_max) pairs whose label searches reach the search's cases."""
    # a natural 5-IET coding with one letter changed: from n = 2 on it has
    # more than 4n + 1 factors of length n, so no flip-free 5-IET codes it
    five = natural_coding(random_exact_iet(random.Random(0), 5), ZERO, 400)
    return (
        ("ababababbbaaabababbbbaabaaaababa", 6),            # 10 sides
        ("abbaabbaabbababbbaabbaaabbaabbabbabaabbaa", 6),   # marks / contradiction
        ("cbaacacbbbcacbbcbbbcbaac", 5),                    # 8 sides, 3 letters
        ("12222311222223122223112222231222231122222312222311222223122223112222231222231122222", 8),
        # unoriented: minus marks go forward from level 6 to level 11
        (natural_coding(flipped_4iet(), ZERO, 150), 11),
        # oriented: masks die at levels 3, 4, 5 and 7
        (near_miss(five, 250), 8),
    )


@lru_cache(maxsize=None)
def levels_corpus():
    """Seeded (word, k_max) pairs: random words over 2-4 letters,
    periodic words with a few letters of noise, natural codings of random
    exact exchanges, and the label search words."""
    rng = random.Random(10)
    corpus = []
    for i in range(60):
        letters = "abcd"[:2 + i % 3]
        word = "".join(rng.choice(letters) for _ in range(rng.randint(20, 160)))
        corpus.append((word, 8))
    for i in range(30):
        letters = "abcd"[:2 + i % 3]
        period = "".join(rng.choice(letters) for _ in range(rng.randint(2, 7)))
        word = list(period * (300 // len(period)))
        for _ in range(rng.randint(1, 3)):
            word[rng.randrange(len(word))] = rng.choice(letters)
        corpus.append(("".join(word), 10))
    for i in range(9):
        T = random_exact_iet(rng, 2 + i % 3)
        corpus.append((natural_coding(T, ZERO, 1500), 12))
    corpus += label_search_words()
    corpus += [(thue_morse_word(500), 12), (tribonacci_word(500), 12)]
    return tuple(corpus)


@lru_cache(maxsize=None)
def mark_clash_word():
    """Draw 13 of the flipped corpus coded from 0, letter 213 set to 1:
    unoriented over [1, 12], its label search at K = 2 fails on a mark
    forced forward onto a vertex with a mixed deleted pair."""
    word = natural_coding(flipped_corpus(14)[13], ZERO, 3000)
    return word[:213] + "1" + word[214:]


def balance_witness(fs, up_to: int, letter: str):
    """Two factors of one length n <= up_to whose counts of letter differ
    by more than 1, the heavier first; None when the factors are balanced."""
    for n in range(1, up_to + 1):
        level = fs.counts(n)
        heavy = max(level, key=lambda f: f.count(letter))
        light = min(level, key=lambda f: f.count(letter))
        if heavy.count(letter) - light.count(letter) > 1:
            return heavy, light
    return None
