"""Classic substitution words and random exact exchanges used as fixtures
across the test suite."""

from ietword.exact import ONE, ZERO, Interval, make_quadratic
from ietword.iet import CodingConfig, build_iet, coding_with_sets


def substitution_word(rules: dict[str, str], seed: str, n: int) -> str:
    w = seed
    while len(w) < n:
        w = "".join(rules[c] for c in w)
        if len(w) == len(seed):
            raise ValueError("substitution does not grow")
    return w[:n]


def fibonacci_word(n: int) -> str:
    return substitution_word({"a": "ab", "b": "a"}, "a", n)


def thue_morse_word(n: int) -> str:
    return substitution_word({"a": "ab", "b": "ba"}, "a", n)


def tribonacci_word(n: int) -> str:
    return substitution_word({"a": "ab", "b": "ac", "c": "a"}, "a", n)


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
            total = vals[0]
            for v in vals[1:]:
                total = total + v
            lengths = [v / total for v in vals]
            while True:
                perm = list(range(1, k + 1))
                rng.shuffle(perm)
                if all(set(perm[:j]) != set(range(1, j + 1))
                       for j in range(1, k)):
                    break
            return build_iet(lengths, perm)
