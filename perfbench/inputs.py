"""Benchmark inputs and the answers they are checked against.

Nothing here imports ietword: the exchanges, the words and every known
answer are computed with this file's own exact arithmetic, so a change
to the program or to its tests cannot change a workload or its oracle.

A scalar of Q(sqrt d) is a pair of Fractions (rat, coef) standing for
rat + coef*sqrt(d); one exchange uses one radicand d (0 when rational).
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

LETTERS = "123456789"


# ------------------------------------------------------------ Q(sqrt d)

def q_sign(rat, coef, d: int) -> int:
    """Sign of rat + coef*sqrt(d), for ints or Fractions, without floats."""
    if coef == 0 or d == 0:
        return (rat > 0) - (rat < 0)
    if rat == 0:
        return 1 if coef > 0 else -1
    if (rat > 0) == (coef > 0):
        return 1 if rat > 0 else -1
    lhs, rhs = rat * rat, coef * coef * d
    if lhs == rhs:
        return 0
    if lhs > rhs:
        return 1 if rat > 0 else -1
    return 1 if coef > 0 else -1


def literal(x, d: int) -> str:
    """Scalar literal in the config grammar: INT/INT or (INT+-INT*sqrt(d))/INT."""
    rat, coef = x
    if coef == 0:
        return f"{rat.numerator}/{rat.denominator}"
    den = math.lcm(rat.denominator, coef.denominator)
    p = rat.numerator * (den // rat.denominator)
    r = coef.numerator * (den // coef.denominator)
    return f"({p}{'+' if r >= 0 else '-'}{abs(r)}*sqrt({d}))/{den}"


# ------------------------------------------------------------- exchanges

@dataclass(frozen=True)
class Exchange:
    name: str
    lengths: tuple   # (rat, coef) pairs, summing to exactly 1
    d: int
    perm: tuple      # perm[j] = interval placed in image slot j+1 (1-based)
    flips: tuple

    @property
    def k(self) -> int:
        return len(self.lengths)

    def config_text(self) -> str:
        return "\n".join([
            f"k {self.k}",
            f"d {self.d}",
            "lengths " + " ".join(literal(x, self.d) for x in self.lengths),
            "perm " + " ".join(map(str, self.perm)),
            "flips " + " ".join("1" if f else "0" for f in self.flips),
        ]) + "\n"

    def true_orders(self) -> tuple[str, str]:
        """Domain and image letter orders of the natural coding."""
        return LETTERS[:self.k], "".join(LETTERS[i - 1] for i in self.perm)


def _q(p, q=1, r=0, s=1):
    return (Fraction(p, q), Fraction(r, s))


def golden() -> Exchange:
    a = _q(-1, 2, 1, 2)                     # (sqrt5 - 1)/2
    return Exchange("golden", (_q(3, 2, -1, 2), a), 5, (2, 1), (False, False))


def silver() -> Exchange:
    s = _q(-1, 1, 1, 1)                     # sqrt2 - 1
    return Exchange("silver", (s, s, _q(3, 1, -2, 1)), 2, (3, 2, 1),
                    (False, False, False))


def flipped4() -> Exchange:
    ls = (_q(660, 2066, -63, 2066), _q(404, 2066, -1, 2066),
          _q(516, 2066, 101, 2066), _q(486, 2066, -37, 2066))
    return Exchange("flipped4", ls, 2, (3, 4, 2, 1),
                    (False, True, False, False))


def rational_rotation() -> Exchange:
    """(1/3, 2/3) swap: the orbit of 0 reaches the discontinuity 1/3."""
    return Exchange("rational", (_q(1, 3), _q(2, 3)), 0, (2, 1), (False, False))


def random_exchange(rng: random.Random, k: int, name: str) -> Exchange:
    """Flip-free exchange with lengths (a + b*sqrt2)/total, irreducible perm."""
    while True:
        vals = [_q(rng.randint(1, 20), 1, rng.randint(-3, 3)) for _ in range(k)]
        if all(q_sign(r, c, 2) > 0 for r, c in vals):
            break
    tr, tc = sum(v[0] for v in vals), sum(v[1] for v in vals)
    # 1/(tr + tc*sqrt2) = (tr - tc*sqrt2)/(tr^2 - 2 tc^2)
    norm = tr * tr - 2 * tc * tc
    inv = (tr / norm, -tc / norm)
    lengths = tuple((r * inv[0] + 2 * c * inv[1], r * inv[1] + c * inv[0])
                    for r, c in vals)
    while True:
        perm = list(range(1, k + 1))
        rng.shuffle(perm)
        if all(set(perm[:j]) != set(range(1, j + 1)) for j in range(1, k)):
            return Exchange(name, lengths, 2, tuple(perm), (False,) * k)


# ------------------------------------------------------ integer stepper

class Stepper:
    """Orbits of one exchange on integer pairs (A, B) = (A + B*sqrt d)/D."""

    def __init__(self, T: Exchange, extra=()):
        self.T, self.d = T, T.d
        scalars = list(T.lengths) + list(extra)
        D = 1
        for r, c in scalars:
            D = math.lcm(D, r.denominator, c.denominator)
        self.D = D
        k = T.k
        left = [(0, 0)]
        for x in T.lengths:
            a, b = self.enc(x)
            left.append((left[-1][0] + a, left[-1][1] + b))
        slot_of = {i: j for j, i in enumerate(T.perm)}
        starts = [(0, 0)]
        for i in T.perm:
            a, b = self.enc(T.lengths[i - 1])
            starts.append((starts[-1][0] + a, starts[-1][1] + b))
        self.left, self.starts = left, starts
        self.dest = [starts[slot_of[i]] for i in range(1, k + 1)]
        self.disp = [(self.dest[i][0] - left[i][0], self.dest[i][1] - left[i][1])
                     for i in range(k)]
        self.refl = [(self.dest[i][0] + left[i + 1][0],
                      self.dest[i][1] + left[i + 1][1]) for i in range(k)]

    def enc(self, x):
        r, c = x
        return (r.numerator * (self.D // r.denominator),
                c.numerator * (self.D // c.denominator))

    def dec(self, p):
        return (Fraction(p[0], self.D), Fraction(p[1], self.D))

    def less(self, p, q) -> bool:
        return q_sign(p[0] - q[0], p[1] - q[1], self.d) < 0

    def index(self, p) -> int:
        """0-based interval holding p."""
        for i in range(self.T.k):
            if self.less(p, self.left[i + 1]):
                return i
        raise ValueError("point outside [0,1)")

    def step(self, p, i=None):
        if i is None:
            i = self.index(p)
        if not self.T.flips[i]:
            return (p[0] + self.disp[i][0], p[1] + self.disp[i][1])
        if p == self.left[i]:
            return self.dest[i]
        return (self.refl[i][0] - p[0], self.refl[i][1] - p[1])

    def step_back(self, p):
        j = 0
        while not self.less(p, self.starts[j + 1]):
            j += 1
        i = self.T.perm[j] - 1
        if not self.T.flips[i]:
            return (p[0] - self.disp[i][0], p[1] - self.disp[i][1])
        if p == self.dest[i]:
            return self.left[i]
        return (self.refl[i][0] - p[0], self.refl[i][1] - p[1])

    def coding(self, x0, n: int) -> str:
        p, out = self.enc(x0), []
        for _ in range(n):
            i = self.index(p)
            out.append(LETTERS[i])
            p = self.step(p, i)
        return "".join(out)


def coding(T: Exchange, x0, n: int) -> str:
    return Stepper(T, (x0,)).coding(x0, n)


def forward_collision(T: Exchange, depth: int) -> bool:
    """Does a forward endpoint orbit hit an interior discontinuity by depth?"""
    st = Stepper(T)
    targets = set(st.left[1:T.k])
    for i in range(T.k):
        p = st.left[i]
        for _ in range(depth):
            p = st.step(p)
            if p in targets:
                return True
    return False


def backward_collision(T: Exchange, depth: int) -> bool:
    """Do backward orbits of the interior discontinuities meet by depth?"""
    st = Stepper(T)
    seen = {}
    for i in range(1, T.k):
        if st.left[i] in seen:
            return True
        seen[st.left[i]] = (i, 0)
    for i in range(1, T.k):
        p = st.left[i]
        for n in range(1, depth + 1):
            p = st.step_back(p)
            if seen.get(p, (i, n)) != (i, n):
                return True
            seen[p] = (i, n)
    return False


# ------------------------------------------------------------- words

def substitution_word(rules: dict, start: str, n: int) -> str:
    w = start
    while len(w) < n:
        w = "".join(rules[c] for c in w)
    return w[:n]


def thue_morse(n: int) -> str:
    return substitution_word({"a": "ab", "b": "ba"}, "a", n)


def tribonacci(n: int) -> str:
    return substitution_word({"a": "ab", "b": "ac", "c": "a"}, "a", n)


def complexity(word: str, n: int) -> int:
    return len({word[i:i + n] for i in range(len(word) - n + 1)})


def full_complexity(word: str, k: int, up_to: int) -> bool:
    """The prefix shows all (k-1)n+1 factors of a regular k-IET, n <= up_to."""
    return all(complexity(word, n) == (k - 1) * n + 1 for n in range(1, up_to + 1))


def exceeds_iet_bound(word: str, k: int, levels) -> bool:
    """Some n in levels has more than (k-1)n+1 factors.

    The n-letter codings of a flip-free k-interval exchange are cut out
    by at most (k-1)n preimages of its k-1 discontinuities, so there are
    at most (k-1)n+1 of them; a word over k letters that exceeds that is
    no natural coding of a flip-free k-IET.
    """
    return any(complexity(word, n) > (k - 1) * n + 1 for n in levels)


def near_miss(word: str, rng: random.Random, k: int, levels) -> str:
    """The word with one letter changed, certified to be no flip-free
    k-IET coding by its complexity at the given levels."""
    while True:
        pos = rng.randrange(len(word) // 4, 3 * len(word) // 4)
        other = rng.choice([c for c in LETTERS[:k] if c != word[pos]])
        cand = word[:pos] + other + word[pos + 1:]
        if exceeds_iet_bound(cand, k, levels):
            return cand


def all_words(k: int, n: int):
    return ("".join(t) for t in product(LETTERS[:k], repeat=n))


def interior_points(T: Exchange, rng: random.Random, count: int):
    """Exact points of [0,1) from Q and, when d > 0, from Q(sqrt d)."""
    out = []
    while len(out) < count:
        if T.d and rng.random() < 0.5:
            x = (Fraction(rng.randint(0, 3), 7), Fraction(1, rng.randint(12, 40)))
        else:
            x = (Fraction(rng.randrange(0, 9973), 9973), Fraction(0))
        if q_sign(*x, T.d) >= 0 and q_sign(x[0] - 1, x[1], T.d) < 0:
            out.append(x)
    return out
