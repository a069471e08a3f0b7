"""Interval exchange transformations with exact arithmetic.

Conventions, fixed once for the whole package:

* The domain is [0,1); every interval is half-open [a, b).
* ``permutation`` lists, slot by slot, which source interval occupies
  each image slot: sigma[j] = i means the j-th interval of the image
  (counted from 0) is the image of X_i.  Indices are 1-based to match
  the usual lambda_1..lambda_k notation.
* A flipped interval is reflected onto its image slot.  Interior points
  map by x -> refl_i - x; the owned left endpoint maps to the left
  endpoint of the image slot, which keeps T a bijection of [0,1).
* ``T.inverse`` is T^-1 as an exchange of its own: its intervals are
  T's image slots, in order, each sent back onto its source interval
  with the same flip, so its permutation is T's slot_of.  Built once per
  exchange, on first use; ``T.inverse.inverse is T``.  Every backward
  map or walk is a forward one of T.inverse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key

from .exact import (ExactScalar, Interval, MixedRadicalError, ONE, ZERO, as_scalar,
                    compare, quadratic_sign)

__all__ = [
    "CodingConfig",
    "DomainError",
    "IETSpec",
    "RegularityReport",
    "apply",
    "apply_inverse",
    "build_iet",
    "check_idoc",
    "check_regular",
    "coding_with_sets",
    "cylinder",
    "cylinder_lengths",
    "essential_codings",
    "longest_cylinder",
    "natural_coding",
    "orbit",
]

DEFAULT_LETTERS = "123456789"


class DomainError(ValueError):
    """Point outside [0,1)."""


class IETSpec:
    """Immutable exchange of k intervals, all derived data precomputed,
    its integer orbit kernel included: every point map runs on it."""

    def __init__(self, lengths, permutation, flips=None):
        lengths = tuple(self._coerce(x) for x in lengths)
        k = len(lengths)
        if k < 1:
            raise ValueError("need at least one interval")
        permutation = tuple(int(p) for p in permutation)
        if sorted(permutation) != list(range(1, k + 1)):
            raise ValueError(f"permutation {permutation} is not a bijection of 1..{k}")
        if flips is None:
            flips = (False,) * k
        flips = tuple(bool(f) for f in flips)
        if len(flips) != k:
            raise ValueError("flips length does not match lengths")
        for lam in lengths:
            if lam.sign() <= 0:
                raise ValueError(f"non-positive interval length {lam}")
        total = ZERO
        for lam in lengths:
            total = total + lam
        if total != ONE:
            raise ValueError(f"interval lengths sum to {total}, not 1")

        self.lengths = lengths
        self.permutation = permutation
        self.flips = flips
        self.k = k

        # left[i] = a_{i+1}: source endpoints a_1=0 .. a_{k+1}=1
        left = [ZERO]
        for lam in lengths:
            left.append(left[-1] + lam)
        self.left = tuple(left)

        inv = [0] * (k + 1)
        for slot, i in enumerate(permutation, start=1):
            inv[i] = slot
        self.slot_of = tuple(inv)  # slot_of[i] = image slot of X_i, 1-based

        # slot_start[j] = left endpoint of image slot j+1
        starts = [ZERO]
        for i in permutation:
            starts.append(starts[-1] + lengths[i - 1])
        self.slot_start = tuple(starts)

        self.dest_lo = tuple(self.slot_start[self.slot_of[i] - 1] for i in range(1, k + 1))
        self.disp = tuple(self.dest_lo[i - 1] - self.left[i - 1] for i in range(1, k + 1))
        # reflection point: flipped branch sends interior x to refl - x
        self.refl = tuple(self.dest_lo[i - 1] + self.left[i] for i in range(1, k + 1))
        self.kernel = _IntOrbit(self)

    @staticmethod
    def _coerce(x) -> ExactScalar:
        s = as_scalar(x)
        if s is None:
            raise TypeError(f"not an exact scalar: {x!r}")
        return s

    def interval(self, i: int) -> Interval:
        """Source interval X_i, 1-based."""
        self._check_index(i)
        return Interval(self.left[i - 1], self.left[i])

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.k:
            raise IndexError(f"interval index {i} out of 1..{self.k}")

    def index_of(self, x) -> int:
        """1-based i with x in X_i."""
        return self._place(x)[1]

    def _domain(self, x):
        """x checked to lie in [0,1), and (u, v, E) with x = (u + v*sqrt(d))/E."""
        x = self._coerce(x)
        # the signs of x = p/q + (r/s)sqrt(d) and of x - 1, times E = q*s > 0
        q, s = x.rat.denominator, x.coef.denominator
        E = q * s
        u, v = x.rat.numerator * s, x.coef.numerator * q
        if quadratic_sign(u, v, x.d) < 0 or quadratic_sign(u - E, v, x.d) >= 0:
            raise DomainError(f"point {x} outside [0,1)")
        return x, u, v, E

    def _place(self, x):
        """x checked to lie in [0,1), the 1-based i with x in X_i, and the
        field d that x and the exchange share.

        x stays over its own denominator E: against a cut (A + B*sqrt(d))/D
        it has the sign of (u*D - A*E) + (v*D - B*E)*sqrt(d), so no table
        is widened.
        """
        x, u, v, E = self._domain(x)
        k = self.kernel
        d = k.d
        if x.d and x.d != d:
            if d:
                raise MixedRadicalError("points span two quadratic fields")
            d = x.d
        u, v = u * k.D, v * k.D
        # the last end is 1, which x lies below
        for i in range(1, self.k):
            A, B = k.left[i]
            if quadratic_sign(u - A * E, v - B * E, d) < 0:
                return x, i, d
        return x, self.k, d

    def apply(self, x) -> ExactScalar:
        x, i, d = self._place(x)
        if not self.flips[i - 1]:
            t = self.disp[i - 1]
            return ExactScalar._canonical(x.rat + t.rat, x.coef + t.coef, d)
        if x == self.left[i - 1]:
            return self.dest_lo[i - 1]
        t = self.refl[i - 1]
        return ExactScalar._canonical(t.rat - x.rat, t.coef - x.coef, d)

    @cached_property
    def inverse(self) -> "IETSpec":
        """T^-1: the image slots in order, each with its source's flip."""
        order = [i - 1 for i in self.permutation]
        inv = IETSpec([self.lengths[i] for i in order], self.slot_of[1:],
                      [self.flips[i] for i in order])
        inv.__dict__["inverse"] = self
        return inv

    def __repr__(self) -> str:
        lam = ", ".join(str(x) for x in self.lengths)
        return f"IETSpec(k={self.k}, lengths=({lam}), perm={self.permutation}, flips={self.flips})"


def build_iet(lengths, permutation, flips=None) -> IETSpec:
    return IETSpec(lengths, permutation, flips)


def apply(T: IETSpec, x) -> ExactScalar:
    return T.apply(x)


def apply_inverse(T: IETSpec, y) -> ExactScalar:
    return T.inverse.apply(y)


def _denominator(s: ExactScalar) -> int:
    return math.lcm(s.rat.denominator, s.coef.denominator)


def _encode(s: ExactScalar, D: int):
    """(A, B) with s = (A + B*sqrt(d))/D, for D a multiple of s's denominators."""
    return (s.rat.numerator * (D // s.rat.denominator),
            s.coef.numerator * (D // s.coef.denominator))


class _IntOrbit:
    """The orbit kernel: every step of an exchange runs here.

    All scalars of one exchange live in a single quadratic field, so a
    point is (A + B*sqrt(d))/D over a common denominator D.  Steps and
    comparisons are then pure integer arithmetic, and equal points are
    equal pairs.  Each exchange builds its kernel once, over its own D.
    The point maps read its tables as they are; widen() takes in the
    field and denominator of the points and cuts of a walk.
    """

    def __init__(self, T: IETSpec):
        self.flips = T.flips
        self.d = next((s.d for s in T.lengths if s.d), 0)
        self.D = math.lcm(*map(_denominator, (*T.left, *T.slot_start, *T.disp, *T.refl)))
        # tuples: every call on the exchange shares these tables
        self.left, self.disp, self.refl, self.dest_lo = (
            tuple(map(self.encode, table)) for table in (T.left, T.disp, T.refl, T.dest_lo))
        # ahead[i-1]: the interval indices that X_i's image slot meets
        starts = tuple(map(self.encode, T.slot_start))
        self.ahead = tuple(self.span(starts[j - 1], starts[j])
                           for j in T.slot_of[1:])

    def widen(self, d: int, D: int) -> "_IntOrbit":
        """A kernel that also encodes the scalars of field d (0 for Q) over
        denominator D: this one when it already does, else a copy over
        the lcm of the denominators."""
        if not d or d == self.d:
            if self.D % D == 0:
                return self
            d = self.d
        elif self.d:
            raise MixedRadicalError("points span two quadratic fields")
        wide = object.__new__(_IntOrbit)
        wide.flips, wide.ahead, wide.d = self.flips, self.ahead, d
        wide.D = D = math.lcm(self.D, D)
        f = D // self.D
        wide.left, wide.disp, wide.refl, wide.dest_lo = (
            table if f == 1 else tuple((a * f, b * f) for a, b in table)
            for table in (self.left, self.disp, self.refl, self.dest_lo))
        return wide

    def encode(self, s: ExactScalar):
        return _encode(s, self.D)

    def decode(self, p) -> ExactScalar:
        return ExactScalar._canonical(Fraction(p[0], self.D), Fraction(p[1], self.D), self.d)

    def locate(self, p) -> int:
        """1-based i with p in X_i."""
        a, b = p
        left, d = self.left, self.d
        for i in range(1, len(left)):
            c = left[i]
            if quadratic_sign(a - c[0], b - c[1], d) < 0:
                return i
        raise AssertionError("unreachable: the intervals cover [0,1)")

    def span(self, lo, hi):
        """(first, last): the 1-based indices of the intervals that the
        half-open interval [lo, hi) meets."""
        first = last = self.locate(lo)
        left, d = self.left, self.d
        while quadratic_sign(hi[0] - left[last][0], hi[1] - left[last][1], d) > 0:
            last += 1
        return first, last

    def step(self, p, i):
        """The image of p, a point of X_i, under T, and the index of the
        interval holding it.  That index is searched only among the ones
        X_i's image slot meets, which is locate's scan over a narrower
        range, inlined here because the per-step walks spend most of their
        time in it."""
        if not self.flips[i - 1]:
            t = self.disp[i - 1]
            a, b = q = (p[0] + t[0], p[1] + t[1])
        elif p == self.left[i - 1]:
            a, b = q = self.dest_lo[i - 1]
        else:
            r = self.refl[i - 1]
            a, b = q = (r[0] - p[0], r[1] - p[1])
        lo, hi = self.ahead[i - 1]
        left, d = self.left, self.d
        for j in range(lo, hi):
            c = left[j]
            if quadratic_sign(a - c[0], b - c[1], d) < 0:
                return q, j
        return q, hi


def orbit(T: IETSpec, x0, n: int) -> list[ExactScalar]:
    if n < 0:
        raise ValueError("orbit length must be >= 0")
    x0 = T._domain(x0)[0]
    stepper = T.kernel.widen(x0.d, _denominator(x0))
    p = stepper.encode(x0)
    i = stepper.locate(p)
    pts = []
    for _ in range(n):
        pts.append(stepper.decode(p))
        p, i = stepper.step(p, i)
    return pts


def natural_coding(T: IETSpec, x0, n: int, letters: str | None = None) -> str:
    if letters is None:
        letters = DEFAULT_LETTERS
    if len(letters) < T.k:
        raise ValueError(f"need {T.k} letters, got {len(letters)}")
    k = T.kernel
    return _block_coding(T, (k.d, k.D, k.left), list(letters[:T.k]), x0, n)[0]


class CodingConfig:
    """Partition of [0,1) into labeled unions of half-open intervals.

    Built once with the config: cuts, the left ends of its pieces and
    then 1; piece_letters, each piece's letter; and encoded, the triple
    (d, D, pairs) with cut j equal to (A + B*sqrt(d))/D for pairs[j] =
    (A, B), over the config's own field d and common denominator D.
    """

    def __init__(self, sets):
        pieces = []
        self.sets = {}
        for letter, ivs in sets:
            ivs = tuple(ivs)
            if not isinstance(letter, str) or len(letter) != 1:
                raise ValueError(f"letter {letter!r} is not one character")
            if letter in self.sets:
                raise ValueError(f"duplicate letter {letter!r}")
            if not ivs:
                raise ValueError(f"letter {letter!r} has no intervals")
            for iv in ivs:
                if not (iv.lo_closed and not iv.hi_closed):
                    raise ValueError(f"characteristic pieces must be half-open [a,b): {iv}")
                if iv.is_empty:
                    raise ValueError(f"empty piece for letter {letter!r}")
                pieces.append((iv, letter))
            self.sets[letter] = ivs
        pieces.sort(key=cmp_to_key(lambda p, q: compare(p[0].lo, q[0].lo)))
        cursor = ZERO
        for iv, letter in pieces:
            if compare(iv.lo, cursor) != 0:
                raise ValueError(f"partition gap or overlap at {cursor} (next piece {iv})")
            cursor = iv.hi
        if cursor != ONE:
            raise ValueError(f"partition stops at {cursor}, not 1")
        self.pieces = tuple(pieces)
        self.letters = tuple(self.sets)
        self.cuts = (*(iv.lo for iv, _ in pieces), ONE)
        self.piece_letters = tuple(letter for _, letter in pieces)
        d = 0
        for c in self.cuts:
            if c.d and c.d != d:
                if d:
                    raise MixedRadicalError("points span two quadratic fields")
                d = c.d
        D = math.lcm(*map(_denominator, self.cuts))
        self.encoded = (d, D, tuple(_encode(c, D) for c in self.cuts))

    @classmethod
    def natural(cls, T: IETSpec, letters: str | None = None) -> "CodingConfig":
        if letters is None:
            letters = DEFAULT_LETTERS
        if len(letters) < T.k:
            raise ValueError(f"need {T.k} letters, got {len(letters)}")
        return cls((letters[i - 1], (T.interval(i),)) for i in range(1, T.k + 1))


def coding_with_sets(T: IETSpec, config: CodingConfig, x0, n: int) -> str:
    return _block_coding(T, config.encoded, config.piece_letters, x0, n)[0]


def _block_coding(T: IETSpec, encoded, letters, x0, n: int, sides=(0,)) -> list[str]:
    """The first n letters of the coding by the pieces between the
    encoded cuts (d, D, pairs) of x0 + side*epsilon, for each side in
    sides (0 codes x0 itself), m letters at a time from one depth-m
    cylinder table.

    m is the largest power of two up to 64 with m**3 * pieces <= n, which
    keeps the table (about pieces * m**2 piece steps) below the walk's
    n / m blocks.  The first block bisects the whole table; each later
    block bisects only the successor range of the row before it, the
    rows that row's image meets, about 2.
    A limit on a row start takes that row for side +1 and the row before
    for side -1; a block with T^m = s*x - s*b sends it to the side
    times s.
    """
    if n < 0:
        raise ValueError("orbit length must be >= 0")
    x0 = T._domain(x0)[0]
    walk = _Cylinders(T.kernel.widen(x0.d, _denominator(x0)), encoded, letters)
    m = 1
    while m < 64 and (2 * m) ** 3 * len(letters) <= n:
        m *= 2
    starts, closed, rows = walk.table(m)
    d = walk.kernel.d
    p0 = walk.kernel.encode(x0)
    words = []
    for side in sides:
        p, out, lo, hi = p0, [], 0, len(rows)
        for done in range(0, n, m):
            word, s, b, lo, hi = rows[_row_count(starts, closed, d, p, side, lo, hi) - 1]
            out.append(word[:n - done])
            p = (s * (p[0] - b[0]), s * (p[1] - b[1]))
            side *= s
        words.append("".join(out))
    return words


def _row_count(starts, closed, d, p, side, lo, hi) -> int:
    """How many rows lie before p + side*epsilon, known to be lo..hi:
    the rows starting before p, and those starting at p with the start
    closed or p a right limit.  The row holding p is the last of them."""
    a, c = p
    while lo < hi:
        mid = (lo + hi) // 2
        u, v = starts[mid]
        if (quadratic_sign(a - u, c - v, d) or side or closed[mid]) > 0:
            lo = mid + 1
        else:
            hi = mid
    return lo


def essential_codings(T: IETSpec, config: CodingConfig, x0, n: int) -> frozenset[str]:
    """Codings stable on one-sided neighborhoods of x0: those of the
    limits x0 + epsilon and x0 - epsilon, or at x0 = 0 of 0 + epsilon alone.

    Set membership of a limit never depends on endpoint ownership, so
    boundary hits resolve deterministically.
    """
    sides = (1,) if T._coerce(x0) == ZERO else (1, -1)
    return frozenset(_block_coding(T, config.encoded, config.piece_letters, x0, n,
                                   sides=sides))


@dataclass(frozen=True)
class RegularityReport:
    depth: int
    verdict: str  # "no-collision-up-to-depth" | "collision"
    witness: object = None

    @property
    def collided(self) -> bool:
        return self.verdict == "collision"


def check_regular(T: IETSpec, depth: int) -> RegularityReport:
    """Forward orbits of the endpoints versus the interior discontinuities.

    Collisions with a_1 = 0 are excluded: T always maps some endpoint
    to 0 (the start of the first image slot), so counting 0 as a target
    would reject every exchange at depth 1.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    stepper, left = T.kernel, T.kernel.left
    targets = {left[j]: j + 1 for j in range(1, T.k)}
    for i in range(1, T.k + 1):
        p, t = left[i - 1], i
        for n in range(1, depth + 1):
            p, t = stepper.step(p, t)
            j = targets.get(p)
            if j is not None:
                return RegularityReport(depth, "collision", (i, n, j))
    return RegularityReport(depth, "no-collision-up-to-depth")


def check_idoc(T: IETSpec, depth: int) -> RegularityReport:
    """Backward orbits of the interior discontinuities, pairwise disjoint.

    They are forward orbits of T.inverse.  Its scalars are T's, reordered
    or negated, so its kernel has T's field d and denominator D, and the
    points the two kernels encode compare as pairs.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    stepper, left = T.inverse.kernel, T.kernel.left
    # every length is positive, so the interior ends a_2..a_k are distinct
    seen = {left[i - 1]: (i, 0) for i in range(2, T.k + 1)}
    for i in range(2, T.k + 1):
        p = left[i - 1]
        j = stepper.locate(p)
        for n in range(1, depth + 1):
            p, j = stepper.step(p, j)
            prev = seen.get(p)
            if prev is not None:
                return RegularityReport(depth, "collision", ((i, n), prev))
            seen[p] = (i, n)
    return RegularityReport(depth, "no-collision-up-to-depth")


class _Cylinders:
    """The piece walk under the cylinder functions and the codings, on
    the integer kernel.

    A piece (lo, hi, lo_closed, hi_closed, s, b) is an interval of points
    y reached after some steps; it came from the source points s*y + b.
    lo, hi and b are kernel-encoded pairs, so splitting, stepping and
    comparing are integer operations; scalars are made only on output.

    The walk cuts [0,1) at one bound list, the coding cuts merged with
    the exchange ends; for the natural coding it is the kernel's own
    left table.  Span j, between bounds j-1 and j, lies in the piece of
    letter span_letters[j-1] and in exchange interval exchange[j-1].  A
    part is a piece inside one span, tagged (j, piece), so a step reads
    its branch off the tag.
    """

    def __init__(self, kernel: _IntOrbit, encoded, letters):
        d, D, cuts = encoded
        self.kernel = k = kernel.widen(d, D)
        if k.D != D:
            f = k.D // D
            cuts = tuple((a * f, b * f) for a, b in cuts)
        if cuts == k.left:
            bounds, span_letters, self.exchange = k.left, letters, range(1, len(cuts))
        else:
            left, d = k.left, k.d
            bounds, span_letters, self.exchange = [cuts[0]], [], []
            i = j = 1
            while i < len(cuts):
                # both lists end at 1, so they run out together
                c, e = cuts[i], left[j]
                sign = quadratic_sign(c[0] - e[0], c[1] - e[1], d)
                bounds.append(c if sign <= 0 else e)
                span_letters.append(letters[i - 1])
                self.exchange.append(j)
                i += sign <= 0
                j += sign >= 0
        self.bounds, self.span_letters = bounds, span_letters
        # spans[letter]: (j, lo, hi) of each span of the letter, in order
        self.spans = {}
        for j, letter in enumerate(span_letters, start=1):
            self.spans.setdefault(letter, []).append((j, bounds[j - 1], bounds[j]))
        self.root = ((0, 0), (k.D, 0), True, False, 1, (0, 0))

    def split(self, pieces):
        """(j, part) for every part of a piece inside span j."""
        bounds, d = self.bounds, self.kernel.d
        for piece in pieces:
            lo, hi, lc, hc, s, b = piece
            # one scan finds the spans of both ends: lo's is the first
            # bound above lo, hi's the first above hi (closed) or at it
            j = 1
            while quadratic_sign(lo[0] - bounds[j][0], lo[1] - bounds[j][1], d) >= 0:
                j += 1
            j_lo, side = j, 1 if hc else -1
            while (quadratic_sign(hi[0] - bounds[j][0], hi[1] - bounds[j][1], d) or side) > 0:
                j += 1
            if j_lo == j:
                yield j, piece
                continue
            yield j_lo, (lo, bounds[j_lo], lc, False, s, b)
            for i in range(j_lo + 1, j):
                yield i, (bounds[i - 1], bounds[i], True, False, s, b)
            yield j, (bounds[j - 1], hi, True, hc, s, b)

    def clip(self, pieces, spans):
        """The parts of the pieces inside the given spans of one letter."""
        d = self.kernel.d
        out = []
        for piece in pieces:
            lo, hi, lc, hc, s, b = piece
            for j, u, v in spans:
                # skip the span when the piece ends before u or starts at v
                c = quadratic_sign(hi[0] - u[0], hi[1] - u[1], d)
                if c < 0 or (c == 0 and not hc) or \
                        quadratic_sign(lo[0] - v[0], lo[1] - v[1], d) >= 0:
                    continue
                below = quadratic_sign(lo[0] - u[0], lo[1] - u[1], d) < 0
                above = c > 0 and quadratic_sign(hi[0] - v[0], hi[1] - v[1], d) >= 0
                if below or above:
                    out.append((j, (u if below else lo, v if above else hi,
                                    below or lc, hc and not above, s, b)))
                else:
                    out.append((j, piece))
        return out

    def advance(self, parts):
        """Push every part through one step of T."""
        k, exchange = self.kernel, self.exchange
        out = []
        for j, (lo, hi, lc, hc, s, b) in parts:
            i = exchange[j - 1]
            if not k.flips[i - 1]:
                d0, d1 = k.disp[i - 1]
                out.append(((lo[0] + d0, lo[1] + d1), (hi[0] + d0, hi[1] + d1),
                            lc, hc, s, (b[0] - s * d0, b[1] - s * d1)))
                continue
            if lc and lo == k.left[i - 1]:
                # the owned left endpoint relocates to the slot start;
                # peel it off as an exact singleton piece
                y = k.dest_lo[i - 1]
                out.append((y, y, True, True, 1,
                            (s * lo[0] + b[0] - y[0], s * lo[1] + b[1] - y[1])))
                if lo == hi:
                    continue
                lc = False
            r0, r1 = k.refl[i - 1]
            out.append(((r0 - hi[0], r1 - hi[1]), (r0 - lo[0], r1 - lo[1]),
                        hc, lc, -s, (b[0] + s * r0, b[1] + s * r1)))
        return out

    def by_letter(self, pieces):
        """The parts of the pieces in each letter's set, by letter."""
        parts, letters = {}, self.span_letters
        for part in self.split(pieces):
            parts.setdefault(letters[part[0] - 1], []).append(part)
        return parts

    def levels(self, depth: int, alphabet):
        """For n = 1..depth, the nonempty cylinders of the words of length
        n as a list of (word, parts), words listed in alphabet order."""
        frontier = [("", [])]
        for n in range(depth):
            grown = []
            for w, hit in frontier:
                parts = self.by_letter(self.advance(hit) if n else [self.root])
                for letter in alphabet:
                    part = parts.get(letter)
                    if part:
                        grown.append((w + letter, part))
            yield grown
            frontier = grown

    def table(self, m: int):
        """The depth-m cylinder table, for coding m letters at a time.

        Each row (word, s, b, lo, hi) is a piece of source points x coded
        by word for m steps, on which T^m is y = s*x - s*b.  Its successor
        range lo..hi holds the _row_count of every point of its image, and
        of every limit there: lo counts the rows starting strictly before
        the image's low end, hi those starting at or before its high end.
        The stepped piece's own ends are the image's, already in order
        when s = -1.  The rows are sorted by source start, closed start
        first; starts and closed hold each row's start and 1 if it is
        closed, else -1.
        """
        for level in self.levels(m, self.spans):
            pass  # each level grows from the one before; only depth m is read
        key = self.source_order()
        pieces = sorted(((self.source(piece), w, piece)
                         for w, parts in level for piece in self.advance(parts)),
                        key=lambda row: key(row[0]))
        starts = [src[0] for src, _, _ in pieces]
        closed = [1 if src[2] else -1 for src, _, _ in pieces]
        d, n = self.kernel.d, len(pieces)
        rows = [(w, s, b, _row_count(starts, closed, d, lo, -1, 0, n),
                 _row_count(starts, closed, d, hi, 1, 0, n))
                for _, w, (lo, hi, _, _, s, b) in pieces]
        return starts, closed, rows

    def prefix(self, w: str):
        """How many leading letters of w have a nonempty cylinder, and its parts."""
        depth, hit = 0, []
        for letter in w:
            spans = self.spans.get(letter)
            if spans is None:
                raise ValueError(f"letter {letter!r} not in the coding config")
            part = self.clip(self.advance(hit) if depth else [self.root], spans)
            if not part:
                break
            depth, hit = depth + 1, part
        return depth, hit

    @staticmethod
    def source(piece):
        """(lo, hi, lo_closed, hi_closed) of the source points of a piece."""
        lo, hi, lc, hc, s, b = piece
        if s == 1:
            return (lo[0] + b[0], lo[1] + b[1]), (hi[0] + b[0], hi[1] + b[1]), lc, hc
        return (b[0] - hi[0], b[1] - hi[1]), (b[0] - lo[0], b[1] - lo[1]), hc, lc

    def source_order(self):
        """Sort key of source intervals: by start, closed start first."""
        d = self.kernel.d

        def order(u, v):
            c = quadratic_sign(u[0][0] - v[0][0], u[0][1] - v[0][1], d)
            # closed endpoint first so a touching singleton is absorbed
            return c or (not u[2]) - (not v[2])

        return cmp_to_key(order)

    def intervals(self, parts) -> tuple[Interval, ...]:
        """The maximal intervals of the source points of disjoint parts."""
        merged = []
        for lo, hi, lc, hc in sorted((self.source(p) for _, p in parts),
                                     key=self.source_order()):
            # disjoint intervals join only where they touch
            if merged and merged[-1][1] == lo and (merged[-1][3] or lc):
                merged[-1] = (merged[-1][0], hi, merged[-1][2], hc)
            else:
                merged.append((lo, hi, lc, hc))
        decode = self.kernel.decode
        return tuple(Interval(decode(lo), decode(hi), lc, hc) for lo, hi, lc, hc in merged)

    def length(self, parts) -> ExactScalar:
        return self.kernel.decode((sum(p[1][0] - p[0][0] for _, p in parts),
                                   sum(p[1][1] - p[0][1] for _, p in parts)))


def longest_cylinder(T: IETSpec, config: CodingConfig, w: str):
    """Longest prefix of w with a nonempty cylinder: (its length, its intervals).

    (0, ()) when the cylinder of w's first letter is already empty.
    """
    walk = _Cylinders(T.kernel, config.encoded, config.piece_letters)
    depth, parts = walk.prefix(w)
    return depth, walk.intervals(parts)


def cylinder(T: IETSpec, config: CodingConfig, w: str) -> tuple[Interval, ...]:
    """Maximal intervals of points whose coding starts with w (exact)."""
    if not w:
        raise ValueError("cylinder word must be nonempty")
    walk = _Cylinders(T.kernel, config.encoded, config.piece_letters)
    depth, parts = walk.prefix(w)
    if depth < len(w):
        return ()
    return walk.intervals(parts)


def cylinder_lengths(T: IETSpec, config: CodingConfig, depth: int) -> dict[str, ExactScalar]:
    """Exact length of the cylinder of every word of length 1..depth
    whose cylinder is nonempty."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    walk = _Cylinders(T.kernel, config.encoded, config.piece_letters)
    return {w: walk.length(part)
            for level in walk.levels(depth, config.letters) for w, part in level}
