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
* Every step runs on the exchange's integer kernel, _IntOrbit: the
  point maps, the orbits, the cylinder walks and the regularity checks.
* An exchange builds the cylinder walk of a coding partition once, on
  first use.  ``cylinder``, ``longest_cylinder`` and ``cylinder_lengths``
  on any equal config, the codings and the regularity checks all share
  that one walk.  The cylinder calls grow its tree of nonempty cylinders
  and walk past it with one step, each part sent through T and split at
  the partition by letter; the codings and checks read its depth-m
  tables, each built once per m by doubling the depth-1 rows.  A
  partition whose walk cannot be built (MixedRadicalError) is not kept.
"""
from __future__ import annotations

import math
from functools import cached_property, cmp_to_key

from .exact import (ExactScalar, Interval, MixedRadicalError, ONE, ZERO, as_scalar, compare,
                    quadratic_sign)
from .record import Record

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
# the depth a cylinder query grows its walk's tree to; it steps past it alone
_TREE_DEPTH = 4


class DomainError(ValueError):
    """Point outside [0,1)."""


def _outside(x) -> DomainError:
    """The error every domain check raises: it names the point."""
    return DomainError(f"point {x} outside [0,1)")


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
        self._walks = {}

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
        """1-based i with x in X_i; the locate scan refuses x >= 1."""
        kernel, p, E = self._point(x)
        return kernel.locate(p, E)

    def _domain(self, x) -> ExactScalar:
        """x, checked to lie in [0,1) by both sign tests: orbit and the
        codings check their start with it once a call, on no locate scan."""
        x = self._coerce(x)
        # the signs of x and of x - 1, times x.den > 0
        if quadratic_sign(x.num, x.irr, x.d) < 0 or \
                quadratic_sign(x.num - x.den, x.irr, x.d) >= 0:
            raise _outside(x)
        return x

    def _point(self, x):
        """The kernel that reads x's field, and x as (u*D, v*D) over E*D,
        for the kernel's D and x's own E = x.den.

        Only x >= 0 is checked here.  Every point map then locates x,
        and the locate scan, which ends at the last interval end 1,
        refuses x >= 1 with the same DomainError.  A point of a field
        other than the kernel's is checked against 1 first, so that it
        is refused as outside [0,1) before widen can refuse its field.
        """
        if not isinstance(x, ExactScalar):
            x = self._coerce(x)
        u, v, E, d = x.num, x.irr, x.den, x.d
        if quadratic_sign(u, v, d) < 0:
            raise _outside(x)
        kernel = self.kernel
        if d and d != kernel.d:
            if quadratic_sign(u - E, v, d) >= 0:
                raise _outside(x)
            # a quadratic point of a rational exchange: the same tables, read in its field
            kernel = kernel.widen(d, 1)
        return kernel, (u * kernel.D, v * kernel.D), E

    def apply(self, x) -> ExactScalar:
        kernel, p, E = self._point(x)
        a, b = kernel.step(p, E)
        return ExactScalar._canonical(a, b, E * kernel.D, kernel.d)

    def _natural_key(self, letters) -> "_HashedKey":
        """The walk key of T's intervals, lettered as passed: cuts are the kernel's left table."""
        k = self.kernel
        return _HashedKey(((k.d, k.D, k.left), letters))

    def _walk(self, key) -> "_Cylinders":
        """The walk of the partition key = (encoded cuts, piece letters),
        built on first use and shared by every later call with an equal
        key: the cylinder calls read its tree, the codings and regularity
        checks its tables."""
        walk = self._walks.get(key)
        if walk is None:
            # a build that raises (MixedRadicalError) caches nothing
            walk = self._walks[key] = _Cylinders(self.kernel, *key)
        return walk

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


def _encode(s: ExactScalar, D: int):
    """(A, B) with s = (A + B*sqrt(d))/D, for D a multiple of s.den."""
    f = D // s.den
    return s.num * f, s.irr * f


class _IntOrbit:
    """The orbit kernel: every step of an exchange runs here.

    All scalars of one exchange live in a single quadratic field, so a
    point is (A + B*sqrt(d))/D over a common denominator D.  Steps and
    comparisons are then pure integer arithmetic, and equal points are
    equal pairs.  Each exchange builds its kernel once, over its own D.
    A point map keeps its point over the point's own denominator E, as
    a pair over E*D, and locate and step scale each table entry they
    read by E, so no table is copied.  widen() takes in the field and
    denominator of the points and cuts of a walk.
    """

    def __init__(self, T: IETSpec):
        self.flips = T.flips
        self.d = next((s.d for s in T.lengths if s.d), 0)
        # every other table is a sum or difference of interval ends, so
        # their common denominator divides D
        self.D = math.lcm(*(s.den for s in T.left))
        # tuples: every call on the exchange shares these tables
        self.left, self.disp, self.refl, self.dest_lo = (
            tuple(map(self.encode, table)) for table in (T.left, T.disp, T.refl, T.dest_lo))

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
        wide.flips, wide.d = self.flips, d
        wide.D = D = math.lcm(self.D, D)
        f = D // self.D
        wide.left, wide.disp, wide.refl, wide.dest_lo = (
            table if f == 1 else tuple((a * f, b * f) for a, b in table)
            for table in (self.left, self.disp, self.refl, self.dest_lo))
        return wide

    def encode(self, s: ExactScalar):
        return _encode(s, self.D)

    def decode(self, p) -> ExactScalar:
        return ExactScalar._canonical(p[0], p[1], self.D, self.d)

    def locate(self, p, E: int = 1) -> int:
        """1-based i with p in X_i, for p >= 0 over E*D: each interval end
        is scaled by E as it is read.  The scan ends at the last end, 1,
        so a p >= 1 passes every end and is refused with DomainError."""
        a, b = p
        left, d = self.left, self.d
        for i in range(1, len(left)):
            c = left[i]
            if quadratic_sign(a - c[0] * E, b - c[1] * E, d) < 0:
                return i
        raise _outside(ExactScalar._canonical(a, b, E * self.D, d))

    def step(self, p, E: int = 1):
        """The image of p under T, both over E*D."""
        i = self.locate(p, E)
        if not self.flips[i - 1]:
            t = self.disp[i - 1]
            return (p[0] + t[0] * E, p[1] + t[1] * E)
        c = self.left[i - 1]
        if p == (c[0] * E, c[1] * E):
            t = self.dest_lo[i - 1]
            return (t[0] * E, t[1] * E)
        r = self.refl[i - 1]
        return (r[0] * E - p[0], r[1] * E - p[1])


def orbit(T: IETSpec, x0, n: int) -> list[ExactScalar]:
    if n < 0:
        raise ValueError("orbit length must be >= 0")
    x0 = T._domain(x0)
    stepper = T.kernel.widen(x0.d, x0.den)
    p = stepper.encode(x0)
    pts = []
    for _ in range(n):
        pts.append(stepper.decode(p))
        p = stepper.step(p)
    return pts


def natural_coding(T: IETSpec, x0, n: int, letters: str | None = None) -> str:
    if letters is None:
        letters = DEFAULT_LETTERS
    if len(letters) < T.k:
        raise ValueError(f"need {T.k} letters, got {len(letters)}")
    # the key of CodingConfig.natural(T, letters): both share one walk
    return _block_coding(T, T._natural_key(tuple(letters[:T.k])), x0, n)[0]


class _HashedKey(tuple):
    """A tuple hashed once, when built: CPython caches no tuple hash."""

    def __init__(self, items):
        self.hash = tuple.__hash__(self)

    def __hash__(self) -> int:
        return self.hash


class CodingConfig:
    """Partition of [0,1) into labeled unions of half-open intervals.

    Built once with the config: cuts, the left ends of its pieces and
    then 1; piece_letters, each piece's letter; and encoded, the triple
    (d, D, pairs) with cut j equal to (A + B*sqrt(d))/D for pairs[j] =
    (A, B), over the config's own field d and common denominator D.
    Exchanges keep the partition's walks under _walk_key, (encoded,
    piece_letters) hashed once.
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
        D = math.lcm(*(c.den for c in self.cuts))
        self.encoded = (d, D, tuple(_encode(c, D) for c in self.cuts))
        self._walk_key = _HashedKey((self.encoded, self.piece_letters))

    @classmethod
    def natural(cls, T: IETSpec, letters: str | None = None) -> "CodingConfig":
        if letters is None:
            letters = DEFAULT_LETTERS
        if len(letters) < T.k:
            raise ValueError(f"need {T.k} letters, got {len(letters)}")
        config = cls((letters[i - 1], (T.interval(i),)) for i in range(1, T.k + 1))
        # its cuts are T's interval ends, so it encodes them as the kernel's
        # own table: a walk lookup under an equal key, another natural
        # config's or natural_coding's, then compares them by identity
        config._walk_key = T._natural_key(config.piece_letters)
        config.encoded = config._walk_key[0]
        return config


def coding_with_sets(T: IETSpec, config: CodingConfig, x0, n: int) -> str:
    return _block_coding(T, config._walk_key, x0, n)[0]


def _block_coding(T: IETSpec, key, x0, n: int, sides=(0,)) -> list[str]:
    """The first n letters of the coding by the partition key = (encoded
    cuts (d, D, pairs), piece letters) of x0 + side*epsilon, for each
    side in sides (0 codes x0 itself), m letters at a time from one
    depth-m cylinder table.

    A point over T's own field and denominator reads the table off T's
    walk of the partition (T._walk), built once per m and shared by
    every later coding of the partition.  Any other point widens the
    kernel, and its walk and table are built for this call alone: one
    kept per denominator would grow without bound.

    m is _block_size(pieces, n), which keeps the table (doubled from the
    depth-1 rows, see _Cylinders.table) below the walk's n / m blocks.
    The first block bisects the whole table; each later
    block bisects only the successor range of the row before it, the
    rows that row's image meets, about 2.
    A limit on a row start takes that row for side +1 and the row before
    for side -1; a block with T^m = s*x - s*b sends it to the side
    times s.
    """
    if n < 0:
        raise ValueError("orbit length must be >= 0")
    x0 = T._domain(x0)
    kernel = T.kernel.widen(x0.d, x0.den)
    walk = T._walk(key) if kernel is T.kernel else _Cylinders(kernel, *key)
    m = _block_size(len(key[1]), n)
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


def _block_size(cost: int, steps: int) -> int:
    """The largest power of two m up to 256 with m**2 * min(m, 4) * cost
    <= steps.

    A walk covering steps takes steps / m blocks on a depth-m table.
    The table's log2(m) doublings emit about cost * 2*m rows in all (see
    _Cylinders.table), far fewer than that, and the rule's extra
    factors keep small walks on small tables: m**3 * cost <= steps up
    to m = 4, 4 * m**2 * cost <= steps past it.  The codings pass their
    piece count, the regularity walk twice its interval count (see
    _first_hit).  256 is what the rule picks for 10^6 letters of 3
    pieces, and was faster there than 128 or 512."""
    m = 1
    while m < 256 and (2 * m) ** 2 * min(2 * m, 4) * cost <= steps:
        m *= 2
    return m


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
    return frozenset(_block_coding(T, config._walk_key, x0, n, sides=sides))


class RegularityReport(Record):
    __slots__ = _fields = ("depth", "verdict", "witness")

    def __init__(self, depth: int, verdict: str, witness: object = None) -> None:
        # verdict: "no-collision-up-to-depth" | "collision"
        super().__init__(depth, verdict, witness)

    @property
    def collided(self) -> bool:
        return self.verdict == "collision"


def check_regular(T: IETSpec, depth: int) -> RegularityReport:
    """Forward orbits of the endpoints versus the interior discontinuities.

    Collisions with a_1 = 0 are excluded: T always maps some endpoint
    to 0 (the start of the first image slot), so counting 0 as a target
    would reject every exchange at depth 1.  The orbits are walked by
    _first_hit, a block of steps at a time.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    left = T.kernel.left
    hit = _first_hit(T, left[:T.k], {left[j - 1]: j for j in range(2, T.k + 1)}, depth)
    if hit is None:
        return RegularityReport(depth, "no-collision-up-to-depth")
    i, n, j = hit
    return RegularityReport(depth, "collision", (i + 1, n, j))


def check_idoc(T: IETSpec, depth: int) -> RegularityReport:
    """Backward orbits of the interior discontinuities, pairwise disjoint.

    They are forward orbits of T.inverse.  Its scalars are T's, reordered
    or negated, so its kernel has T's field d and denominator D, and the
    points the two kernels encode compare as pairs.

    The first point to meet an earlier one is always some orbit's first
    hit of an end a_j, so the walk looks only for a_2..a_k, not for every
    point seen before.  Say T^-n(a_i), on orbit i, is the first to meet
    an earlier point T^-n'(a_i'), 1 <= n' <= depth: either i' = i and
    n' < n, or orbit i' was walked before.  Apply T^n' to both.  If
    n >= n', T^-(n-n')(a_i) = a_i' is a meeting at the earlier step
    n - n' (n = n' would make a_i = a_i', and the ends are distinct).
    If n < n', T^-(n'-n)(a_i') = a_i: orbit i' met the end a_i at step
    n' - n <= depth, before orbit i was walked.  Either way a meeting
    comes earlier, so the first one is with an end, (j, 0).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    left = T.kernel.left
    # every length is positive, so the interior ends a_2..a_k are distinct
    hit = _first_hit(T.inverse, left[1:T.k], {left[j - 1]: j for j in range(2, T.k + 1)},
                     depth)
    if hit is None:
        return RegularityReport(depth, "no-collision-up-to-depth")
    i, n, j = hit
    return RegularityReport(depth, "collision", ((i + 2, n), (j, 0)))


def _first_hit(E: IETSpec, points, targets, depth: int):
    """The first orbit under E, of the encoded points in order, that
    meets a target p at a step n in 1..depth, as (its position in
    points, n, targets[p]), or None.

    The targets are E's interior cuts (check_regular) or E-images of E's
    left ends, its cuts and 0 (check_idoc).  A walk jumps from its point
    p to E^m(p) on a row of E's depth-m cylinder table whenever p is not
    a row start, and checks only E^m(p); it steps singly from a row
    start and within m steps of the depth.  The jump skips no target:
    if p starts no row, none of p, E(p), .., E^(m-1)(p) is a left end of
    E, so none of E(p), .., E^(m-1)(p) is a target.  Proof: say the
    orbit first meets a left end c at step r < m.  If r = 0, p is a left
    end, which starts a depth-1 cylinder and so a row.  Else p, ..,
    E^(r-1)(p) lie inside their intervals, so E^r is x -> +-x + t near
    p and sends the points just left and just right of p to the two
    sides of c, into different intervals: p bounds two depth-m
    cylinders, so a row starts at p.

    The table is fetched only when a walk has taken m single steps
    without a hit, so an exchange whose first orbit collides within m
    steps never builds it.  It is E's own (E._walk), built by the first
    check that needs it and read by every later one at the same m.
    m is _block_size(2k, steps covered), for E's k intervals: the table
    emits about 2(k-1)*m rows (see _Cylinders.table) and a jump costs
    about 1.3 single steps.  At depth 100 this gives m = 2; cost k gave
    m = 4, and the benchmark's twelve depth-100 checks then took 3.0 ms
    in place of 2.7 ms (3.2 ms one step at a time; best of 60, Python
    3.11, shared 2-vCPU Linux host).  At depth 1000 it gives m = 8 (4
    for check_idoc on two intervals): both checks of the benchmark's
    seven exact-dynamics exchanges took 13.6 ms on fresh exchanges and
    8.5 ms after them, against 18.5 and 15.3 ms with m held to 4
    (medians of 41, same host).
    """
    kernel, d = E.kernel, E.kernel.d
    m = _block_size(2 * E.k, len(points) * depth)
    full = 0  # the table's row count, once it is built
    for pos, p in enumerate(points):
        n, lo, hi = 0, 0, full
        while n < depth:
            if n == m > 1 and not full:
                # the walk reads the rows' maps, not their words, so one
                # letter stands for every interval
                starts, closed, rows = E._walk(E._natural_key(" " * E.k)).table(m)
                full = hi = len(rows)
            r = 0
            if full and n + m <= depth:
                # r >= 1: row 0 starts at 0, closed
                r = _row_count(starts, closed, d, p, 0, lo, hi)
            # a row starts at p closed (row r-1) or open (row r)
            if r and starts[r - 1] != p and (r == full or starts[r] != p):
                _, s, b, lo, hi = rows[r - 1]
                p, n = (s * (p[0] - b[0]), s * (p[1] - b[1])), n + m
            else:
                p = kernel.step(p)
                n, lo, hi = n + 1, 0, full
            j = targets.get(p)
            if j is not None:
                return pos, n, j
    return None


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

    An exchange keeps one walk per coding partition (IETSpec._walk), and
    every call on that partition shares it: the cylinder calls, the
    codings and the regularity checks.  One step,
    by_letter(advance(parts)), grows its cylinder tree, tree[n-1] mapping
    each word of length n with a nonempty cylinder to its parts, as far
    as a cylinder call has grown it (levels), and walks past it
    (prefix).  The depth-m tables of the codings and checks start from
    the spans and leave the tree at tree[0].  Sharing is safe: advance
    and by_letter return new lists, the tree's parts and the tables are
    tuples, and the callers only read the parts and the rows.
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
        # tree[0][letter]: the letter's spans unmapped, in span order; its keys are the letters
        spans = [(lo, hi, True, False, 1, (0, 0)) for lo, hi in zip(bounds, bounds[1:])]
        self.tree = [{letter: tuple(parts) for letter, parts in self.by_letter(spans).items()}]
        # tables[m]: the depth-m table, built on first use
        self.tables = {}

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

    def levels(self, depth: int) -> list:
        """The tree, grown to at least depth levels and kept: level n-1
        maps each word of length n with a nonempty cylinder to its parts,
        each level grown from the one before."""
        tree = self.tree
        while len(tree) < depth:
            level = {}
            for w, hit in tree[-1].items():
                for letter, parts in self.by_letter(self.advance(hit)).items():
                    level[w + letter] = tuple(parts)
            tree.append(level)
        return tree

    def table(self, m: int):
        """The depth-m cylinder table, for coding m letters at a time; m
        must be a power of two.

        Each row (word, s, b, lo, hi) is a piece of source points x coded
        by word for m steps, on which T^m is y = s*x - s*b.  A row of one
        point takes s = 1: either form maps the point, and a one-sided
        limit never lands on such a row (a row start takes the row for
        side +1 and the row before for side -1, both longer than a point).
        Its successor range lo..hi holds the _row_count of every point of
        its image, and of every limit there: lo counts the rows starting
        strictly before the image's low end, hi those starting at or
        before its high end.  The rows are sorted by source start, closed
        start first; starts and closed hold each row's start and 1 if it
        is closed, else -1.

        The depth-1 rows are the spans, each stepped once in span order,
        which is source order: a flipped span at its interval's left end
        steps to its peeled point, of s = 1, and then to its open rest.
        The table is then doubled log2(m) times: T^2d is T^d after T^d.
        The points of row r whose image J_r meets the source I_q of row
        q, in r's successor range, are coded by the word of r and then
        that of q, and on them T^2d is q's map after r's: with x = s_r*y
        + b_r and y = s_q*z + b_q, x = s_r*s_q*z + s_r*b_q + b_r.  The
        parts J_r & I_q tile J_r in q's order, so r's new rows come in
        source order as q runs up when s_r = +1 and down when s_r = -1,
        and no sort is needed.  The rows partition [0,1), so I_q ends
        where I_q+1 starts, and the ends of J_r & I_q are read off the
        row starts with no sign test; a part of one point is kept only
        when it is closed at both ends.  The new row's image lies in J_q,
        so its successor range is bisected among the new rows of the rows
        in q's range.

        A doubling emits each of the next table's about (k-1)*2d + pieces
        rows once, and bisects its range among a few rows.  The table is
        built once per m and kept, as tuples: it depends on the partition
        and m alone, and every later coding or orbit walk on the same walk
        reads it.
        """
        table = self.tables.get(m)
        if table is not None:
            return table
        if m < 1 or m & (m - 1):
            raise ValueError(f"table depth {m} is not a power of two")
        bounds, pieces = self.bounds, []
        for j, w in enumerate(self.span_letters, start=1):
            span = (bounds[j - 1], bounds[j], True, False, 1, (0, 0))
            pieces += ((w, piece) for piece in self.advance([(j, span)]))
        sources = [self.source(piece) for _, piece in pieces]
        starts = [x for x, _, _, _ in sources]
        closed = [1 if xc else -1 for _, _, xc, _ in sources]
        d, n = self.kernel.d, len(pieces)
        rows = [(w, s, b, _row_count(starts, closed, d, lo, -1, 0, n),
                 _row_count(starts, closed, d, hi, 1, 0, n))
                for w, (lo, hi, _, _, s, b) in pieces]
        images = [piece[:4] for _, piece in pieces]
        for _ in range(m.bit_length() - 1):
            starts, closed, rows, images = self.square(starts, closed, rows, images)
        table = self.tables[m] = tuple(starts), tuple(closed), tuple(rows)
        return table

    def square(self, starts, closed, rows, images):
        """The depth-2d table from the depth-d one, with each row's image
        (lo, hi, lo_closed, hi_closed); see table."""
        # via: each new row's q; first[r]: the index of row r's first new row
        new_starts, new_closed, maps, new_images, via, first = [], [], [], [], [], []
        for (u, s, b, qlo, qhi), (lo, hi, lc, hc) in zip(rows, images):
            first.append(len(maps))
            # row qlo-1 starts before lo; row qhi-1 is the last to start at or before hi
            qs = range(qlo - (qlo > 0), qhi)
            for q in qs if s > 0 else reversed(qs):
                # the part [a, z] of J_r in I_q, which ends where row q+1 starts
                if q < qlo:
                    a, ac = lo, lc
                else:
                    a = starts[q]
                    ac = closed[q] > 0 and (lc or a != lo)
                if q == qhi - 1:
                    z, zc = hi, hc
                else:
                    z = starts[q + 1]
                    zc = closed[q + 1] < 0 and (hc or z != hi)
                if a == z and not (ac and zc):
                    continue
                # q's map carries the part on; its points come from s*y + b
                v, t, c, _, _ = rows[q]
                if t > 0:
                    image = ((a[0] - c[0], a[1] - c[1]), (z[0] - c[0], z[1] - c[1]), ac, zc)
                else:
                    image = ((c[0] - z[0], c[1] - z[1]), (c[0] - a[0], c[1] - a[1]), zc, ac)
                if s > 0:
                    x, xc = (a[0] + b[0], a[1] + b[1]), ac
                else:
                    x, xc = (b[0] - z[0], b[1] - z[1]), zc
                new_starts.append(x)
                new_closed.append(1 if xc else -1)
                if a == z:
                    y = image[0]
                    maps.append((u + v, 1, (x[0] - y[0], x[1] - y[1])))
                else:
                    maps.append((u + v, s * t, (s * c[0] + b[0], s * c[1] + b[1])))
                new_images.append(image)
                via.append(q)
        first.append(len(maps))
        d = self.kernel.d
        new_rows = []
        for (w, s, b), (lo, hi, _, _), q in zip(maps, new_images, via):
            qlo, qhi = rows[q][3:]
            low, high = first[qlo - (qlo > 0)], first[qhi]
            new_rows.append((w, s, b, _row_count(new_starts, new_closed, d, lo, -1, low, high),
                             _row_count(new_starts, new_closed, d, hi, 1, low, high)))
        return new_starts, new_closed, new_rows, new_images

    def prefix(self, w: str):
        """How many leading letters of w have a nonempty cylinder, and its
        parts.  The tree, grown to at least min(len(w), _TREE_DEPTH)
        levels, gives each prefix it holds by one lookup; past it, each next
        letter's parts come from the step that grows the tree."""
        tree = self.tree
        if len(tree) < min(len(w), _TREE_DEPTH):
            self.levels(min(len(w), _TREE_DEPTH))
        kept = len(tree)
        depth, hit = 0, ()
        for letter in w:
            # a letter outside the config is no key of tree[0] and is in
            # no word of the tree, so its cylinder is empty
            part = tree[depth].get(w[:depth + 1]) if depth < kept else \
                self.by_letter(self.advance(hit)).get(letter)
            if not part:
                if letter not in tree[0]:
                    raise ValueError(f"letter {letter!r} not in the coding config")
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
    walk = T._walk(config._walk_key)
    depth, parts = walk.prefix(w)
    return depth, walk.intervals(parts)


def cylinder(T: IETSpec, config: CodingConfig, w: str) -> tuple[Interval, ...]:
    """Maximal intervals of points whose coding starts with w (exact)."""
    if not w:
        raise ValueError("cylinder word must be nonempty")
    walk = T._walk(config._walk_key)
    depth, parts = walk.prefix(w)
    if depth < len(w):
        return ()
    return walk.intervals(parts)


def cylinder_lengths(T: IETSpec, config: CodingConfig, depth: int) -> dict[str, ExactScalar]:
    """Exact length of the cylinder of every word of length 1..depth
    whose cylinder is nonempty."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    walk = T._walk(config._walk_key)
    # level by level, each word's extensions in config.letters order:
    # the tree lists a level's words in the order it grew them
    lengths, words = {}, [""]
    for level in walk.levels(depth)[:depth]:
        words = [v for w in words for c in config.letters if (v := w + c) in level]
        for w in words:
            lengths[w] = walk.length(level[w])
    return lengths
