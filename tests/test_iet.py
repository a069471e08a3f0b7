import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ietword import iet
from ietword.exact import (ExactScalar, Interval, MixedRadicalError, ONE, ZERO, compare,
                           make_quadratic, quadratic_sign, rational)
from ietword.iet import (
    CodingConfig,
    DomainError,
    apply,
    apply_inverse,
    build_iet,
    check_idoc,
    check_regular,
    coding_with_sets,
    cylinder,
    cylinder_lengths,
    essential_codings,
    longest_cylinder,
    natural_coding,
    orbit,
)

import reference as ref
from corpus import (GOLDEN_ALPHA, far_point, flipped_4iet, flipped_corpus, golden_iet,
                    mechanical_word, random_exact_iet, random_exchange, random_point,
                    scattered_config, seven_letter_iet, silver_iet)

SQRT2 = make_quadratic(0, 1, 1, 1, 2)


def test_build_rejects_bad_input():
    with pytest.raises(ValueError):
        build_iet([rational(1, 2), rational(1, 3)], (2, 1))
    with pytest.raises(ValueError):
        build_iet([rational(1, 2), rational(1, 2)], (1, 1))
    with pytest.raises(ValueError):
        build_iet([rational(0), rational(1)], (2, 1))
    with pytest.raises(ValueError):
        build_iet([], ())


def test_identity_iet():
    T = build_iet([ONE], (1,))
    assert T.disp == (ZERO,)
    assert apply(T, rational(1, 3)) == rational(1, 3)
    assert natural_coding(T, rational(1, 7), 5) == "11111"


def test_golden_displacements():
    T = golden_iet()
    assert T.disp == (GOLDEN_ALPHA, GOLDEN_ALPHA - 1)


def test_silver_displacements():
    T = silver_iet()
    assert T.disp == (rational(2) - SQRT2, rational(4) - 3 * SQRT2, rational(2) - 2 * SQRT2)


def test_flipped_displacement_refused():
    T = silver_iet((False, True, False))
    # a flipped interval reflects about refl; its disp is no translation of it
    x = T.left[1] + rational(1, 10)
    assert apply(T, T.left[0]) == T.left[0] + T.disp[0]
    assert apply(T, x) == T.refl[1] - x != x + T.disp[1]


def test_apply_golden():
    T = golden_iet()
    assert apply(T, ZERO) == GOLDEN_ALPHA
    assert apply_inverse(T, GOLDEN_ALPHA) == ZERO
    with pytest.raises(DomainError):
        apply(T, ONE)
    with pytest.raises(DomainError):
        apply(T, rational(-1, 2))


def test_full_flip_single_interval():
    T = build_iet([ONE], (1,), (True,))
    assert apply(T, rational(1, 4)) == rational(3, 4)
    # the owned left endpoint stays in [0,1): it cannot reflect to 1
    assert apply(T, ZERO) == ZERO
    assert apply_inverse(T, rational(3, 4)) == rational(1, 4)
    assert apply_inverse(T, ZERO) == ZERO


def test_flip_preserves_bijection():
    T = silver_iet((False, True, True))
    rng = random.Random(7)
    for _ in range(200):
        x = rational(rng.randrange(0, 997), 997)
        assert apply_inverse(T, apply(T, x)) == x
        assert apply(T, apply_inverse(T, x)) == x


def test_image_partition():
    for flips in [None, (False, True, False), (True, True, True)]:
        T = silver_iet(flips)
        images = [Interval(T.dest_lo[i - 1], T.dest_lo[i - 1] + T.lengths[i - 1])
                  for i in T.permutation]
        assert images[0].lo == ZERO
        assert images[0].hi == images[1].lo
        assert images[1].hi == images[2].lo
        assert images[2].hi == ONE


def test_orbit_golden():
    T = golden_iet()
    pts = orbit(T, ZERO, 3)
    assert pts == [ZERO, GOLDEN_ALPHA, 2 * GOLDEN_ALPHA - 1]
    assert orbit(T, ZERO, 0) == []
    cfg = CodingConfig.natural(T)
    for walk in (lambda n: orbit(T, ZERO, n),
                 lambda n: natural_coding(T, ZERO, n),
                 lambda n: coding_with_sets(T, cfg, ZERO, n),
                 lambda n: essential_codings(T, cfg, ZERO, n)):
        with pytest.raises(ValueError, match="length must be >= 0"):
            walk(-1)


def test_natural_coding_golden_prefix():
    assert natural_coding(golden_iet(), ZERO, 8) == "12122121"


def test_natural_coding_silver_first_letter():
    assert natural_coding(silver_iet(), ZERO, 1) == "1"


def test_natural_coding_matches_pointwise_apply():
    T = silver_iet((False, False, True))
    x0 = rational(2, 11)
    pts = ref.orbit(T, x0, 150)
    slow = "".join("123"[ref.index_of(T, x) - 1] for x in pts)
    assert natural_coding(T, x0, 150) == slow


def test_coding_with_sets_matches_natural():
    T = golden_iet()
    cfg = CodingConfig.natural(T)
    assert coding_with_sets(T, cfg, rational(1, 3), 40) == natural_coding(T, rational(1, 3), 40)


def test_coding_with_sets_fibonacci_ab():
    T = golden_iet()
    cfg = CodingConfig(
        [("a", (Interval(ZERO, ONE - GOLDEN_ALPHA),)),
         ("b", (Interval(ONE - GOLDEN_ALPHA, ONE),))]
    )
    assert coding_with_sets(T, cfg, ZERO, 8) == "abab" + "baba"[:4]
    # the half swap sends 0 onto the cut 1/2 and back: a point on a cut
    # takes the letter of the piece it starts
    swap = build_iet([rational(1, 2), rational(1, 2)], (2, 1))
    assert coding_with_sets(swap, CodingConfig.natural(swap, "ab"), ZERO, 4) == "abab"


def test_single_set_constant():
    T = golden_iet()
    cfg = CodingConfig([("u", (Interval(ZERO, ONE),))])
    assert coding_with_sets(T, cfg, rational(1, 5), 6) == "uuuuuu"


def test_config_partition_validated():
    with pytest.raises(ValueError):
        CodingConfig([("a", (Interval(ZERO, rational(1, 2)),))])
    with pytest.raises(ValueError):
        CodingConfig(
            [("a", (Interval(ZERO, rational(2, 3)),)),
             ("b", (Interval(rational(1, 3), ONE),))]
        )
    # cuts in Q(sqrt 2) and Q(sqrt 5), never compared with each other
    ends = [ZERO, SQRT2 - 1, rational(1, 2), GOLDEN_ALPHA, ONE]
    with pytest.raises(MixedRadicalError, match="two quadratic fields"):
        CodingConfig((c, (Interval(a, b),)) for c, a, b in zip("abcd", ends, ends[1:]))


@pytest.mark.parametrize("letter", ["ab", "", 1])
def test_config_letters_are_one_character(letter):
    # each piece writes one letter of the word
    with pytest.raises(ValueError, match="not one character"):
        CodingConfig([(letter, (Interval(ZERO, rational(1, 3)),)),
                      ("b", (Interval(rational(1, 3), ONE),))])


def test_mechanical_golden_prefix():
    assert mechanical_word(GOLDEN_ALPHA, ZERO, GOLDEN_ALPHA, 8) == "ababaaba"


def test_mechanical_rational_periodic():
    assert mechanical_word(rational(1, 2), ZERO, rational(1, 2), 8) == "abababab"


def test_mechanical_empty():
    assert mechanical_word(GOLDEN_ALPHA, ZERO, GOLDEN_ALPHA, 0) == ""


def test_mechanical_matches_iet_coding():
    # same rotation, same arc, two code paths
    T = golden_iet()
    cfg = CodingConfig(
        [("a", (Interval(ZERO, GOLDEN_ALPHA),)),
         ("b", (Interval(GOLDEN_ALPHA, ONE),))]
    )
    x0 = rational(1, 3)
    assert mechanical_word(GOLDEN_ALPHA, x0, GOLDEN_ALPHA, 200) == coding_with_sets(
        T, cfg, x0, 200)


def test_essential_at_discontinuity():
    T = golden_iet()
    cfg = CodingConfig(
        [("a", (Interval(ZERO, ONE - GOLDEN_ALPHA),)),
         ("b", (Interval(ONE - GOLDEN_ALPHA, ONE),))]
    )
    assert essential_codings(T, cfg, ONE - GOLDEN_ALPHA, 1) == frozenset({"a", "b"})


def test_essential_interior_singleton():
    T = golden_iet()
    cfg = CodingConfig.natural(T)
    x0 = rational(1, 3)
    assert essential_codings(T, cfg, x0, 30) == frozenset({natural_coding(T, x0, 30)})


def test_essential_preimage_of_boundary():
    T = golden_iet()
    cfg = CodingConfig.natural(T)
    # orbit hits the discontinuity at step 2: both words share 2 letters
    x0 = apply_inverse(T, apply_inverse(T, ONE - GOLDEN_ALPHA))
    words = sorted(essential_codings(T, cfg, x0, 5))
    assert len(words) == 2
    assert words[0][:2] == words[1][:2]
    assert words[0][2] != words[1][2]


def test_essential_at_zero_is_one_sided():
    T = golden_iet()
    cfg = CodingConfig.natural(T)
    assert essential_codings(T, cfg, ZERO, 8) == frozenset({"12122121"})


def test_check_regular_golden():
    assert check_regular(golden_iet(), 1000).verdict == "no-collision-up-to-depth"


def test_check_regular_rational_rotation():
    rep = check_regular(build_iet([rational(1, 2), rational(1, 2)], (2, 1)), 10)
    assert rep.verdict == "collision"
    assert rep.witness == (1, 1, 2)


def test_check_regular_depth_validated():
    with pytest.raises(ValueError):
        check_regular(golden_iet(), 0)


def test_check_idoc_golden():
    assert check_idoc(golden_iet(), 500).verdict == "no-collision-up-to-depth"


def test_check_idoc_rational_third():
    rep = check_idoc(build_iet([rational(1, 3), rational(2, 3)], (2, 1)), 10)
    assert rep.verdict == "collision"
    (i, n), (j, m) = rep.witness
    assert n <= 3


def test_check_idoc_identity_vacuous():
    assert check_idoc(build_iet([ONE], (1,)), 5).verdict == "no-collision-up-to-depth"


def test_cylinder_single_letter():
    T = golden_iet()
    cfg = CodingConfig.natural(T)
    assert cylinder(T, cfg, "1") == (Interval(ZERO, ONE - GOLDEN_ALPHA),)
    assert cylinder(T, cfg, "2") == (Interval(ONE - GOLDEN_ALPHA, ONE),)


def test_cylinder_forbidden_word_empty():
    T = golden_iet()
    cfg = CodingConfig.natural(T)
    # X_1 is the short interval: two consecutive visits are impossible
    assert cylinder(T, cfg, "11") == ()
    assert cylinder(T, cfg, "22") != ()


def test_cylinder_rejects_empty_word():
    T = golden_iet()
    with pytest.raises(ValueError):
        cylinder(T, CodingConfig.natural(T), "")


def enumerate_cylinders(T, cfg, letters, depth):
    out = {}
    def rec(word):
        ivs = cylinder(T, cfg, word)
        if not ivs:
            return
        if len(word) == depth:
            out[word] = ivs
            return
        for c in letters:
            rec(word + c)
    for c in letters:
        rec(c)
    return out


@pytest.mark.parametrize("depth", [1, 4, 8])
def test_cylinder_partition_of_unity(depth):
    T = golden_iet()
    cfg = CodingConfig.natural(T)
    cyls = enumerate_cylinders(T, cfg, "12", depth)
    assert len(cyls) == depth + 1  # Sturmian complexity
    total = ZERO
    for ivs in cyls.values():
        assert len(ivs) == 1  # natural coding of an unflipped exchange
        total = total + ivs[0].length
    assert total == ONE


def test_cylinder_coding_consistency():
    T = golden_iet()
    cfg = CodingConfig.natural(T)
    for word, ivs in enumerate_cylinders(T, cfg, "12", 8).items():
        for iv in ivs:
            mid = (iv.lo + iv.hi) / 2
            assert natural_coding(T, mid, len(word)) == word
            assert iv.lo < mid < iv.hi


def test_cylinder_flipped_partition():
    T = silver_iet((False, True, False))
    cfg = CodingConfig.natural(T)
    cyls = enumerate_cylinders(T, cfg, "123", 5)
    total = ZERO
    for ivs in cyls.values():
        for iv in ivs:
            total = total + iv.length
    assert total == ONE
    # membership of every piece midpoint regenerates the word
    for word, ivs in cyls.items():
        for iv in ivs:
            if iv.lo == iv.hi:
                mid = iv.lo
            else:
                mid = (iv.lo + iv.hi) / 2
            assert natural_coding(T, mid, len(word)) == word


exact_points = st.fractions(min_value=0, max_value=1, max_denominator=500).filter(
    lambda f: f < 1)


@settings(max_examples=60)
@given(exact_points)
def test_bijectivity_random_points(x):
    T = silver_iet((True, False, False))
    x = rational(x.numerator, x.denominator)
    assert apply_inverse(T, apply(T, x)) == x


@settings(max_examples=60)
@given(exact_points, st.integers(min_value=1, max_value=30))
def test_orbit_reversibility(x, n):
    T = golden_iet()
    x = rational(x.numerator, x.denominator)
    y = x
    for _ in range(n):
        y = apply(T, y)
    for _ in range(n):
        y = apply_inverse(T, y)
    assert y == x


# ------------------------------------------ kernel versus the reference

def test_kernel_matches_integer_pair_reference():
    rng = random.Random(20071)
    collided = split = flipped = 0
    for case in range(48):
        k = 2 + case % 4
        d = (0, 2, 5)[case // 4 % 3]
        T = random_exchange(rng, k, d)
        cfg = CodingConfig.natural(T)
        x = random_point(rng, d)
        assert orbit(T, x, 12) == ref.orbit(T, x, 12)
        for check, reference in ((check_regular, ref.check_regular),
                                 (check_idoc, ref.check_idoc)):
            rep = check(T, 8)
            assert (rep.verdict, rep.witness) == reference(T, 8)
            collided += rep.collided
        for x0 in (*T.left[:-1], x):
            assert essential_codings(T, cfg, x0, 10) == ref.essential_codings(T, cfg, x0, 10)
        if case % 8 < 2:
            # 200 letters over at most 3 pieces code 4 letters a block;
            # start at the slot starts and at a preimage of a cut
            u = random_point(rng, d if rng.random() < 0.5 else 0) or rational(1, 2)
            arcs = CodingConfig([("a", (Interval(ZERO, u),)), ("b", (Interval(u, ONE),))])
            for c in (cfg, arcs):
                y = rng.choice(c.pieces[1:])[0].lo
                for _ in range(rng.randint(1, 3)):
                    y = ref.apply_inverse(T, y)
                for x0 in (*T.slot_start[1:-1], y):
                    words = essential_codings(T, c, x0, 200)
                    assert words == ref.essential_codings(T, c, x0, 200), (T, c, x0)
                    split += len(words) == 2
                    flipped += any(T.flips)
    # the corpus exercises both verdicts, codings that split and flips
    assert 0 < collided < 96
    assert split and flipped


def test_point_maps_match_integer_pair_reference():
    rng = random.Random(20074)
    owned = widened = foreign = 0
    for case in range(90):
        k = 1 + case % 6
        d = (0, 2, 5)[case // 6 % 3]
        T = random_exchange(rng, k, d)
        # T.inverse: T's image slots in order, each sent back onto its
        # source with the same flip, over the same field and denominator
        inv = T.inverse
        assert inv.inverse is T
        assert inv.lengths == tuple(T.lengths[i - 1] for i in T.permutation)
        assert inv.permutation == T.slot_of[1:]
        assert inv.flips == tuple(T.flips[i - 1] for i in T.permutation)
        assert (inv.kernel.d, inv.kernel.D) == (T.kernel.d, T.kernel.D)
        # interval ends and slot starts, the owned flipped endpoints and
        # their images among them
        pts = [*T.left[:-1], *T.slot_start[:-1]]
        owned += sum(T.flips)
        for i in range(1, k + 1):
            # the owned endpoints of a flipped X_i and of its image slot,
            # which T and T.inverse own in turn
            for x in (T.left[i - 1], T.dest_lo[i - 1]) if T.flips[i - 1] else ():
                assert apply(inv, apply(T, x)) == x == apply(T, apply(inv, x)), (T, x)
        pts += [random_point(rng, d) for _ in range(4)]
        pts += [far_point(rng, d) for _ in range(4)]
        if not d:
            # a rational exchange maps the points of any one field
            other = [random_point(rng, e) for e in (2, 3, 5)] + [far_point(rng, 7)]
            foreign += sum(bool(x.d) for x in other)
            pts += other
        for x in pts:
            widened += T.kernel.widen(x.d, x.den) is not T.kernel
            assert apply(T, x) == ref.apply(T, x), (T, x)
            assert apply_inverse(T, x) == ref.apply_inverse(T, x), (T, x)
            assert T.index_of(x) == ref.index_of(T, x), (T, x)
        for point_map in (lambda x: apply(T, x), lambda x: apply_inverse(T, x), T.index_of):
            for x in (ONE, rational(-1, 3), far_point(rng, d) - 1, far_point(rng, d) + 1):
                with pytest.raises(DomainError):
                    point_map(x)
            for x in (0.5, "1/2", None):
                with pytest.raises(TypeError):
                    point_map(x)
    # the corpus reaches owned endpoints, points off the kernel's denominator
    # (a walk would widen it for them) and other fields
    assert owned and widened and foreign


def test_kernel_denominator_comes_from_the_interval_ends():
    # every table is a sum or difference of interval ends, so the ends'
    # denominator is the lcm over all of them, and encoding loses nothing
    rng = random.Random(20241)
    flipped = 0
    for case in range(63):
        k = 1 + case % 7
        d = (0, 2, 5)[case // 7 % 3]
        T = random_exchange(rng, k, d, flip_p=0.5)
        flipped += any(T.flips)
        for S in (T, T.inverse):
            kernel = S.kernel
            assert kernel.D == math.lcm(*(
                math.lcm(s.rat.denominator, s.coef.denominator)
                for s in (*S.left, *S.slot_start, *S.disp, *S.refl)))
            for s in (*S.left, *S.slot_start, *S.disp, *S.refl, *S.dest_lo):
                assert kernel.decode(kernel.encode(s)) == s, (S, s)
    assert flipped


def test_point_maps_reject_a_second_field():
    F = build_iet([rational(1, 2), make_quadratic(-1, 2, 1, 2, 2), make_quadratic(2, 2, -1, 2, 2)],
                  (1, 3, 2))
    x = make_quadratic(10, 100, 1, 100, 3)
    for point_map in (lambda: apply(F, x), lambda: apply_inverse(F, x), lambda: F.index_of(x),
                      lambda: natural_coding(F, x, 3)):
        with pytest.raises(MixedRadicalError, match="two quadratic fields"):
            point_map()
    # the domain is checked before the field
    for x in (make_quadratic(110, 100, 1, 100, 3), make_quadratic(-10, 100, 1, 100, 3)):
        for point_map in (lambda: apply(F, x), lambda: apply_inverse(F, x), lambda: F.index_of(x)):
            with pytest.raises(DomainError):
                point_map()
    swap = build_iet([rational(1, 3), rational(2, 3)], (2, 1))
    y = make_quadratic(2, 8, 1, 8, 2)
    assert apply(swap, y) == make_quadratic(-2, 24, 3, 24, 2)
    assert apply_inverse(swap, make_quadratic(-2, 24, 3, 24, 2)) == y
    assert swap.index_of(y) == 2


def test_point_maps_leave_one_to_the_locate_scan():
    # a point map tests x >= 0 alone; x >= 1 passes every interval end of
    # the locate scan, the last of which is 1, and is refused there
    rng = random.Random(20262)
    exchanges = (build_iet([rational(1, 3), rational(1, 6), rational(1, 2)], (3, 1, 2)),
                 silver_iet(), silver_iet((True, False, True)))
    for T in exchanges:
        for S in (T, T.inverse):
            # the rational exchange reads a point of Q(sqrt 3) on a widened kernel
            e = S.kernel.d or 3
            root = make_quadratic(0, 1, 1, 9973, e)
            maps = (lambda x: apply(S, x), lambda x: apply_inverse(S, x), S.index_of)
            for x in (ONE, rational(3, 2), ONE + rational(1, 9973), ONE + root,
                      rational(-1, 9973)):
                for point_map in maps:
                    with pytest.raises(DomainError) as err:
                        point_map(x)
                    assert str(err.value) == f"point {x} outside [0,1)", (S, x)
            last = [ONE - rational(1, 9973), ONE - root]
            for f in (0, e):
                x = far_point(rng, f)
                while compare(x, S.left[-2]) < 0:
                    x = far_point(rng, f)
                last.append(x)
            for x in last:
                assert S.index_of(x) == ref.index_of(S, x) == S.k, (S, x)
                assert apply(S, x) == ref.apply(S, x), (S, x)
                assert apply_inverse(S, x) == ref.apply_inverse(S, x), (S, x)
            # the kernel's own scan refuses the pair of 1, naming the point
            with pytest.raises(DomainError, match=r"^point 1 outside \[0,1\)$"):
                S.kernel.locate(S.kernel.encode(ONE))


def _assert_canonical(x):
    y = ExactScalar(x.rat, x.coef, x.d)
    assert type(x.rat) is Fraction and type(x.coef) is Fraction, repr(x)
    assert (x.rat, x.coef, x.d) == (y.rat, y.coef, y.d) and hash(x) == hash(y), repr(x)
    # the integer triple itself: (num + irr*sqrt(d))/den in lowest terms
    assert (x.num, x.irr, x.den) == (y.num, y.irr, y.den), repr(x)
    assert x.den > 0 and math.gcd(x.num, x.irr, x.den) == 1, repr(x)
    assert (x.irr == 0) == (x.d == 0), repr(x)
    if not x.d:
        # a rational hashes and compares as its Fraction (or int)
        assert x == x.rat and {x.rat: x}[x] is x, repr(x)


def test_scalars_come_back_canonical():
    rng = random.Random(20075)
    cancelled = owned = foreign = 0
    for case in range(60):
        k = 1 + case % 6
        d = (0, 2, 5)[case // 6 % 3]
        T = random_exchange(rng, k, d)
        pts = [*T.left[:-1], *T.slot_start[:-1], random_point(rng, d), far_point(rng, d)]
        # preimages of rational points, whose images drop the sqrt part
        pts += [apply_inverse(T, far_point(rng, 0)) for _ in range(2)]
        if not d:
            pts += [random_point(rng, e) for e in (2, 5)] + [far_point(rng, 3)]
        for x in pts:
            owned += x in T.left and T.flips[T.index_of(x) - 1]
            for y in (apply(T, x), apply_inverse(T, x), *orbit(T, x, 6)):
                _assert_canonical(y)
                cancelled += bool(d and x.d and not y.d)
                foreign += bool(not d and y.d)
        natural = CodingConfig.natural(T)
        for cfg in (natural, scattered_config(rng, d or 2, "xy")):
            # the cuts of a scattered config on a rational exchange lie in Q(sqrt 2)
            codings = {coding_with_sets(T, cfg, x, 3)
                       for x in pts if x.d in (0, d or 2)}
            for w in codings:
                for iv in cylinder(T, cfg, w):
                    _assert_canonical(iv.lo)
                    _assert_canonical(iv.hi)
            for length in cylinder_lengths(T, cfg, 3).values():
                _assert_canonical(length)
    # the corpus reaches rational results on quadratic exchanges, owned
    # flipped endpoints and quadratic points on rational exchanges
    assert cancelled and owned and foreign


def test_cylinder_lengths_match_cylinders():
    T = silver_iet((False, True, False))
    cfg = CodingConfig.natural(T)
    lengths = cylinder_lengths(T, cfg, 4)
    cyls = {}
    for depth in range(1, 5):
        cyls.update(enumerate_cylinders(T, cfg, "123", depth))
    assert set(lengths) == set(cyls)
    for word, ivs in cyls.items():
        total = ZERO
        for iv in ivs:
            total = total + iv.length
        assert lengths[word] == total
    with pytest.raises(ValueError):
        cylinder_lengths(T, cfg, 0)


def test_longest_cylinder_prefix():
    T = golden_iet()
    cfg = CodingConfig.natural(T)
    assert longest_cylinder(T, cfg, "1211") == (3, cylinder(T, cfg, "121"))
    assert longest_cylinder(T, cfg, "11") == (1, cylinder(T, cfg, "1"))
    assert longest_cylinder(T, cfg, "") == (0, ())


# ----------------------------------- cylinder walk versus the reference

def test_cylinder_walk_matches_integer_pair_reference():
    rng = random.Random(20072)
    flipped = singletons = empty = shared = crossing = 0
    for case in range(20):
        k = 2 + case % 5
        d = (0, 2, 5)[case // 5 % 3]
        T = random_exchange(rng, k, d)
        flipped += any(T.flips)
        scattered = scattered_config(rng, d, "xyz"[:2 + case % 2], T)
        configs = [CodingConfig.natural(T), scattered]
        # the walk's bounds merge both partitions; here they differ from
        # each: a cut on an interval end of T, a piece with one inside it
        ends = T.left[1:-1]
        shared += any(c in ends for c in scattered.cuts[1:-1])
        crossing += any(compare(iv.lo, e) < 0 < compare(iv.hi, e)
                        for iv, _ in scattered.pieces for e in ends)
        if k == 2:
            # mechanical arc sets, cut at a point of another denominator
            u = rational(rng.randrange(1, 13), 13)
            configs.append(CodingConfig([("a", (Interval(ZERO, u),)),
                                         ("b", (Interval(u, ONE),))]))
        for cfg in configs:
            depth = 4 if len(cfg.letters) <= 3 else 3
            tree = ref.cylinders(T, cfg, depth)
            words = [""]
            for _ in range(depth):
                words = [w + c for w in words for c in cfg.letters]
                for w in words:
                    expect = tree[w][0] if w in tree else ()
                    assert cylinder(T, cfg, w) == expect, (T, w)
                    empty += not expect
                    singletons += any(iv.lo == iv.hi for iv in expect)
            # the same words, in the same order
            assert list(cylinder_lengths(T, cfg, depth).items()) == \
                [(w, length) for w, (_, length) in tree.items()]
            w = list(coding_with_sets(T, cfg, random_point(rng, d), 6))
            w[rng.randrange(6)] = rng.choice(cfg.letters)
            w = "".join(w)
            assert longest_cylinder(T, cfg, w) == ref.longest(T, cfg, w)
    # the corpus reaches flips, peeled singletons, empty cylinders, a cut
    # on an exchange end and a letter's piece across one
    assert flipped and singletons and empty and shared and crossing


def test_cylinder_error_paths():
    T = golden_iet()
    cfg = CodingConfig.natural(T)
    with pytest.raises(ValueError, match="not in the coding config"):
        cylinder(T, cfg, "3")
    with pytest.raises(ValueError, match="not in the coding config"):
        cylinder(T, cfg, "12x")
    with pytest.raises(ValueError, match="not in the coding config"):
        longest_cylinder(T, cfg, "2x")
    # arc sets in Q(sqrt 2) against an exchange in Q(sqrt 5)
    u = SQRT2 - 1
    other = CodingConfig([("a", (Interval(ZERO, u),)), ("b", (Interval(u, ONE),))])
    for walk in (lambda: cylinder(T, other, "ab"),
                 lambda: longest_cylinder(T, other, "ab"),
                 lambda: cylinder_lengths(T, other, 2)):
        with pytest.raises(MixedRadicalError):
            walk()


def test_natural_walk_runs_on_the_kernel_itself(monkeypatch):
    walks = []
    init = iet._Cylinders.__init__

    def spy(self, *args):
        init(self, *args)
        walks.append(self)

    monkeypatch.setattr(iet._Cylinders, "__init__", spy)
    # fresh exchanges, so no earlier test has filled their walk dicts
    exchanges = [build_iet(S.lengths, S.permutation, S.flips)
                 for S in (golden_iet(), silver_iet((False, True, False)))]
    exchanges.append(build_iet([rational(1, 4), rational(1, 2), rational(1, 4)], (2, 3, 1),
                               (False, True, True)))
    for T in exchanges:
        cfg = CodingConfig.natural(T, "abc")
        x0 = T.left[1]
        natural_coding(T, x0, 40)
        coding_with_sets(T, cfg, x0, 40)
        essential_codings(T, cfg, x0, 40)
        # the codings share one walk of each partition and its letters:
        # natural_coding under cfg's letters takes cfg's
        natural_coding(T, x0, 40, "abc")
        assert len(walks) == 2 and T._walk(cfg._walk_key) is walks[1]
        # the three cylinder functions read that same walk's tree, which
        # the codings' depth-2 table left at its first level
        assert len(walks[1].tree) == 1
        cylinder(T, cfg, "ab")
        longest_cylinder(T, cfg, "abab")
        cylinder_lengths(T, cfg, 2)
        assert len(walks) == 2 and len(walks[1].tree) == 4
        # an equal config built on its own finds that walk and builds none
        again = CodingConfig.natural(T, "abc")
        cylinder(T, again, "ba")
        longest_cylinder(T, again, "baba")
        cylinder_lengths(T, again, 5)
        coding_with_sets(T, again, x0, 40)
        assert len(walks) == 2 and T._walk(again._walk_key) is walks[1]
        assert len(walks[1].tree) == 5
        assert set(T._walks) == {CodingConfig.natural(T)._walk_key, cfg._walk_key}
        # the natural config's cuts and bounds are the kernel's own table,
        # not a copy, so an equal key compares them by identity
        assert cfg.encoded[2] is again.encoded[2] is T.kernel.left
        for walk in walks:
            assert walk.kernel is T.kernel and walk.bounds is T.kernel.left
        walks.clear()
        # a point off the kernel's denominator widens it, and the bounds follow
        natural_coding(T, rational(1, 9973), 5)
        scattered = scattered_config(random.Random(T.k), 0, "xy")
        cylinder(T, scattered, "x")
        assert walks[0].kernel is not T.kernel and walks[0].bounds is walks[0].kernel.left
        assert walks[1].bounds != walks[1].kernel.left
        walks.clear()


def test_shared_walk_answers_as_a_fresh_walk_per_word():
    """Each exchange keeps one walk per partition, and its cylinder tree,
    for its cylinder calls; their answers must not depend on the calls
    made before them."""
    rng = random.Random(20074)
    plain = random_exchange(rng, 3, 2, flip_p=0)
    flipped = random_exchange(rng, 3, 5, flip_p=0.5)
    assert any(flipped.flips) and not any(plain.flips)
    # a config over sqrt 2 against an exchange over sqrt 5
    u = SQRT2 - 1
    other = CodingConfig([("x", (Interval(ZERO, u),)), ("y", (Interval(u, ONE),))])
    bad = [lambda: cylinder(flipped, other, "xy"), lambda: longest_cylinder(flipped, other, "x"),
           lambda: cylinder_lengths(flipped, other, 2)]
    for call in bad * 2:
        with pytest.raises(MixedRadicalError):
            call()
    assert flipped._walks == {}
    calls, keys = [], {}
    for T, d in ((plain, 2), (flipped, 5)):
        # equal letters, and the two scattered configs equal piece letters,
        # so a walk keyed by either would mix them up
        configs = [CodingConfig.natural(T, "xyz"), scattered_config(rng, d, "xyz", T),
                   scattered_config(rng, d, "xyz", T)]
        keys[T] = {(cfg.encoded, cfg.piece_letters) for cfg in configs}
        assert len(keys[T]) == 3 and configs[1].piece_letters == configs[2].piece_letters
        for cfg in configs:
            words = [""]
            for _ in range(5):
                words = [w + c for w in words for c in cfg.letters]
                calls += [(T, cfg, w) for w in words]
            calls += [(T, cfg, depth) for depth in (1, 3)]
    calls += [(flipped, other, "xy")] * 3
    rng.shuffle(calls)
    empty = 0
    for T, cfg, w in calls:
        if cfg is other:
            with pytest.raises(MixedRadicalError):
                cylinder(T, cfg, w)
            continue
        fresh = iet._Cylinders(T.kernel, cfg.encoded, cfg.piece_letters)
        if isinstance(w, int):
            assert cylinder_lengths(T, cfg, w) == {
                word: fresh.length(part)
                for level in fresh.levels(w)[:w] for word, part in level.items()}
            continue
        depth, parts = fresh.prefix(w)
        expect = fresh.intervals(parts)
        assert longest_cylinder(T, cfg, w) == (depth, expect)
        # the reference walks each word afresh: every short word, one in 20 of the rest
        if len(w) <= 2 or rng.random() < 0.05:
            assert (depth, expect) == ref.longest(T, cfg, w)
        assert cylinder(T, cfg, w) == (expect if depth == len(w) else ())
        empty += depth < len(w)
    assert empty
    for T in (plain, flipped):
        assert set(T._walks) == keys[T]


def _fresh(T):
    """T built again, with no walk or table kept."""
    return build_iet(T.lengths, T.permutation, T.flips)


def _listed_out_of_span_order():
    """Sets whose letters are listed in another order than their spans
    run: x owns two pieces, and the rational cuts are no quadratic
    exchange's ends."""
    a, b, c = rational(1, 5), rational(2, 5), rational(3, 5)
    return CodingConfig([("y", (Interval(b, c),)), ("z", (Interval(a, b),)),
                         ("x", (Interval(ZERO, a), Interval(c, ONE)))])


def test_cylinder_queries_read_the_kept_tree():
    """cylinder, longest_cylinder and cylinder_lengths against the scalar
    references to depth 6, past the tree's kept depth 4, on a fresh
    exchange, after a coding built a table (which grows no tree level),
    and after cylinder_lengths grew the tree to depth 6.  A letter
    outside the config raises exactly where the reference reaches it."""
    depth = 6
    exchanges = [golden_iet(), silver_iet(), silver_iet((False, True, False)), flipped_4iet(),
                 seven_letter_iet(), *flipped_corpus(3)]
    assert sum(any(T.flips) for T in exchanges) >= 3
    scattered = _listed_out_of_span_order()
    spans = iet._Cylinders(golden_iet().kernel, scattered.encoded, scattered.piece_letters).spans
    assert list(spans) == ["x", "z", "y"] and scattered.letters == ("y", "z", "x")
    raised = past_kept = 0
    for S in exchanges:
        for cfg in (CodingConfig.natural(S, "abcdefg"), scattered):
            tree = ref.cylinders(S, cfg, depth)
            # every word whose proper prefixes all have nonempty cylinders
            words = [*cfg.letters, *(w + c for w in tree if len(w) < depth for c in cfg.letters)]
            longer = [w + w[:4] for w in tree if len(w) == depth]
            for order in ("fresh", "table", "lengths"):
                T = _fresh(S)
                walk = T._walk(cfg._walk_key)
                if order == "table":
                    # a point over T's own denominator reads T's walk
                    coding_with_sets(T, cfg, ZERO, 2000)
                    assert walk.tables and len(walk.tree) == 1, (S, cfg)
                elif order == "lengths":
                    cylinder_lengths(T, cfg, depth)
                    assert len(walk.tree) == depth
                for w in words:
                    expect = tree[w][0] if w in tree else ()
                    assert cylinder(T, cfg, w) == expect, (S, cfg, order, w)
                    n = len(w) if w in tree else len(w) - 1
                    assert longest_cylinder(T, cfg, w) == (
                        n, tree[w[:n]][0] if n else ()), (S, cfg, order, w)
                    # w's prefixes reach the stray letter only when w's cylinder is nonempty
                    stray = w + "?" + w
                    if w in tree:
                        for call in (cylinder, longest_cylinder):
                            with pytest.raises(ValueError, match="not in the coding config"):
                                call(T, cfg, stray)
                        raised += 1
                        past_kept += len(w) >= 4
                    else:
                        assert cylinder(T, cfg, stray) == ()
                        assert longest_cylinder(T, cfg, stray) == longest_cylinder(T, cfg, w)
                for w in longer[:3]:
                    assert longest_cylinder(T, cfg, w) == ref.longest(T, cfg, w)
                assert list(cylinder_lengths(T, cfg, depth).items()) == \
                    [(w, length) for w, (_, length) in tree.items()], (S, cfg, order)
    with pytest.raises(KeyError):
        ref.longest(golden_iet(), scattered, "x?")
    assert raised and past_kept


def test_cylinder_query_keeps_four_levels_of_tuples():
    """A cylinder query of any length grows the kept tree to four levels
    and no further, and every kept level holds its parts as tuples, so
    no caller can change what the others read."""
    for S in (silver_iet((False, True, False)), flipped_4iet()):
        T = _fresh(S)
        cfg = CodingConfig.natural(T)
        # coded on a copy of T, so that T keeps no walk yet
        w = natural_coding(_fresh(S), S.left[1], 40)
        walk = T._walk(cfg._walk_key)
        assert cylinder(T, cfg, w[:2]) and len(walk.tree) == 2
        assert cylinder(T, cfg, w) == ref.longest(T, cfg, w)[1] != ()
        assert len(walk.tree) == 4 and set(T._walks) == {cfg._walk_key}
        with pytest.raises(ValueError, match="not in the coding config"):
            longest_cylinder(T, cfg, w[:39] + "?")
        assert len(walk.tree) == 4
        for level in walk.tree:
            for parts in level.values():
                assert type(parts) is tuple and parts
                assert all(type(part) is tuple and type(part[1]) is tuple for part in parts)


def _table_walk_state(T):
    """The walks T keeps, one per partition, and the tables each holds,
    by identity."""
    return {key: (id(walk), {m: id(table) for m, table in walk.tables.items()})
            for key, walk in T._walks.items()}


def test_shared_tables_answer_as_a_fresh_table_per_call():
    """Each exchange keeps one depth-m table per partition and m for its
    codings and regularity checks; no answer may depend on the calls
    made before it, at any mix of partitions, letters and block sizes."""
    rng = random.Random(20081)
    exchanges = [_fresh(S) for S in (golden_iet(), silver_iet(),
                                     silver_iet((False, True, False)), flipped_4iet())]
    exchanges += [build_iet([rational(1, 3), rational(2, 3)], (2, 1)),
                  build_iet([rational(1, 4), rational(1, 2), rational(1, 4)], (2, 3, 1),
                            (False, True, True)),
                  random_exchange(rng, 5, 5, flip_p=0.5)]
    assert sum(any(T.flips) for T in exchanges) >= 3
    # m runs from 1 to 16 on two pieces, and to 8 on the seven of a scattered config
    ns = (0, 3, 17, 130, 600, 2100)
    calls = []
    for T in exchanges:
        # every point of these orbits is over T's field and denominator
        points = [x for i in range(T.k) for x in orbit(T, T.left[i], 4)]
        abc = CodingConfig.natural(T, "abcdefg")
        configs = (abc, scattered_config(rng, T.kernel.d, "xyz", T))
        for n in ns:
            for _ in range(2):
                calls += [("natural", T, None, rng.choice(points), n),
                          ("natural", T, "abcdefg", rng.choice(points), n)]
                calls += [(kind, T, cfg, rng.choice(points), n)
                          for kind in ("sets", "essential") for cfg in configs]
        calls += [(check, T, None, None, depth)
                  for check in ("regular", "idoc") for depth in (5, 60, 300, 1000)]
    rng.shuffle(calls)

    def run(kind, T, cfg, x0, n):
        if kind == "natural":
            # cfg: the letters, or None for the default
            return natural_coding(T, x0, n, cfg)
        if kind == "sets":
            return coding_with_sets(T, cfg, x0, n)
        if kind == "essential":
            return essential_codings(T, cfg, x0, n)
        rep = (check_regular if kind == "regular" else check_idoc)(T, n)
        return rep.verdict, rep.witness

    collided = two_sided = 0
    for call in calls:
        kind, T, cfg, x0, n = call
        got = run(*call)
        assert got == run(kind, _fresh(T), cfg, x0, n), call
        collided += kind in ("regular", "idoc") and got[0] == "collision"
        two_sided += kind == "essential" and len(got) == 2
    assert collided and two_sided
    ms, regularity = set(), 0
    for T in exchanges:
        # four partitions: natural_coding's default letters, abc's, which
        # natural_coding under abc's letters shares, the scattered one, and
        # the regularity walk's one letter for every interval, which only a
        # walk past m single steps builds
        assert len(T._walks) in (3, 4), T
        for E in (T, T.inverse):
            for key, walk in E._walks.items():
                regularity += key[1] == " " * E.k
                fresh = iet._Cylinders(E.kernel, *key)
                for m, table in walk.tables.items():
                    # a shared table is immutable and as a fresh walk builds it
                    assert all(type(part) is tuple for part in (table, *table)), (E, key, m)
                    assert table == fresh.table(m), (E, key, m)
                    ms.add(m)
        # a point off T's denominator walks a table of its own and keeps none
        x0 = rational(1, 9973)
        assert T.kernel.widen(0, 9973) is not T.kernel
        before = _table_walk_state(T)
        assert natural_coding(T, x0, 600) == natural_coding(_fresh(T), x0, 600)
        cfg = CodingConfig.natural(T, "abcdefg")
        assert essential_codings(T, cfg, x0, 600) == essential_codings(_fresh(T), cfg, x0, 600)
        assert _table_walk_state(T) == before
    assert ms >= {1, 2, 4, 8, 16} and regularity >= 4, (ms, regularity)


# ------------------------------ block coding versus the reference walk

def _least_steps(m, cost):
    """The smallest n at which a walk of the given cost takes m steps a
    block: m**2 * min(m, 4) * cost <= n."""
    return m * m * min(m, 4) * cost


def _block_lengths(pieces, m_max):
    """n at 0, 1, m-1, m, m+1 and 3m+1 past the smallest n at which the
    walk codes m letters a block, for m = 1..m_max."""
    ns = {0, 1, 2}
    m = 1
    while m <= m_max:
        ns.update(_least_steps(m, pieces) + r for r in (0, 1, m - 1, m, m + 1, 3 * m + 1))
        m *= 2
    return sorted(ns)


def test_block_coding_matches_integer_pair_reference():
    rng = random.Random(20073)
    exchanges = [
        build_iet([rational(1, 3), rational(2, 3)], (2, 1)),
        build_iet([rational(1, 3)] * 3, (3, 1, 2), (True, False, False)),
        build_iet([rational(1, 4), rational(1, 2), rational(1, 4)], (2, 3, 1),
                  (False, True, True)),
        silver_iet((False, True, False)),
    ]
    exchanges += [random_exchange(rng, 2 + case % 5, (0, 2, 5)[case // 5 % 3])
                  for case in range(15)]
    # a stream of its own, so these starts leave the draws above alone
    starts_rng = random.Random(20077)
    hits = flipped = split = 0
    for T in exchanges:
        d = next((x.d for x in T.lengths if x.d), 0)
        flipped += any(T.flips)
        u = random_point(rng, d if rng.random() < 0.5 else 0)
        configs = [CodingConfig.natural(T), scattered_config(rng, d, "xyz"[:2 + T.k % 2], T)]
        if u != ZERO:
            configs.append(CodingConfig([("a", (Interval(ZERO, u),)),
                                         ("b", (Interval(u, ONE),))]))
        for cfg in configs:
            natural = cfg is configs[0]
            pieces = len(cfg.pieces)
            ns = _block_lengths(pieces, 16 if pieces == 2 else 8 if pieces <= 4 else 4)
            for x0 in (random_point(rng, d), rng.choice(cfg.pieces)[0].lo):
                # one long reference run; every shorter coding is its prefix
                word = ref.coding(T, cfg, x0, ns[-1])
                hits = hits or any(x in cfg.cuts[1:-1] for x in ref.orbit(T, x0, ns[-1]))
                if natural:
                    assert word == ref.coding(T, None, x0, ns[-1])
                for n in ns:
                    if natural:
                        assert natural_coding(T, x0, n) == word[:n], (T, x0, n)
                    assert coding_with_sets(T, cfg, x0, n) == word[:n], (T, cfg, x0, n)
            # the one-sided codings from a row start of the table they walk
            # and from a preimage of a cut, where the tie rules decide
            for m in (8, 16) if pieces == 2 else (8,):
                n = _least_steps(m, pieces)
                walk = iet._Cylinders(T.kernel, cfg.encoded, cfg.piece_letters)
                starts = walk.table(m)[0]
                y = starts_rng.choice(cfg.cuts[1:-1])
                for _ in range(starts_rng.randint(1, 3)):
                    y = ref.apply_inverse(T, y)
                for x0 in (walk.kernel.decode(starts_rng.choice(starts[1:])), y):
                    words = essential_codings(T, cfg, x0, n)
                    assert words == ref.essential_codings(T, cfg, x0, n), (T, cfg, x0, n)
                    split += len(words) == 2
    # the corpus reaches flips, orbits through set boundaries and
    # one-sided codings that differ
    assert flipped and hits and split


def _doubled(p):
    return (2 * p[0], 2 * p[1])


def _midpoint_and_limits(lo, hi):
    """The doubled points of [lo, hi] a successor range must cover:
    (point, side) for both ends and their limits, and the midpoint."""
    return [*((_doubled(y), side) for y in (lo, hi) for side in (0, 1, -1)),
            ((lo[0] + hi[0], lo[1] + hi[1]), 0)]


def test_successor_ranges_hold_every_image():
    rng = random.Random(20076)
    flipped = wide = 0
    for case in range(9):
        k = 2 + case % 3
        d = (0, 2, 5)[case // 3]
        T = random_exchange(rng, k, d, flip_p=0.35)
        flipped += any(T.flips)
        # wherever the full bisection puts a point of a row's image, that
        # row lies in the row's range
        for cfg in (CodingConfig.natural(T), scattered_config(rng, d, "xyz"[:2 + k % 2], T)):
            walk = iet._Cylinders(T.kernel, cfg.encoded, cfg.piece_letters)
            kd, D = walk.kernel.d, walk.kernel.D
            for m in (1, 2, 4, 8, 16, 32, 64, 128, 256):
                starts, closed, rows = walk.table(m)
                twice = [_doubled(u) for u in starts]
                ends = [*starts[1:], (D, 0)]
                for (_, s, b, lo, hi), x_lo, x_hi in zip(rows, starts, ends):
                    # source [x_lo, x_hi] goes to s*(x - b), ends swapped for s = -1
                    y_lo, y_hi = ((s * (x[0] - b[0]), s * (x[1] - b[1])) for x in (x_lo, x_hi))
                    if s < 0:
                        y_lo, y_hi = y_hi, y_lo
                    for p, side in _midpoint_and_limits(y_lo, y_hi):
                        count = iet._row_count(twice, closed, kd, p, side, 0, len(rows))
                        assert lo <= count <= hi, (T, cfg, m, p, side)
                    wide += hi - lo > 1
    # the corpus reaches flips and rows whose image meets several rows
    assert flipped and wide


def _table_reference(walk, m):
    """walk's depth-m cylinder table grown one level at a time, every
    level from the one before, and sorted by source: the level-growth
    reference of the doubled table.  The levels are grown here and
    dropped, so walk's tree stays as it was."""
    level = walk.tree[0]
    for _ in range(m - 1):
        level = {w + letter: parts for w, hit in level.items()
                 for letter, parts in walk.by_letter(walk.advance(hit)).items()}
    key = walk.source_order()
    pieces = sorted(((walk.source(piece), w, piece)
                     for w, parts in level.items() for piece in walk.advance(parts)),
                    key=lambda row: key(row[0]))
    starts = [src[0] for src, _, _ in pieces]
    closed = [1 if src[2] else -1 for src, _, _ in pieces]
    d, n = walk.kernel.d, len(pieces)
    rows = [(w, s, b, iet._row_count(starts, closed, d, lo, -1, 0, n),
             iet._row_count(starts, closed, d, hi, 1, 0, n))
            for _, w, (lo, hi, _, _, s, b) in pieces]
    return starts, closed, rows


def _lone_rows(starts):
    """The rows of one point: a row [p, p] is followed by the row (p, ..)."""
    return [i for i in range(len(starts) - 1) if starts[i] == starts[i + 1]]


def _in_s1_form(table):
    """The table with each row of one point x written as y = x - (x - y)."""
    starts, closed, rows = table
    rows = list(rows)
    for i in _lone_rows(starts):
        w, s, b, lo, hi = rows[i]
        x = starts[i]
        y = (s * (x[0] - b[0]), s * (x[1] - b[1]))
        rows[i] = (w, 1, (x[0] - y[0], x[1] - y[1]), lo, hi)
    return tuple(starts), tuple(closed), tuple(rows)


def test_doubled_table_matches_level_growth():
    rng = random.Random(20078)
    named = [golden_iet(), silver_iet(), silver_iet((False, True, False)), flipped_4iet()]
    # each random exchange's tables to depth 32 and every named exchange's
    # to the largest block, 256; a depth that is no power of two is refused
    cases = [(T, CodingConfig.natural(T), (1, 2, 4, 8, 16, 64, 256)) for T in named]
    for case in range(21):
        k = 1 + case % 7
        d = (0, 2, 5)[case // 7]
        T = random_exchange(rng, k, d, flip_p=0.5)
        for cfg in (CodingConfig.natural(T), scattered_config(rng, d, "xyz"[:2 + k % 2], T)):
            cases.append((T, cfg, (1, 2, 4, 8, 16, 32)))
    flipped = path_signs = 0
    for T, cfg, ms in cases:
        flipped += any(T.flips)
        walk = iet._Cylinders(T.kernel, cfg.encoded, cfg.piece_letters)
        for m in ms:
            grown = _table_reference(walk, m)
            assert walk.table(m) == _in_s1_form(grown), (T, cfg, m)
            # the grown s of a point is the parity of its flips since its
            # peel, which no composition of the rows' maps reproduces
            path_signs += any(grown[2][i][1] < 0 for i in _lone_rows(grown[0]))
        for m in (0, 3, 5, 6, 12, 20):
            with pytest.raises(ValueError, match="not a power of two"):
                walk.table(m)
        assert len(walk.tree) == 1 and set(walk.tables) == set(ms), (T, cfg)
    assert flipped and path_signs


def test_limits_never_land_on_a_lone_point():
    # a row start takes the row for side +1 and the row before for side
    # -1, so the s of a row of one point never reaches a one-sided walk
    rng = random.Random(20079)
    lone = walked = 0
    for case in range(12):
        k = 2 + case % 6
        d = (0, 2, 5)[case % 3]
        T = random_exchange(rng, k, d, flip_p=0.5)
        for cfg in (CodingConfig.natural(T), scattered_config(rng, d, "xyz"[:2 + k % 2], T)):
            walk = iet._Cylinders(T.kernel, cfg.encoded, cfg.piece_letters)
            for m in (1, 4, 16, 64):
                starts, closed, rows = walk.table(m)
                points = _lone_rows(starts)
                for i in points:
                    # no limit comes from below 0
                    for side in (1, -1) if i else (1,):
                        r = iet._row_count(starts, closed, walk.kernel.d, starts[i], side,
                                           0, len(rows)) - 1
                        assert r == i + side and r not in points, (T, cfg, m, i, side)
                lone += len(points)
                if points and m == 16:
                    # and the one-sided codings from such a point are the step walk's
                    x0 = walk.kernel.decode(starts[rng.choice(points)])
                    n = _least_steps(m, len(cfg.pieces))
                    assert essential_codings(T, cfg, x0, n) == \
                        ref.essential_codings(T, cfg, x0, n), (T, cfg, x0)
                    walked += 1
    assert lone and walked, (lone, walked)


def test_codings_at_the_largest_block_match_step_reference(monkeypatch):
    # a flipped and a scattered coding walked 256 letters a block, where
    # the rule would need 10^6 letters to choose that block
    assert iet._block_size(1, 10 ** 12) == 256
    monkeypatch.setattr(iet, "_block_size", lambda cost, steps: 256)
    rng = random.Random(20080)
    flipped = build_iet([rational(1, 4), rational(1, 2), rational(1, 4)], (2, 3, 1),
                        (False, True, True))
    cases = [(flipped, CodingConfig.natural(flipped)),
             (silver_iet(), scattered_config(rng, 2, "xyz", silver_iet()))]
    for T, cfg in cases:
        for x0 in (rational(2202, 9973), cfg.cuts[1]):
            n = 3 * 256 + 17
            assert coding_with_sets(T, cfg, x0, n) == ref.coding(T, cfg, x0, n), (T, cfg, x0)
            assert essential_codings(T, cfg, x0, n) == \
                ref.essential_codings(T, cfg, x0, n), (T, cfg, x0)


def _block_size_reference(cost, steps):
    """The m**3 rule, which _block_size keeps up to m = 4: the largest
    power of two m up to 64 with m**3 * cost <= steps."""
    m = 1
    while m < 64 and (2 * m) ** 3 * cost <= steps:
        m *= 2
    return m


def test_block_size_thresholds():
    for cost in (1, 2, 3, 4, 6, 14):
        m = 2
        while m <= 256:
            least = _least_steps(m, cost)
            assert iet._block_size(cost, least - 1) == m // 2, (cost, m)
            assert iet._block_size(cost, least) == m, (cost, m)
            m *= 2
        assert iet._block_size(cost, 10 ** 9) == 256
        # both rules are steps, so checking at and below every threshold
        # of each covers every steps
        ends = {0, 1}
        for r in range(1, 10):
            m = 2 ** r
            ends.update((_least_steps(m, cost), m ** 3 * cost))
        for steps in ends:
            for n in (steps - 1, steps):
                assert iet._block_size(cost, n) >= _block_size_reference(cost, n), (cost, n)
        # the rule is the m**3 rule up to 4 letters a block
        assert all(iet._block_size(cost, n) == _block_size_reference(cost, n)
                   for n in range(64 * cost + 1))


# ------------------------- block regularity walk versus the reference

def _natural_table(E, m):
    """E's depth-m cylinder table, as the regularity walk builds it."""
    k = E.kernel
    return iet._Cylinders(k, (k.d, k.D, k.left), " " * E.k).table(m)


def test_block_regularity_matches_step_walk():
    rng = random.Random(20231)
    # 512 = 8**2 * 4 * 2 is the least depth that walks 8 steps a block
    depths = (1, 2, 5, 8, 40, 300, 511, 512, 1000)
    assert {iet._block_size(2, depth) for depth in depths} == {1, 2, 4, 8}
    late = {"regular": 0, "idoc": 0}
    flipped = own_start = 0
    for case in range(126):
        k = 1 + case % 7
        d = (0, 2, 5)[case // 7 % 3]
        flip_p = (0, 0.3, 0.7)[case // 21 % 3]
        T = random_exchange(rng, k, d, flip_p)
        flipped += any(T.flips)
        steps = set()
        for depth in depths:
            # each check's block size, from the steps it covers
            m = iet._block_size(2 * T.k, T.k * depth)
            rep = check_regular(T, depth)
            assert (rep.verdict, rep.witness) == ref.check_regular(T, depth), (T, depth)
            if rep.collided:
                late["regular"] += m > 1 and rep.witness[1] > 2 * m
                steps.add(rep.witness[1])
            m = iet._block_size(2 * T.k, (T.k - 1) * depth)
            rep = check_idoc(T, depth)
            assert (rep.verdict, rep.witness) == ref.check_idoc(T, depth), (T, depth)
            if rep.collided:
                (i, n), (j, _) = rep.witness
                late["idoc"] += m > 1 and n > 2 * m
                own_start += i == j
                steps.add(n)
        # one step short of a collision, where a block must not overshoot
        for depth in sorted(steps - {1}):
            for check, reference in ((check_regular, ref.check_regular),
                                     (check_idoc, ref.check_idoc)):
                rep = check(T, depth - 1)
                assert (rep.verdict, rep.witness) == reference(T, depth - 1), (T, depth)
    # the corpus reaches flips, collisions met past the first blocks,
    # and a backward orbit returning to its own start
    assert flipped and all(late.values()) and own_start, (flipped, late, own_start)


def test_row_starts_hold_every_point_near_a_cut():
    # if one of p, E(p), .., E^(m-1)(p) is a left end of E, p starts a row
    rng = random.Random(20232)
    checked = 0
    for case in range(12):
        k = 2 + case % 4
        d = (0, 2, 5)[case % 3]
        T = random_exchange(rng, k, d, flip_p=0.5 if case % 2 else 0)
        for E in (T, T.inverse):
            kernel, back = E.kernel, E.inverse.kernel
            ends = set(kernel.left[:-1])
            for m in (2, 4, 8):
                starts = set(_natural_table(E, m)[0])
                points = []
                # preimages E^-r(c), r < m, of every left end c
                for c in ends:
                    p = c
                    for _ in range(m):
                        points.append(p)
                        p = back.step(p)
                # and random points of [0,1) over the kernel's denominator
                while len(points) < len(ends) * m + 20:
                    p = (rng.randrange(kernel.D), rng.randrange(-kernel.D, kernel.D) if d else 0)
                    if quadratic_sign(*p, kernel.d) >= 0 and \
                            quadratic_sign(p[0] - kernel.D, p[1], kernel.d) < 0:
                        points.append(p)
                for p in points:
                    q, near = p, False
                    for _ in range(m):
                        near = near or q in ends
                        q = kernel.step(q)
                    if near:
                        assert p in starts, (E, m, p)
                        checked += 1
    assert checked


def test_regularity_walk_steps_singly_only_near_cuts(monkeypatch):
    counts = {"step": 0, "table": 0}
    step, table = iet._IntOrbit.step, iet._Cylinders.table

    def counted(name, f):
        def wrapper(*args):
            counts[name] += 1
            return f(*args)
        return wrapper

    monkeypatch.setattr(iet._IntOrbit, "step", counted("step", step))
    monkeypatch.setattr(iet._Cylinders, "table", counted("table", table))
    T = silver_iet()
    for check in (check_regular, check_idoc):
        counts.update(step=0, table=0)
        assert check(T, 1000).verdict == "no-collision-up-to-depth"
        # 3 000 and 2 000 steps covered; the table is fetched once a call
        assert counts["step"] <= 100 and counts["table"] == 1, (check, counts)
    # an exchange that collides within m steps never builds a table,
    # also at depth 1000, where m = 8 (check_regular) and 4 (check_idoc)
    rotation = build_iet([rational(1, 2), rational(1, 2)], (2, 1))
    for check in (check_regular, check_idoc):
        for depth in (10, 1000):
            counts.update(step=0, table=0)
            assert check(rotation, depth).collided and counts["table"] == 0


def test_regularity_walks_keep_one_tree_level():
    """The regularity checks read only their walks' tables, so every walk
    they leave on T and on T.inverse holds the first tree level alone,
    and tables equal to a fresh walk's."""
    built = 0
    for S in (golden_iet(), silver_iet(), flipped_4iet()):
        T = _fresh(S)
        check_regular(T, 1000)
        check_idoc(T, 1000)
        for E in (T, T.inverse):
            for key, walk in E._walks.items():
                fresh = iet._Cylinders(E.kernel, *key)
                assert len(walk.tree) == 1, (S, E is T, key)
                assert walk.tables == {m: fresh.table(m) for m in walk.tables}, (S, E is T)
                built += len(walk.tables)
    assert built >= 6, built


def test_codings_and_regularity_reports_are_pinned():
    # taken when every block bisected the whole table and every step
    # searched every interval end: narrowing the searches changes no byte
    def digest(word):
        return hashlib.sha256(word.encode()).hexdigest()

    x0 = rational(2202, 9973)
    # 10^6 letters of 3 pieces run at m = 256, 10^5 at m = 64
    assert digest(natural_coding(silver_iet(), x0, 10 ** 6)) == \
        "76fdb29c29c5d6f8ccf013c559a3eec3ca32c8e834ace3789a25533f2f16467f"
    assert digest(natural_coding(silver_iet((False, True, False)), x0, 10 ** 5)) == \
        "67abbaf6c94c2e3a23e7943b3daf145c91e00c17f3268771ab6ffe2f786d72f9"
    rng = random.Random(2026)
    reports = []
    for k in (2, 3, 4, 5, 6, 7, 4, 5):
        T = random_exact_iet(rng, k)
        reports.append((T.permutation, *((r.verdict, r.witness) for r in
                                          (check_regular(T, 1000), check_idoc(T, 1000)))))
    free = ("no-collision-up-to-depth", None)
    assert reports == [
        ((2, 1), free, free),
        ((2, 3, 1), ("collision", (1, 28, 3)), ("collision", ((3, 29), (2, 0)))),
        ((4, 2, 3, 1), free, free),
        ((5, 4, 2, 3, 1), free, free),
        ((4, 6, 3, 5, 1, 2), free, free),
        ((7, 5, 4, 1, 6, 3, 2), free, free),
        ((4, 3, 2, 1), ("collision", (2, 17, 3)), ("collision", ((3, 17), (2, 0)))),
        ((3, 5, 1, 4, 2), free, free),
    ]


def test_coding_edge_cases():
    T = golden_iet()
    cfg = CodingConfig.natural(T)
    # repeated letters are coded, not refused
    assert natural_coding(T, rational(1, 7), 6, "aa") == "aaaaaa"
    assert natural_coding(T, rational(1, 7), 200, "aab") == "a" * 200
    with pytest.raises(ValueError, match="need 2 letters"):
        natural_coding(T, ZERO, 4, "a")
    for code in (lambda x0, n: natural_coding(T, x0, n),
                 lambda x0, n: coding_with_sets(T, cfg, x0, n)):
        assert code(rational(1, 3), 0) == ""
        with pytest.raises(ValueError, match="length must be >= 0"):
            code(ONE, -1)
        for n in (0, 5):
            for x0 in (ONE, rational(-1, 2), GOLDEN_ALPHA + 1):
                with pytest.raises(DomainError):
                    code(x0, n)
            with pytest.raises(MixedRadicalError):
                code(SQRT2 - 1, n)
