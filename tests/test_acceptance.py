"""Top-level acceptance gates.

Each test covers one numbered criterion and prints a single
"criterion N: PASS/FAIL" line with the measured quantities.  The lines
bypass pytest's capture so they show up in any run.
"""
import math
import random
import time
from fractions import Fraction
from functools import lru_cache

from ietword.exact import (
    ONE,
    ZERO,
    make_quadratic,
    rational,
)
from ietword.iet import (
    CodingConfig,
    apply,
    apply_inverse,
    build_iet,
    check_regular,
    cylinder,
    natural_coding,
)
from ietword.orders import OrderPair, check_orders, search_orders
from ietword.rauzy import build_k_graph, strongly_connected, \
    validate_evolution
from ietword.reconstruct import reconstruct_iet, verify_roundtrip
from ietword.words import FactorSet, complexity

from wordgen import (
    mechanical_word,
    random_exact_iet,
    substitution_word,
    thue_morse_word,
    tribonacci_word,
)
from test_words import balance_witness

GOLDEN_ALPHA = make_quadratic(-1, 2, 1, 2, 5)


def gate(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    with capsys.disabled():
        print(f"\n{line}", flush=True)
    assert ok, line


def as_float(x) -> float:
    """A float near the exact scalar x, for the printed errors and their
    loose bounds."""
    return float(x.rat) + float(x.coef) * math.sqrt(x.d)


@lru_cache(maxsize=None)
def mech_word_10k() -> str:
    return mechanical_word(GOLDEN_ALPHA, ZERO, GOLDEN_ALPHA, 10_000)


def silver_iet():
    s = make_quadratic(-1, 1, 1, 1, 2)
    return build_iet(
        [s, s, rational(3) - make_quadratic(0, 1, 2, 1, 2)], [3, 2, 1])


@lru_cache(maxsize=None)
def silver_word_20k() -> str:
    return natural_coding(silver_iet(), ZERO, 20_000)


def flipped_iet():
    lengths = [
        make_quadratic(660, 2066, -63, 2066, 2),
        make_quadratic(404, 2066, -1, 2066, 2),
        make_quadratic(516, 2066, 101, 2066, 2),
        make_quadratic(486, 2066, -37, 2066, 2),
    ]
    return build_iet(lengths, [3, 4, 2, 1], [False, True, False, False])


@lru_cache(maxsize=None)
def corpus():
    """Ten regular exact IETs (k cycling 2,3,4) with their codings and
    oriented validator reports."""
    rng = random.Random(20260823)
    out = []
    tried = 0
    while len(out) < 10:
        k = [2, 3, 4][tried % 3]
        tried += 1
        T = random_exact_iet(rng, k)
        if check_regular(T, 2000).collided:
            continue
        word = natural_coding(T, ZERO, 20_000)
        report = validate_evolution(FactorSet(word, 13), 1, 12, oriented=True)
        out.append((T, word, report))
    return tuple(out)


# ---------------------------------------------------------------- gates

def test_criterion_1_sturmian_complexity(capsys):
    t0 = time.perf_counter()
    word = mech_word_10k()
    fs = FactorSet(word, 201)
    bad = [n for n in range(1, 201) if complexity(fs, n) != n + 1]
    witness = balance_witness(fs, 100, "a")
    balanced = witness is None
    elapsed = time.perf_counter() - t0
    note = "" if balanced else f" (violated by {witness})"
    gate(capsys, 1, not bad and balanced and elapsed < 5.0,
         f"T(n)=n+1 for n=1..200, balanced to 100{note}, "
         f"{elapsed:.1f}s of 5s")


def test_criterion_2_iet_complexity_law(capsys):
    t0 = time.perf_counter()
    T = silver_iet()
    reg = check_regular(T, 2000)
    word = silver_word_20k()
    fs = FactorSet(word, 61)
    bad = [n for n in range(1, 61) if complexity(fs, n) != 2 * n + 1]
    elapsed = time.perf_counter() - t0
    gate(capsys, 2, not reg.collided and not bad and elapsed < 30.0,
         f"no collision to depth 2000, T(n)=2n+1 for n=1..60, "
         f"{elapsed:.1f}s of 30s")


def test_criterion_3_validator_necessity(capsys):
    r1 = validate_evolution(FactorSet(mech_word_10k(), 21), 1, 20,
                            oriented=True)
    r2 = validate_evolution(FactorSet(silver_word_20k(), 21), 1, 20,
                            oriented=True)
    direct = r1.accepted and r1.K <= 3 and r2.accepted and r2.K <= 3

    flipped = natural_coding(flipped_iet(), ZERO, 20_000)
    fs = FactorSet(flipped, 13)
    f_free = validate_evolution(fs, 1, 12, oriented=False)
    f_oriented = validate_evolution(fs, 1, 12, oriented=True)
    flip_ok = (f_free.accepted and any(f_free.marks.values())
               and not f_oriented.accepted)

    ks = sorted(report.K for _, _, report in corpus())
    corpus_ok = all(report.accepted for _, _, report in corpus())
    gate(capsys, 3, direct and flip_ok and corpus_ok,
         f"oriented K={r1.K},{r2.K}; flipped non-oriented K={f_free.K} "
         f"with marks, oriented {f_oriented.verdict}; corpus 10/10 "
         f"accepted, K={ks}")


def test_criterion_4_rejection_witnesses(capsys):
    trib = tribonacci_word(10_000)
    fs_t = FactorSet(trib, 21)
    rt = validate_evolution(fs_t, 1, 20)
    w = rt.witness
    trib_ok = (rt.verdict == "rejected" and w.kind == "valence")
    if trib_ok:
        # independent re-check: the witness factor really has >= 3
        # one-sided extensions in the factor index
        v = w.factors[0]
        left = {f[0] for f in fs_t.counts(w.k + 1) if f[1:] == v}
        right = {f[-1] for f in fs_t.counts(w.k + 1) if f[:-1] == v}
        trib_ok = max(len(left), len(right)) >= 3

    tm = thue_morse_word(2 ** 14)
    fs_m = FactorSet(tm, 21)
    rm = validate_evolution(fs_m, 1, 20)
    u = rm.witness
    tm_ok = (rm.verdict == "rejected" and u.kind == "strong-bispecial")
    if tm_ok:
        # re-check: 2x2 bispecial whose four continuations all occur
        b = u.factors[0]
        left = {f[0] for f in fs_m.counts(u.k + 1) if f[1:] == b}
        right = {f[-1] for f in fs_m.counts(u.k + 1) if f[:-1] == b}
        quad = fs_m.counts(u.k + 2)
        tm_ok = (left == right == {"a", "b"}
                 and all(x + b + y in quad for x in "ab" for y in "ab"))
    gate(capsys, 4, trib_ok and tm_ok,
         f"Tribonacci witness '{w}', Thue-Morse witness '{u}', "
         f"both re-verified from the factor index")


def test_criterion_5_graph_invariants(capsys):
    checked = 0
    ok = True
    for word, t_of in ((mech_word_10k(), lambda n: n + 1),
                       (silver_word_20k(), lambda n: 2 * n + 1)):
        fs = FactorSet(word, 32)
        for k in range(1, 31):
            g = build_k_graph(fs, k)
            arcs = set(g.arcs)
            # the (k+1)-graph sits inside the k-graph's follower: every
            # (k+2)-factor's prefix and suffix are arcs of the k-graph
            ok = (ok and len(g.vertices) == t_of(k)
                  and len(g.arcs) == t_of(k + 1)
                  and strongly_connected(fs, k)
                  and all(w[:-1] in arcs and w[1:] in arcs
                          for w in fs.counts(k + 2)))
            checked += 1
    gate(capsys, 5, ok and checked == 60,
         "vertices=T(k), arcs=T(k+1), follower-subgraph and strong "
         f"connectivity for k=1..30 on both words ({checked} levels)")


def test_criterion_6_order_conditions(capsys):
    fib12 = substitution_word({"1": "12", "2": "1"}, "1", 4000)
    direct = check_orders(FactorSet(fib12, 22),
                          OrderPair(("1", "2"), ("2", "1")), 20)
    tm_found = search_orders(FactorSet(thue_morse_word(4000), 10), 8)
    agree = all(bool(search_orders(FactorSet(word, 8), 6)) == report.accepted
                for _, word, report in corpus())
    gate(capsys, 6, direct.passed and not tm_found and agree,
         f"Fibonacci orders pass to 20, Thue-Morse search empty, "
         f"search/validator agreement on 10 corpus instances")


def test_criterion_7_reconstruction(capsys):
    # Fibonacci word presented over {1,2}; the lambda_2 target pins the
    # long interval to the letter that sorts second
    fib = substitution_word({"2": "21", "1": "2"}, "2", 10_000)
    rep = validate_evolution(FactorSet(fib, 13), 1, 12, oriented=True)
    T, residual, letters = reconstruct_iet(FactorSet(fib, 6), rep, 6)
    lam2_err = abs(as_float(T.lengths[1]) - 0.6180)
    match, total, _, _ = verify_roundtrip(fib, T, 500, letters)
    fib_ok = T.k == 2 and lam2_err < 0.01 and match >= 400 and total == 500

    word = silver_word_20k()
    rep2 = validate_evolution(FactorSet(word, 13), 1, 12, oriented=True)
    T2, residual2, _ = reconstruct_iet(FactorSet(word, 6), rep2, 6)
    len_errs = [abs(as_float(got - truth))
                for got, truth in zip(T2.lengths, silver_iet().lengths)]
    silver_ok = max(len_errs) < 0.02 and residual2 < Fraction(1, 20)
    gate(capsys, 7, fib_ok and silver_ok,
         f"Fibonacci |lam2-0.618|={lam2_err:.1e}, roundtrip {match}/{total}; "
         f"3-IET length errors {max(len_errs):.1e}, "
         f"residual {float(residual2):.1e}")


def test_criterion_8_exactness(capsys):
    rng = random.Random(20260823)
    golden = build_iet([rational(1) - GOLDEN_ALPHA, GOLDEN_ALPHA], [2, 1])
    points = 0
    for T in (golden, silver_iet(), flipped_iet()):
        d = next((x.d for x in T.lengths if x.d), 0)
        for _ in range(1000):
            if rng.random() < 0.5 or not d:
                x = rational(rng.randrange(0, 9973), 9973)
            else:
                # quadratic point sharing the exchange's radicand
                x = make_quadratic(rng.randint(0, 3), 7, 1,
                                   rng.randint(12, 40), d)
            if x.sign() < 0 or (x - ONE).sign() >= 0:
                continue
            assert apply_inverse(T, apply(T, x)) == x
            assert apply(T, apply_inverse(T, x)) == x
            points += 1

    # cylinders of each length tile [0,1) with total length exactly one
    tiled = True
    for T, letters, depth in ((golden, "12", 8), (silver_iet(), "123", 4)):
        config = CodingConfig.natural(T)
        for n in range(1, depth + 1):
            total = ZERO
            stack = [""]
            while stack:
                w = stack.pop()
                if len(w) == n:
                    for piece in cylinder(T, config, w):
                        total = total + piece.length
                else:
                    stack.extend(w + c for c in letters)
            tiled = tiled and total == ONE

    # collision checks decide by exact comparison in both directions
    regular = not check_regular(golden, 2000).collided
    collided = check_regular(build_iet([rational(1, 3), rational(2, 3)],
                                       [2, 1]), 10).collided
    sample = apply(golden, GOLDEN_ALPHA)
    typed = (isinstance(sample.rat, Fraction)
             and isinstance(sample.coef, Fraction)
             and isinstance(sample.d, int))
    gate(capsys, 8, points >= 2500 and tiled and regular and collided and typed,
         f"{points} exact round-trip points, cylinder tilings sum to 1 "
         "exactly, collision checks exact both ways")
