"""The three workloads, built as plans from a seed.

A plan is plain JSON: the exchanges, the input files to write, and the
operations of one cycle in the order a single client issues them. Each
operation names the end-to-end metric its time counts towards and the
answer it is checked against; `hard` answers are exact facts whose
failure makes the run incorrect, the others are verdicts the program
may get wrong and that are counted as mismatches.

The random exchanges, the start points of every word that goes through
`reconstruct` and the near-miss positions come from fixed streams, not
from --seed: their costs differ tenfold from one draw to the next (the
reconstruct roundtrip ranges from 0.04 s to 0.8 s, a near-miss's label
search from 0.05 s to 1.5 s) and the roundtrip quality from 1 to 500
letters, so drawing them per seed spread times and ratios by a third or
more across seeds. The seed picks what does not change the cost: the
long coding's start point, the other start points, sample points and
the substitution-word offsets.
"""
from __future__ import annotations

import random
from fractions import Fraction

import inputs as I

EXCHANGE_STREAM = 7112374   # fixed once; the arXiv number of the source paper
WORD_STREAM = EXCHANGE_STREAM + 1
REGULAR_DEPTH = 1000
WINDOW_MAX = 21             # validate's default window [1,20] reads factors to 21
TOP_LEVELS = range(11, WINDOW_MAX + 1)   # read at every K up to the cap of 10


def stream_exchanges():
    """k = 4, 5, 5, 6, 6, each collision-free both ways to REGULAR_DEPTH."""
    rng = random.Random(EXCHANGE_STREAM)
    out = []
    for j, k in enumerate((4, 5, 5, 6, 6)):
        while True:
            T = I.random_exchange(rng, k, f"random{j}k{k}")
            if not (I.forward_collision(T, REGULAR_DEPTH)
                    or I.backward_collision(T, REGULAR_DEPTH)):
                out.append(T)
                break
    return out


def _x0(rng):
    return (Fraction(rng.randrange(1, 9973), 9973), Fraction(0))


def _full_coding(T, rng, n):
    """A start point whose n-letter coding shows every factor up to WINDOW_MAX.

    Only then are the extension sets exact and the known answers below
    hold for the prefix as they do for the infinite word.
    """
    for _ in range(100):
        x0 = _x0(rng)
        word = I.coding(T, x0, n)
        if I.full_complexity(word, T.k, WINDOW_MAX):
            return x0, word
    raise RuntimeError(f"no start point of {T.name} shows its full language")


class Plan:
    def __init__(self, name: str):
        self.name = name
        self.exchanges = {}
        self.files = {}
        self.ops = []

    def exchange(self, T):
        self.exchanges[T.name] = {
            "d": T.d, "perm": list(T.perm), "flips": list(T.flips),
            "lengths": [[str(r), str(c)] for r, c in T.lengths]}
        return T.name

    def op(self, kind: str, metric: str, **fields):
        self.ops.append({"id": len(self.ops), "kind": kind, "metric": metric,
                         **fields})

    # ------------------------------------------------------- CLI ops

    def gen(self, T, x0, word, name):
        """`gen` from a config file; its output must equal `word` exactly."""
        self.exchange(T)
        cfg = f"{name}.cfg"
        self.files[cfg] = T.config_text()
        self.files[f"{name}.txt"] = word + "\n"
        self.op("gen", "gen_s", hard=True, expect_file=f"{name}.txt",
                argv=["gen", cfg, "-n", str(len(word)), "--x0",
                      I.literal(x0, T.d), "-o", f"gen-{name}.out"])

    def validate(self, word_file, oriented, expect, hard=False):
        argv = ["validate", word_file]
        if oriented:
            argv.append("--oriented")
        self.op("validate", "validate_s", expect=expect, hard=hard,
                argv=argv + ["-o", f"validate-{len(self.ops)}.out"])

    def fz_search(self, word_file, expect, extra=()):
        self.op("fz", "fz_s", expect=expect, hard=True,
                argv=["fz", word_file, "--search", *extra,
                      "-o", f"fz-{len(self.ops)}.out"])

    def fz_orders(self, word_file, T):
        p0, p1 = T.true_orders()
        self.op("fz", "fz_s", expect="pass", hard=True,
                argv=["fz", word_file, "--orders", p0, p1,
                      "-o", f"fz-{len(self.ops)}.out"])

    def reconstruct(self, word_file, T):
        n = len(self.ops)
        argv = ["reconstruct", word_file, "--out-config", f"cand-{n}.cfg",
                "--out-report", f"cand-{n}.csv"]
        if not any(T.flips):
            argv.append("--oriented")
        self.op("reconstruct", "reconstruct_s", hard=False, argv=argv,
                expect={"perm": list(T.perm), "flips": list(T.flips)})

    # --------------------------------------------------- library ops

    def dynamics(self, T, rng, depth, steps, cyl_depth, points):
        """Regularity, essential codings, cylinder tiling and point maps."""
        name = self.exchange(T)
        for which, collides in (("regular", I.forward_collision(T, depth)),
                                ("idoc", I.backward_collision(T, depth))):
            self.op("regularity", "regularity_s", hard=True, exchange=name,
                    which=which, depth=depth, expect=collides)
        for i in range(1, T.k):
            self.op("essential", "essential_s", hard=True, exchange=name,
                    point=i, steps=steps)
        self.op("cylinder", "cylinder_s", hard=True, exchange=name,
                depth=cyl_depth)
        pts = I.interior_points(T, rng, points)
        self.op("pointmap", "pointmap_s", hard=True, exchange=name,
                points=[[str(r), str(c)] for r, c in pts])

    def as_json(self):
        return {"workload": self.name, "exchanges": self.exchanges,
                "files": self.files, "ops": self.ops}


def long_coding(seed: int) -> Plan:
    """gen -> validate --oriented -> fz --search -> reconstruct --oriented
    at CLI defaults on 10^6 letters of the silver 3-IET."""
    rng = random.Random(seed)
    p = Plan("long-coding")
    T = I.silver()
    x0 = _x0(rng)

    def dynamics():
        # the exchange's own dynamics after each stage, so that their
        # short times are sampled four times a cycle
        p.dynamics(T, rng, REGULAR_DEPTH, 500, 4, 750)

    p.gen(T, x0, I.coding(T, x0, 1_000_000), "silver")
    dynamics()
    p.validate("silver.txt", True, "accepted", hard=True)
    dynamics()
    p.fz_search("silver.txt", "includes:" + ",".join(T.true_orders()))
    dynamics()
    p.reconstruct("silver.txt", T)
    dynamics()
    return p


def admissibility(seed: int) -> Plan:
    """Short words, accepted and rejected, through validate, fz and
    reconstruct; the Rauzy label search and the order search dominate."""
    rng, fixed = random.Random(seed), random.Random(WORD_STREAM)
    p = Plan("admissibility")
    n = 10_000
    genuine = []
    for T in stream_exchanges() + [I.flipped4()]:
        if any(T.flips):
            # flips change the complexity law, so there is no full-language test
            x0 = _x0(fixed)
            word = I.coding(T, x0, n)
        else:
            x0, word = _full_coding(T, fixed, n)
        p.gen(T, x0, word, T.name)
        genuine.append((T, word))
    tm_at, trib_at = rng.randrange(1 << 14), rng.randrange(n)
    p.files["thue-morse.txt"] = I.thue_morse(tm_at + n)[tm_at:] + "\n"
    p.files["tribonacci.txt"] = I.tribonacci(trib_at + n)[trib_at:] + "\n"
    near = []
    for T, word in genuine[:2]:
        name = f"near-{T.name}"
        p.files[f"{name}.txt"] = I.near_miss(word, fixed, T.k, TOP_LEVELS) + "\n"
        near.append((name, T.k))

    for T, _ in genuine:
        f = f"{T.name}.txt"
        if any(T.flips):
            p.validate(f, False, "accepted-marked")
            p.validate(f, True, "not-accepted")
            p.fz_search(f, None, extra=("--max-len", "8"))
        else:
            p.validate(f, False, "accepted")
            p.validate(f, True, "accepted")
            if T.k <= 5:
                p.fz_search(f, "includes:" + ",".join(T.true_orders()),
                            extra=("--max-len", "8"))
            else:
                p.fz_orders(f, T)
        p.reconstruct(f, T)
    for f, kind in (("thue-morse.txt", "strong-bispecial"),
                    ("tribonacci.txt", "valence")):
        for oriented in (False, True):
            p.validate(f, oriented, f"rejected:{kind}", hard=True)
    p.fz_search("thue-morse.txt", "none", extra=("--max-len", "8"))
    p.fz_search("tribonacci.txt", None, extra=("--max-len", "8"))
    for name, k in near:
        # the complexity bound holds for flip-free exchanges only
        p.validate(f"{name}.txt", False, None)
        p.validate(f"{name}.txt", True, "rejected")
        p.fz_search(f"{name}.txt", None, extra=("--max-len", "8"))

    for T, _ in genuine:
        p.dynamics(T, rng, 100, 50, 2, 50)
    return p


def exact_dynamics(seed: int) -> Plan:
    """Q(sqrt d) orbits, one-sided codings, cylinders and point maps, with
    no factor index at all; then short codings of the same exchanges."""
    rng = random.Random(seed)
    p = Plan("exact-dynamics")
    rand = stream_exchanges()
    exchanges = [I.golden(), I.silver(), I.flipped4(), rand[0], rand[1],
                 rand[3], I.rational_rotation()]
    n = 10_000
    fixed = random.Random(WORD_STREAM)
    for j, T in enumerate(exchanges):
        x0 = _x0(fixed if j < 2 else rng)
        p.gen(T, x0, I.coding(T, x0, n), T.name)
    for j, T in enumerate(exchanges):
        p.dynamics(T, rng, REGULAR_DEPTH, 500, 4, 300)
        # the golden and silver codings' CLI operations take tens of
        # milliseconds, so they run after every other exchange, four
        # times a cycle, to be timed steadily
        if j % 2 == 0:
            for G in exchanges[:2]:
                f = f"{G.name}.txt"
                p.validate(f, True, "accepted", hard=True)
                p.fz_search(f, "includes:" + ",".join(G.true_orders()),
                            extra=("--max-len", "8"))
                p.reconstruct(f, G)
    return p


WORKLOADS = {
    "long-coding": long_coding,
    "admissibility": admissibility,
    "exact-dynamics": exact_dynamics,
}
