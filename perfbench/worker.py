"""One run of one workload, in a fresh interpreter: one client, closed loop.

    python3 worker.py PLAN.json RESULT.json SECONDS TRACE

The working directory holds the plan's input files. The plan's
operations run one at a time, cycling until SECONDS have passed (at
least one whole cycle). With TRACE=1 one untraced cycle runs first, then
the layers are wrapped in spans and whole traced cycles (at least one)
fill the rest of SECONDS; the spans are written next to RESULT.json.
"""
from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import statistics
import sys
import time
from fractions import Fraction

import checks
import inputs as I
import tracer as tr
from speed import Sampler
from ietword import cli, iet
from ietword.exact import ExactScalar

OUTPUT_FLAGS = ("-o", "--out-config", "--out-report")


def _read(path):
    try:
        with open(path, encoding="ascii") as fh:
            return fh.read()
    except OSError:
        return None


def _pair(x: ExactScalar):
    return (x.rat, x.coef)


class Op:
    """One planned operation: a call into the program and its check."""

    def __init__(self, spec, exchanges, programs):
        self.spec = spec
        self.metric = spec["metric"]
        self.hard = spec["hard"]
        self.expects = spec.get("expect") is not None or spec["kind"] in (
            "gen", "regularity", "cylinder", "pointmap", "essential")
        self.outputs = []
        self.inputs = []
        if "argv" in spec:
            argv = spec["argv"]
            self.inputs = [argv[1]]
            self.outputs = [argv[i + 1] for i, a in enumerate(argv)
                            if a in OUTPUT_FLAGS]
            self.call, self.check = self._cli(spec)
        else:
            T = exchanges[spec["exchange"]]
            P = programs[spec["exchange"]]
            self.call, self.check = getattr(self, "_" + spec["kind"])(spec, T, P)

    # ------------------------------------------------------------ CLI

    def _cli(self, spec):
        argv = spec["argv"]
        kind = spec["kind"]

        def call():
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                rc = cli.main(list(argv))
            return rc, out.getvalue()

        def check(result):
            rc, stdout = result
            files = [_read(f) for f in self.outputs]
            if kind == "gen":
                return checks.check_gen(rc, files[0], _read(spec["expect_file"]))
            if kind == "validate":
                return checks.check_validate(rc, files[0], spec["expect"])
            if kind == "fz":
                return checks.check_fz(rc, files[0], spec["expect"])
            return checks.check_reconstruct(rc, stdout, files[0], files[1],
                                            spec["expect"])
        return call, check

    # -------------------------------------------------------- library

    def _regularity(self, spec, T, P):
        depth, expect = spec["depth"], spec["expect"]
        if spec["which"] == "regular":
            call = lambda: iet.check_regular(P, depth)      # noqa: E731
        else:
            call = lambda: iet.check_idoc(P, depth)         # noqa: E731
        return call, lambda rep: checks.check_regularity(rep.collided, expect)

    def _essential(self, spec, T, P):
        st = I.Stepper(T)
        a = st.dec(st.left[spec["point"]])
        x0 = ExactScalar(a[0], a[1], T.d)
        n = spec["steps"]
        config = iet.CodingConfig.natural(P)
        natural = None if any(T.flips) else I.coding(T, a, n)
        return (lambda: iet.essential_codings(P, config, x0, n),
                lambda words: checks.check_essential(words, n, I.LETTERS[:T.k],
                                                     natural))

    def _cylinder(self, spec, T, P):
        config = iet.CodingConfig.natural(P)
        levels = [list(I.all_words(T.k, n)) for n in range(1, spec["depth"] + 1)]

        def call():
            return [[iet.cylinder(P, config, w) for w in words] for words in levels]

        def check(result):
            sums = []
            for level in result:
                rat, coef = Fraction(0), Fraction(0)
                for intervals in level:
                    for iv in intervals:
                        rat += iv.hi.rat - iv.lo.rat
                        coef += iv.hi.coef - iv.lo.coef
                sums.append((rat, coef))
            return checks.check_tiling(sums)
        return call, check

    def _pointmap(self, spec, T, P):
        pts = [(Fraction(r), Fraction(c)) for r, c in spec["points"]]
        st = I.Stepper(T, pts)
        expected = [(st.dec(st.step(st.enc(x))), x) for x in pts]
        xs = [ExactScalar(r, c, T.d) for r, c in pts]

        def call():
            out = []
            for x in xs:
                y = iet.apply(P, x)
                out.append((y, iet.apply_inverse(P, y)))
            return out
        return call, lambda res: checks.check_pointmap(
            [(_pair(y), _pair(z)) for y, z in res], expected)


def build(plan):
    exchanges, programs = {}, {}
    for name, e in plan["exchanges"].items():
        lengths = tuple((Fraction(r), Fraction(c)) for r, c in e["lengths"])
        T = I.Exchange(name, lengths, e["d"], tuple(e["perm"]), tuple(e["flips"]))
        exchanges[name] = T
        programs[name] = iet.build_iet([ExactScalar(r, c, T.d) for r, c in lengths],
                                       T.perm, T.flips)
    return [Op(spec, exchanges, programs) for spec in plan["ops"]]


def run_op(op, sampler, tracer=None):
    """Execute one operation; (seconds, speed, outcome)."""
    for f in op.outputs:
        with contextlib.suppress(FileNotFoundError):
            os.remove(f)
    gc.collect()
    call = op.call
    if tracer is not None:
        call = tracer.wrap("op." + op.spec["kind"], call)
    seconds, speed, outcome = checks.execute(call, op.check, sampler.measure)
    if tracer is not None and op.inputs:
        tracer.count("cli.bytes_read", sum(os.path.getsize(f) for f in op.inputs))
        tracer.count("cli.bytes_written", sum(
            os.path.getsize(f) for f in op.outputs if os.path.exists(f)))
    return seconds, speed, outcome


def run_cycles(ops, seconds, tracer=None, whole=False):
    """Cycle through the operations, one at a time, for `seconds`.

    The first cycle always completes; after it the loop stops at the
    first operation boundary past the deadline, or at the first cycle
    boundary when `whole`. Returns every (op, seconds, outcome, speed)
    and the wall time of each completed cycle.
    """
    done, walls = [], []
    sampler = Sampler()
    start = cycle_start = time.perf_counter()
    i = 0
    while True:
        op = ops[i % len(ops)]
        s, speed, outcome = run_op(op, sampler, tracer)
        done.append((op, s, outcome, speed))
        i += 1
        if i % len(ops) == 0:
            now = time.perf_counter()
            walls.append(now - cycle_start)
            cycle_start = now
        if i >= len(ops) and time.perf_counter() - start >= seconds and (
                not whole or i % len(ops) == 0):
            return done, walls


def summarize(done):
    """Per metric, the sum over its operations of each one's median
    calibrated time, seconds over speed (one cycle's worth), and the same
    for the raw seconds. Checks and roundtrip letters are tallied over one
    cycle, failures over every execution; an operation whose outcome
    changes between executions has failed."""
    samples, first = {}, {}
    tally = {"attempted": 0, "failed": 0, "checks": 0, "mismatches": 0,
             "hard_mismatches": 0, "matched": 0, "letters": 0, "notes": []}

    def note(op, text):
        line = f"{op.spec['kind']} #{op.spec['id']}: {text}"
        if line not in tally["notes"]:
            tally["notes"].append(line)

    for op, s, out, speed in done:
        samples.setdefault(op, []).append((s / speed, s))
        tally["attempted"] += 1
        key = (out.failed, out.mismatch, out.matched, out.attempted)
        if op in first:
            if key != first[op] and not out.failed:
                out.failed = True
                out.note = "outcome differs from the operation's first run"
        else:
            first[op] = key
            tally["checks"] += op.expects
            tally["mismatches"] += out.mismatch
            tally["hard_mismatches"] += out.mismatch and op.hard
            tally["matched"] += out.matched
            tally["letters"] += out.attempted
        tally["failed"] += out.failed
        if out.failed or out.mismatch:
            note(op, out.note)
    times, raw, ops = {}, {}, []
    for op, ss in samples.items():
        cal = statistics.median(c for c, _ in ss)
        wall = statistics.median(w for _, w in ss)
        times[op.metric] = times.get(op.metric, 0.0) + cal
        raw[op.metric] = raw.get(op.metric, 0.0) + wall
        ops.append([op.spec["id"], op.spec["kind"], cal, wall, len(ss)])
    return times, raw, tally, ops


def main(argv):
    plan_path, result_path = argv[1], argv[2]
    seconds, trace = float(argv[3]), argv[4] == "1"
    with open(plan_path) as fh:
        ops = build(json.load(fh))
    result = {}
    if not trace:
        done, walls = run_cycles(ops, seconds)
    else:
        t0 = time.perf_counter()
        untraced, _ = run_cycles(ops, 0)
        tracer = tr.Tracer()
        tr.install(tracer)
        done, walls = run_cycles(ops, seconds - (time.perf_counter() - t0),
                                 tracer, whole=True)
        n = len(ops)
        cycles = [sum(s / speed for _, s, _, speed in done[i:i + n])
                  for i in range(0, len(done), n)]
        overhead = statistics.median(cycles) - sum(
            s / speed for _, s, _, speed in untraced)
        result["layers"] = tr.layer_metrics(tracer, len(walls), overhead)
        span_s = {}
        for sp in tracer.spans:
            span_s[sp[2]] = span_s.get(sp[2], 0.0) + sp[4] - sp[3]
        cli_ops = sum(v for k, v in span_s.items()
                      if k in ("op.gen", "op.validate", "op.fz", "op.reconstruct"))
        result["cli_accounted"] = span_s["cli.main"] / cli_ops
        tracer.dump(os.path.splitext(result_path)[0] + ".spans.jsonl")
    result["times"], result["raw"], result["tally"], result["ops"] = summarize(done)
    result["executions"], result["cycles"] = len(done), len(walls)
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
