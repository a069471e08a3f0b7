"""Hash the answer of every operation of the benchmark plans.

    python3 tools/plan_outputs.py

Run from the root of the checkout to be hashed. Each workload's plan is
built from seeds 1 and 2 by that checkout's perfbench/workloads.py, its
input files are written to a temporary directory, and every operation
is run once through perfbench/worker.py's `build`. One line per
operation: workload, seed, op id, kind and a sha256 prefix over the
returned value (sets sorted, so the hash does not follow string
hashing) and the bytes of every file the operation writes.

Two checkouts give the same lines when they give the same answers, so
`diff` of the outputs at two commits lists the operations whose answers
changed. Nothing is timed or checked against an expectation.
"""
from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import tempfile

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads             # noqa: E402
from worker import build     # noqa: E402


def canonical(x) -> str:
    """A text form of a returned value that does not depend on hashing.

    A value class renders as its type name, then its sorted
    {field: value}, whether it names its fields in a `_fields` class
    attribute (a plain class) or is a dataclass (older checkouts), so
    one copy of this tool hashes both kinds of checkout alike."""
    if isinstance(x, (set, frozenset)):
        return "{" + ",".join(sorted(canonical(v) for v in x)) + "}"
    if isinstance(x, dict):
        return "{" + ",".join(sorted(f"{canonical(k)}:{canonical(v)}"
                                     for k, v in x.items())) + "}"
    if isinstance(x, (list, tuple)):
        return "[" + ",".join(canonical(v) for v in x) + "]"
    fields = getattr(type(x), "_fields", None)
    if fields is None and dataclasses.is_dataclass(x) and not isinstance(x, type):
        fields = [f.name for f in dataclasses.fields(x)]
    if fields is not None:
        return type(x).__name__ + canonical({f: getattr(x, f) for f in fields})
    return repr(x)


def digest(op) -> str:
    for f in op.outputs:
        if os.path.exists(f):
            os.remove(f)
    try:
        value = op.call()
    except Exception as e:  # an operation that raises has that as its answer
        value = ("raised", type(e).__name__, str(e))
    h = hashlib.sha256(canonical(value).encode())
    for f in op.outputs:
        h.update(f"\0{f}\0".encode())
        if os.path.exists(f):
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def main() -> int:
    for name, make in sorted(workloads.WORKLOADS.items()):
        for seed in (1, 2):
            plan = make(seed).as_json()
            with tempfile.TemporaryDirectory() as work:
                os.chdir(work)
                for fname, text in plan.pop("files").items():
                    with open(fname, "w", encoding="ascii") as fh:
                        fh.write(text)
                for op in build(plan):
                    print(name, seed, op.spec["id"], op.spec["kind"], digest(op),
                          flush=True)
                os.chdir(ROOT)
    return 0


if __name__ == "__main__":
    sys.exit(main())
