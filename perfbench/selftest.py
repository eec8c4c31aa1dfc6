"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [WORKLOAD ...]

Run from the root of an assoc2 checkout; takes about three minutes for all
three workloads.  For each workload it runs one plain and one traced pass and
checks that

- every operation gives the exact reference answer;
- the traced pass prints byte-identical output to the plain pass, so tracing
  cannot change answers;
- corrupted answers, nonzero exit codes, exceptions and a workload process
  that cannot start are each counted as failed operations, not only as
  timings.

It also checks that BENCHMARK.json names exactly the metrics run.py prints.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import os
import sys
import time

import run
import workloads

FAILURES: list[str] = []


def expect(cond: bool, what: str) -> None:
    print(("ok    " if cond else "FAIL  ") + what)
    if not cond:
        FAILURES.append(what)


def corruptions(op: dict, result: dict):
    """(description, corrupted result) pairs derived from a correct result."""
    yield "exit code 1", dict(result, exit=1)
    yield "exception", dict(result, error="Traceback ...\nRuntimeError: injected")
    yield "truncated output", dict(result, stdout=result["stdout"][:-10])
    doc = json.loads(result["stdout"])
    if op["kind"] == "counts":
        bumped = copy.deepcopy(doc)
        bumped[0][2] += 1
        yield "recurrence differs from series", dict(result, stdout=json.dumps(bumped))
        bumped[0][3] += 1
        yield "both oracles off by one", dict(result, stdout=json.dumps(bumped))
    elif op["argv"] == workloads.DESK_ARGV:
        row = copy.deepcopy(doc)
        row["checks"][7]["observed"] = "corrupted"
        yield "one audit row observed value changed", dict(result, stdout=json.dumps(row))
        short = copy.deepcopy(doc)
        del short["checks"][-1]
        yield "one audit row missing", dict(result, stdout=json.dumps(short))
    else:
        cd = copy.deepcopy(doc)
        cd["cd_index"]["cdd"] += 1
        yield "one cd coefficient off by one", dict(result, stdout=json.dumps(cd))


def check_workload(root: str, src: str, name: str, seed: int) -> None:
    ops = workloads.plan(name, seed)
    deadline = time.monotonic() + run.BUDGET_S
    plain = run.run_pass(root, src, ops, False, deadline)
    traced = run.run_pass(root, src, ops, True, deadline)
    for rec in plain["ops"] + traced["ops"]:
        expect(rec["failure"] is None, f"{name}: {rec['op']} exact ({rec['failure']})")
    for a, b in zip(plain["ops"], traced["ops"]):
        expect(a["stdout_sha256"] == b["stdout_sha256"],
               f"{name}: {a['op']} traced output byte-identical to untraced")
    expect(bool(traced["trace"]) and traced["trace"]["spans"] > 0, f"{name}: traced pass has spans")
    for op, result in zip(ops, plain["results"]):
        for what, bad in corruptions(op, result):
            rec = run.evaluate([op], [bad])[0]
            expect(rec["failure"] is not None, f"{name}: {what} counted as failed ({rec['failure']})")


def check_metric_names(root: str) -> None:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    expect({m["name"] for m in bench["end_to_end"]} == set(run.END_TO_END),
           "BENCHMARK.json end_to_end names match run.py")
    expect({m["name"] for m in bench["per_layer"]} == set(run.per_layer_names()),
           "BENCHMARK.json per_layer names match run.py")
    expect([w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS),
           "BENCHMARK.json workloads match workloads.py")


def main(argv: list[str]) -> int:
    root = os.getcwd()
    src = os.path.join(root, "src")
    names = argv or list(workloads.WORKLOADS)
    check_metric_names(root)
    for name in names:
        plans = {json.dumps(workloads.plan(name, s)) for s in range(8)}
        expect(workloads.plan(name, 3, 1) == workloads.plan(name, 3, 1),
               f"{name}: plan is a function of the seed and pass")
        if name != "desk_audit":
            expect(len(plans) > 1, f"{name}: seeds choose between reflections")
    print("A workload process that cannot import assoc2 (traceback expected):", flush=True)
    broken = run.run_pass(root, os.path.join(root, "perfbench"), workloads.plan("wn_large", 0), False,
                          time.monotonic() + 30)
    expect(all(r["failure"] for r in broken["ops"]), "unimportable program counted as failed")
    for seed, name in enumerate(names):
        check_workload(root, src, name, seed)
    print(f"{len(FAILURES)} self-test checks failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
