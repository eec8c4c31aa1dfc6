"""Cold-process benchmark of assoc2.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports assoc2 from ./src).  Every
pass of a workload is a fresh interpreter (perfbench/child.py), so all of
assoc2's module-level memos start empty, as for each command-line call.
Passes never overlap.  The children run without ASSOC2_* variables, so the
on-disk count cache stays off, with PYTHONHASHSEED=0, and with bytecode
caches written under src/ (the first, discarded spawn compiles them).

--trace 0 repeats passes until the next one would end after S seconds (at
least one pass) and reports the end-to-end metrics: setup_s (median over
seven import-only spawns of the time from spawn until `import assoc2.cli`
returns), run_s (median over passes of the wall time of the operations, memo
filling included), peak_rss_mb (median of the passes' peak resident set, from
wait4) and ops_ok (operations with the exact reference answer over operations
attempted).  Each pass draws its instances afresh from (seed, pass index).

--trace 1 runs one plain pass and one traced pass, checks that both print
identical bytes, and reports the per-layer metrics of the traced pass (see
layers.py) plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds run metadata (seed, resolved
instances, Python, nproc, load average, per-operation sha256 of the output).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SETUP_SAMPLES = 7
BUDGET_S = 170.0

MODULES = ("trees", "twoassoc", "poset", "series", "audit")

# Per-layer metrics of the traced pass: name -> (kind, span or counter name).
PER_LAYER = {
    "twoassoc.validate_two_bracketing.self_s": ("self", "twoassoc.validate_two_bracketing"),
    "twoassoc.validate_two_bracketing.calls": ("calls", "twoassoc.validate_two_bracketing"),
    "twoassoc.enumerate_Wn.self_s": ("self", "twoassoc.enumerate_Wn"),
    "twoassoc.enumerate_Wn.calls": ("calls", "twoassoc.enumerate_Wn"),
    "twoassoc.enumerate_Wn.memo_hits": ("count", "twoassoc.enumerate_Wn.memo_hits"),
    "twoassoc.faces": ("count", "twoassoc.faces"),
    "twoassoc.count_W.self_s": ("self", "twoassoc.count_W"),
    "twoassoc.count_W.calls": ("calls", "twoassoc.count_W"),
    "poset.from_order.self_s": ("self", "poset.from_order"),
    "poset.from_order.pairs_probed": ("count", "poset.from_order.pairs_probed"),
    "poset.closure.self_s": ("self", "poset.closure"),
    "poset.closure.calls": ("calls", "poset.closure"),
    "poset.covers": ("count", "poset.covers"),
    "poset.verify_eulerian.self_s": ("self", "poset.verify_eulerian"),
    "poset.verify_eulerian.pairs_checked": ("count", "poset.verify_eulerian.pairs_checked"),
    "poset.diamond_failures.self_s": ("self", "poset.diamond_failures"),
    "poset.mobius.self_s": ("self", "poset.mobius"),
    "poset.mobius.calls": ("calls", "poset.mobius"),
    "poset.flag_f_vector.self_s": ("self", "poset.flag_f_vector"),
    "poset.flag_f_vector.rank_sets": ("count", "poset.flag_f_vector.rank_sets"),
    "poset.cd_index.self_s": ("self", "poset.cd_index"),
    "poset.reduced_product.self_s": ("self", "poset.reduced_product"),
    "poset.fiber_product.self_s": ("self", "poset.fiber_product"),
    "series.solve_F.self_s": ("self", "series.solve_F"),
    "series.solve_F.calls": ("calls", "series.solve_F"),
    "series.solve_F.memo_hits": ("count", "series.solve_F.memo_hits"),
    "series.solve_f.self_s": ("self", "series.solve_f"),
    "trees.enumerate_Kr.self_s": ("self", "trees.enumerate_Kr"),
    "trees.count_K.self_s": ("self", "trees.count_K"),
    "trees.all_bracketings.self_s": ("self", "trees.all_bracketings"),
    "audit.audit_eulerian.self_s": ("self", "audit.audit_eulerian"),
    "cli.main.self_s": ("self", "cli.main"),
}
PER_LAYER.update({f"{m}.self_s": ("module", m) for m in MODULES})
# Import time of assoc2.cli alone, the traced pass's run_s, its excess over
# the plain pass's run_s, the part of it outside every span, and span count.
TRACE_EXTRA = ("cli.import_s", "trace.run_s", "trace.overhead_s", "trace.outside_spans_s",
               "trace.spans")
END_TO_END = ("setup_s", "run_s", "peak_rss_mb", "ops_ok")


def per_layer_names() -> list[str]:
    return list(PER_LAYER) + list(TRACE_EXTRA)


def child_env() -> dict:
    """The caller's environment without the count cache, with a fixed hash seed.

    Bytecode writing stays on, as after an install, so set-up time does not
    include compiling assoc2's sources.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ASSOC2_")
           and k not in ("PYTHONPATH", "PYTHONSTARTUP", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(root: str, src: str, ops: list, traced: bool, deadline: float) -> dict:
    """Run child.py once; return its document plus spawn time, status and peak RSS."""
    argv = [sys.executable, CHILD, src, json.dumps(ops), "1" if traced else "0"]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(argv, cwd=root, env=child_env(), stdout=subprocess.PIPE)
    chunks, timed_out = [], False
    fd = proc.stdout.fileno()
    while True:
        left = deadline - time.monotonic()
        if left <= 0:
            proc.kill()
            timed_out = True
            break
        ready, _, _ = select.select([fd], [], [], left)
        if ready:
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    out = {"t_spawn": t_spawn, "wall_s": time.monotonic() - t_spawn,
           "status": proc.returncode, "timed_out": timed_out,
           "peak_rss_mb": usage.ru_maxrss / 1024.0, "doc": None}
    if proc.returncode == 0 and not timed_out:
        try:
            out["doc"] = json.loads(b"".join(chunks))
        except ValueError:
            pass
    return out


def run_pass(root, src, ops, traced, deadline) -> dict:
    """One workload pass: spawn, time, and check every operation exactly."""
    got = spawn(root, src, ops, traced, deadline)
    doc = got["doc"]
    if doc is None or len(doc.get("ops", ())) != len(ops):
        why = ("timed out" if got["timed_out"] else
               f"workload process failed (status {got['status']})")
        results = [{"error": why}] * len(ops)
        run_s, cpu_s, setup_s = got["wall_s"], None, None
    else:
        results = doc["ops"]
        run_s = sum(r["run_s"] for r in results)
        cpu_s = sum(r["cpu_s"] for r in results)
        setup_s = doc["t_ready"] - got["t_spawn"]
    return {"run_s": run_s, "cpu_s": cpu_s, "setup_s": setup_s, "peak_rss_mb": got["peak_rss_mb"],
            "wall_s": got["wall_s"], "ops": evaluate(ops, results), "results": results,
            "trace": (doc or {}).get("trace")}


def evaluate(ops: list, results: list) -> list:
    """One record per operation: its failure (None if exact) and output digest."""
    records = []
    for op, res in zip(ops, results, strict=True):
        key = workloads.op_key(op)
        digest = workloads.sha256(res["stdout"]) if "stdout" in res else None
        records.append({"op": key, "failure": workloads.check(op, res),
                        "run_s": res.get("run_s"), "stdout_sha256": digest,
                        "digest_matches_reference":
                            digest == workloads.REFERENCE_SHA256.get(key)})
    return records


def per_layer_metrics(plain: dict, traced: dict, import_s: float) -> dict:
    tr = traced["trace"] or {"self_s": {}, "calls": {}, "counts": {}, "spans": 0}
    values = {}
    for name, (kind, key) in PER_LAYER.items():
        if kind == "self":
            values[name] = tr["self_s"].get(key, 0.0)
        elif kind == "calls":
            values[name] = tr["calls"].get(key, 0)
        elif kind == "count":
            values[name] = tr["counts"].get(key, 0)
        else:
            values[name] = sum(v for k, v in tr["self_s"].items() if k.startswith(key + "."))
    spanned = sum(tr["self_s"].values())
    values["cli.import_s"] = import_s
    values["trace.run_s"] = traced["run_s"]
    values["trace.overhead_s"] = traced["run_s"] - plain["run_s"]
    values["trace.outside_spans_s"] = traced["run_s"] - spanned
    values["trace.spans"] = tr["spans"]
    return {name: {"value": v, "unit": unit_of(name)} for name, v in values.items()}


def unit_of(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "assoc2", "cli.py")):
        print("error: run from the root of an assoc2 checkout (no src/assoc2/cli.py here)",
              file=sys.stderr)
        return 2
    started = time.monotonic()
    deadline = started + BUDGET_S
    load_start = os.getloadavg()

    # The first spawn compiles bytecode caches, which users pay once; discard it.
    setups = []
    for i in range(SETUP_SAMPLES + 1):
        got = spawn(root, src, [], False, deadline)
        if got["doc"] is None:
            print(f"error: importing assoc2.cli failed (status {got['status']})", file=sys.stderr)
            return 1
        if i:
            setups.append((got["doc"]["t_ready"] - got["t_spawn"], got["doc"]["import_s"]))

    passes = []
    if args.trace:
        ops = workloads.plan(args.workload, args.seed)
        plain = run_pass(root, src, ops, False, deadline)
        traced = run_pass(root, src, ops, True, deadline)
        for a, b in zip(plain["ops"], traced["ops"]):
            if b["failure"] is None and a["stdout_sha256"] != b["stdout_sha256"]:
                b["failure"] = "traced output differs from the untraced output"
        passes = [plain, traced]
        metrics = per_layer_metrics(plain, traced, statistics.median(s[1] for s in setups))
    else:
        t_measure = time.monotonic()
        while True:
            ops = workloads.plan(args.workload, args.seed, len(passes))
            passes.append(run_pass(root, src, ops, False, deadline))
            now = time.monotonic()
            per_pass = (now - t_measure) / len(passes)
            if now - t_measure + per_pass > args.seconds or now + per_pass > deadline:
                break
        metrics = {
            "setup_s": {"value": statistics.median(s[0] for s in setups), "unit": "s"},
            "run_s": {"value": statistics.median(p["run_s"] for p in passes), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p["peak_rss_mb"] for p in passes),
                            "unit": "MB"},
        }

    records = [r for p in passes for r in p["ops"]]
    attempted = len(records)
    failed = sum(r["failure"] is not None for r in records)
    if not args.trace:
        metrics["ops_ok"] = {"value": (attempted - failed) / attempted, "unit": "fraction"}

    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": load_start, "child_hash_seed": 0,
        "setup_samples_s": [s[0] for s in setups],
        "ops_failed": failed / attempted,
        "passes": [{k: p[k] for k in ("run_s", "cpu_s", "setup_s", "peak_rss_mb", "wall_s", "ops")}
                   for p in passes],
        "elapsed_s": time.monotonic() - started,
    }
    if args.trace:
        info["trace_edges"] = passes[1]["trace"]["edges"] if passes[1]["trace"] else None
    print(json.dumps({"info": info}, sort_keys=True))
    for r in records:
        if r["failure"]:
            print(f"FAILED {r['op']}: {r['failure']}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
