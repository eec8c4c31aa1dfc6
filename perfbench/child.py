"""One pass of a benchmark workload in a fresh interpreter.

Every assoc2 memo is module state, so a fresh process starts with all of them
empty, exactly as an `assoc2` command-line call does.  run.py starts this
script once per pass:

    python3 child.py SRC_DIR PLAN_JSON TRACE

PLAN_JSON is a list of operations (an empty list only measures set-up); TRACE
is 0 or 1.  The script prints one JSON document on stdout: the monotonic time
at which `import assoc2.cli` returned, each operation's wall and CPU time,
exit code, error and captured output, and with TRACE=1 the per-layer span
summary.

Nothing but `sys` and `time` is imported before assoc2.cli, so the set-up time
run.py derives from that timestamp is interpreter start plus the package
import, what every command-line call pays.
"""

import sys
import time

T_BEGIN = time.monotonic()
sys.path.insert(0, sys.argv[1])
import assoc2.cli  # noqa: E402

T_READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import traceback  # noqa: E402


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = assoc2.cli.main(list(argv), out=out)
    return code, out.getvalue(), err.getvalue()


def _run_counts(n):
    """Both non-enumerative oracles for every tree of K_r and every dimension."""
    from assoc2 import series, trees, twoassoc
    n = tuple(n)
    rows = []
    for tree in twoassoc.trees_of_Kr(len(n)):
        F = series.solve_F(tree, sum(n))
        for m in range(twoassoc.top_rank(n) + 1):
            rows.append([trees.tree_to_text(tree), m,
                         twoassoc.count_W(tree, m, n), series.coefficient(F, m, n)])
    return 0, json.dumps(rows, separators=(",", ":")) + "\n", ""


def _run_op(op):
    if op["kind"] == "cli":
        return _run_cli(op["argv"])
    if op["kind"] == "counts":
        return _run_counts(op["n"])
    raise ValueError(f"unknown operation kind {op['kind']!r}")


def main():
    src, plan, traced = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3] == "1"
    where = os.path.dirname(os.path.abspath(assoc2.cli.__file__))
    if os.path.commonpath([where, os.path.abspath(src)]) != os.path.abspath(src):
        print(f"assoc2 was imported from {where}, not from {src}", file=sys.stderr)
        return 3
    recorder = None
    if traced:
        import layers
        recorder = layers.install()
    results = []
    for op in plan:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code, out, err = _run_op(op)
            error = None
        except Exception:
            code, out, err = None, "", ""
            error = traceback.format_exc(limit=-3)
        t1, c1 = time.perf_counter(), time.process_time()
        results.append({"run_s": t1 - t0, "cpu_s": c1 - c0, "exit": code, "stdout": out,
                        "stderr": err, "error": error})
    doc = {"t_begin": T_BEGIN, "t_ready": T_READY, "import_s": T_READY - T_BEGIN,
           "ops": results}
    if recorder is not None:
        doc["trace"] = recorder.summary()
    sys.stdout.write(json.dumps(doc))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
