"""The benchmark's workloads: a plan of operations from a seed, and exact checks.

Each workload is a closed loop: one client issues one operation at a time in
one single-threaded process.

- desk_audit: `assoc2 audit --profile desk --format json`, the release gate.
  Many small posets (59 W_n, each enumerated once and re-read from the
  enumerate_Wn memo), the label-pair Moebius sweep, reduced and fiber
  products.  The profile is fixed, so the seed is ignored.
- wn_large: `assoc2 cd-index --n 3,0,2 --format json`, one mid-size poset
  (4577 faces, a pointless line so gap extents appear) built once; the only
  workload that exercises the flag f-vector and the cd-index.  The seed picks
  n or its line reflection (2,0,3) for each pass; the posets are isomorphic.
- count_oracles: the recurrence count_W and the series solve_F for every tree
  of K_r and every dimension, on (6,4), (3,3,2) and (2,1,1,1), sizes no
  enumeration reaches; poset and validation do no work.  The seed picks each
  instance or its reflection, and their order, for each pass.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("desk_audit", "wn_large", "count_oracles")

DESK_ARGV = ["audit", "--profile", "desk", "--format", "json"]
DESK_ROWS = 1310

WN_LARGE = (3, 0, 2)
# cd-index of the completed W_(3,0,2), equal for its reflection W_(2,0,3).
WN_LARGE_CD = {"ccccc": 1, "cccd": 83, "ccdc": 528, "cdcc": 1038, "cdd": 1480,
               "dccc": 634, "dcd": 1990, "ddc": 2540}
WN_LARGE_WEIGHT = 5

# Per instance: the number of (tree, m) rows, and the faces of W_n by
# dimension m summed over the trees of K_r (totals 171,002,915, 57,054,353
# and 108,239).  Line reflection is an isomorphism, so both hold for the
# reflected n too.
COUNT_INSTANCES = {
    (6, 4): (10, [3727500, 19223134, 41954967, 50301764, 35934987, 15481240,
                  3860208, 495318, 23796, 1]),
    (3, 3, 2): (27, [2134528, 9513696, 17334176, 16523688, 8729088, 2475838,
                     329384, 13954, 1]),
    (2, 1, 1, 1): (77, [10528, 32976, 38688, 20764, 4903, 379, 1]),
}

# sha256 of each operation's output at the commit that defined the
# benchmark.  A different digest is reported, never counted as a failure: a
# change may legitimately alter output bytes (for example new audit rows).
REFERENCE_SHA256 = {
    "audit --profile desk --format json":
        "c9374996e23ce2f9d111e219a130a09b7421cbc12b44989cbe964e392d92a702",
    "cd-index --n 3,0,2 --format json":
        "ada4f363dd55a298ecdb95cf7a8a6c2c609c3dba4bfe3ca9cfca03ad264bb655",
    "cd-index --n 2,0,3 --format json":
        "97fa2114ed89c78d0d8139382833fd1b75231214ed7a1d0c532b9c5158ca5a00",
    "counts 6,4": "83221967448592834df0f2322b27f480b532e8c08c084a17ef182b62be145940",
    "counts 4,6": "83221967448592834df0f2322b27f480b532e8c08c084a17ef182b62be145940",
    "counts 3,3,2": "2c31e9b1e53b30bc45e1a671ac42c54c691e02b657cb6f35aa8c3f129fd3f378",
    "counts 2,3,3": "0cd9841d8a57b7ed83f0b92bb64f6760f8d4ada8672695ab6905cfb244ec8e66",
    "counts 2,1,1,1": "e3ec122f5e9db29333195ea1a7db908bc03e5fb863ae31d559c9506b0476dcde",
    "counts 1,1,1,2": "722a2dacce4aa3dd3deb39e082aae7619f815846dcf9725249a1375050ae4e2e",
}


def plan(workload: str, seed: int, index: int = 0) -> list[dict]:
    """Operations of pass `index` of a run, resolved from the seed.

    Every pass draws its reflections and order afresh from (seed, index), so
    the median over a run's passes mixes instances of different cost.
    """
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "desk_audit":
        ops = [{"kind": "cli", "argv": DESK_ARGV}]
    elif workload == "wn_large":
        n = WN_LARGE if rng.random() < 0.5 else WN_LARGE[::-1]
        ops = [{"kind": "cli", "argv": ["cd-index", "--n", ",".join(map(str, n)),
                                        "--format", "json"]}]
    elif workload == "count_oracles":
        ops = [{"kind": "counts", "n": list(n if rng.random() < 0.5 else n[::-1])}
               for n in COUNT_INSTANCES]
        rng.shuffle(ops)
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return ops


def op_key(op: dict) -> str:
    if op["kind"] == "cli":
        return " ".join(op["argv"])
    return "counts " + ",".join(map(str, op["n"]))


def check(op: dict, result: dict) -> str | None:
    """None if the operation succeeded with the exact reference answer, else why not."""
    if result.get("error"):
        return "exception: " + result["error"].strip().splitlines()[-1]
    if result.get("exit") != 0:
        return f"exit code {result.get('exit')}"
    try:
        doc = json.loads(result["stdout"])
        if op["kind"] == "counts":
            return _check_counts(tuple(op["n"]), doc)
        if op["argv"] == DESK_ARGV:
            return _check_desk(doc)
        return _check_cd(op["argv"][2], doc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _check_desk(doc) -> str | None:
    want = {"total": DESK_ROWS, "passed": DESK_ROWS, "failed": 0}
    if not isinstance(doc, dict) or doc.get("summary") != want:
        return f"summary {doc.get('summary') if isinstance(doc, dict) else doc!r} != {want}"
    checks = doc.get("checks")
    if not isinstance(checks, list) or len(checks) != DESK_ROWS:
        return "wrong number of check rows"
    bad = [c for c in checks if c.get("pass") is not True or c.get("expected") != c.get("observed")]
    if bad:
        return f"{len(bad)} check rows fail, first {bad[0].get('name')} {bad[0].get('params')}"
    return None


def _check_cd(n_text: str, doc) -> str | None:
    want = {"poset": f"W_({n_text})^", "cd_index": WN_LARGE_CD, "weight": WN_LARGE_WEIGHT}
    if doc != want:
        if isinstance(doc, dict) and isinstance(doc.get("cd_index"), dict):
            diff = sorted(w for w in set(doc["cd_index"]) | set(WN_LARGE_CD)
                          if doc["cd_index"].get(w) != WN_LARGE_CD.get(w))
            return f"cd-index differs from the reference (poset {doc.get('poset')!r}, words {diff[:5]})"
        return "cd-index document differs from the reference"
    return None


def _check_counts(n: tuple[int, ...], rows) -> str | None:
    base = n if n in COUNT_INSTANCES else n[::-1]
    if base not in COUNT_INSTANCES:
        return f"no reference for instance {n}"
    rows_want, want = COUNT_INSTANCES[base]
    if len(rows) != rows_want:
        return f"{len(rows)} rows, expected {rows_want}"
    by_m = [0] * len(want)
    trees = set()
    for row in rows:
        tree, m, recurrence, series = row
        if recurrence != series:
            return f"tree {tree} m={m}: recurrence {recurrence} != series {series}"
        if not 0 <= m < len(want) or (tree, m) in trees:
            return f"unexpected row for tree {tree} m={m}"
        trees.add((tree, m))
        by_m[m] += recurrence
    if by_m != want:
        return f"faces by dimension {by_m} != reference {want}"
    return None


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()
