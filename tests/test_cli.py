import gc
import hashlib
import io
import json
import os
import time
import weakref
from collections import Counter
from functools import cache

import pytest

from assoc2 import cli, poset, series, twoassoc
from assoc2.audit import desk_nvectors
from assoc2.poset import RankedPoset, _bits
from assoc2.twoassoc import enumerate_Wn


def run(argv):
    buf = io.StringIO()
    code = cli.main(argv, out=buf)
    return code, buf.getvalue()


def test_assoc_enumerate_table():
    code, out = run(["assoc", "enumerate", "--r", "4", "--format", "table"])
    assert code == 0
    assert out.splitlines() == ["rank\tfaces", "0\t5", "1\t5", "2\t1", "total\t11"]


def test_assoc_enumerate_rejects_bad_r():
    code, _ = run(["assoc", "enumerate", "--r", "0"])
    assert code == 2


@pytest.mark.parametrize("argv", [["assoc", "enumerate", "--r", "11"], ["cd-index", "--r", "11"]])
def test_K_r_above_the_bound_is_one_line_exit_2(argv, capsys):
    code, out = run(argv)
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err == "error: K_11 has 518859 faces, above the bound 100000\n"


def test_counts_all_zero_n_is_usage_error():
    code, _ = run(["counts", "--n", "0,0"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    "wn enumerate --n 0,0", "counts --n 1,-1", "verify eulerian --n 0", "cd-index --n 0,0",
    "assoc enumerate --r 0", "cd-index --r 0", "gf solve --max-degree 0",
    "gf solve --tree (..) --max-degree -1", "counts --n 1,x", "gf solve --tree (. --max-degree 2",
])
def test_invalid_input_is_one_line_exit_2(argv, capsys):
    # the engine checks the values; the front end only parses the text
    code, out = run(argv.split())
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    "wn enumerate --n 150", "wn enumerate --n 99999999999999", "counts --n 600",
    "assoc enumerate --r 150", "cd-index --r 1200", "wn enumerate --n 100",
    "wn enumerate --n 0,0,0,0,0,0,0,0,0,0,1", "verify eulerian --n 1,1,1,1,1,1,1,1,1",
    "wn enumerate --n 2,2,2,2,2,2,2,2,2", "cd-index --n 5,5,5,5",
])
def test_a_huge_input_is_refused_at_once(argv, capsys):
    # lower bounds on the face count refuse before any count recurses or any fiber is walked
    start = time.perf_counter()
    code, out = run(argv.split())
    elapsed = time.perf_counter() - start
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "above the bound 100000" in err
    assert len(err.splitlines()) == 1
    assert elapsed < 2, elapsed


@pytest.mark.parametrize("argv", [
    "gf solve --max-degree 400", "counts --n 2,1 --max-degree 300",
    "gf solve --tree ((..).) --max-degree 40",
])
def test_a_huge_series_solve_is_refused_at_once(argv, capsys):
    # these ran for minutes with no output; the bound is read off (r, D) before any solve
    start = time.perf_counter()
    code, out = run(argv.split())
    elapsed = time.perf_counter() - start
    assert code == 2 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("error: solve_F(") and f"above the bound {series.MAX_SOLVE_STEPS}" in err
    assert len(err.splitlines()) == 1
    assert elapsed < 2, elapsed


def test_counts_agree_table():
    code, out = run(["counts", "--n", "1,1"])
    assert code == 0
    assert "AGREE" in out and "DISAGREE" not in out


def test_wn_enumerate_json_round_trip():
    code, out = run(["wn", "enumerate", "--n", "2,1", "--format", "json"])
    assert code == 0
    P = RankedPoset.from_json_dict(json.loads(out))
    Q = enumerate_Wn((2, 1))
    assert P.labels == Q.labels
    assert P.ranks == Q.ranks
    assert P.cover_pairs == Q.cover_pairs


def test_wn_enumerate_dot_stable():
    code1, out1 = run(["wn", "enumerate", "--n", "1,1", "--format", "dot"])
    code2, out2 = run(["wn", "enumerate", "--n", "1,1", "--format", "dot"])
    assert code1 == code2 == 0 and out1 == out2
    assert out1.startswith("digraph hasse {")


def test_verify_eulerian_exit_codes():
    code, out = run(["verify", "eulerian", "--n", "1,1"])
    assert code == 0
    assert "checks passed" in out


def test_gf_solve_json():
    code, out = run(["gf", "solve", "--max-degree", "4", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["vars"] == 1 and doc["max_degree"] == 4
    x4 = [t for t in doc["terms"] if t["n"] == [4]]
    assert x4 and x4[0]["t_poly"] == [[0, "5"], [1, "5"], [2, "1"]]


def test_gf_solve_tree_argument():
    code, out = run(["gf", "solve", "--tree", "(..)", "--max-degree", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["vars"] == 2
    x11 = [t for t in doc["terms"] if t["n"] == [1, 1]]
    assert x11 and x11[0]["t_poly"] == [[0, "2"], [1, "1"]]


def test_gf_solve_bad_tree():
    code, _ = run(["gf", "solve", "--tree", "((", "--max-degree", "3"])
    assert code == 2


def test_cd_index_commands():
    code, out = run(["cd-index", "--r", "4"])
    assert code == 0 and out.strip() == "K_4^: c^2 + 3d"
    code, out = run(["cd-index", "--n", "1,1"])
    assert code == 0 and out.strip() == "W_(1,1)^: c"
    code, out = run(["cd-index", "--n", "2,1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["cd_index"] == {"cc": 1, "d": 6}


@pytest.mark.parametrize("argv,sha256", [
    ("cd-index --n 3,0,2 --format json",
     "ada4f363dd55a298ecdb95cf7a8a6c2c609c3dba4bfe3ca9cfca03ad264bb655"),
    ("cd-index --n 2,0,3 --format json",
     "97fa2114ed89c78d0d8139382833fd1b75231214ed7a1d0c532b9c5158ca5a00"),
    ("wn enumerate --n 2,2 --format json",
     "efa8dd76a930f7953d0ad0c3137b21b7026e542f1e98d58ff8e80cd6d7024059"),
    ("wn enumerate --n 2,1,1 --format dot",
     "0c7dfcc06deb736da635f1931f0ddde85795d96dc8590649d149c11c7bbbd6da"),
])
def test_output_bytes_are_pinned(argv, sha256):
    # a faster engine must print exactly the same bytes
    code, out = run(argv.split())
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == sha256
    if argv.startswith("cd-index"):
        assert min(json.loads(out)["cd_index"].values()) >= 0


def test_cache_env_variable_is_ignored(tmp_path, monkeypatch):
    _, plain = run(["counts", "--n", "2,1"])
    monkeypatch.setenv("ASSOC2_CACHE_DIR", str(tmp_path / "envcache"))
    code, out = run(["counts", "--n", "2,1"])
    assert code == 0 and out == plain
    assert list(tmp_path.iterdir()) == []


def test_cache_dir_flag_is_rejected(tmp_path):
    code, _ = run(["--cache-dir", str(tmp_path), "counts", "--n", "2,1"])
    assert code == 2


def _miscount_W(monkeypatch):
    real = twoassoc.count_W
    monkeypatch.setattr(twoassoc, "count_W", lambda *args: real(*args) + 1)
    monkeypatch.setattr(twoassoc, "_ENUM_CACHE", {})
    return ["wn", "enumerate", "--n", "2,1"], "enumerated "


def _refuse_cd_index(monkeypatch):
    def cd_index(P):
        raise poset.NonEulerianError("ab-index has nonzero cd-rewriting remainder")
    monkeypatch.setattr(poset, "cd_index", cd_index)
    return ["cd-index", "--n", "1,1"], "ab-index "


def _negate_geometric_inverse(monkeypatch):
    real = series.geometric_inverse
    minus_one = series.LaurentPoly.term(-1)
    monkeypatch.setattr(series, "geometric_inverse", lambda u: real(u).scaled(minus_one))
    # a fresh memo, so the broken solver neither reads nor leaves cached series
    monkeypatch.setattr(series, "solve_F", cache(series.solve_F.__wrapped__))
    return ["gf", "solve", "--max-degree", "4"], "solve_F(.)"


def _reject_face_order(monkeypatch):
    # a dropped cover leaves its relation out of the closure, which the
    # closure check of the face order reports as a PosetError
    close = RankedPoset._close

    def drop_first_cover(self, down=None, lower=None):
        layers = dict(self._rank_masks)  # the covers as _close reads them off the down-sets
        lower = [d & layers.get(r - 1, 0) for d, r in zip(down, self.ranks)]
        pairs = sorted((i, j) for j, m in enumerate(lower) for i in _bits(m))
        if pairs:
            i, j = pairs[0]
            lower[j] ^= 1 << i
        close(self, down, lower)
    monkeypatch.setattr(RankedPoset, "_close", drop_first_cover)
    monkeypatch.setattr(twoassoc, "_ENUM_CACHE", {})
    return ["wn", "enumerate", "--n", "1,1"], "face order of W_(1, 1): "


def _break_a_reduced_product(monkeypatch):
    # the desk audit builds the reduced products in its forked worker
    def reduced_product(P, Q):
        raise twoassoc.VerificationError("reduced product broken in the worker")
    monkeypatch.setattr(poset, "reduced_product", reduced_product)
    return ["audit", "--profile", "desk"], "reduced product broken in the worker"


@pytest.mark.parametrize("breakage", [_miscount_W, _refuse_cd_index, _negate_geometric_inverse,
                                      _reject_face_order, _break_a_reduced_product],
                         ids=["VerificationError", "NonEulerianError", "ArithmeticError",
                              "PosetError", "worker"])
def test_verification_error_is_one_line_exit_1(breakage, monkeypatch, capsys):
    argv, cause = breakage(monkeypatch)
    code, out = run(argv)
    assert code == 1 and out == ""
    err = capsys.readouterr().err
    assert err.startswith("verification failure: " + cause)
    assert len(err.splitlines()) == 1 and "Traceback" not in err
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no audit worker is left behind


class _RecordingMemo(weakref.WeakValueDictionary):
    """An enumeration memo that records each n stored, that is each cold enumeration."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, n, poset):
        self.stored.append(n)
        super().__setitem__(n, poset)


def _record_completions(monkeypatch) -> tuple[Counter, list]:
    """Count completions by the n of the completed W_n; keep weak references to both."""
    done, refs = Counter(), []
    complete = RankedPoset.complete_with_min

    def recorded(self, label="0^"):
        comp = complete(self, label)
        done[self.meta.get("n")] += 1
        refs.extend((weakref.ref(self), weakref.ref(comp)))
        return comp
    monkeypatch.setattr(RankedPoset, "complete_with_min", recorded)
    return done, refs


def test_desk_audit_bytes_are_pinned(monkeypatch):
    # the release gate: every row passes, and the report is the one perfbench/workloads.py pins
    memo = _RecordingMemo()
    monkeypatch.setattr(twoassoc, "_ENUM_CACHE", memo)
    completed, _ = _record_completions(monkeypatch)
    code, out = run(["audit", "--profile", "desk", "--format", "json"])
    assert code == 0
    assert json.loads(out)["summary"] == {"total": 1310, "passed": 1310, "failed": 0}
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "c9374996e23ce2f9d111e219a130a09b7421cbc12b44989cbe964e392d92a702"
    # one pass per desk n: each W_n is enumerated cold once and completed once here; the
    # 12 factors of the fiber products are enumerated in the worker, which this memo never sees
    assert sorted(memo.stored) == sorted(desk_nvectors()) and len(desk_nvectors()) == 59
    assert completed == Counter(desk_nvectors())


def test_cd_index_call_leaves_no_poset_alive(monkeypatch):
    memo = weakref.WeakValueDictionary()
    monkeypatch.setattr(twoassoc, "_ENUM_CACHE", memo)
    completed, refs = _record_completions(monkeypatch)
    enabled = gc.isenabled()
    gc.disable()  # freed by reference counting alone, with no collection pending
    try:
        code, out = run(["cd-index", "--n", "2,1"])
        assert code == 0 and out.startswith("W_(2,1)^: ")
        assert completed == Counter([(2, 1)]) and len(refs) == 2
        assert [ref() for ref in refs] == [None, None] and len(memo) == 0
    finally:
        if enabled:
            gc.enable()


def test_audit_json_shape():
    code, out = run(["verify", "eulerian", "--n", "2", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["failed"] == 0
