"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is exact integer equality.
"""

import itertools
import time

import pytest

from assoc2 import cli
from assoc2.audit import (audit_counts, audit_eulerian, audit_fiber_products,
                          audit_reduced_products, desk_nvectors)
from assoc2.poset import cd_index
from assoc2.series import (check_f_closed_form, coefficient, eval_t_minus1,
                           solve_F, solve_f, t_minus1_closed_form)
from assoc2.trees import count_K, enumerate_Kr, tree_to_text
from assoc2.twoassoc import enumerate_Wn, face_two_bracketings, trees_of_Kr

# these tests read the desk W_n many times: hold them (see conftest.desk_wn)
pytestmark = pytest.mark.usefixtures("desk_wn")


def report(num, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_K4_fixture(capsys):
    t0 = time.monotonic()
    import io
    buf = io.StringIO()
    code = cli.main(["assoc", "enumerate", "--r", "4", "--format", "table"], out=buf)
    ok = code == 0 and buf.getvalue().splitlines()[1:4] == ["0\t5", "1\t5", "2\t1"]
    f = solve_f(4)
    ok = ok and all(count_K(m, 4) == coefficient(f, m, (4,)) for m in range(3))
    ok = ok and [count_K(m, 4) for m in range(3)] == [5, 5, 1]
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 1.0
    with capsys.disabled():
        report(1, ok, f"K_4 rank counts (5,5,1), oracles agree, {elapsed:.2f}s < 1s")


def test_criterion_2_three_oracle_agreement(capsys):
    t0 = time.monotonic()
    bad = []
    for n in desk_nvectors():
        rep = audit_counts(n)
        bad += rep.failures()
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 300
    with capsys.disabled():
        report(2, ok, f"{len(desk_nvectors())} instances, {len(bad)} disagreements, "
                      f"{elapsed:.1f}s < 300s")


def test_criterion_3_eulerian(capsys):
    t0 = time.monotonic()
    bad = []
    for n in desk_nvectors():
        rep = audit_eulerian(n)
        bad += rep.failures()
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 600
    with capsys.disabled():
        report(3, ok, f"all completed W_n Eulerian + diamond + Moebius, "
                      f"{elapsed:.1f}s < 600s")


def test_criterion_4_r1_reduction(capsys):
    ok = True
    for q in range(1, 9):
        W = enumerate_Wn((q,))
        K = enumerate_Kr(q)
        mapping = {}
        for lab, tb in face_two_bracketings((q,)):
            stored = frozenset(
                (x.extents[0][1], x.extents[0][2]) for x in tb.two_brackets
                if x.extents[0][0] == "p" and x.extents[0][1] != x.extents[0][2])
            from assoc2.trees import Bracketing, bracketing_to_tree
            mapping[lab] = tree_to_text(bracketing_to_tree(Bracketing(q, stored)))
        ok = ok and sorted(mapping.values()) == sorted(K.labels)
        ok = ok and all(W.rank_of(lab) == K.rank_of(mapping[lab]) for lab in W.labels)
        w_covers = {(mapping[W.labels[i]], mapping[W.labels[j]]) for i, j in W.cover_pairs}
        k_covers = {(K.labels[i], K.labels[j]) for i, j in K.cover_pairs}
        ok = ok and w_covers == k_covers
        if not ok:
            break
    with capsys.disabled():
        report(4, ok, "W_(n) poset-isomorphic to K_n for n <= 8 via canonical relabeling")


def test_criterion_5_t_minus1_identities(capsys):
    fm1 = eval_t_minus1(solve_f(12))
    ok = all(coefficient(fm1, 0, (deg,)) == 1 for deg in range(1, 13))
    for r in (1, 2, 3):
        for tree in trees_of_Kr(r):
            F = eval_t_minus1(solve_F(tree, 6))
            ok = ok and F == t_minus1_closed_form(tree, 6)
    with capsys.disabled():
        report(5, ok, "f(-1,x) coefficients all 1 to degree 12; "
                      "F_T(-1,x) closed form for r <= 3 at D = 6")


def test_criterion_6_closed_form(capsys):
    ok = check_f_closed_form(12) == (True, None)
    with capsys.disabled():
        report(6, ok, "(2(1+t)f - 1 - tx)^2 = 1 - 4x - 2tx + t^2x^2 to degree 12")


def test_criterion_7_fiber_products(capsys):
    rep = audit_fiber_products(r_max=2, k_max=3, weight_max=3)
    ok = rep.passed
    # per-fiber sums equal (-1)^d(T)
    from assoc2.trees import dim_tree
    for r in (1, 2):
        vecs = [n for n in itertools.product(range(4), repeat=r)
                if any(n) and sum(n) <= 3]
        for n in vecs:
            P = enumerate_Wn(n)
            pi = P.meta["pi"]
            sums = {}
            for lab in P.labels:
                sums[pi[lab]] = sums.get(pi[lab], 0) + (-1) ** P.rank_of(lab)
            for tree in trees_of_Kr(r):
                ok = ok and sums.get(tree_to_text(tree), 0) == (-1) ** dim_tree(tree)
    with capsys.disabled():
        report(7, ok, f"{len(rep.checks)} fiber products with A = 1; "
                      "per-fiber sums (-1)^d(T)")


def test_criterion_8_reduced_products(capsys):
    rep = audit_reduced_products()
    ok = rep.passed
    pairs = rep.checks[0]["params"]["pairs"]
    with capsys.disabled():
        report(8, ok, f"closed form and balanced-factor balance on {pairs} factor pairs")


def test_criterion_9_cd_index(capsys):
    P = enumerate_Kr(4).complete_with_min("0^")
    ok = cd_index(P).terms == {"cc": 1, "d": 3}
    Q = enumerate_Wn((1, 1)).complete_with_min("F^min")
    ok = ok and cd_index(Q).terms == {"c": 1}
    for n in desk_nvectors():
        comp = enumerate_Wn(n).complete_with_min("F^min")
        cd = cd_index(comp)  # raises NonEulerianError on a nonzero remainder
        ok = ok and min(cd.terms.values()) >= 0
        span = comp.rank_of(comp.unique_max()) + 1
        if span >= 1:
            ok = ok and all(
                sum(1 if ch == "c" else 2 for ch in w) == span - 1 for w in cd.terms)
    with capsys.disabled():
        report(9, ok, "K_4^ gives c^2 + 3d, W_(1,1)^ gives c, all W_n^ rewrite "
                      "with zero remainder")
