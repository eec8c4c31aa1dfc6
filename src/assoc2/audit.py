"""One-command verification of the engine's identities.

Every check row records its instance parameters, the expected and observed
values, and a pass flag; a report passes iff every row passes.  Reports are
deterministic for a fixed configuration.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

from . import poset as ps
from . import series as se
from . import twoassoc as ta
from .trees import count_K, dim_tree, enumerate_Kr, tree_to_text
from .twoassoc import count_W, enumerate_Wn, trees_of_Kr


@dataclass
class AuditReport:
    checks: list[dict] = field(default_factory=list)

    def add(self, name: str, params, expected, observed) -> None:
        self.checks.append({
            "name": name,
            "params": params,
            "expected": expected,
            "observed": observed,
            "pass": expected == observed,
        })

    def merge(self, other: "AuditReport") -> None:
        self.checks.extend(other.checks)

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.checks)

    def summary(self) -> dict:
        return {"total": len(self.checks),
                "passed": sum(c["pass"] for c in self.checks),
                "failed": sum(not c["pass"] for c in self.checks)}

    def failures(self) -> list[dict]:
        return [c for c in self.checks if not c["pass"]]

    def to_json(self) -> str:
        return json.dumps({"checks": self.checks, "summary": self.summary()},
                          sort_keys=True, separators=(",", ":"), default=str)

    def to_text(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(f"{status}  {c['name']}  {json.dumps(c['params'], sort_keys=True, default=str)}  "
                         f"expected={c['expected']}  observed={c['observed']}")
        s = self.summary()
        lines.append(f"{s['passed']}/{s['total']} checks passed, {s['failed']} failed")
        return "\n".join(lines)


def fiber_rank_counts(n) -> dict[str, dict[int, int]]:
    """Enumerated face counts of W_n split by forgetful image and rank."""
    return _fiber_rank_counts(enumerate_Wn(n))


def _fiber_rank_counts(P: ps.RankedPoset) -> dict[str, dict[int, int]]:
    pi_of = P.meta["pi"]
    out: dict[str, dict[int, int]] = {}
    for lab in P.labels:
        d = out.setdefault(pi_of[lab], {})
        rk = P.rank_of(lab)
        d[rk] = d.get(rk, 0) + 1
    return out


def audit_counts(n, max_degree: int | None = None) -> AuditReport:
    """Three-way count agreement per tree: series, recurrence, enumeration."""
    n = ta.check_nvector(n)
    D = max(sum(n), 1) if max_degree is None else max_degree
    if D < sum(n):
        raise ValueError(f"max_degree {D} is below |n| = {sum(n)}")
    rep = AuditReport()
    _add_count_rows(rep, n, fiber_rank_counts(n), D)
    return rep


def _add_count_rows(rep: AuditReport, n: tuple[int, ...], fibers: dict[str, dict[int, int]],
                    D: int) -> None:
    for tree in trees_of_Kr(len(n)):
        text = tree_to_text(tree)
        F = se.solve_F(tree, D)
        for m in range(ta.top_rank(n) + 1):
            recur_val = count_W(tree, m, n)
            rep.add("count.three_way", {"n": list(n), "tree": text, "m": m},
                    {"series": recur_val, "recurrence": recur_val, "enumeration": recur_val},
                    {"series": se.coefficient(F, m, n), "recurrence": recur_val,
                     "enumeration": fibers.get(text, {}).get(m, 0)})


def audit_identities(n_list, r_list, max_degree: int,
                     fiber_r_max: int = 2, fiber_k_max: int = 3,
                     fiber_weight_max: int = 3) -> AuditReport:
    """The t = -1 identities, balance checks, fiber and reduced products."""
    rep = _series_identities(r_list, max_degree)
    for n in n_list:
        n = ta.check_nvector(n)
        P = enumerate_Wn(n)
        _add_balance_rows(rep, n, P, P.complete_with_min("F^min"))
    rep.merge(audit_fiber_products(fiber_r_max, fiber_k_max, fiber_weight_max))
    rep.merge(audit_reduced_products())
    return rep


def _series_identities(r_list, max_degree: int) -> AuditReport:
    rep = AuditReport()
    fm1 = se.eval_t_minus1(se.solve_f(max_degree))
    for deg in range(1, max_degree + 1):
        rep.add("f.eval_minus1", {"r": deg}, 1, se.coefficient(fm1, 0, (deg,)))

    for r in r_list:
        for tree in trees_of_Kr(r):
            F = se.eval_t_minus1(se.solve_F(tree, max_degree))
            want = se.t_minus1_closed_form(tree, max_degree)
            rep.add("F_T.eval_minus1.closed_form",
                    {"tree": tree_to_text(tree), "D": max_degree}, True, F == want)
    return rep


def _add_balance_rows(rep: AuditReport, n: tuple[int, ...], P: ps.RankedPoset,
                      comp: ps.RankedPoset) -> None:
    """What.balanced on the completion comp of P = W_n, and fiber.balance per tree."""
    rep.add("What.balanced", {"n": list(n)}, 0,
            comp.alternating_sum("F^min", comp.unique_max()))
    sums: dict[str, int] = {}
    pi_of = P.meta["pi"]
    for lab in P.labels:
        sums[pi_of[lab]] = sums.get(pi_of[lab], 0) + (-1) ** P.rank_of(lab)
    for tree in trees_of_Kr(len(n)):
        text = tree_to_text(tree)
        rep.add("fiber.balance", {"n": list(n), "tree": text},
                (-1) ** dim_tree(tree), sums.get(text, 0))


def audit_fiber_products(r_max: int = 2, k_max: int = 3, weight_max: int = 3) -> AuditReport:
    """A(W_{m_1} x_{K_r} ... x_{K_r} W_{m_k}) = 1 on the desk-scale family."""
    rep = AuditReport()
    for r in range(1, r_max + 1):
        K = enumerate_Kr(r)
        vecs = [n for n in itertools.product(range(weight_max + 1), repeat=r)
                if any(n) and sum(n) <= weight_max]
        # each factor enumerated once and held for the whole loop
        factors = {m: enumerate_Wn(m) for m in vecs}
        for k in range(1, k_max + 1):
            for ms in itertools.combinations_with_replacement(vecs, k):
                # W_n labels hold commas only inside 2-bracket texts, so the
                # tuple labels of a repeated factor cannot collide
                posets = [factors[m] for m in ms]
                FP = ps.fiber_product(posets, K, [W.meta["pi"] for W in posets])
                total = sum((-1) ** FP.rank_of(x) for x in FP.labels)
                rep.add("fiber_product.alternating_sum",
                        {"r": r, "m_list": [list(m) for m in ms]}, 1, total)
    return rep


def _all_middle_posets(size: int):
    """Every partial order on `size` labeled elements, as strict down-set masks.

    below[i] has bit j when m_j < m_i.  Relations run through every subset of
    the ordered pairs; a relation is kept when it is transitive, which here
    implies antisymmetric because no element is below itself.
    """
    pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
    for mask in range(1 << len(pairs)):
        below = [0] * size
        for b, (i, j) in enumerate(pairs):
            if (mask >> b) & 1:
                below[j] |= 1 << i
        if all(below[j] & ~below[i] == 0 for i in range(size) for j in ps._bits(below[i])):
            yield below


def bounded_graded_family(max_elements: int = 6, min_rank: int = -1) -> list[ps.RankedPoset]:
    """Exhaustive family: all bounded graded posets with <= max_elements elements.

    Every labeled partial order on the middle elements gets a fresh bottom
    and top; ranks are longest-chain heights shifted to put the bottom at
    min_rank, and candidates that RankedPoset.from_down_sets rejects (the
    non-graded ones, where a cover does not raise rank by one) are dropped.
    """
    if max_elements > 12:
        # the down-sets follow (rank, label) order, where m0 < ... < m9 sort as their indices
        raise ValueError(f"max_elements {max_elements} is above 12: more than ten middles")
    out = []
    for size in range(0, max_elements - 1):
        everything = (1 << (size + 2)) - 1
        for below in _all_middle_posets(size):
            height = [0] * size
            for i in sorted(range(size), key=lambda i: below[i].bit_count()):
                height[i] = 1 + max((height[j] for j in ps._bits(below[i])), default=0)
            # the ids in (rank, label) order: bot, the middles by height, then top
            order = sorted(range(size), key=lambda i: (height[i], i))
            place = {i: p for p, i in enumerate(order, start=1)}
            labels = ["bot"] + [f"m{i}" for i in order] + ["top"]
            heights = [0] + [height[i] for i in order] + [1 + max(height, default=0)]
            down = [1] + [sum((1 << place[j] for j in ps._bits(below[i])), 1 | 1 << place[i])
                          for i in order] + [everything]
            ranked = {lab: h + min_rank for lab, h in zip(labels, heights)}
            try:
                out.append(ps.RankedPoset.from_down_sets(ranked, down))
            except ps.PosetError:
                continue  # not graded
    return out


def audit_reduced_products() -> AuditReport:
    """Balanced factors give balanced reduced products; the closed form holds."""
    rep = AuditReport()
    family = bounded_graded_family(6)
    n_pairs = bad_closed = bad_balance = 0
    signed = []
    for P in family:
        bot = P.unique_min()
        signed.append((P, P.alternating_sum(bot, P.unique_max()),
                       1 if P.rank_of(bot) % 2 == 0 else -1))
    for P, a_p, eps_p in signed:
        for Q, a_q, eps_q in signed:
            R = ps.reduced_product(P, Q)
            a_r = R.alternating_sum(R.unique_min(), R.unique_max())
            if a_r != (a_p - eps_p) * (a_q - eps_q) - eps_p * eps_q:
                bad_closed += 1
            if a_p == 0 and a_q == 0 and a_r != 0:
                bad_balance += 1
            n_pairs += 1
    rep.add("reduced_product.closed_form",
            {"family_size": len(family), "pairs": n_pairs}, 0, bad_closed)
    rep.add("reduced_product.balanced_factors",
            {"family_size": len(family), "pairs": n_pairs}, 0, bad_balance)
    return rep


def audit_eulerian(n) -> AuditReport:
    """Full Eulerian verification of the completed poset plus cross-checks."""
    n = ta.check_nvector(n)
    rep = AuditReport()
    _add_eulerian_rows(rep, n, enumerate_Wn(n).complete_with_min("F^min"))
    return rep


def _add_eulerian_rows(rep: AuditReport, n: tuple[int, ...], P: ps.RankedPoset) -> None:
    """The Eulerian sweeps and cross-checks on P, W_n completed by F^min."""
    res = P.verify_eulerian()
    rep.add("eulerian.unbalanced_intervals", {"n": list(n), "pairs": res.pairs_checked},
            0, len(res.unbalanced))
    rep.add("eulerian.graded", {"n": list(n)}, True, res.graded)
    rep.add("eulerian.diamond", {"n": list(n)}, 0, len(P.diamond_failures()))
    rep.add("eulerian.mobius", {"n": list(n)}, 0, len(P.mobius_failures()))

    bot = "F^min"
    top = P.unique_max()
    bad_sub = sum(1 for y in P.labels
                  if y != bot and P.alternating_sum(bot, y) != 0)
    rep.add("eulerian.sublevel_intervals", {"n": list(n), "bottom": bot}, 0, bad_sub)
    bad_super = sum(1 for x in P.labels
                    if x != top and P.alternating_sum(x, top) != 0)
    rep.add("eulerian.superlevel_intervals", {"n": list(n), "top": "F^max"}, 0, bad_super)


def desk_nvectors() -> list[tuple[int, ...]]:
    """The desk-scale instance list: r <= 3 with |n| <= 4, r <= 2 with |n| <= 5."""
    out = []
    for r in (1, 2, 3):
        cap = 5 if r <= 2 else 4
        for n in itertools.product(range(cap + 1), repeat=r):
            if any(n) and sum(n) <= cap:
                out.append(n)
    return out


def audit_desk() -> AuditReport:
    """The full desk-scale profile; the release gate.

    Two lanes run at the same time.  A forked worker runs the fiber and
    reduced products, which share no state with the rest; this process runs
    the f rows and the K_r rows, then the per-n rows and the series
    identities (_desk_lane).  Each W_n is read there in one pass and then
    dropped: its count, balance and Eulerian rows go to three buffers.  The
    report joins every section in one fixed order: counts, series
    identities, balance, fiber products, reduced products, f rows, K_r rows,
    Eulerian rows.
    """
    (fiber, reduced), (counts, series, balance, tail, eulerian) = _forked(
        lambda: (audit_fiber_products(), audit_reduced_products()), _desk_lane)
    rep = AuditReport()
    for part in (counts, series, balance, fiber, reduced, tail, eulerian):
        rep.merge(part)
    return rep


def _desk_lane() -> tuple[AuditReport, ...]:
    """The desk's counts, series, balance, f and K_r, and Eulerian sections.

    The f and K_r rows come first: K_8 (4,279 faces) is the largest poset
    this lane builds, and built before the per-n pass it does not sit on
    top of what that pass leaves behind.  The caller joins the sections in
    report order, so the order they run in changes no byte.
    """
    tail = AuditReport()
    fm1 = se.eval_t_minus1(se.solve_f(12))
    for deg in range(1, 13):
        tail.add("f.eval_minus1", {"r": deg}, 1, se.coefficient(fm1, 0, (deg,)))
    ok, bad = se.check_f_closed_form(12)
    tail.add("f.closed_form", {"D": 12}, (True, None), (ok, bad))
    for deg in range(1, 9):
        tail.add("count_K.vs.enumeration", {"r": deg},
                 enumerate_Kr(deg).rank_counts(),
                 {m: count_K(m, deg) for m in range(max(deg - 1, 1)) if count_K(m, deg)})
    counts, balance, eulerian = AuditReport(), AuditReport(), AuditReport()
    for n in desk_nvectors():
        _desk_rows(n, counts, balance, eulerian)
    series = _series_identities(r_list=[1, 2, 3], max_degree=6)
    return counts, series, balance, tail, eulerian


def _forked(worker, parent):
    """(worker(), parent()), with worker() run in a forked process meanwhile.

    The worker pickles its result, or the exception it raised, to a pipe and
    leaves by os._exit, never returning to the caller.  This process runs
    parent(), then reads the pipe to its end, reaps the worker and raises a
    worker exception again with its type and message.  If parent() raises,
    the worker is killed and reaped first; a worker that ends without
    writing, or with a nonzero status, is a VerificationError naming that
    status.  Where os.fork does not exist, both run here in turn.
    """
    import os
    if not hasattr(os, "fork"):
        mine = parent()
        return worker(), mine
    import pickle
    import signal

    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:
                outcome = (True, worker())
            except BaseException as exc:
                outcome = (False, exc)
            with open(w, "wb") as pipe:
                pipe.write(pickle.dumps(outcome))
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    data = None
    with open(r, "rb") as pipe:
        try:
            mine = parent()
            data = pipe.read()
        finally:
            if data is None:
                os.kill(pid, signal.SIGKILL)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if status or not data:
        how = f"signal {-status}" if status < 0 else f"exit status {status}"
        raise ta.VerificationError(f"the audit worker ended by {how} without a result")
    ok, value = pickle.loads(data)
    if not ok:
        raise value
    return value, mine


def _desk_rows(n: tuple[int, ...], counts: AuditReport, balance: AuditReport,
               eulerian: AuditReport) -> None:
    """W_n's count, balance and Eulerian rows, from one enumeration and one completion."""
    P = enumerate_Wn(n)
    comp = P.complete_with_min("F^min")
    _add_count_rows(counts, n, _fiber_rank_counts(P), max(sum(n), 1))
    _add_balance_rows(balance, n, P, comp)
    del P  # the sweeps read the completion alone
    _add_eulerian_rows(eulerian, n, comp)
