import pytest

from assoc2.audit import (AuditReport, audit_counts, audit_eulerian,
                          audit_fiber_products, audit_identities,
                          audit_reduced_products, bounded_graded_family,
                          desk_nvectors)

# these tests read the desk W_n many times: hold them (see conftest.desk_wn)
pytestmark = pytest.mark.usefixtures("desk_wn")


def test_audit_counts_11():
    rep = audit_counts((1, 1))
    assert rep.passed
    by_key = {(c["params"]["tree"], c["params"]["m"]): c["observed"]["enumeration"]
              for c in rep.checks}
    assert by_key[("(..)", 0)] == 2 and by_key[("(..)", 1)] == 1


def test_audit_counts_reproduces_K3_and_K4():
    rep = audit_counts((3,))
    assert rep.passed
    vals = {c["params"]["m"]: c["observed"]["enumeration"] for c in rep.checks}
    assert vals == {0: 2, 1: 1}
    rep = audit_counts((4,))
    vals = {c["params"]["m"]: c["observed"]["enumeration"] for c in rep.checks}
    assert vals == {0: 5, 1: 5, 2: 1}


def test_audit_counts_degree_guard():
    with pytest.raises(ValueError):
        audit_counts((2, 1), max_degree=2)


@pytest.mark.parametrize("n", [(1, 1), (2,), (2, 1)])
def test_audit_eulerian_passes(n):
    rep = audit_eulerian(n)
    assert rep.passed
    names = {c["name"] for c in rep.checks}
    assert {"eulerian.unbalanced_intervals", "eulerian.graded", "eulerian.diamond",
            "eulerian.mobius", "eulerian.sublevel_intervals",
            "eulerian.superlevel_intervals"} <= names


def test_audit_identities_small():
    rep = audit_identities(n_list=[(1, 1), (2, 1)], r_list=[1, 2], max_degree=4,
                           fiber_r_max=1, fiber_k_max=2, fiber_weight_max=2)
    assert rep.passed
    names = {c["name"] for c in rep.checks}
    assert "What.balanced" in names and "fiber.balance" in names
    assert "f.eval_minus1" in names and "F_T.eval_minus1.closed_form" in names


def test_audit_fiber_products_instance():
    rep = audit_fiber_products(r_max=2, k_max=2, weight_max=2)
    assert rep.passed
    rows = [c for c in rep.checks
            if c["params"] == {"r": 2, "m_list": [[1, 1], [1, 1]]}]
    assert rows and rows[0]["observed"] == 1


def test_bounded_graded_family_is_graded_and_bounded():
    family = bounded_graded_family(6)
    assert len(family) > 100
    for P in family:
        assert len(P) <= 6
        P.unique_min(), P.unique_max()
        assert P.is_graded()


def test_audit_reduced_products():
    rep = audit_reduced_products()
    assert rep.passed


def test_report_determinism():
    a = audit_counts((2, 1)).to_json()
    b = audit_counts((2, 1)).to_json()
    assert a == b


def test_report_failure_path():
    rep = AuditReport()
    rep.add("demo", {"x": 1}, 0, 1)
    assert not rep.passed
    assert rep.summary() == {"total": 1, "passed": 0, "failed": 1}
    assert rep.failures()[0]["name"] == "demo"
    assert rep.to_text().startswith("FAIL")


def test_desk_nvectors_cover_configured_ranges():
    vecs = desk_nvectors()
    assert (4,) in vecs and (5,) in vecs and (8,) not in vecs
    assert (2, 3) in vecs and (5, 0) in vecs and (3, 3) not in vecs
    assert (2, 1, 1) in vecs and (2, 2, 1) not in vecs
    assert all(any(v) for v in vecs)
