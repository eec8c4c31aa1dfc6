import itertools
import random
import re
from functools import cache

import pytest
from hypothesis import given, strategies as st

from assoc2 import series
from assoc2.series import (LP_ONE, LaurentPoly, TruncatedSeries, check_f_closed_form,
                           coefficient, eval_t_minus1, geometric_inverse, solve_F,
                           solve_f, t_minus1_closed_form)
from assoc2.trees import LEAF, SearchSpaceError, corolla, dim_tree, parse_tree, root_decompose
from assoc2.twoassoc import count_W, trees_of_Kr


def lp(**kw):
    return LaurentPoly({int(k[1:].replace("m", "-")): v for k, v in kw.items()})


def x(i=1, vars=1, D=6):
    return TruncatedSeries.variable(vars, D, i)


def test_laurent_basics():
    p = LaurentPoly({0: 5, 1: 5, 2: 1})
    assert p.eval_minus1() == 1
    assert p.coefficient(1) == 5 and p.coefficient(7) == 0
    assert not LaurentPoly({3: 0})  # zeros dropped
    q = LaurentPoly({-1: 2})
    assert (p * q).coefficient(0) == 10
    assert not q.is_nonneg_poly() and p.is_nonneg_poly()


def test_series_add():
    s = x() + x()
    assert s.coefficient_poly((1,)) == LaurentPoly({0: 2})


def test_series_multiply_truncates():
    a = TruncatedSeries.variable(2, 1, 1)
    b = TruncatedSeries.variable(2, 1, 2)
    assert (a * b).terms == {}


def test_series_shape_mismatch():
    with pytest.raises(ValueError):
        TruncatedSeries.variable(1, 3, 1) + TruncatedSeries.variable(2, 3, 1)
    with pytest.raises(ValueError):
        TruncatedSeries.variable(1, 3, 1) + TruncatedSeries.variable(1, 4, 1)


def test_geometric_inverse():
    g = geometric_inverse(x(D=3))
    assert g.coefficient_poly((0,)) == LaurentPoly({0: 1})
    for d in (1, 2, 3):
        assert g.coefficient_poly((d,)) == LaurentPoly({0: 1})


laurents = st.dictionaries(st.integers(-3, 3), st.integers(-9, 9), max_size=4).map(LaurentPoly)


@st.composite
def series_without_constant_term(draw):
    r = draw(st.integers(1, 3))
    D = draw(st.integers(1, 5))
    exponents = st.tuples(*[st.integers(0, D)] * r).filter(lambda n: 0 < sum(n) <= D)
    return TruncatedSeries(r, D, draw(st.dictionaries(exponents, laurents, max_size=6)))


@given(series_without_constant_term())
def test_geometric_inverse_inverts_one_minus_u(u):
    one = TruncatedSeries.constant(u.var_count, u.max_degree, LP_ONE)
    assert geometric_inverse(u) * (one - u) == one


def test_geometric_inverse_rejects_constant_term():
    one = TruncatedSeries.constant(1, 3, LaurentPoly({0: 1}))
    with pytest.raises(ValueError):
        geometric_inverse(one)


@pytest.mark.parametrize("r,poly", [
    (1, {0: 1}),
    (3, {0: 2, 1: 1}),
    (4, {0: 5, 1: 5, 2: 1}),
])
def test_solve_f_coefficients(r, poly):
    f = solve_f(6)
    assert f.coefficient_poly((r,)) == LaurentPoly(poly)


def test_solve_f_fixed_point_stable():
    f = solve_f(6)
    rhs = x(D=6) + (f * f) * geometric_inverse(f.scaled(LaurentPoly({1: 1})))
    assert rhs == f


@pytest.mark.parametrize("D", [4, 12])
def test_f_closed_form(D):
    assert check_f_closed_form(D) == (True, None)


def test_f_closed_form_detects_corruption():
    from assoc2.series import _check_f_closed_form_of
    f = solve_f(5) + (x(D=5) * x(D=5))
    ok, bad = _check_f_closed_form_of(f)
    assert not ok and bad is not None


def test_solve_F_leaf_equals_solve_f():
    assert solve_F(parse_tree("."), 7) == solve_f(7)


def test_solve_f_is_solve_F_at_the_one_leaf_tree():
    # one solver and one memo: f is never solved on a second path
    for D in range(1, 13):
        assert solve_f(D) is solve_F(LEAF, D)


def test_solve_F_corolla2():
    F = solve_F(corolla(2), 4)
    assert F.coefficient_poly((1, 1)) == LaurentPoly({0: 2, 1: 1})
    assert F.coefficient_poly((1, 0)) == LaurentPoly({0: 1})
    assert coefficient(F, 1, (1, 1)) == 1


def test_solve_F_rejects_a_wrong_candidate(monkeypatch):
    real = series._solve_cleared

    def perturbed(H, p):
        F = real(H, p)
        if H.var_count == 1:
            return F  # leave the one-leaf series, which the branches use, intact
        n = max(F.terms)
        return F + TruncatedSeries(F.var_count, F.max_degree, {n: LP_ONE})
    monkeypatch.setattr(series, "_solve_cleared", perturbed)
    # a fresh memo, so the broken solver neither reads nor leaves cached series
    monkeypatch.setattr(series, "solve_F", cache(series.solve_F.__wrapped__))
    with pytest.raises(ArithmeticError, match=re.escape("solve_F((..)): ")):
        series.solve_F(corolla(2), 4)


def _dict_degree_product(a, b, degrees, out=None, packs=None):
    """series._degree_product as it was: one LaurentPoly product per pair of terms.

    Takes the kernel's arguments; `packs` is the kernel's own store and is not read.
    """
    out = {} if out is None else out
    for d in degrees:
        for d1 in range(d + 1):
            b_layer = b[d - d1]
            for n1, p1 in a[d1].items():
                for n2, p2 in b_layer.items():
                    n = tuple(x + y for x, y in zip(n1, n2))
                    prod = p1 * p2
                    q = out.get(n)
                    out[n] = prod if q is None else q + prod
    return out


def _nonzero(terms):
    return {n: p for n, p in terms.items() if p}


def _vectors(r, d):
    """The exponent vectors of r variables with total degree d."""
    return [n for n in itertools.product(range(d + 1), repeat=r) if sum(n) == d]


def _random_layers(rng, r, D, big):
    """Graded layers 0..D: some empty, some terms zero, Laurent exponents in -4..4."""
    layers = []
    for d in range(D + 1):
        layer = {}
        if rng.random() < 0.8:
            for n in _vectors(r, d):
                if rng.random() < 0.6:
                    exps = rng.sample(range(-4, 5), rng.randint(0, 4))
                    layer[n] = LaurentPoly({e: rng.randint(-big, big) for e in exps})
        layers.append(layer)
    return layers


def _cancelling_layers(r, d):
    """x_1^d cancels across two layer pairs and, for r >= 2, x_1 x_r^(d-1) within one."""
    p, q = LaurentPoly({-2: 3, 5: -(2 ** 90)}), LaurentPoly({1: 7, 2: 1})

    def vec(k1, kr):
        n = [0] * r
        n[0] += k1
        n[-1] += kr
        return tuple(n)
    a = [{} for _ in range(d + 1)]
    b = [{} for _ in range(d + 1)]
    a[0] = {vec(0, 0): LaurentPoly()}
    a[1], a[2] = {vec(1, 0): p}, {vec(2, 0): p}
    b[d - 1], b[d - 2] = {vec(d - 1, 0): q}, {vec(d - 2, 0): -q}
    cancelled = [vec(d, 0)]
    if r > 1:
        a[1][vec(0, 1)] = p
        b[d - 1].update({vec(0, d - 1): q, vec(1, d - 2): -q})
        cancelled.append(vec(1, d - 1))
    return a, b, cancelled


def _degree_ranges(D):
    """Every degree alone, all of 0..D, and the upper half."""
    return [range(d, d + 1) for d in range(D + 1)] + [range(D + 1), range(D // 2, D + 1)]


def test_degree_product_matches_the_pair_loop():
    rng = random.Random(20240614)
    for r in range(1, 5):
        for D in range(7):
            for big in (1, 9, 2 ** 64, 2 ** 200):
                for _ in range(3):
                    a = _random_layers(rng, r, D, big)
                    b = a if rng.random() < 0.25 else _random_layers(rng, r, D, big)
                    for degrees in _degree_ranges(D):
                        got = series._degree_product(a, b, degrees)
                        want = _dict_degree_product(a, b, degrees)
                        assert _nonzero(got) == _nonzero(want), (r, D, big, degrees)
                    degrees = range(D + 1)
                    seed = {n: LaurentPoly({0: 1}) for d in degrees for n in _vectors(r, d)[:2]}
                    got = series._degree_product(a, b, degrees, dict(seed))
                    want = _dict_degree_product(a, b, degrees, dict(seed))
                    assert _nonzero(got) == _nonzero(want), (r, D, big)
    for r in range(1, 5):
        a, b, cancelled = _cancelling_layers(r, 4)
        for degrees in (range(4, 5), range(5)):
            want = _dict_degree_product(a, b, degrees)
            assert all(n in want and not want[n] for n in cancelled)
            got = series._degree_product(a, b, degrees)
            assert _nonzero(got) == _nonzero(want) and not any(n in got for n in cancelled)


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_degree_product_reuses_packs_across_calls(r):
    # one store over a degree loop, as geometric_inverse keeps it: g = 1 + u g,
    # with coefficients that grow with the degree, so later calls need wider
    # digits than earlier ones and find layers packed at a narrower width;
    # every lowest exponent is 0, so only the width tells the packs apart
    rng = random.Random(7 + r)
    D = 6
    u = [{}] + [{n: LaurentPoly({e: rng.randint(1, 2 ** (40 * d)) for e in range(3)})
                 for n in _vectors(r, d) if rng.random() < 0.7} for d in range(1, D + 1)]
    g, want = [{} for _ in u], [{} for _ in u]
    g[0] = want[0] = {(0,) * r: LP_ONE}
    packs = series._Packs(len(u))
    for d in range(1, D + 1):
        g[d] = series._degree_product(u, g, range(d, d + 1), None, packs)
        want[d] = _dict_degree_product(u, want, range(d, d + 1))
        assert _nonzero(g[d]) == _nonzero(want[d]), (r, d)
    # each nonempty layer was scanned once, for every degree that read it
    read = [layer for layer in u + g[:D] if layer]
    assert len(packs.layers) == len(read)
    assert all(packs.layers[id(layer)].layer is layer for layer in read)
    assert max(len(entry.packed_at) for entry in packs.layers.values()) > 1


@pytest.mark.parametrize("d", [0, 3, 6])
def test_degree_product_digits_at_the_bound(d):
    # one variable, every layer full, every coefficient +A on the same span:
    # the middle digit of degree d is exactly A * A * span * (d + 1), the bound
    # the kernel sizes its digits by.  A runs over bit lengths that put the
    # bound at every offset from a multiple of 64, the unit k is rounded to.
    span = 5
    for bits in range(1, 70):
        A = 2 ** bits - 1
        a = [{(j,): LaurentPoly(dict.fromkeys(range(-2, 3), A))} for j in range(d + 1)]
        for degrees in (range(d, d + 1), range(d + 1)):
            got = series._degree_product(a, a, degrees)
            assert got == _dict_degree_product(a, a, degrees), (bits, degrees)
            # t^0: middle of t^-4..t^4
            assert got[(d,)].coefficient(0) == A * A * span * (d + 1), (bits, degrees)


def _reference_f(max_degree):
    """solve_f as a whole-series iteration: D rounds of the fixed-point map."""
    x = TruncatedSeries.variable(1, max_degree, 1)
    f = TruncatedSeries(1, max_degree)
    for _ in range(max_degree):
        f_new = x + (f * f) * geometric_inverse(f.scaled(LaurentPoly.term(1, 1)))
        if f_new == f:
            break
        f = f_new
    return f


@cache
def _reference_F(tree, max_degree):
    """solve_F as a whole-series iteration, on reference series for the branches."""
    r = tree.leaf_count()
    p = dim_tree(tree)
    if r == 1:
        return _reference_f(max_degree)
    horiz = TruncatedSeries.constant(r, max_degree, LP_ONE)
    offset = 0
    for child in root_decompose(tree):
        q_i = child.leaf_count()
        p_i = dim_tree(child)
        child_F = _reference_F(child, max_degree).embed(r, offset)
        horiz = horiz * geometric_inverse(child_F.scaled(LaurentPoly.term(1, 1 - p_i)))
        offset += q_i
    one = TruncatedSeries.constant(r, max_degree, LP_ONE)
    H = (horiz - one).scaled(LaurentPoly.term(1, p - 1))

    F = TruncatedSeries(r, max_degree)
    for _ in range(max_degree + 1):
        vert = (F * F).scaled(LaurentPoly.term(1, -p)) \
            * geometric_inverse(F.scaled(LaurentPoly.term(1, 1 - p)))
        F_new = vert + H
        if F_new == F:
            break
        F = F_new
    return F


def test_solvers_match_whole_series_iteration(monkeypatch):
    f_cases = range(1, 13)
    F_cases = [(tree, D) for r, D_max in ((1, 6), (2, 6), (3, 6), (4, 4))
               for tree in trees_of_Kr(r) for D in range(1, D_max + 1)]
    solved = [solve_f(D) for D in f_cases] + [solve_F(tree, D) for tree, D in F_cases]
    # the references multiply through the pair loop, so the sides share no convolution
    monkeypatch.setattr(series, "_degree_product", _dict_degree_product)
    _reference_F.cache_clear()
    references = [_reference_f(D) for D in f_cases] + [_reference_F(*c) for c in F_cases]
    for case, got, want in zip([*f_cases, *F_cases], solved, references):
        assert got == want, case


def test_solve_F_expands_each_distinct_branch(monkeypatch):
    # branches (.(..)) and ((..).) have equal leaf counts but different series;
    # a repeated branch, (..) twice, is expanded once and embedded twice
    solved = [solve_F(parse_tree(text), 3) for text in ("((.(..))((..).))", "((..)(..).)")]
    monkeypatch.setattr(series, "_degree_product", _dict_degree_product)
    _reference_F.cache_clear()
    references = [_reference_F(parse_tree(text), 3) for text in ("((.(..))((..).))", "((..)(..).)")]
    assert solved == references


def test_solve_F_no_constant_term():
    F = solve_F(corolla(3), 4)
    assert (0, 0, 0) not in F.terms


def test_coefficient_examples():
    f4 = solve_f(4)
    assert coefficient(f4, 2, (4,)) == 1
    assert coefficient(f4, 3, (4,)) == 0
    with pytest.raises(ValueError):
        coefficient(f4, 0, (5,))


@pytest.mark.parametrize("n", [(1, 2), (1, 1, 1, 0), (1, 0, -1)])
def test_coefficient_rejects_a_vector_of_the_wrong_shape(n):
    # count_W raises on these; a series read of them is no count either
    F = solve_F(trees_of_Kr(3)[0], 4)
    with pytest.raises(ValueError, match=re.escape(f"exponent {n}") + ".*var_count = 3"):
        coefficient(F, 1, n)
    with pytest.raises(ValueError):
        count_W(trees_of_Kr(3)[0], 1, n)


def test_eval_t_minus1_pentagon():
    assert LaurentPoly({0: 5, 1: 5, 2: 1}).eval_minus1() == 1


def test_eval_t_minus1_of_f_is_all_ones():
    fm1 = eval_t_minus1(solve_f(12))
    for r in range(1, 13):
        assert coefficient(fm1, 0, (r,)) == 1


@pytest.mark.parametrize("r", [1, 2, 3])
def test_eval_t_minus1_closed_form(r):
    for tree in trees_of_Kr(r):
        F = eval_t_minus1(solve_F(tree, 6))
        assert F == t_minus1_closed_form(tree, 6)


def test_fiber_sum_of_t_minus1_is_one():
    """Summing F_T(-1, x) over all T of K_r gives coefficient 1 at every n != 0."""
    import itertools
    for r in (2, 3):
        evs = [eval_t_minus1(solve_F(t, 4)) for t in trees_of_Kr(r)]
        for n in itertools.product(range(5), repeat=r):
            if not any(n) or sum(n) > 4:
                continue
            assert sum(coefficient(ev, 0, n) for ev in evs) == 1, n


def test_series_oracle_matches_recurrence():
    for tree in trees_of_Kr(2):
        F = solve_F(tree, 5)
        for n in [(1, 1), (2, 1), (3, 2), (1, 0), (0, 4)]:
            for m in range(sum(n) + 2):
                assert coefficient(F, m, n) == count_W(tree, m, n)


def test_series_oracle_matches_recurrence_r3():
    """Full bidegree agreement for every tree of K_3 up to D = 5."""
    import itertools
    for tree in trees_of_Kr(3):
        F = solve_F(tree, 5)
        for n in itertools.product(range(6), repeat=3):
            if not any(n) or sum(n) > 5:
                continue
            for m in range(sum(n) + 3):
                assert coefficient(F, m, n) == count_W(tree, m, n), (n, m)


def test_series_oracle_matches_recurrence_r4():
    """All eleven tree shapes of K_4, including depth-3 nesting."""
    import itertools
    assert len(trees_of_Kr(4)) == 11
    for tree in trees_of_Kr(4):
        F = solve_F(tree, 3)
        for n in itertools.product(range(4), repeat=4):
            if not any(n) or sum(n) > 3:
                continue
            for m in range(sum(n) + 3):
                assert coefficient(F, m, n) == count_W(tree, m, n), (n, m)


def test_series_json_dump_is_stable():
    a = solve_f(3).to_json()
    b = solve_f(3).to_json()
    assert a == b
    assert '"vars":1' in a and '"max_degree":3' in a


def test_nonnegativity_of_counts():
    for r in (1, 2, 3):
        for tree in trees_of_Kr(r):
            F = solve_F(tree, 4)
            assert all(p.is_nonneg_poly() for p in F.terms.values())


@given(laurents, laurents, laurents)
def test_laurent_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) * c == a * c + b * c
    assert (a - a).coeffs == {}


@pytest.mark.parametrize("text,D", [
    # README's K_3 trees, the count_oracles benchmark instances, r = 4 and r = 5 as planned
    ("((..).)", 12), ("(.(..))", 12), ("(...)", 12), ("(..)", 10), ("(...)", 8),
    ("(....)", 5), ("(....)", 10), ("(.....)", 8), (".", 12),
])
def test_solve_bound_admits_the_planned_solves(text, D):
    assert solve_F(parse_tree(text), D).max_degree == D


@pytest.mark.parametrize("text,D", [(".", 400), ("(..)", 300), ("((..).)", 40), ("(..)", 40)])
def test_solve_bound_refuses_from_r_and_D_alone(text, D, monkeypatch):
    # nothing is solved: a solver that raises on any call is never reached
    def no_solve(*args):
        raise AssertionError("solved")
    monkeypatch.setattr(series, "_solve_cleared", no_solve)
    monkeypatch.setattr(series, "solve_F", cache(series.solve_F.__wrapped__))
    with pytest.raises(SearchSpaceError, match=re.escape(f"solve_F({text}) to degree {D}")):
        series.solve_F(parse_tree(text), D)
