import math
import pickle
import re

import pytest
from hypothesis import given, strategies as st

from assoc2 import trees, twoassoc
from assoc2.trees import (DEFAULT_MAX_ELEMENTS, Bracketing, SearchSpaceError, Tree,
                          all_bracketings, bracketing_to_tree, check_K_size, concat, corolla,
                          count_K, dim_tree, enumerate_Kr, parse_tree, root_decompose,
                          tree_to_bracketing, tree_to_text)
from assoc2.series import coefficient, solve_f

LEAF = Tree()


def test_stability_rejects_single_child():
    with pytest.raises(ValueError):
        Tree((LEAF,))


def _recount(tree):
    """(leaves, internal nodes) by walking the tree."""
    if not tree.children:
        return 1, 0
    counts = [_recount(c) for c in tree.children]
    return sum(c[0] for c in counts), 1 + sum(c[1] for c in counts)


def _rebuilt(tree):
    """An equal tree made of new nodes, sharing no node with `tree`."""
    return Tree(tuple(_rebuilt(c) for c in tree.children))


def test_tree_cached_counts_match_a_recount():
    for r in range(1, 8):
        for b in all_bracketings(r):
            tree = bracketing_to_tree(b)
            for _ in range(2):  # computed, then read back
                assert (tree.leaf_count(), tree.internal_count()) == _recount(tree) \
                    == (r, len(b.brackets))
            assert dim_tree(tree) == b.dim


def test_equal_trees_built_apart_compare_and_hash_equal():
    for r in range(1, 6):
        for b in all_bracketings(r):
            tree = bracketing_to_tree(b)
            for other in (_rebuilt(tree), parse_tree(tree_to_text(tree))):
                assert other == tree and hash(other) == hash(tree)
                assert {other: 1}[tree] == 1
    # the cached hash is the one the generated dataclass hash computes
    assert hash(corolla(3)) == hash(((LEAF, LEAF, LEAF),))
    assert parse_tree("((..).)") != parse_tree("(.(..))")


def test_tree_pickle_rebuilds_the_cached_values():
    for tree in (LEAF, corolla(4), parse_tree("((..)(.(..)).)")):
        hash(tree), tree.leaf_count()  # fill the caches before pickling
        again = pickle.loads(pickle.dumps(tree))
        assert again == tree and hash(again) == hash(tree)
        assert (again.leaf_count(), again.internal_count()) == _recount(tree)
        # the pickle carries the children alone, never a cached value
        assert tree.__reduce__() == (Tree, (tree.children,))


@pytest.mark.parametrize("r,counts", [
    (1, {0: 1}),
    (3, {0: 2, 1: 1}),
    (4, {0: 5, 1: 5, 2: 1}),
    (5, {0: 14, 1: 21, 2: 9, 3: 1}),
])
def test_enumerate_Kr_rank_counts(r, counts):
    assert enumerate_Kr(r).rank_counts() == counts


def test_enumerate_Kr_rejects_bad_r():
    with pytest.raises(ValueError):
        enumerate_Kr(0)
    with pytest.raises(ValueError):
        enumerate_Kr(-3)


def test_enumerate_Kr_refuses_above_the_bound_without_enumerating(monkeypatch):
    # K_10 is the poset of W_(10), which enumerate_Wn refuses at the same bound
    def no_enumeration(r):
        raise AssertionError("enumerated a refused K_r")
    monkeypatch.setattr(trees, "all_bracketings", no_enumeration)
    assert sum(count_K(m, 9) for m in range(8)) <= DEFAULT_MAX_ELEMENTS
    with pytest.raises(SearchSpaceError, match="K_10 has 103049 faces"):
        enumerate_Kr(10)
    assert twoassoc.SearchSpaceError is SearchSpaceError
    assert twoassoc.DEFAULT_MAX_ELEMENTS == DEFAULT_MAX_ELEMENTS == 100_000


@pytest.mark.parametrize("q", range(1, 10))
def test_check_K_size_refuses_only_above_the_bound(q):
    size = sum(count_K(m, q) for m in range(max(q - 1, 1)))
    for bound in (0, 1, 5, 42, 1000, 20000, size - 1, size):
        if size > bound:
            with pytest.raises(SearchSpaceError, match=f"K_{q} has "):
                check_K_size(q, bound)
        else:
            check_K_size(q, bound)


@pytest.mark.parametrize("q,name,message", [
    (10 ** 14, None, "K_100000000000000 has at least 2^99999999999998 faces"),
    (19, None, "K_19 has at least 2^17 faces"),        # 2^17 > 100000
    (13, None, "K_13 has at least 208012 faces"),      # Catalan(12) vertices
    (12, None, "K_12 has 2646723 faces"),              # Catalan(11) = 58786: counted
    (12, "W_x", "W_x has at least 2646723 faces"),
])
def test_check_K_size_names_the_cheapest_bound_that_refuses(q, name, message):
    with pytest.raises(SearchSpaceError, match=re.escape(message + ", above the bound 100000")):
        check_K_size(q, DEFAULT_MAX_ELEMENTS, name)


def test_Kr_unique_max_is_corolla():
    for r in range(1, 7):
        P = enumerate_Kr(r)
        assert P.unique_max() == tree_to_text(corolla(r))
        assert P.rank_of(P.unique_max()) == max(r - 2, 0)


def test_dim_tree():
    assert dim_tree(LEAF) == 0
    for r in range(2, 8):
        assert dim_tree(corolla(r)) == r - 2
    left_comb = parse_tree("((..).)")
    assert dim_tree(left_comb) == 0


def test_concat():
    assert concat(LEAF) is LEAF
    c2 = concat(LEAF, LEAF)
    assert c2 == corolla(2) and dim_tree(c2) == 0
    t = concat(corolla(3), LEAF)
    assert dim_tree(t) == 1 and t.leaf_count() == 4
    with pytest.raises(ValueError):
        concat()


def test_concat_dimension_formula():
    parts = [corolla(3), LEAF, corolla(2)]
    t = concat(*parts)
    assert dim_tree(t) == sum(dim_tree(p) for p in parts) + len(parts) - 2
    assert t.leaf_count() == sum(p.leaf_count() for p in parts)


def test_root_decompose():
    assert root_decompose(corolla(2)) == (LEAF, LEAF)
    assert len(root_decompose(corolla(5))) == 5
    with pytest.raises(ValueError):
        root_decompose(LEAF)


@pytest.mark.parametrize("r", [2, 3, 4, 5, 6])
def test_concat_decompose_round_trip_on_Kr(r):
    for b in all_bracketings(r):
        t = bracketing_to_tree(b)
        assert concat(*root_decompose(t)) == t


def test_tree_text_round_trip():
    for text in [".", "(..)", "(...)", "((..).)", "(.(..))", "((..)(...))"]:
        assert tree_to_text(parse_tree(text)) == text


@pytest.mark.parametrize("bad", ["", "(", "(.)", "(..", "(..)x", "..", "()"])
def test_parse_tree_rejects(bad):
    with pytest.raises(ValueError):
        parse_tree(bad)


def test_bracketing_tree_bijection():
    for r in range(1, 7):
        for b in all_bracketings(r):
            t = bracketing_to_tree(b)
            assert tree_to_bracketing(t) == b
            assert dim_tree(t) == b.dim


def test_bracketing_validation():
    with pytest.raises(ValueError):
        Bracketing(4, frozenset({(1, 4), (1, 2), (2, 3)}))  # overlap
    with pytest.raises(ValueError):
        Bracketing(3, frozenset({(1, 2)}))  # missing full bracket
    with pytest.raises(ValueError):
        Bracketing(2, frozenset({(1, 3)}))  # out of range


def test_bracketing_json_includes_singletons():
    b = tree_to_bracketing(parse_tree("((..).)"))
    doc = b.to_json_dict()
    assert doc["r"] == 3
    assert [1, 1] in doc["brackets"] and [3, 3] in doc["brackets"]
    assert [1, 2] in doc["brackets"] and [1, 3] in doc["brackets"]


@pytest.mark.parametrize("m,r,value", [
    (0, 1, 1), (1, 1, 0), (2, 4, 1), (0, 5, 14), (0, 4, 5), (1, 4, 5),
])
def test_count_K_values(m, r, value):
    assert count_K(m, r) == value


def _kirkman_cayley(m, r):
    """Dissections of an (r+1)-gon by k = r - 2 - m diagonals: the faces of K_r of dimension m."""
    k = r - 2 - m
    return math.comb(r - 2, k) * math.comb(r + k, k) // (k + 1)


def test_count_K_matches_kirkman_cayley():
    assert [count_K(m, r) for r in range(2, 61) for m in range(r - 1)] \
        == [_kirkman_cayley(m, r) for r in range(2, 61) for m in range(r - 1)]


def test_count_K_fills_its_memo_bottom_up():
    # K_1200 asked first: the recursion used to go about r deep and overflow
    trees._count_K.cache_clear()
    trees._count_K_parts.cache_clear()
    assert count_K(0, 1200) == _kirkman_cayley(0, 1200) == math.comb(2398, 1199) // 1200


def test_count_K_rejects_bad_r():
    with pytest.raises(ValueError):
        count_K(0, 0)


def test_three_way_count_agreement():
    """count_K == enumeration == generating function, r <= 8."""
    f = solve_f(8)
    for r in range(1, 9):
        rc = enumerate_Kr(r).rank_counts()
        for m in range(0, r):
            assert count_K(m, r) == rc.get(m, 0) == coefficient(f, m, (r,))


def test_Kr_alternating_sum_is_one():
    for r in range(1, 9):
        rc = enumerate_Kr(r).rank_counts()
        assert sum((-1) ** m * c for m, c in rc.items()) == 1


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5, 6])
def test_completed_Kr_is_eulerian(r):
    P = enumerate_Kr(r).complete_with_min("0^")
    assert P.verify_eulerian().is_eulerian


trees_strategy = st.recursive(
    st.just(LEAF),
    lambda children: st.lists(children, min_size=2, max_size=3).map(lambda cs: Tree(tuple(cs))),
    max_leaves=100,
)


@given(trees_strategy)
def test_tree_text_round_trip_property(t):
    assert parse_tree(tree_to_text(t)) == t


@given(trees_strategy)
def test_dim_matches_bracketing_dim(t):
    assert dim_tree(t) == tree_to_bracketing(t).dim
