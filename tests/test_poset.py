import copy
import gc
import itertools
import random
import re
import sys
import time
import tracemalloc
import weakref
from collections import Counter

import pytest

from assoc2 import trees, twoassoc
from assoc2.audit import (_all_middle_posets, audit_fiber_products, bounded_graded_family,
                          desk_nvectors)
from assoc2.poset import (CdPolynomial, FlagVector, NonEulerianError, PosetError,
                          RankedPoset, SearchSpaceError, ab_index, cd_index, fiber_product,
                          _bits, _bounded_graded_data, flag_f_vector, flag_h_vector,
                          reduced_product)
from assoc2.trees import all_bracketings, bracketing_to_tree, enumerate_Kr, tree_to_text
from assoc2.twoassoc import enumerate_Wn

# these tests read the desk W_n many times: hold them (see conftest.desk_wn)
pytestmark = pytest.mark.usefixtures("desk_wn")


def chain(*ranks):
    labs = [f"c{i}" for i in range(len(ranks))]
    return RankedPoset(dict(zip(labs, ranks)),
                       list(zip(labs, labs[1:])))


def diamond():
    return RankedPoset({"bot": 0, "a": 1, "b": 1, "top": 2},
                       [("bot", "a"), ("bot", "b"), ("a", "top"), ("b", "top")])


def test_constructor_validates_cover_ranks():
    with pytest.raises(PosetError):
        RankedPoset({"a": 0, "b": 2}, [("a", "b")])


def test_a_bad_label_cover_is_named_by_its_smallest_index_pair():
    # in rank order 'c' -> 'c' comes first; in index order 'a' -> 'd' is the smallest
    ranked = {"a": 0, "b": 0, "c": 1, "d": 2}
    covers = [("a", "c"), ("b", "c"), ("c", "d"), ("b", "d"), ("c", "c"), ("a", "d")]
    for given in (covers, covers[::-1]):
        with pytest.raises(PosetError, match=r"^cover 'a' -> 'd' must raise rank by 1 "
                                             r"\(got 0 -> 2\)$"):
            RankedPoset(ranked, given)
    with pytest.raises(PosetError, match=r"^cover 'b' -> 'b' must raise rank by 1 \(got 1 -> 1\)$"):
        RankedPoset({"a": 0, "b": 1}, [("a", "b"), ("b", "b")])


def test_duplicate_label_covers_build_the_poset_of_one_copy():
    K = enumerate_Kr(4)
    covers = [(K.labels[i], K.labels[j]) for i, j in K.cover_pairs]
    P = RankedPoset(dict(zip(K.labels, K.ranks)), covers + covers[::3] + covers[:1])
    assert P.cover_pairs == K.cover_pairs and P._upper == K._upper
    assert P._down == K._down and P._up == K._up
    assert (P._minimal, P._maximal) == (K._minimal, K._maximal)


def test_from_down_sets_reads_the_covers_off_the_layer_below():
    P = RankedPoset.from_down_sets({"a": 0, "b": 1, "c": 1, "d": 2},
                                   [0b0001, 0b0011, 0b0101, 0b1111], meta={"kind": "test"})
    assert P.cover_pairs == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert P._down == [0b0001, 0b0011, 0b0101, 0b1111] and P.meta == {"kind": "test"}


@pytest.mark.parametrize("ranked, down", [
    ({"a": 0, "c": 2}, [0b01, 0b11]),  # a < c two ranks apart, nothing between
    ({"a": 0, "b": 1, "c": 2}, [0b001, 0b011, 0b110]),  # a < b < c, but not a < c
    ({"a": 0, "b": 1, "c": 2}, [0b001, 0b011, 0b011]),  # c leaves itself out
], ids=["skip-rank", "not-transitive", "not-reflexive"])
def test_from_down_sets_rejects_an_order_its_covers_do_not_close_to(ranked, down):
    with pytest.raises(PosetError, match="^order is not the closure of rank-adjacent "
                                         "covers below 'c'"):
        RankedPoset.from_down_sets(ranked, down)


def test_from_down_sets_names_the_lowest_ranked_bad_row():
    # 'a' skips a rank and 'b' leaves itself out; rows are checked in rank order.  The
    # bits follow (rank, label) order: c is bit 0, b bit 1, a bit 2
    with pytest.raises(PosetError, match="^order is not the closure of rank-adjacent "
                                         "covers below 'b'"):
        RankedPoset.from_down_sets({"a": 2, "b": 1, "c": 0}, [0b001, 0b001, 0b101])


def test_from_down_sets_keeps_the_rows_it_checks():
    K = enumerate_Kr(5)
    down = [int(str(d)) for d in K._down]  # fresh objects, most above the small-int cache
    P = RankedPoset.from_down_sets(dict(zip(K.labels, K.ranks)), down)
    assert sum(d > 256 for d in down) > 30
    assert all(P._down[i] is down[i] for i in range(len(down)))
    assert P._down == K._down and P._up == K._up and P.cover_pairs == K.cover_pairs


def test_from_down_sets_needs_one_down_set_per_element():
    with pytest.raises(PosetError, match="2 down-sets for 3 elements"):
        RankedPoset.from_down_sets({"a": 0, "b": 1, "c": 2}, [0b001, 0b011])


def test_constructor_rejects_a_cover_that_names_no_element():
    # this used to raise a bare KeyError
    with pytest.raises(PosetError, match="cover names 'b', which is no element"):
        RankedPoset({"a": 0}, [("a", "b")])


def test_relabel_keeps_the_order():
    P = diamond().relabel({"bot": "0", "a": "x", "b": "y", "top": "1"})
    assert P.labels == ("0", "x", "y", "1")
    assert P.leq("0", "1") and not P.leq("x", "y") and P.mobius("0", "1") == 1


@pytest.mark.parametrize("mapping, why", [
    # this one used to give a 2-element poset
    ({"a": "x", "b": "x", "t": "t"}, "sends two labels to 'x'"),
    # this one used to raise a bare KeyError
    ({"a": "x", "b": "y"}, "misses 't'"),
], ids=["not injective", "misses a label"])
def test_relabel_rejects_a_mapping_that_is_not_one_to_one(mapping, why):
    P = RankedPoset({"a": 0, "b": 0, "t": 1}, [("a", "t"), ("b", "t")])
    with pytest.raises(PosetError, match=why):
        P.relabel(mapping)


def _Kr_by_removing_one_bracket(r):
    """enumerate_Kr as it was: each cover removes one bracket other than (1, r)."""
    ranked, label_of = {}, {}
    for b in all_bracketings(r):
        lab = tree_to_text(bracketing_to_tree(b))
        ranked[lab] = b.dim
        label_of[b.brackets] = lab
    covers = [(label_of[b.brackets], label_of[b.brackets - {br}])
              for b in all_bracketings(r) for br in b.brackets if br != (1, r)]
    return RankedPoset(ranked, covers, meta={"kind": "K_r", "r": r})


@pytest.mark.parametrize("r", range(1, 8))
def test_Kr_item_mask_covers_match_removing_one_bracket(r):
    P, Q = enumerate_Kr(r), _Kr_by_removing_one_bracket(r)
    assert P.labels == Q.labels and P.ranks == Q.ranks and P.meta == Q.meta
    assert P.cover_pairs == Q.cover_pairs and P._up == Q._up


def _all_middle_less_matrices(size):
    """_all_middle_posets as it was: every partial order as a strict-less matrix."""
    pairs = [(i, j) for i in range(size) for j in range(size) if i != j]
    for mask in range(1 << len(pairs)):
        less = [[False] * size for _ in range(size)]
        for b, (i, j) in enumerate(pairs):
            if (mask >> b) & 1:
                less[i][j] = True
        ok = True
        for i in range(size):
            for j in range(size):
                if less[i][j]:
                    if less[j][i]:
                        ok = False
                        break
                    for kk in range(size):
                        if less[j][kk] and not less[i][kk]:
                            ok = False
                            break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            yield less


@pytest.mark.parametrize("size", range(5))
def test_middle_down_sets_match_the_less_matrices(size):
    old = [[sum(1 << j for j in range(size) if less[j][i]) for i in range(size)]
           for less in _all_middle_less_matrices(size)]
    assert list(_all_middle_posets(size)) == old
    assert len(old) == [1, 1, 3, 19, 219][size]  # labeled posets on `size` elements


def _graded_family_by_direct_covers(max_elements, min_rank):
    """bounded_graded_family as it was: Hasse covers from a direct() test on `less`."""
    out = []
    for size in range(0, max_elements - 1):
        for less in _all_middle_less_matrices(size):
            labels = [f"m{i}" for i in range(size)]

            def direct(j, i):
                return not any(less[j][z] and less[z][i] for z in range(size))

            covers = []
            for i in range(size):
                below = [j for j in range(size) if less[j][i]]
                covers += [(labels[j], labels[i]) for j in below if direct(j, i)]
                if not below:
                    covers.append(("bot", labels[i]))
                if not any(less[i][j] for j in range(size)):
                    covers.append((labels[i], "top"))
            if size == 0:
                covers.append(("bot", "top"))

            height = {"bot": 0}
            order = sorted(range(size), key=lambda i: sum(less[j][i] for j in range(size)))
            for i in order:
                below = [height[labels[j]] for j in range(size) if less[j][i]]
                height[labels[i]] = 1 + max(below, default=0)
            height["top"] = 1 + max((height[labels[i]] for i in range(size)
                                     if not any(less[i][j] for j in range(size))),
                                    default=0)
            try:
                out.append(RankedPoset({lab: h + min_rank for lab, h in height.items()}, covers))
            except PosetError:
                continue
    return out


@pytest.mark.parametrize("min_rank", [-1, -2])
def test_graded_family_matches_the_direct_cover_builder(min_rank):
    new = bounded_graded_family(6, min_rank=min_rank)
    old = _graded_family_by_direct_covers(6, min_rank)
    assert len(new) == len(old) > 0
    assert [P.to_json() for P in new] == [P.to_json() for P in old]


def test_graded_family_refuses_more_than_ten_middles():
    # the down-set masks follow the label order bot < m0 < ... < m9 < top
    with pytest.raises(ValueError, match="max_elements 13 is above 12"):
        bounded_graded_family(13)


def test_interning_is_sorted_by_label():
    # ids follow (rank, label) order; the export numbers the elements in label order
    P = RankedPoset({"z": 0, "a": 0, "m": 1}, [("a", "m"), ("z", "m")])
    assert P.labels == ("a", "z", "m")
    doc = P.to_json_dict()
    assert [(e["id"], e["label"]) for e in doc["elements"]] == [(0, "a"), (1, "m"), (2, "z")]
    assert doc["covers"] == [[0, 1], [2, 1]]
    assert P.to_json() == P.to_json()


def test_alternating_sum_single_and_chain():
    P = chain(0)
    assert P.alternating_sum("c0", "c0") == 1
    Q = chain(0, 1)
    assert Q.alternating_sum("c0", "c1") == 0


def test_alternating_sum_completed_K4():
    P = enumerate_Kr(4).complete_with_min("0^")
    assert len(P) == 12
    assert P.alternating_sum("0^", P.unique_max()) == 0
    # the new bottom covers exactly the 5 vertices
    bot = P.index("0^")
    assert sum(1 for i, j in P.cover_pairs if i == bot) == 5


def test_alternating_sum_rejects_incomparable():
    P = diamond()
    with pytest.raises(PosetError):
        P.alternating_sum("a", "b")
    with pytest.raises(PosetError):
        P.alternating_sum("top", "bot")


def test_mobius():
    P = chain(0)
    assert P.mobius("c0", "c0") == 1
    Q = chain(0, 1)
    assert Q.mobius("c0", "c1") == -1
    assert diamond().mobius("bot", "top") == 1


def test_verify_eulerian_pentagon():
    P = enumerate_Kr(4).complete_with_min("0^")
    rep = P.verify_eulerian()
    assert rep.is_eulerian and rep.graded and rep.unbalanced == ()


def test_verify_eulerian_flags_triple_diamond():
    P = RankedPoset({"bot": -1, "a": 0, "b": 0, "c": 0, "top": 1},
                    [("bot", x) for x in "abc"] + [(x, "top") for x in "abc"])
    rep = P.verify_eulerian()
    assert not rep.is_eulerian
    assert ("bot", "top", 1) in rep.unbalanced
    assert P.diamond_failures() == [("bot", "top", 3)]


def test_verify_eulerian_W11():
    P = enumerate_Wn((1, 1)).complete_with_min("F^min")
    assert len(P) == 4
    assert P.verify_eulerian().is_eulerian
    # rank-2 interval of a verified Eulerian poset is balanced
    assert P.alternating_sum("F^min", P.unique_max()) == 0


def test_complete_with_min():
    P = enumerate_Wn((1,))
    Q = P.complete_with_min("F^min")
    assert sorted(Q.ranks) == [-1, 0]
    with pytest.raises(PosetError, match="already present"):
        P.complete_with_min(P.labels[0])


def _complete_by_label_covers(P, label):
    """complete_with_min as it was: the covers as label pairs plus the new minimum
    under every minimal element, closed again by the label constructor."""
    ranked = {lab: P.rank_of(lab) for lab in P.labels}
    ranked[label] = min(P.ranks) - 1
    covers = [(P.labels[i], P.labels[j]) for i, j in P.cover_pairs]
    covers += [(label, m) for m in P.minimal_elements()]
    return RankedPoset(ranked, covers, P.meta)


def test_completion_matches_the_label_cover_construction():
    # new labels that sort first, in the middle and last among bot, m0..m3, top
    cases = [(P, label) for min_rank in (-1, -2) for P in bounded_graded_family(6, min_rank)
             for label in ("0^", "m0x", "zz")]
    cases += [(enumerate_Wn(n), "F^min") for n in desk_nvectors()]
    cases += [(enumerate_Kr(r), "K^min") for r in range(1, 7)]
    assert len(cases) == 839
    for P, label in cases:
        got, want = P.complete_with_min(label), _complete_by_label_covers(P, label)
        assert (got.labels, got.ranks, got.cover_pairs, got._down, got._up, got._minimal,
                got._maximal, got.meta) == (want.labels, want.ranks, want.cover_pairs,
                                            want._down, want._up, want._minimal,
                                            want._maximal, want.meta), (P.labels, label)


def test_completion_refuses_a_minimal_element_above_the_lowest_rank():
    P = RankedPoset({"a": 0, "b": 1}, [])
    with pytest.raises(PosetError):
        P.complete_with_min()


# the completed W_n measured to be lattices, up to 1,138 elements
LATTICE_NVECTORS = [(1, 1), (2, 1), (3, 1), (4, 1), (2, 2), (1, 0, 1), (2, 0, 1), (2, 0, 2),
                    (1, 1, 1), (2, 1, 1), (1, 2, 1)]


@pytest.mark.parametrize("n", LATTICE_NVECTORS)
def test_completed_Wn_is_a_lattice(n):
    # a polytope's face lattice is a lattice; no count oracle is involved.  For an
    # incomparable pair, the lowest layer of the common upper bounds is one element z,
    # and every common upper bound lies above z
    P = enumerate_Wn(n).complete_with_min("F^min")
    up, down = [u << i for i, u in enumerate(P._up)], P._down
    layers = [m for _, m in P._rank_masks]
    for i in range(len(P)):
        for j in _bits(~(up[i] | down[i]) & ((1 << len(P)) - 1) & ~((1 << i) - 1)):
            common = up[i] & up[j]
            lowest = next(common & m for m in layers if common & m)
            assert lowest.bit_count() == 1, (P.labels[i], P.labels[j])
            assert up[lowest.bit_length() - 1] & common == common, (P.labels[i], P.labels[j])


def test_eulerian_iff_mobius():
    P = enumerate_Wn((2, 1)).complete_with_min("F^min")
    for x in P.labels:
        for y in P.labels:
            if P.leq(x, y):
                assert P.mobius(x, y) == (-1) ** (P.rank_of(y) - P.rank_of(x))


def _label_level_mobius_failures(P):
    """The Moebius criterion from the definition, over every pair of labels."""
    mu = {}
    for x in P.labels:
        for y in sorted(P.labels, key=P.rank_of):
            if P.leq(x, y):
                mu[x, y] = 1 if x == y else -sum(mu[x, z] for z in P.labels
                                                 if (x, z) in mu and z != y and P.leq(z, y))
    return sorted((x, y, m) for (x, y), m in mu.items()
                  if m != (-1) ** (P.rank_of(y) - P.rank_of(x)))


def _diamond_failures_over_the_up_set(P):
    """diamond_failures as it was: the whole up-set of each element, filtered by rank."""
    bad = []
    for i in range(len(P)):
        up = P._up[i] << i
        for j in _bits(up):
            if P.ranks[j] == P.ranks[i] + 2:
                middles = (up & P._down[j]).bit_count() - 2
                if middles != 2:
                    bad.append((P.labels[i], P.labels[j], middles))
    return sorted(bad)


def test_diamond_sweep_reads_the_layer_two_ranks_up():
    posets = bounded_graded_family(6) + [enumerate_Wn(n).complete_with_min("F^min")
                                         for n in [(2, 1), (1, 1, 1)]]
    assert any(P.diamond_failures() for P in posets)
    for P in posets:
        assert P.diamond_failures() == _diamond_failures_over_the_up_set(P)


def test_mobius_failures_three_chain():
    assert chain(0, 1, 2).mobius_failures() == [("c0", "c2", 0)]
    assert diamond().mobius_failures() == []


def test_mobius_failures_match_label_level_definition():
    triple = RankedPoset({"bot": -1, "a": 0, "b": 0, "c": 0, "top": 1},
                         [("bot", x) for x in "abc"] + [(x, "top") for x in "abc"])
    posets = bounded_graded_family(5) + [triple, chain(0, 1, 2, 3),
                                         enumerate_Wn((2, 1)).complete_with_min("F^min")]
    assert any(P.mobius_failures() for P in posets)
    for P in posets:
        assert sorted(P.mobius_failures()) == _label_level_mobius_failures(P)


def _per_element_mobius_row(P, i, mask):
    """_mobius_row as it was: one dict entry per element, summed bit by bit."""
    row = {i: 1}
    rest = mask & ~(1 << i)
    for _, rm in P._rank_masks:
        for t in _bits(rest & rm):
            s = 0
            for z in _bits(mask & P._down[t] & ~(1 << t)):
                s += row[z]
            row[t] = -s
    return row


def _per_element_mobius_failures(P):
    """mobius_failures as it was, over the per-element rows."""
    bad = []
    for i in range(len(P)):
        row = _per_element_mobius_row(P, i, P._up[i] << i)
        for j in _bits(P._up[i] << i):
            mu = row[j]
            if mu != (-1) ** (P.ranks[j] - P.ranks[i]):
                bad.append((P.labels[i], P.labels[j], mu))
    return sorted(bad)


def test_mobius_value_classes_match_the_per_element_rows():
    posets = bounded_graded_family(6, min_rank=-1) + bounded_graded_family(6, min_rank=-2)
    assert sum(1 for P in posets if P.mobius_failures()) == 2 * 121
    assert any(mu not in (-1, 0, 1) for P in posets for _, _, mu in P.mobius_failures())
    for P in posets:
        for i in range(len(P)):
            row = P._mobius_row(i, P._up[i])  # both read from bit i on
            # the classes partition the up-set, each element under its own value
            assert sum(m.bit_count() for m in row.values()) == P._up[i].bit_count()
            assert {i + k: mu for mu, m in row.items() for k in _bits(m)} \
                == _per_element_mobius_row(P, i, P._up[i] << i)
        assert P.mobius_failures() == _per_element_mobius_failures(P)
        i, j = P.index(P.unique_min()), P.index(P.unique_max())
        assert P.mobius(P.labels[i], P.labels[j]) \
            == _per_element_mobius_row(P, i, P._up[i] << i)[j]


def test_mobius_failures_match_the_per_element_sweep_on_completed_wn():
    for n in desk_nvectors() + [(3, 0, 2)]:
        P = enumerate_Wn(n).complete_with_min("F^min")
        assert P.mobius_failures() == _per_element_mobius_failures(P) == [], n


def test_reduced_product_two_chains():
    P = chain(-1, 0)
    R = reduced_product(P, chain(-1, 0))
    assert sorted(R.ranks) == [-1, 0]
    assert len(R) == 2


def test_reduced_product_completed_segment():
    seg = enumerate_Wn((1, 1)).complete_with_min("F^min")  # ranks -1,0,0,1
    R = reduced_product(seg, seg)
    assert len(R) == 10
    assert sum((-1) ** r for r in R.ranks) == 0  # balanced factors stay balanced


def test_reduced_product_closed_form_point_case():
    # two one-point posets: naive multiplicativity of A fails here, the
    # closed form (A - eps)(A' - eps') - eps eps' holds
    pt = chain(0)
    R = reduced_product(pt, pt)
    assert len(R) == 1 and R.ranks == (1,)
    assert sum((-1) ** r for r in R.ranks) == -1


@pytest.mark.parametrize("p_label, q_label, label", [
    ("a,b", "b,c", "(a,b,c)"),  # ("a,b", "c") and ("a", "b,c")
    ("min", "min", "(min,min)"),  # the pair of two "min" elements and the new minimum
], ids=["two pairs", "the new minimum"])
def test_reduced_product_rejects_two_elements_with_one_label(p_label, q_label, label):
    # the first used to merge the two pairs into a 9-element poset
    P = RankedPoset({"pb": 0, "a": 1, p_label: 1, "pt": 2},
                    [("pb", "a"), ("pb", p_label), ("a", "pt"), (p_label, "pt")])
    Q = RankedPoset({"qb": 0, "c": 1, q_label: 1, "qt": 2},
                    [("qb", "c"), ("qb", q_label), ("c", "qt"), (q_label, "qt")])
    with pytest.raises(PosetError, match=re.escape(f"label {label} names two elements")):
        reduced_product(P, Q)


def test_reduced_product_needs_bounds():
    P = RankedPoset({"a": 0, "b": 0}, [])
    with pytest.raises(PosetError):
        reduced_product(P, P)


def _reassociate(label):
    """'((a,b),c)' -> ('a','b','c') for labels whose atoms avoid (),"""
    def split(s):
        if not s.startswith("("):
            return (s,)
        depth = 0
        for i, ch in enumerate(s):
            depth += ch == "("
            depth -= ch == ")"
            if ch == "," and depth == 1:
                return split(s[1:i]) + split(s[i + 1:-1])
        raise AssertionError(s)
    return split(label)


def test_reduced_product_left_association_is_innocuous():
    """Iterating the binary product in either order gives isomorphic posets."""
    P = chain(-1, 0, 1)
    Q = diamond().relabel({x: "q" + x for x in diamond().labels})
    R = chain(-1, 0).relabel({"c0": "r0", "c1": "r1"})
    left = reduced_product(reduced_product(P, Q), R)
    right = reduced_product(P, reduced_product(Q, R))
    lmap = {lab: _reassociate(lab) for lab in left.labels}
    rmap = {lab: _reassociate(lab) for lab in right.labels}
    assert sorted(lmap.values()) == sorted(rmap.values())
    inv = {v: lab for lab, v in rmap.items()}
    iso = {lab: inv[v] for lab, v in lmap.items()}
    assert all(left.rank_of(lab) == right.rank_of(iso[lab]) for lab in left.labels)
    lcov = {(iso[left.labels[i]], iso[left.labels[j]]) for i, j in left.cover_pairs}
    rcov = {(right.labels[i], right.labels[j]) for i, j in right.cover_pairs}
    assert lcov == rcov


def test_fiber_product_identity_and_point():
    W1 = enumerate_Wn((1,))
    K1 = enumerate_Kr(1)
    assert fiber_product([W1], K1, [{W1.labels[0]: K1.labels[0]}]) is W1
    FP = fiber_product([W1, W1.relabel({W1.labels[0]: "w2"})], K1,
                       [{W1.labels[0]: K1.labels[0]}, {"w2": K1.labels[0]}])
    assert len(FP) == 1 and FP.ranks == (0,)


def test_fiber_product_W11_squared():
    W = enumerate_Wn((1, 1))
    K2 = enumerate_Kr(2)
    pi = W.meta["pi"]
    W2 = W.relabel({lab: "2" + lab for lab in W.labels})
    FP = fiber_product([W, W2], K2, [pi, {"2" + lab: t for lab, t in pi.items()}])
    assert len(FP) == 9
    assert sum((-1) ** FP.rank_of(x) for x in FP.labels) == 1


def test_fiber_product_rejects_non_monotone_map():
    P = chain(0, 1)
    base = RankedPoset({"u": 0, "v": 1}, [("u", "v")])
    with pytest.raises(PosetError):
        fiber_product([P, P], base,
                      [{"c0": "v", "c1": "u"}, {"c0": "u", "c1": "v"}])


def test_fiber_product_over_nontrivial_base():
    base = chain(0, 1)
    P = RankedPoset({"p0": 0, "p1": 1, "p2": 2}, [("p0", "p1"), ("p1", "p2")])
    f = {"p0": "c0", "p1": "c1", "p2": "c1"}
    FP = fiber_product([P, P.relabel({x: "q" + x for x in P.labels})], base,
                       [f, {"q" + x: t for x, t in f.items()}])
    # fiber over c0: 1 tuple at rank 0; over c1: 4 tuples at ranks 1,2,2,3
    assert sorted(FP.ranks) == [0, 1, 2, 2, 3]
    assert {(FP.labels[i], FP.labels[j]) for i, j in FP.cover_pairs} == {
        ("(p0,qp0)", "(p1,qp1)"), ("(p1,qp1)", "(p1,qp2)"), ("(p1,qp1)", "(p2,qp1)"),
        ("(p1,qp2)", "(p2,qp2)"), ("(p2,qp1)", "(p2,qp2)")}


def test_fiber_product_rejects_a_relation_within_one_rank():
    # (p0,q0) < (p1,q1) componentwise, but both have rank 0 + 0 - 0 = 1 + 1 - 2
    base = chain(0, 1, 2)
    P = chain(0, 1).relabel({"c0": "p0", "c1": "p1"})
    Q = P.relabel({"p0": "q0", "p1": "q1"})
    with pytest.raises(PosetError, match="^order is not the closure"):
        fiber_product([P, Q], base, [{"p0": "c0", "p1": "c2"}, {"q0": "c0", "q1": "c2"}])


def test_fiber_product_rejects_two_tuples_with_one_label():
    # (a,b | c) and (a | b,c) both join to "(a,b,c)"
    point = RankedPoset({"*": 0}, [])
    P = RankedPoset({"a,b": 0, "a": 0}, [])
    Q = RankedPoset({"c": 0, "b,c": 0}, [])
    with pytest.raises(PosetError, match=re.escape("label (a,b,c) names two tuples")):
        fiber_product([P, Q], point, [dict.fromkeys(P.labels, "*"), dict.fromkeys(Q.labels, "*")])


def test_fiber_product_refuses_by_tuple_count_before_building():
    # 118,545 tuples, whose down-set rows alone would take about 1.7 GB
    posets = [enumerate_Wn(m) for m in [(0, 0, 3), (0, 2, 1), (0, 2, 1)]]
    K3 = enumerate_Kr(3)
    start = time.perf_counter()
    with pytest.raises(SearchSpaceError, match="^fiber product of 3 posets has 118545 tuples, "
                                               "above the bound 100000$"):
        fiber_product(posets, K3, [W.meta["pi"] for W in posets])
    assert time.perf_counter() - start < 1
    assert trees.SearchSpaceError is twoassoc.SearchSpaceError is SearchSpaceError


def _fiber_tuples(posets, base, maps):
    """fiber_product's elements as it built them: label -> rank, label -> label tuple."""
    ranked, tuples = {}, {}
    for t in base.labels:
        for tup in itertools.product(*[[x for x in P.labels if f[x] == t]
                                       for P, f in zip(posets, maps)]):
            lab = "(" + ",".join(tup) + ")"
            ranked[lab] = (sum(P.rank_of(x) for P, x in zip(posets, tup))
                           - (len(posets) - 1) * base.rank_of(t))
            tuples[lab] = tup
    return ranked, tuples


def _fiber_product_by_order(posets, base, maps):
    """fiber_product over a general base as it was: the componentwise order, probed."""
    ranked, tuples = _fiber_tuples(posets, base, maps)

    def leq(x, y):
        return all(P.leq(a, b) for P, a, b in zip(posets, tuples[x], tuples[y]))
    return RankedPoset.from_order(ranked, leq)


def _fiber_product_by_direct_covers(posets, base, maps):
    """fiber_product over a point as it was: a cover raises one coordinate by a cover."""
    ranked, tuples = _fiber_tuples(posets, base, maps)
    lab_of = {tup: lab for lab, tup in tuples.items()}
    ups = []  # per factor: label -> the labels covering it
    for P in posets:
        up = {}
        for i, j in P.cover_pairs:
            up.setdefault(P.labels[i], []).append(P.labels[j])
        ups.append(up)
    covers = [(lab, lab_of[tup[:i] + (y,) + tup[i + 1:]])
              for lab, tup in tuples.items() for i, (up, x) in enumerate(zip(ups, tup))
              for y in up.get(x, ())]
    return RankedPoset(ranked, covers)


def _W_fiber_family(r, k, weight_max):
    """audit_fiber_products' products over K_r with k factors of weight <= weight_max,
    as it built them: each factor relabeled with an "idx:" prefix; ms comes first."""
    K = enumerate_Kr(r)
    vecs = [n for n in itertools.product(range(weight_max + 1), repeat=r)
            if any(n) and sum(n) <= weight_max]
    for ms in itertools.combinations_with_replacement(vecs, k):
        posets, maps = [], []
        for idx, m in enumerate(ms):
            W = enumerate_Wn(m)
            rename = {lab: f"{idx}:{lab}" for lab in W.labels}
            posets.append(W.relabel(rename))
            maps.append({rename[lab]: t for lab, t in W.meta["pi"].items()})
        yield ms, posets, K, maps


@pytest.mark.parametrize("r, weight_max, reference", [
    (1, 3, _fiber_product_by_direct_covers),
    (2, 3, _fiber_product_by_direct_covers),
    (3, 2, _fiber_product_by_order),
], ids=["K1-direct-covers", "K2-direct-covers", "K3-order"])
def test_fiber_product_matches_the_constructions_it_replaced(r, weight_max, reference):
    n_products = 0
    for _, posets, K, maps in _W_fiber_family(r, 2, weight_max):
        FP, ref = fiber_product(posets, K, maps), reference(posets, K, maps)
        assert FP.labels == ref.labels and FP.ranks == ref.ranks
        assert FP.cover_pairs == ref.cover_pairs and FP._up == ref._up
        n_products += 1
    assert n_products == {1: 6, 2: 45, 3: 45}[r]


def test_the_audit_fiber_family_needs_no_relabeling(monkeypatch):
    # each memoized W_n goes to fiber_product as it is; the relabeled construction
    # with an "idx:" prefix per factor gives the same poset up to that prefix
    def name(tup, prefixed):  # a one-factor product is the factor itself
        parts = [f"{c}:{x}" if prefixed else x for c, x in enumerate(tup)]
        return parts[0] if len(tup) == 1 else "(" + ",".join(parts) + ")"

    n_products = 0
    for r in (1, 2):
        for k in (1, 2, 3):
            for ms, posets, K, maps in _W_fiber_family(r, k, 3):
                plain = [enumerate_Wn(m) for m in ms]
                pis = [W.meta["pi"] for W in plain]
                FP, ref = fiber_product(plain, K, pis), fiber_product(posets, K, maps)
                iso = {name(tup, True): name(tup, False)
                       for tup in _fiber_tuples(plain, K, pis)[1].values()}
                assert sorted(iso[lab] for lab in ref.labels) == sorted(FP.labels)
                assert all(ref.rank_of(lab) == FP.rank_of(iso[lab]) for lab in ref.labels)
                assert ({(iso[ref.labels[i]], iso[ref.labels[j]]) for i, j in ref.cover_pairs}
                        == {(FP.labels[i], FP.labels[j]) for i, j in FP.cover_pairs})
                n_products += 1
    assert n_products == 19 + 219

    def relabel(self, mapping):
        raise AssertionError("relabel called")
    monkeypatch.setattr(RankedPoset, "relabel", relabel)
    assert audit_fiber_products(r_max=2, k_max=2, weight_max=2).passed


def test_flag_vectors_pentagon():
    P = enumerate_Kr(4).complete_with_min("0^")
    fv = flag_f_vector(P)
    assert fv.rank_span == 3
    assert fv.entry([]) == 1
    assert fv.entry([1]) == 5 and fv.entry([2]) == 5 and fv.entry([1, 2]) == 10
    h = flag_h_vector(fv)
    assert h[frozenset()] == 1 and h[frozenset({1, 2})] == 1
    assert h[frozenset({1})] == 4 and h[frozenset({2})] == 4
    assert ab_index(P) == {"aa": 1, "ab": 4, "ba": 4, "bb": 1}


def _flag_test_posets():
    """Bounded graded posets, some of them not Eulerian."""
    return (bounded_graded_family(6)
            + [enumerate_Kr(r).complete_with_min("0^") for r in range(1, 6)]
            + [enumerate_Wn(n).complete_with_min("F^min")
               for n in [(1, 1), (2, 1), (1, 1, 1), (2, 2)]])


def _chains_by_rank_set(P):
    """Every chain bottom < x_1 < ... < x_k < top, counted by its rank set."""
    bot, top = P.unique_min(), P.unique_max()
    base = P.rank_of(bot)
    counts = Counter()

    def walk(x, S):
        counts[frozenset(S)] += 1
        for y in P.labels:
            if y not in (x, top) and P.leq(x, y):
                walk(y, S + [P.rank_of(y) - base])

    walk(bot, [])
    return counts


def test_flag_f_vector_matches_brute_force_chain_count():
    posets = _flag_test_posets()
    assert any(not P.verify_eulerian().is_eulerian for P in posets)
    for P in posets:
        fv = flag_f_vector(P)
        span = P.rank_of(P.unique_max()) - P.rank_of(P.unique_min())
        assert fv.rank_span == span and len(fv.entries) == 2 ** max(span - 1, 0)
        assert {S: c for S, c in fv.entries.items() if c} == _chains_by_rank_set(P)


def _subsets(items):
    n = len(items)
    for mask in range(1 << n):
        yield tuple(items[i] for i in range(n) if (mask >> i) & 1)


def _h_by_inclusion_exclusion(fv):
    out = {}
    for S in fv.entries:
        s = 0
        for T in _subsets(sorted(S)):
            s += (-1) ** (len(S) - len(T)) * fv.entries[frozenset(T)]
        out[S] = s
    return out


def _per_element_flag_f_vector(P):
    """flag_f_vector as it was: a dict of chain counts per chain top, summed bit by bit."""
    bot, top, span, layers = _bounded_graded_data(P)
    entries = {}

    def walk(S, counts, lo):
        entries[frozenset(S)] = sum(counts.values())
        support = sum(1 << i for i in counts)
        for r in range(lo, span):
            nxt = {}
            for j in layers[r]:
                tot = 0
                for i in _bits(P._down[j] & support):
                    tot += counts[i]
                if tot:
                    nxt[j] = tot
            walk(S + (r,), nxt, r + 1)

    walk((), {P.index(bot): 1}, 1)
    return FlagVector(rank_span=span, entries=entries)


def test_flag_f_vector_by_count_classes_matches_the_per_element_walk():
    posets = _flag_test_posets() + [enumerate_Wn((3, 3)).complete_with_min("F^min")]
    for P in posets:
        assert flag_f_vector(P) == _per_element_flag_f_vector(P)


def test_cd_index_frees_its_poset_without_the_cycle_collector():
    # nothing cd_index leaves behind refers to the poset, so the last reference frees it
    C = enumerate_Wn((2, 1)).complete_with_min("F^min")
    gone = weakref.ref(C)
    enabled = gc.isenabled()
    gc.disable()
    try:
        cd_index(C)
        del C
        assert gone() is None
    finally:
        if enabled:
            gc.enable()


def test_flag_h_vector_matches_inclusion_exclusion():
    for P in _flag_test_posets():
        fv = flag_f_vector(P)
        assert flag_h_vector(fv) == _h_by_inclusion_exclusion(fv)


def test_sweeps_leave_the_poset_unchanged():
    P = enumerate_Wn((2, 1))
    for Q in (P, P.complete_with_min("F^min")):
        Q._up, Q.cover_pairs  # derived on first read: fill them before the snapshot
        before = copy.deepcopy(vars(Q))
        Q.mobius(Q.minimal_elements()[0], Q.unique_max())
        Q.mobius_failures()
        Q.verify_eulerian()
        Q.diamond_failures()
        if Q is not P:
            flag_f_vector(Q)
        assert vars(Q) == before


def _eager_close(labels, ranks, cover_pairs, down=None):
    """RankedPoset._close as it was when it built every row at construction:
    the sorted cover pairs, the up-set rows (each shifted down to start at its
    own id, as the poset stores them), the down-set rows and the minimal and
    maximal masks.  Its checks are left out; it only runs where _close passed."""
    cover_pairs = tuple(sorted(cover_pairs))
    n = len(labels)
    up_adj = [[] for _ in range(n)]
    down_adj = [[] for _ in range(n)]
    for i, j in cover_pairs:
        up_adj[i].append(j)
        down_adj[j].append(i)
    minimal = sum(1 << i for i in range(n) if not down_adj[i])
    maximal = sum(1 << i for i in range(n) if not up_adj[i])
    order = sorted(range(n), key=ranks.__getitem__)
    closed = [0] * n if down is None else list(down)
    if down is None:
        for j in order:
            m = 1 << j
            for i in down_adj[j]:
                m |= closed[i]
            closed[j] = m
    up = [0] * n
    for i in reversed(order):
        m = 1 << i
        for j in up_adj[i]:
            m |= up[j]
        up[i] = m
    return cover_pairs, [m >> i for i, m in enumerate(up)], closed, minimal, maximal


@pytest.fixture
def eager_checked(monkeypatch):
    """Check each poset built in the test against _eager_close on the covers and
    down-sets its _close was given or read; yields the sizes of the posets checked.
    The W_n memo starts empty, so every W_n is built and checked afresh."""
    close, sizes = RankedPoset._close, []

    def checked_close(self, down=None, lower=None):
        if lower is None:  # the covers as _close reads them off the down-sets
            layers = dict(self._rank_masks)
            lower = [d & layers.get(r - 1, 0) for d, r in zip(down, self.ranks)]
        cover_pairs = [(i, j) for j, m in enumerate(lower) for i in _bits(m)]
        close(self, down, lower)
        assert "_up" not in vars(self) and "cover_pairs" not in vars(self)
        got = (self.cover_pairs, self._up, self._down, self._minimal, self._maximal)
        assert got == _eager_close(self.labels, self.ranks, cover_pairs, down), self.labels[:4]
        sizes.append(len(self))
    monkeypatch.setattr(RankedPoset, "_close", checked_close)
    monkeypatch.setattr(twoassoc, "_ENUM_CACHE", {})
    return sizes


def test_graded_family_derives_what_the_eager_closure_stored(eager_checked):
    assert len(bounded_graded_family(6)) == len(eager_checked) == 129


def test_desk_Wn_and_completions_derive_what_the_eager_closure_stored(eager_checked):
    for n in desk_nvectors():
        enumerate_Wn(n).complete_with_min("F^min")
    assert len(eager_checked) == 2 * 59


def test_Wn_302_and_its_completion_derive_what_the_eager_closure_stored(eager_checked):
    enumerate_Wn((3, 0, 2)).complete_with_min("F^min")
    assert eager_checked == [4577, 4578]


def test_Kr_derive_what_the_eager_closure_stored(eager_checked):
    assert [len(enumerate_Kr(r)) for r in range(1, 7)] == eager_checked


def test_desk_fiber_products_derive_what_the_eager_closure_stored(eager_checked):
    # audit_fiber_products' family; a one-factor product is its factor, not built again
    n_products = 0
    for r in (1, 2):
        K = enumerate_Kr(r)
        vecs = [n for n in itertools.product(range(4), repeat=r) if any(n) and sum(n) <= 3]
        for k in (1, 2, 3):
            for ms in itertools.combinations_with_replacement(vecs, k):
                posets = [enumerate_Wn(m) for m in ms]
                built = len(eager_checked)
                fiber_product(posets, K, [W.meta["pi"] for W in posets])
                assert len(eager_checked) == built + (k > 1)
                n_products += 1
    assert n_products == 238 and max(eager_checked) == 4913


def test_reduced_products_derive_what_the_eager_closure_stored(eager_checked):
    family = bounded_graded_family(6)
    pairs = random.Random(19).sample([(P, Q) for P in family for Q in family], 300)
    built = len(eager_checked)
    for P, Q in pairs:
        reduced_product(P, Q)
    assert len(eager_checked) == built + 300


def test_built_posets_derive_up_rows_and_covers_only_when_read(monkeypatch):
    # the reason a poset keeps one row set: most are never swept or exported
    monkeypatch.setattr(twoassoc, "_ENUM_CACHE", {})
    W = enumerate_Wn((2, 1))
    FP = fiber_product([W, W], enumerate_Kr(2), [W.meta["pi"]] * 2)
    completed = W.complete_with_min("F^min")
    for P in (W, FP, completed):  # W after serving as a factor and being completed
        assert "_up" not in vars(P) and "cover_pairs" not in vars(P)
    assert completed.verify_eulerian().is_eulerian
    assert "_up" in vars(completed) and "cover_pairs" not in vars(completed)
    completed.to_json()
    assert "cover_pairs" in vars(completed)


def _desk_product_of_4913():
    """The desk's largest fiber product: W_(2,1) cubed over the point K_2."""
    W = enumerate_Wn((2, 1))
    return fiber_product([W] * 3, enumerate_Kr(2), [W.meta["pi"]] * 3)


def _Wn_302_and_its_completion():
    W = enumerate_Wn((3, 0, 2))
    return [W, W.complete_with_min("F^min")]


@pytest.mark.parametrize("build", [
    _Wn_302_and_its_completion, lambda: [enumerate_Kr(6)], lambda: [_desk_product_of_4913()],
    lambda: bounded_graded_family(6),
], ids=["W_302-and-completion", "K_6", "desk-product-4913", "graded-family"])
def test_rows_follow_the_rank_label_ids(build):
    # ids are a linear extension: no down row reaches above its own id, and each up
    # row is the up-set (read off the down rows) shifted down to start at its id
    for P in build():
        assert P.labels == tuple(sorted(P.labels, key=lambda lab: (P.rank_of(lab), lab)))
        assert all(d.bit_length() <= i + 1 for i, d in enumerate(P._down))
        up = [0] * len(P)
        for j, d in enumerate(P._down):
            for i in _bits(d):
                up[i] |= 1 << j
        assert P._up == [u >> i for i, u in enumerate(up)]


def test_the_completion_puts_its_minimum_first_and_grows_each_row_by_one_bit():
    W, C = _Wn_302_and_its_completion()
    assert C.labels[0] == "F^min" and C.index("F^min") == 0 and C.labels[1:] == W.labels
    # each row gains one bit at the bottom, not one at the top of the whole poset
    rows = sum(map(sys.getsizeof, C._down))
    assert rows <= sum(map(sys.getsizeof, W._down)) + len(C) * sys.getsizeof(1)


def test_fiber_product_rows_are_stored_tight():
    # an AND keeps the digits of its narrower operand, which for a product row is as
    # wide as the whole product; the stored rows must take what their values need
    tracemalloc.start()
    try:
        FP = _desk_product_of_4913()
        rows = list(FP._down)
        del FP
        needed = sum(sys.getsizeof(r) for r in rows if r > 256)  # smaller ones are shared
        before = tracemalloc.get_traced_memory()[0] - sys.getsizeof(rows)
        del rows
        held = before - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert needed > 1_500_000
    assert abs(held - needed) <= 0.05 * needed, (held, needed)


def test_signed_counts_are_int_below_rank_zero():
    P = RankedPoset({"bot": -1, "a": 0, "b": 0, "c": 0, "top": 1},
                    [("bot", x) for x in "abc"] + [(x, "top") for x in "abc"])
    assert type(P.alternating_sum("bot", "bot")) is int
    assert type(P.alternating_sum("bot", "top")) is int
    unbalanced = P.verify_eulerian().unbalanced
    assert unbalanced and all(type(s) is int for _, _, s in unbalanced)


def test_signed_parity_masks_match_the_per_rank_sum():
    posets = (bounded_graded_family(6, min_rank=-1) + bounded_graded_family(6, min_rank=-2)
              + [enumerate_Wn(n).complete_with_min("F^min") for n in [(2, 1), (1, 1, 1)]])
    for P in posets:
        def per_rank(mask):
            total = 0
            for r, rm in P._rank_masks:
                c = (mask & rm).bit_count()
                total += c if r % 2 == 0 else -c
            return total
        up = [u << i for i, u in enumerate(P._up)]
        masks = [(1 << len(P)) - 1] + up + P._down
        masks += [up[i] & P._down[j] for i in range(len(P)) for j in _bits(up[i])]
        for mask in masks:
            assert P._signed(mask) == per_rank(mask)


def test_flag_vector_invariants():
    with pytest.raises(PosetError):
        FlagVector(2, {frozenset(): 2})
    with pytest.raises(PosetError):
        FlagVector(2, {frozenset(): 1, frozenset({1}): -1})


@pytest.mark.parametrize("builder,expect", [
    (lambda: chain(-1, 0), {"": 1}),
    (lambda: enumerate_Wn((1, 1)).complete_with_min("F^min"), {"c": 1}),
    (lambda: enumerate_Kr(4).complete_with_min("0^"), {"cc": 1, "d": 3}),
])
def test_cd_index_values(builder, expect):
    assert cd_index(builder()).terms == expect


def test_cd_index_polygons():
    # triangle and square boundaries: c^2 + d and c^2 + 2d
    tri = RankedPoset(
        {"bot": -1, "v1": 0, "v2": 0, "v3": 0, "e12": 1, "e23": 1, "e13": 1, "top": 2},
        [("bot", f"v{i}") for i in (1, 2, 3)]
        + [("v1", "e12"), ("v2", "e12"), ("v2", "e23"), ("v3", "e23"),
           ("v1", "e13"), ("v3", "e13")]
        + [(e, "top") for e in ("e12", "e23", "e13")])
    assert cd_index(tri).terms == {"cc": 1, "d": 1}
    assert str(cd_index(tri)) == "c^2 + d"

    sq = RankedPoset(
        {"bot": -1, "v1": 0, "v2": 0, "v3": 0, "v4": 0,
         "e1": 1, "e2": 1, "e3": 1, "e4": 1, "top": 2},
        [("bot", f"v{i}") for i in (1, 2, 3, 4)]
        + [("v1", "e1"), ("v2", "e1"), ("v2", "e2"), ("v3", "e2"),
           ("v3", "e3"), ("v4", "e3"), ("v4", "e4"), ("v1", "e4")]
        + [(e, "top") for e in ("e1", "e2", "e3", "e4")])
    assert cd_index(sq).terms == {"cc": 1, "d": 2}


def test_cd_index_rejects_non_eulerian():
    P = RankedPoset({"bot": -1, "a": 0, "b": 0, "c": 0, "top": 1},
                    [("bot", x) for x in "abc"] + [(x, "top") for x in "abc"])
    with pytest.raises(NonEulerianError):
        cd_index(P)


def test_cd_index_requires_bounds():
    P = RankedPoset({"a": 0, "b": 0}, [])
    with pytest.raises(PosetError):
        cd_index(P)


def test_cd_weight_invariant():
    for n in [(1, 1), (2, 1), (1, 1, 1)]:
        P = enumerate_Wn(n).complete_with_min("F^min")
        cd = cd_index(P)
        span = P.rank_of(P.unique_max()) - P.rank_of("F^min")
        assert cd.weight == span - 1
        assert cd.coefficient("c" * (span - 1)) == 1
        assert min(cd.terms.values()) >= 0


def test_cd_polynomial_homogeneity():
    with pytest.raises(PosetError):
        CdPolynomial({"c": 1, "d": 1})


@pytest.mark.parametrize("n", [(1, 1, 1), (2, 2)])
def test_cd_index_three_polytope_formula(n):
    """For a 3-polytope the cd-index is c^3 + (f2 - 2)cd + (f0 - 2)dc."""
    P = enumerate_Wn(n)
    rc = P.rank_counts()
    assert sorted(rc) == [0, 1, 2, 3]
    comp = P.complete_with_min("F^min")
    assert cd_index(comp).terms == {"ccc": 1, "cd": rc[2] - 2, "dc": rc[0] - 2}
    assert min(rc[2], rc[0]) >= 2  # a nonnegative cd-index


def test_json_round_trip():
    # from_json_dict goes through the label covers, the W_n completion through
    # down-sets: both must close to the same rows
    for P in (enumerate_Kr(3), enumerate_Wn((2, 1)).complete_with_min("F^min")):
        Q = RankedPoset.from_json_dict(P.to_json_dict())
        assert Q.labels == P.labels and Q.ranks == P.ranks
        assert Q.cover_pairs == P.cover_pairs
        assert Q._down == P._down and Q._up == P._up
        assert P.to_json() == Q.to_json()


def _doc(elements, covers):
    """A poset document from (label, id, rank) triples and cover id pairs."""
    return {"elements": [{"label": lab, "id": i, "rank": rank} for lab, i, rank in elements],
            "covers": covers}


@pytest.mark.parametrize("doc,why", [
    # this one used to load silently as a 2-element poset
    (_doc([("a", 0, 0), ("a", 1, 1), ("b", 1, 1)], [[0, 1]]), "label 'a' appears twice"),
    (_doc([("a", 0, 0), ("b", 1, 1), ("c", 1, 1)], [[0, 1]]), "id 1 appears twice"),
    # this one used to raise KeyError
    (_doc([("a", 0, 0), ("b", 1, 1)], [[0, 2]]), r"cover \[0, 2\] names an id with no element"),
    # these used to raise KeyError, ValueError and TypeError
    ({"elements": [{"id": 0, "rank": 0}], "covers": []}, "no 'label' entry"),
    ({"elements": [{"label": "a", "rank": 0}], "covers": []}, "no 'id' entry"),
    ({"elements": [{"label": "a", "id": 0, "rank": 0}]}, "no 'covers' entry"),
    (_doc([("a", 0, 0), ("b", 1, 1)], [[0]]), "malformed poset document: not enough values"),
    (_doc([("a", 0, "x")], []), "needs an integer id and rank and a string label"),
], ids=["repeated label", "repeated id", "unknown cover id", "no label", "no id", "no covers",
        "short cover", "string rank"])
def test_json_load_rejects_a_malformed_document(doc, why):
    with pytest.raises(PosetError, match=why):
        RankedPoset.from_json_dict(doc)


def test_dot_export_stable_and_layered():
    P = enumerate_Kr(3)
    dot = P.to_dot()
    assert dot == P.to_dot()
    assert "rank=same" in dot and dot.startswith("digraph hasse {")
