import dataclasses
import gc
import itertools
import math
import pickle
import random
import sys
import threading
import time
import weakref
from functools import cache, cmp_to_key

import pytest

from assoc2.audit import desk_nvectors
from assoc2.trees import (Tree, all_bracketings, bracketing_to_tree, corolla, count_K,
                          dim_tree, parse_tree, root_decompose, tree_to_text)
from assoc2.series import coefficient, solve_F
from assoc2 import twoassoc
from assoc2.poset import PosetError, RankedPoset, _bits
from assoc2.twoassoc import (SearchSpaceError, TwoBracket, TwoBracketing, VerificationError,
                             _TwoBracketTable, _bracket_children, _fiber_poly, _gen_fiber,
                             _node_ok, _stack_ordered, _stacks, _table, _tb_oriented, _valid_face,
                             check_nvector, count_W, dim_2concat, enumerate_Wn,
                             face_two_bracketings, forced_two_brackets, forgetful_map,
                             max_two_bracket, point_singleton, removables, restrict_to_bracket,
                             tb_compatible, tb_inside, top_element, top_rank, trees_of_Kr,
                             validate_two_bracketing)

# these tests read the desk W_n many times: hold them (see conftest.desk_wn)
pytestmark = pytest.mark.usefixtures("desk_wn")


def test_check_nvector():
    assert check_nvector((0, 2)) == (0, 2)
    for bad in [(), (0, 0), (-1, 2)]:
        with pytest.raises(ValueError):
            check_nvector(bad)


def test_two_bracket_malformed():
    with pytest.raises(ValueError):
        TwoBracket(2, 1, ())
    with pytest.raises(ValueError):
        TwoBracket(1, 1, (("p", 2, 1),))
    with pytest.raises(ValueError):
        TwoBracket(1, 2, (("p", 1, 1),))  # missing extent
    with pytest.raises(ValueError):
        TwoBracket(1, 1, (("q", 1),))


def test_validate_raises_on_out_of_range():
    tb = top_element((1, 1))
    bad = TwoBracketing(tb.n, tb.brackets,
                        tb.two_brackets | {TwoBracket(1, 2, (("p", 1, 5), ("g", 0)))})
    with pytest.raises(ValueError):
        validate_two_bracketing(bad)


def test_validate_top_elements():
    for n in [(1,), (2,), (1, 1), (2, 1), (1, 0, 2)]:
        assert validate_two_bracketing(top_element(n))


def test_validate_rejects_projection_outside_bracketing():
    n = (1, 1, 1)
    tb = top_element(n)
    rogue = TwoBracket(1, 2, (("p", 1, 1), ("p", 1, 1)))  # (1,2) not in the bracketing
    cand = TwoBracketing(n, tb.brackets, tb.two_brackets | {rogue})
    assert not validate_two_bracketing(cand)


def test_validate_rejects_missing_forced_members():
    n = (1, 1)
    cand = TwoBracketing(n, frozenset({(1, 2)}),
                         frozenset({max_two_bracket(n), point_singleton(1, 1)}))
    assert not validate_two_bracketing(cand)


def test_validate_rejects_single_screen_stack():
    # one full-width screen plus a dangling singleton cannot encode a face
    n = (1, 1)
    tb = top_element(n)
    screen = TwoBracket(1, 2, (("p", 1, 1), ("g", 1)))
    cand = TwoBracketing(n, tb.brackets, tb.two_brackets | {screen})
    assert not validate_two_bracketing(cand)


def test_validate_rejects_inconsistent_orientation():
    n = (1, 1)
    tb = top_element(n)
    s1 = TwoBracket(1, 2, (("p", 1, 1), ("g", 1)))
    s2 = TwoBracket(1, 2, (("g", 1), ("p", 1, 1)))  # above on line 1, below on line 2
    assert not tb_compatible(s1, s2)
    cand = TwoBracketing(n, tb.brackets, tb.two_brackets | {s1, s2})
    assert not validate_two_bracketing(cand)


def test_W11_has_three_faces_and_vertex_shape():
    P = enumerate_Wn((1, 1))
    assert P.rank_counts() == {0: 2, 1: 1}
    objs = dict(face_two_bracketings((1, 1)))
    for lab in P.labels:
        tb = objs[lab]
        assert validate_two_bracketing(tb)
        rem_b, rem_2b = removables(tb)
        assert rem_b == frozenset()
        # each vertex records both stacked screens of its vertical split
        assert len(rem_2b) == (2 if P.rank_of(lab) == 0 else 0)


@pytest.mark.parametrize("n,expect", [
    ((1,), {0: 1}),
    ((2,), {0: 1}),
    ((2, 1), {0: 8, 1: 8, 2: 1}),
    ((1, 1, 1), {0: 32, 1: 48, 2: 18, 3: 1}),
    ((2, 2), {0: 44, 1: 69, 2: 27, 3: 1}),
    ((1, 0), {0: 1}),
    ((0, 0, 1), {0: 2, 1: 1}),
])
def test_enumerate_rank_counts(n, expect):
    assert enumerate_Wn(n).rank_counts() == expect


def test_enumerate_respects_element_bound(monkeypatch):
    monkeypatch.setattr(twoassoc, "_ENUM_CACHE", {})
    with pytest.raises(SearchSpaceError):
        enumerate_Wn((2, 1), max_elements=5)
    P = enumerate_Wn((2, 1))
    # a memo hit checks the bound against the poset's own size, not the count oracle
    monkeypatch.setattr(twoassoc, "count_W", None)
    with pytest.raises(SearchSpaceError, match="17 faces"):
        enumerate_Wn((2, 1), max_elements=5)
    assert enumerate_Wn((2, 1), max_elements=17) is P


def test_the_memo_shares_a_held_W_n_and_forgets_a_dropped_one(monkeypatch):
    assert isinstance(twoassoc._ENUM_CACHE, weakref.WeakValueDictionary)
    memo = weakref.WeakValueDictionary()
    monkeypatch.setattr(twoassoc, "_ENUM_CACHE", memo)
    enabled = gc.isenabled()
    gc.disable()  # the memo must let go by reference counting alone
    try:
        P = enumerate_Wn((2, 1))
        assert enumerate_Wn((2, 1)) is P and list(memo) == [(2, 1)]
        gone = weakref.ref(P)
        del P
        assert gone() is None and len(memo) == 0
        Q = enumerate_Wn((2, 1))
        assert list(memo) == [(2, 1)] and Q.rank_counts() == {0: 8, 1: 8, 2: 1}
    finally:
        if enabled:
            gc.enable()


def test_face_two_bracketings_holds_W_n_while_it_runs(monkeypatch):
    class Recording(weakref.WeakValueDictionary):
        def __setitem__(self, n, poset):
            cold.append(n)
            super().__setitem__(n, poset)
    cold = []
    monkeypatch.setattr(twoassoc, "_ENUM_CACHE", Recording())
    enabled = gc.isenabled()
    gc.disable()  # only the generator's own reference keeps W_n in the memo
    try:
        labels = [lab for lab, _tb in face_two_bracketings((2, 1))
                  if lab in enumerate_Wn((2, 1)).labels]
    finally:
        if enabled:
            gc.enable()
    assert len(labels) == 17 and cold == [(2, 1)]


class _Counted(Exception):
    pass


@pytest.mark.parametrize("n", desk_nvectors() + [(3, 0, 2), (9,)], ids=str)
def test_the_lower_bounds_on_the_size_of_W_n_hold(n, monkeypatch):
    # enumerate_Wn refuses from |K_r|, each |K_(n_i)| and |n|! / prod_i n_i! before counting
    def size_K(q):
        return sum(count_K(m, q) for m in range(max(q - 1, 1)))
    P = enumerate_Wn(n)
    fibers: dict[str, int] = {}
    for lab in P.labels:
        fibers[P.meta["pi"][lab]] = fibers.get(P.meta["pi"][lab], 0) + 1
    assert len(fibers) == size_K(len(n))  # no fiber of the forgetful map is empty
    over_corolla = fibers[tree_to_text(corolla(len(n)))]
    assert all(over_corolla >= size_K(v) for v in n if v)
    assert over_corolla >= math.factorial(sum(n)) // math.prod(map(math.factorial, n))

    monkeypatch.setattr(twoassoc, "_ENUM_CACHE", {})
    with pytest.raises(SearchSpaceError):
        enumerate_Wn(n, max_elements=len(P) - 1)

    # at exactly len(P) faces the bounds let the count run
    def counted(*args):
        raise _Counted
    monkeypatch.setattr(twoassoc, "count_W", counted)
    with pytest.raises(_Counted):
        enumerate_Wn(n, max_elements=len(P))


@pytest.mark.parametrize("n,rank", [((1, 1), 1), ((2,), 0), ((2, 1), 2), ((1,), 0)])
def test_top_element_rank(n, rank):
    assert top_rank(n) == rank
    P = enumerate_Wn(n)
    assert P.rank_of(P.unique_max()) == rank
    assert P.unique_max() == top_element(n).label()


def test_forgetful_map():
    n = (2, 1)
    P = enumerate_Wn(n)
    objs = dict(face_two_bracketings(n))
    top = P.unique_max()
    assert forgetful_map(objs[top]).brackets == frozenset({(1, 2)})
    # order preserving: smaller faces have larger bracket sets
    for i, j in P.cover_pairs:
        bi = forgetful_map(objs[P.labels[i]]).brackets
        bj = forgetful_map(objs[P.labels[j]]).brackets
        assert bj <= bi


def test_forgetful_fibers_match_series():
    n = (1, 1)
    P = enumerate_Wn(n)
    pi = P.meta["pi"]
    for tree in [corolla(2)]:
        F = solve_F(tree, 2)
        for m in (0, 1):
            fiber = [lab for lab in P.labels
                     if pi[lab] == tree_to_text(tree) and P.rank_of(lab) == m]
            assert len(fiber) == coefficient(F, m, n)


def test_removables_top_and_bracket_side():
    rb, r2b = removables(top_element((2, 1)))
    assert rb == frozenset() and r2b == frozenset()
    from assoc2.trees import Bracketing
    b = Bracketing(4, frozenset({(1, 4), (1, 2)}))
    assert b.mask() == 1 << 3 | 1 << 1  # brackets (1, 4) and (1, 2), at (lo - 1) r + hi - 1


def test_restrict_to_bracket_top_cases():
    n = (2, 1)
    top = top_element(n)
    assert restrict_to_bracket(top, (1, 2)) == top
    assert restrict_to_bracket(top, (1, 1)) == top_element((2,))
    with pytest.raises(ValueError):
        restrict_to_bracket(top, (9, 9))


def test_restrict_to_bracket_forgets_other_lines():
    # a W_(2,1) vertex with a point cluster on line 1 restricts to the K_2 face
    objs = dict(face_two_bracketings((2, 1)))
    cluster = TwoBracket(1, 1, (("p", 1, 2),))
    carriers = [tb for tb in objs.values() if cluster in tb.two_brackets]
    assert carriers
    for tb in carriers:
        sub = restrict_to_bracket(tb, (1, 1))
        assert sub.n == (2,)
        assert cluster in sub.two_brackets


@pytest.mark.parametrize("n", [(1, 1), (2, 1)])
def test_restrict_to_bracket_always_valid(n):
    for _, tb in face_two_bracketings(n):
        for b in sorted(tb.brackets | {(i, i) for i in range(1, len(n) + 1)}):
            if any(tb.n[b[0] - 1:b[1]]):
                out = restrict_to_bracket(tb, b)  # raises if invalid
                assert validate_two_bracketing(out)


def test_count_W_leaf_is_count_K():
    leaf = parse_tree(".")
    for q in range(1, 9):
        for m in range(q):
            assert count_W(leaf, m, (q,)) == count_K(m, q)


def test_count_W_corolla2_values():
    c2 = corolla(2)
    assert count_W(c2, 0, (1, 1)) == 2
    assert count_W(c2, 1, (1, 1)) == 1
    assert count_W(c2, 5, (1, 1)) == 0


def test_gen_fiber_rejects_mismatched_n():
    with pytest.raises(ValueError):
        _gen_fiber(corolla(2), (1,), 0, (0,), {})
    with pytest.raises(ValueError):
        _gen_fiber(corolla(2), (1, 1), 0, (0,), {})


def _vector_compositions(n, parts):
    """Ordered compositions of n into `parts` nonzero vectors."""
    weight = sum(n)
    if parts == 0:
        if weight == 0:
            yield ()
        return
    if weight < parts:
        return

    def rec(remaining, k):
        if k == 1:
            if any(remaining):
                yield (remaining,)
            return
        for first in itertools.product(*[range(v + 1) for v in remaining]):
            w = sum(first)
            if w == 0 or sum(remaining) - w < k - 1:
                continue
            rest = tuple(a - b for a, b in zip(remaining, first))
            for tail in rec(rest, k - 1):
                yield (first,) + tail

    yield from rec(n, parts)


def _shift(tbs, line_off, point_offs):
    """The 2-brackets `tbs` moved up `line_off` lines and `point_offs` points per line."""
    out = []
    for x in tbs:
        exts = []
        for line in x.lines():
            off = point_offs[line - 1]
            e = x.extent(line)
            if e[0] == "p":
                exts.append(("p", e[1] + off, e[2] + off))
            else:
                exts.append(("g", e[1] + off))
        out.append(TwoBracket(x.lo + line_off, x.hi + line_off, tuple(exts)))
    return tuple(out)


@cache
def _composition_fiber(tree, n):
    """The fiber generator before screen stacks: a loop over vector compositions."""
    r = tree.leaf_count()
    out = []
    if r == 1:
        q = n[0]
        for kb in all_bracketings(q):
            two = {point_singleton(1, j) for j in range(1, q + 1)}
            two.add(TwoBracket(1, 1, (("p", 1, q),)))
            for a, b in kb.brackets:
                two.add(TwoBracket(1, 1, (("p", a, b),)))
            out.append((frozenset(two), kb.dim))
        return out
    branches = root_decompose(tree)
    p = dim_tree(tree)
    p_i = [dim_tree(b) for b in branches]
    widths = [b.leaf_count() for b in branches]
    mx = max_two_bracket(n)

    # vertical: a >= 2 stacked screens over the full line set
    for a in range(2, sum(n) + 1):
        for qs in _vector_compositions(n, a):
            fibers = [_composition_fiber(tree, q) for q in qs]
            for combo in itertools.product(*fibers):
                two = {mx}
                offs = [0] * r
                for (fs, _d), q in zip(combo, qs):
                    two.update(_shift(fs, 0, tuple(offs)))
                    offs = [o + v for o, v in zip(offs, q)]
                dims = [[dd for _fs, dd in combo]]
                out.append((frozenset(two), dim_2concat([p], [a], dims)))

    # horizontal: per-branch stacks on the bracket-tree children
    blocks = []
    pos = 0
    for w in widths:
        blocks.append(n[pos:pos + w])
        pos += w
    a_ranges = [[0] if not any(blk) else list(range(1, sum(blk) + 1)) for blk in blocks]
    for avec in itertools.product(*a_ranges):
        per_branch = [list(_vector_compositions(blk, a_i)) for blk, a_i in zip(blocks, avec)]
        for qs_by_branch in itertools.product(*per_branch):
            fiber_lists = [[_composition_fiber(child, q) for q in qs]
                           for child, qs in zip(branches, qs_by_branch)]
            for combo in itertools.product(*[itertools.product(*fl) for fl in fiber_lists]):
                two = {mx}
                line_off = 0
                for w, child_combo, qs in zip(widths, combo, qs_by_branch):
                    offs = [0] * w
                    for (fs, _d), q in zip(child_combo, qs):
                        two.update(_shift(fs, line_off, tuple(offs)))
                        offs = [o + v for o, v in zip(offs, q)]
                    line_off += w
                dims = [[dd for _fs, dd in child_combo] for child_combo in combo]
                out.append((frozenset(two), dim_2concat(p_i, avec, dims)))
    return out


def _sorted_faces(faces):
    return sorted((tuple(x.sort_key() for x in sorted(fs, key=TwoBracket.sort_key)), d)
                  for fs, d in faces)


def test_screen_stacks_match_the_composition_generator():
    for n in desk_nvectors() + [(3, 0, 2)]:
        for tree in trees_of_Kr(len(n)):
            assert _sorted_faces(_gen_fiber(tree, n, 0, (0,) * len(n), {})) == \
                _sorted_faces(_composition_fiber(tree, n)), (tree_to_text(tree), n)


def test_placed_fibers_are_the_origin_fibers_shifted():
    # every place the enumeration reaches, read from one shared screens memo, against
    # the fiber at the origin moved there
    screens = {}
    for n in desk_nvectors() + [(3, 0, 2)]:
        for tree in trees_of_Kr(len(n)):
            _gen_fiber(tree, n, 0, (0,) * len(n), screens)
    places = list(screens)
    # each place is generated once per memo: a second call returns the stored tuple
    assert all(_gen_fiber(*key, screens) is screens[key] for key in places)
    # the fibers at the origin are pinned by the composition generator
    moved = [key for key in places if key[2] or any(key[3])]
    assert len(moved) > len(places) // 2
    for tree, q, line_off, offs in moved:
        origin = _gen_fiber(tree, q, 0, (0,) * len(q), screens)
        shifted = [(_shift(fs, line_off, offs), d) for fs, d in origin]
        assert _sorted_faces(screens[tree, q, line_off, offs]) == _sorted_faces(shifted), \
            (tree_to_text(tree), q, line_off, offs)


def test_a_face_listing_one_2_bracket_twice_is_a_verification_error(monkeypatch):
    # the maximal 2-bracket of (1, 0) made equal to its only point singleton
    monkeypatch.setattr(twoassoc, "max_two_bracket",
                        lambda n, line_off, offs: point_singleton(line_off + 1, offs[0] + 1))
    with pytest.raises(VerificationError, match="lists one 2-bracket twice"):
        _gen_fiber(corolla(2), (1, 0), 3, (2, 0), {})
    monkeypatch.undo()
    assert [len(fs) for fs, _d in _gen_fiber(corolla(2), (1, 0), 3, (2, 0), {})] == [2]


def _cmp_stack_ordered(group):
    """_stack_ordered as it was, sorting by a pairwise comparator."""
    def cmp(x, y):
        o = _tb_oriented(x, y)
        if o == "below":
            return -1
        if o == "above":
            return 1
        return 0

    ordered = sorted(group, key=cmp_to_key(cmp))
    for i, x in enumerate(ordered):
        for y in ordered[i + 1:]:
            if _tb_oriented(x, y) != "below":
                return False
    return True


@pytest.mark.parametrize("n", [(2, 1), (1, 1, 1), (2, 2)])
def test_stack_ordered_matches_the_comparator_sort(n):
    by_bracket = {}
    for kb in all_bracketings(len(n)):
        for x in candidate_two_brackets(n, kb.brackets):
            by_bracket.setdefault(x.bracket, set()).add(x)
    ordered_seen = 0
    for cands in by_bracket.values():
        cands = sorted(cands, key=TwoBracket.sort_key)
        for k in (2, 3):
            for group in itertools.permutations(cands, k):
                table = _table(n)
                got = _stack_ordered(table, [table.intern(x) for x in group])
                assert got == _cmp_stack_ordered(list(group)), group
                ordered_seen += got
    assert ordered_seen > 0


def _object_validate(tb):
    """validate_two_bracketing as it was: TwoBracket objects, no tables."""
    n = check_nvector(tb.n)
    r = len(n)

    for x in tb.two_brackets:
        if x.hi > r:
            raise ValueError(f"2-bracket {x} exceeds r={r}")
        for line in x.lines():
            e = x.extent(line)
            top = n[line - 1]
            if e[0] == "p" and e[2] > top:
                raise ValueError(f"points extent {e!r} exceeds n_{line}={top}")
            if e[0] == "g" and e[1] > top:
                raise ValueError(f"gap extent {e!r} exceeds n_{line}={top}")
    for lo, hi in tb.brackets:
        if not (1 <= lo <= hi <= r):
            raise ValueError(f"bracket ({lo},{hi}) out of range")

    try:
        tb.bracketing()
    except ValueError:
        return False

    if not forced_two_brackets(n) <= tb.two_brackets:
        return False
    if not all(x.points() for x in tb.two_brackets):
        return False

    stored = tb.brackets
    all_brackets = stored | {(i, i) for i in range(1, r + 1)}
    if any(x.bracket not in all_brackets for x in tb.two_brackets):
        return False

    elems = sorted(tb.two_brackets, key=TwoBracket.sort_key)
    for i, x in enumerate(elems):
        for y in elems[i + 1:]:
            if not tb_compatible(x, y):
                return False

    root = max_two_bracket(n)
    parent = {}
    for x in elems:
        if x == root:
            continue
        containers = [y for y in elems if y != x and tb_inside(x, y)]
        if not containers:
            return False
        containers.sort(key=lambda y: (len(y.points()), y.hi - y.lo))
        for a, b in zip(containers, containers[1:]):
            if not tb_inside(a, b):
                return False
        parent[x] = containers[0]

    children = {x: [] for x in elems}
    for x, p in parent.items():
        children[p].append(x)

    witnessed = {x.bracket for x in elems}
    for b in stored:
        block = n[b[0] - 1:b[1]]
        if any(block) and b not in witnessed:
            return False

    for node in elems:
        ch = children[node]
        if not ch:
            if len(node.points()) > 1:
                return False
            continue
        same = [x for x in ch if x.bracket == node.bracket]
        if same:
            if len(same) != len(ch) or len(same) < 2:
                return False
            if not _cmp_stack_ordered(same):
                return False
            covered = set()
            for x in same:
                if covered & x.points():
                    return False
                covered |= x.points()
            if covered != set(node.points()):
                return False
        else:
            branches = set(_bracket_children(stored, node.bracket))
            if any(x.bracket not in branches for x in ch):
                return False
            covered = set()
            for x in ch:
                covered |= x.points()
            if covered != set(node.points()):
                return False
            for b in branches:
                group = [x for x in ch if x.bracket == b]
                if len(group) > 1 and not _cmp_stack_ordered(group):
                    return False
    return True


def _perturbed(n, faces, sample, rng):
    """The faces, then one seeded add-one and one remove-one candidate per sampled face.

    Added members come from candidate_two_brackets; a removal drops a
    non-forced member when the face has one, else a forced one.
    """
    forced = forced_two_brackets(n)
    out = list(faces)
    for tb in sample:
        extra = [x for x in candidate_two_brackets(n, tb.brackets) if x not in tb.two_brackets]
        if extra:
            out.append(TwoBracketing(n, tb.brackets, tb.two_brackets | {rng.choice(extra)}))
        members = sorted(tb.two_brackets - forced, key=TwoBracket.sort_key) \
            or sorted(tb.two_brackets, key=TwoBracket.sort_key)
        out.append(TwoBracketing(n, tb.brackets, tb.two_brackets - {rng.choice(members)}))
    return out


@pytest.mark.parametrize("n", desk_nvectors() + [(3, 0, 2)], ids=str)
def test_table_validation_matches_the_object_predicate(n, monkeypatch):
    faces = sorted((tb for _, tb in face_two_bracketings(n)), key=TwoBracketing.label)
    rng = random.Random(f"perturb {n}")
    cands = _perturbed(n, faces, rng.sample(faces, min(len(faces), 40)), rng)
    expected = [_object_validate(tb) for tb in cands]
    assert all(expected[:len(faces)]) and not all(expected[len(faces):])
    monkeypatch.setattr(twoassoc, "_TABLES", {})
    assert [validate_two_bracketing(tb) for tb in cands] == expected
    # the mask core alone, on each candidate's id mask, as enumerate_Wn calls it: one
    # memo shared by every candidate, filled forwards, then a fresh one filled in reverse
    table = _table(n)
    masks = [sum(1 << table.intern(x) for x in tb.two_brackets) for tb in cands]
    memo = {}
    assert [_valid_face(table, tb.brackets, mask, memo)
            for tb, mask in zip(cands, masks)] == expected
    memo = {}
    assert [_valid_face(table, tb.brackets, mask, memo)
            for tb, mask in zip(cands[::-1], masks[::-1])] == expected[::-1]
    ids = table.ids
    assert list(ids) == sorted(ids, key=TwoBracket.sort_key)
    assert list(ids.values()) == list(range(len(ids)))
    # ids depend on n alone: validating in the opposite order gives the same ids and answers
    monkeypatch.setattr(twoassoc, "_TABLES", {})
    assert [validate_two_bracketing(tb) for tb in reversed(cands)] == expected[::-1]
    assert _table(n).ids == ids


def test_a_node_verdict_is_memoized_per_bracketing():
    # the root over one point per line, with children on (1,2), (3,3) and (4,4), splits
    # along the branches of (1,4) in {(1,4),(1,2)} but not in {(1,4),(1,3),(1,2)}
    table = _table((1, 1, 1, 1))
    pair = TwoBracket(1, 2, (("p", 1, 1), ("p", 1, 1)))
    ch = sum(1 << table.intern(x) for x in (pair, point_singleton(3, 1), point_singleton(4, 1)))
    split = frozenset({(1, 4), (1, 2)})
    nested = frozenset({(1, 4), (1, 3), (1, 2)})
    for order in ((split, nested), (nested, split)):
        memo = {}
        assert [_node_ok(table, memo, b, table.root, ch) for b in order] == \
            [b == split for b in order]


def test_size_grows_strictly_along_inside():
    # _valid_face takes a chain's innermost container as its smallest member by size,
    # once per containers mask; that needs size to grow strictly from each 2-bracket
    # to every 2-bracket containing it
    pairs, violations = 0, []
    for n in desk_nvectors() + [(3, 0, 2), (3, 3), (9,)]:
        table = _table(n)
        for x, row in enumerate(table.inside):
            for y in _bits(row):
                pairs += 1
                if not table.size[x] < table.size[y]:
                    violations.append((n, table.text[x], table.text[y]))
    assert violations == []
    assert pairs == 11486


def _object_label(tb):
    """TwoBracketing.label as it was: text and sort keys from the objects, no table."""
    tree = tree_to_text(bracketing_to_tree(tb.bracketing()))
    tbs = ";".join(str(t) for t in sorted(tb.two_brackets, key=TwoBracket.sort_key))
    return f"{tree}|{tbs}"


@pytest.mark.parametrize("n", desk_nvectors() + [(3, 0, 2)], ids=str)
def test_table_labels_match_the_object_label(n, monkeypatch):
    P = enumerate_Wn(n)
    labels = list(P.labels)
    objs = dict(face_two_bracketings(n))
    assert len(objs) == len(labels)  # one object per face, each under its own label
    faces = [objs[lab] for lab in labels]
    assert [_object_label(tb) for tb in faces] == labels
    assert [tb.label() for tb in faces] == labels
    # a fresh table first used in the opposite order gives the same labels
    monkeypatch.setattr(twoassoc, "_TABLES", {})
    assert [tb.label() for tb in reversed(faces)] == labels[::-1]
    monkeypatch.setattr(twoassoc, "_ENUM_CACHE", {})
    assert enumerate_Wn(n).labels == P.labels


@pytest.mark.parametrize("n", desk_nvectors(), ids=str)
def test_mask_covers_match_the_object_order(n):
    P = enumerate_Wn(n)
    objects = dict(face_two_bracketings(n))

    def leq(x, y):  # the order as from_order probed it, on every pair
        a, b = objects[x], objects[y]
        return b.brackets <= a.brackets and b.two_brackets <= a.two_brackets

    Q = RankedPoset.from_order({lab: P.rank_of(lab) for lab in P.labels}, leq)
    assert Q.labels == P.labels
    assert Q.cover_pairs == P.cover_pairs and Q._up == P._up


def test_containment_order_rejects_a_skip_rank_relation():
    # c holds a subset of a's items two ranks up, and no face lies between
    with pytest.raises(PosetError, match="skips a rank"):
        RankedPoset.from_item_masks({"a": 0, "c": 2}, {"a": 0b11, "c": 0b01}, {})
    P = RankedPoset.from_item_masks({"a": 0, "b": 1, "c": 2},
                                    {"a": 0b111, "b": 0b011, "c": 0b001}, {})
    assert P.cover_pairs == ((0, 1), (1, 2)) and P.leq("a", "c")


def test_a_dropped_cover_is_a_verification_error(monkeypatch):
    close = RankedPoset._close

    def drop_last_cover(self, down=None, lower=None):
        layers = dict(self._rank_masks)  # the covers as _close reads them off the down-sets
        lower = [d & layers.get(r - 1, 0) for d, r in zip(down, self.ranks)]
        pairs = sorted((i, j) for j, m in enumerate(lower) for i in _bits(m))
        if pairs:
            i, j = pairs[-1]
            lower[j] ^= 1 << i
        close(self, down, lower)
    monkeypatch.setattr(RankedPoset, "_close", drop_last_cover)
    monkeypatch.setattr(twoassoc, "_ENUM_CACHE", {})
    with pytest.raises(VerificationError, match=r"^face order of W_\(2, 1\): order is not"):
        enumerate_Wn((2, 1))


def _table_size(n):
    """Well-formed 2-brackets of n: per line interval, the product of each line's
    n_i (n_i + 1) / 2 point runs plus n_i + 1 gaps."""
    total = 0
    for lo in range(len(n)):
        for hi in range(lo, len(n)):
            count = 1
            for v in n[lo:hi + 1]:
                count *= v * (v + 1) // 2 + v + 1
            total += count
    return total


def test_malformed_input_raises(monkeypatch):
    n = (2, 1)
    top = top_element(n)
    bad = [TwoBracketing(n, top.brackets, top.two_brackets | {x}) for x in [
        TwoBracket(1, 3, (("p", 1, 1), ("g", 0), ("g", 0))),  # beyond r
        TwoBracket(1, 1, (("p", 1, 3),)),                     # beyond n_1
        TwoBracket(2, 2, (("g", 2),)),                        # gap beyond n_2
    ]] + [TwoBracketing(n, top.brackets | {(2, 3)}, top.two_brackets)]
    for fresh in (True, False):
        if fresh:
            monkeypatch.setattr(twoassoc, "_TABLES", {})
        else:
            enumerate_Wn(n)
            assert validate_two_bracketing(top)
        for tb in bad:
            with pytest.raises(ValueError):
                _object_validate(tb)
            with pytest.raises(ValueError):
                validate_two_bracketing(tb)
        assert len(_table(n).ids) == _table_size(n) == 27
    assert len(_table((3, 0, 2)).ids) == _table_size((3, 0, 2)) == 93


def test_enumeration_interns_each_reference_once_and_builds_no_face_object(monkeypatch):
    n = (3, 0, 2)
    calls = {"intern": 0, "TwoBracketing": 0}
    intern, init = _TwoBracketTable.intern, TwoBracketing.__init__

    def counted_intern(self, x):
        calls["intern"] += 1
        return intern(self, x)

    def counted_init(self, *args):
        calls["TwoBracketing"] += 1
        init(self, *args)

    references = sum(len(fs) for tree in trees_of_Kr(len(n))
                     for fs, _d in _gen_fiber(tree, n, 0, (0,) * len(n), {}))
    monkeypatch.setattr(twoassoc, "_ENUM_CACHE", {})
    monkeypatch.setattr(_TwoBracketTable, "intern", counted_intern)
    monkeypatch.setattr(TwoBracketing, "__init__", counted_init)
    P = enumerate_Wn(n)
    assert calls == {"intern": references, "TwoBracketing": 0}
    assert references == 60792 and len(P) == 4577
    monkeypatch.undo()
    # the objects come one per face, on demand
    labels = [lab for lab, _tb in face_two_bracketings(n)]
    assert len(labels) == len(P) and sorted(labels) == sorted(P.labels)


def test_two_bracket_hash_is_cached_and_unchanged():
    n = (3, 0, 2)
    table = _table(n)
    for x in table.ids:
        assert hash(x) == hash((x.lo, x.hi, x.extents))
        # built apart, equal 2-brackets hash equal and share one table id
        twin = TwoBracket(x.lo, x.hi, tuple(tuple(e) for e in x.extents))
        assert twin == x and twin is not x
        assert hash(twin) == hash(x) and table.intern(twin) == table.intern(x)
        # pickling rebuilds the 2-bracket instead of carrying its cached hash
        again = pickle.loads(pickle.dumps(x))
        assert again == x and hash(again) == hash(x)
    x = max_two_bracket(n)
    for field in ("lo", "hi", "extents"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, field, getattr(x, field))
    assert hash(x) == hash((x.lo, x.hi, x.extents))


def test_a_pointless_member_fails_validation_and_keeps_its_label():
    n = (1, 0, 2)
    top = top_element(n)
    tb = TwoBracketing(n, top.brackets, top.two_brackets | {TwoBracket(2, 2, (("g", 0),))})
    assert not _object_validate(tb)
    assert validate_two_bracketing(tb) is False
    assert tb.label() == _object_label(tb)


def test_a_table_miss_within_range_is_a_verification_error(monkeypatch):
    n = (2, 1)
    table = _TwoBracketTable(n)
    x = TwoBracket(1, 2, (("p", 1, 1), ("g", 0)))
    assert x in table.ids
    monkeypatch.setattr(table, "ids", {y: k for y, k in table.ids.items() if y != x})
    with pytest.raises(VerificationError, match="missing from its table"):
        table.intern(x)
    with pytest.raises(ValueError, match="exceeds n_2=1"):
        table.intern(TwoBracket(2, 2, (("g", 2),)))


def _table_rows(table):
    """The relation rows of a table, keyed by 2-brackets instead of ids."""
    ids = table.ids
    return ({(x, y): (table.inside[i] >> j & 1, table.compatible[i] >> j & 1,
                      table.below[i] >> j & 1)
             for x, i in ids.items() for y, j in ids.items()},
            {x: (table.points[i], table.bracket[i], table.size[i]) for x, i in ids.items()})


@pytest.mark.parametrize("n", [(2, 1), (1, 0, 2), (2, 2), (1, 1, 1), (3, 0, 2)], ids=str)
def test_table_rows_are_the_object_predicates(n):
    # the table reads compatible off its inside and orientation results; each row
    # must still equal its predicate evaluated on its own, pointed pair by pair
    table = _TwoBracketTable(n)
    pointed = [(x, k) for x, k in table.ids.items() if table.points[k]]
    for x, i in pointed:
        for y, j in pointed:
            got = (table.inside[i] >> j & 1, table.compatible[i] >> j & 1, table.below[i] >> j & 1)
            want = (x != y and tb_inside(x, y), tb_compatible(x, y), _tb_oriented(x, y) == "above")
            assert got == want, (x, y)


def test_concurrent_validation_builds_the_same_table(monkeypatch):
    n = (2, 2)
    faces = sorted((tb for _, tb in face_two_bracketings(n)), key=TwoBracketing.label)
    monkeypatch.setattr(twoassoc, "_TABLES", {})
    assert all(validate_two_bracketing(tb) for tb in faces)
    expected = _table_rows(_table(n))

    monkeypatch.setattr(twoassoc, "_TABLES", {})
    results = []

    def validate_from(start):
        order = faces[start:] + faces[:start]
        results.append(all(validate_two_bracketing(tb) for tb in order))

    threads = [threading.Thread(target=validate_from, args=(k * len(faces) // 6,))
               for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [True] * 6
    assert _table_rows(_table(n)) == expected


def _reflect_lines(tb):
    """Mirror a face of W_n to W_rev(n) by i -> r + 1 - i; vertical data stays."""
    r = tb.r
    brackets = frozenset((r + 1 - hi, r + 1 - lo) for lo, hi in tb.brackets)
    two = frozenset(TwoBracket(r + 1 - x.hi, r + 1 - x.lo, x.extents[::-1])
                    for x in tb.two_brackets)
    return TwoBracketing(tb.n[::-1], brackets, two)


_MIRROR_NS = [(2, 1), (1, 2), (3, 1), (2, 1, 1), (1, 0, 2), (0, 2, 1), (3, 2), (3, 0, 2)]


@pytest.mark.parametrize("n", _MIRROR_NS)
def test_line_reflection_is_a_poset_isomorphism(n):
    # checks the order relation itself, independently of every count oracle
    P, Q = enumerate_Wn(n), enumerate_Wn(n[::-1])
    objs = dict(face_two_bracketings(n))
    image = {lab: _reflect_lines(objs[lab]).label() for lab in P.labels}
    assert sorted(image.values()) == sorted(Q.labels)
    assert all(P.rank_of(lab) == Q.rank_of(image[lab]) for lab in P.labels)
    covers = {(image[P.labels[i]], image[P.labels[j]]) for i, j in P.cover_pairs}
    assert covers == {(Q.labels[i], Q.labels[j]) for i, j in Q.cover_pairs}


def _flip_vertical(tb):
    """Mirror a face of W_n to itself by point j -> n_i + 1 - j, gap g -> n_i - g."""
    def flip(line, e):
        v = tb.n[line - 1]
        return ("p", v + 1 - e[2], v + 1 - e[1]) if e[0] == "p" else ("g", v - e[1])
    two = frozenset(TwoBracket(x.lo, x.hi, tuple(flip(line, e) for line, e
                                                 in zip(x.lines(), x.extents)))
                    for x in tb.two_brackets)
    return TwoBracketing(tb.n, tb.brackets, two)


@pytest.mark.parametrize("n", _MIRROR_NS)
def test_vertical_flip_is_a_poset_automorphism(n):
    # like the line reflection, this checks the order relation and no count
    P = enumerate_Wn(n)
    objs = dict(face_two_bracketings(n))
    image = {lab: _flip_vertical(objs[lab]).label() for lab in P.labels}
    assert sorted(image.values()) == sorted(P.labels)
    assert any(image[lab] != lab for lab in P.labels)
    assert all(P.rank_of(lab) == P.rank_of(image[lab]) for lab in P.labels)
    covers = {(image[P.labels[i]], image[P.labels[j]]) for i, j in P.cover_pairs}
    assert covers == {(P.labels[i], P.labels[j]) for i, j in P.cover_pairs}


def _count_grid(r_max, weight_max):
    """Every nonzero n with r <= r_max lines and |n| <= weight_max."""
    return [n for r in range(1, r_max + 1)
            for n in itertools.product(range(weight_max + 1), repeat=r)
            if any(n) and sum(n) <= weight_max]


def test_recurrence_matches_series_beyond_desk_range():
    rows = bad = 0
    for r in (1, 2, 3):
        for tree in trees_of_Kr(r):
            F = solve_F(tree, 8)
            for n in _count_grid(3, 8):
                if len(n) == r:
                    for m in range(top_rank(n) + 1):
                        rows += 1
                        bad += count_W(tree, m, n) != coefficient(F, m, n)
    assert (rows, bad) == (3731, 0)


def test_recurrence_matches_series_on_444():
    n = (4, 4, 4)
    rows = bad = 0
    for tree in trees_of_Kr(3):
        F = solve_F(tree, sum(n))
        for m in range(top_rank(n) + 1):
            rows += 1
            bad += count_W(tree, m, n) != coefficient(F, m, n)
    assert (rows, bad) == (39, 0)


def test_count_W_444_is_fast():
    _fiber_poly.cache_clear()
    _stacks.cache_clear()
    n = (4, 4, 4)
    t0 = time.perf_counter()
    faces = [sum(count_W(tree, m, n) for tree in trees_of_Kr(3))
             for m in range(top_rank(n) + 1)]
    elapsed = time.perf_counter() - t0
    # the series gives the same counts (test_recurrence_matches_series_on_444)
    assert faces[-1] == 1 and faces[0] == 35889495800
    assert elapsed < 1.0


def _mirror(tree):
    return Tree(tuple(_mirror(c) for c in reversed(tree.children)))


def test_count_W_fiber_euler_characteristic_and_mirror():
    # needs no second oracle: each fiber is a cell of Euler characteristic
    # (-1)^d(T), and mirroring the lines maps W_n over T onto W_rev(n) over mirror(T)
    grid = _count_grid(3, 8) + [n for n in _count_grid(4, 5) if len(n) == 4] + [(4, 4, 4)]
    for n in grid:
        for tree in trees_of_Kr(len(n)):
            counts = [count_W(tree, m, n) for m in range(top_rank(n) + 1)]
            assert sum((-1) ** m * c for m, c in enumerate(counts)) == (-1) ** dim_tree(tree)
            assert counts == [count_W(_mirror(tree), m, n[::-1])
                              for m in range(top_rank(n) + 1)]


def test_recurrence_rejects_a_negative_dimension(monkeypatch):
    from assoc2 import twoassoc
    # fresh memos, so the broken weights neither read nor leave cached counts
    monkeypatch.setattr(twoassoc, "_fiber_poly", cache(twoassoc._fiber_poly.__wrapped__))
    monkeypatch.setattr(twoassoc, "_stacks", cache(twoassoc._stacks.__wrapped__))
    monkeypatch.setattr(twoassoc, "dim_tree", lambda tree: -1)
    with pytest.raises(VerificationError, match="negative dimension"):
        count_W(corolla(2), 0, (1, 1))


# count_W at the parent of the bottom-up memo fill, beyond the series cross-checks
COUNT_W_REFERENCE = {
    ((16, 1), "(..)"): [48289295226, 438351406977, 1820864071318, 4583104187473, 7800950985104,
                        9488419214138, 8495336195112, 5681789921895, 2850009121350,
                        1066587025269, 293414903586, 57759801569, 7781818024, 665704376,
                        31461920, 589943, 1],
    ((2, 0, 7), "(...)"): [0, 246816, 1110336, 2063508, 2038347, 1143947, 359323, 57148, 3413, 1],
    ((2, 0, 7), "((..).)"): [267048, 1208460, 2261344, 2251994, 1276322, 405842, 65591, 4010, 2,
                             0],
    ((2, 0, 7), "(.(..))"): [765904, 3696660, 7447446, 8080721, 5068695, 1822822, 344120, 26025,
                             64, 0],
}


def test_count_W_matches_the_recorded_table():
    for (n, text), want in COUNT_W_REFERENCE.items():
        assert [count_W(parse_tree(text), m, n) for m in range(top_rank(n) + 1)] == want


@pytest.mark.parametrize("n", [(25, 1), (2, 0, 12)])
def test_count_W_depth_does_not_grow_with_n(n, monkeypatch):
    # the memos are filled bottom-up, so a few dozen frames suffice at any n; the
    # top-down recursion needed about 7 per point, (25, 1) about 180
    from assoc2 import trees
    for memo in (trees._count_K, trees._count_K_parts):
        memo.cache_clear()
    for name in ("_fiber_poly", "_stacks", "_fill_memos"):
        monkeypatch.setattr(twoassoc, name, cache(getattr(twoassoc, name).__wrapped__))
    frames = 0
    frame = sys._getframe()
    while frame:
        frames, frame = frames + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 60)
    try:
        counts = [count_W(corolla(len(n)), m, n) for m in range(top_rank(n) + 1)]
    finally:
        sys.setrecursionlimit(limit)
    # the fiber over the corolla is a cell
    assert sum((-1) ** m * c for m, c in enumerate(counts)) == (-1) ** (len(n) - 2)


def test_count_W_shape_mismatch():
    with pytest.raises(ValueError):
        count_W(corolla(2), 0, (1, 1, 1))


def test_dim_2concat():
    assert dim_2concat([0, 0], (1, 1), [[0], [0]]) == 1
    assert dim_2concat([0], (2,), [[0, 0]]) == 0
    with pytest.raises(ValueError):
        dim_2concat([0], (1,), [[0]])  # excluded trivial case
    with pytest.raises(ValueError):
        dim_2concat([0, 0], (1,), [[0]])
    with pytest.raises(ValueError):
        dim_2concat([0], (2,), [[0]])


def test_count_W_constraints_match_dim_2concat():
    """Every vertical branch target agrees with the concatenation dimension."""
    p = 0  # d(corolla_2)
    for a in (2, 3):
        for m_parts in itertools.product(range(3), repeat=a):
            m = dim_2concat([p], (a,), [list(m_parts)])
            assert sum(m_parts) == m + (a - 1) * p - a + 2


# --- the independent brute-force cross-check ---

def candidate_two_brackets(n, stored):
    r = len(n)
    forced = forced_two_brackets(n)
    brs = sorted(stored | {(i, i) for i in range(1, r + 1)})
    out = []
    for lo, hi in brs:
        ext_opts = []
        for line in range(lo, hi + 1):
            v = n[line - 1]
            opts = [("p", a, b) for a in range(1, v + 1) for b in range(a, v + 1)]
            opts += [("g", g) for g in range(v + 1)]
            ext_opts.append(opts)
        for exts in itertools.product(*ext_opts):
            if not any(e[0] == "p" for e in exts):
                continue
            tb = TwoBracket(lo, hi, tuple(exts))
            if tb not in forced:
                out.append(tb)
    return sorted(out, key=TwoBracket.sort_key)


def brute_force_Wn(n):
    """Every subset of the candidate universe that satisfies the predicate."""
    found = {}
    for kb in all_bracketings(len(n)):
        cands = candidate_two_brackets(n, kb.brackets)
        forced = forced_two_brackets(n)
        base = sorted(forced, key=TwoBracket.sort_key)

        def dfs(start, chosen):
            tb = TwoBracketing(n, kb.brackets, frozenset(chosen) | forced)
            if validate_two_bracketing(tb):
                found[tb.label()] = tb
            for i in range(start, len(cands)):
                c = cands[i]
                if all(tb_compatible(c, x) for x in chosen) \
                        and all(tb_compatible(c, x) for x in base):
                    chosen.append(c)
                    dfs(i + 1, chosen)
                    chosen.pop()

        dfs(0, [])
    return found


@pytest.mark.parametrize("n", [
    (1,), (3,), (4,), (1, 1), (2, 1), (1, 2), (2, 2), (1, 0), (0, 2),
    (1, 1, 1), (1, 0, 1),
])
def test_brute_force_matches_enumeration(n):
    assert set(brute_force_Wn(n)) == set(enumerate_Wn(n).labels)


@pytest.mark.parametrize("n", [(1, 1), (2, 1), (1, 1, 1), (2, 2)])
def test_antichain_stacks_are_facets(n):
    """No removable brackets + an antichain of full-width removable 2-brackets
    forces codimension exactly 1 (the unfused-seams dimension count)."""
    from assoc2.twoassoc import tb_inside, top_rank
    P = enumerate_Wn(n)
    r = len(n)
    seen = 0
    for lab, tb in face_two_bracketings(n):
        rem_b, rem_2b = removables(tb)
        if rem_b or not rem_2b:
            continue
        if any(x.bracket != (1, r) for x in rem_2b):
            continue
        if any(x != y and tb_inside(x, y) for x in rem_2b for y in rem_2b):
            continue
        seen += 1
        assert P.rank_of(lab) == top_rank(n) - 1, lab
    assert seen > 0


def test_fiber_balance_and_global_balance():
    for n in [(1, 1), (2, 1), (1, 1, 1), (2, 2)]:
        P = enumerate_Wn(n)
        pi = P.meta["pi"]
        total = 0
        sums = {}
        for lab in P.labels:
            s = (-1) ** P.rank_of(lab)
            total += s
            sums[pi[lab]] = sums.get(pi[lab], 0) + s
        assert total == 1
        for kb in all_bracketings(len(n)):
            tree = bracketing_to_tree(kb)
            from assoc2.trees import dim_tree
            assert sums.get(tree_to_text(tree), 0) == (-1) ** dim_tree(tree)


def test_two_bracketing_json_schema():
    doc = top_element((1, 0)).to_json_dict()
    assert doc["n"] == [1, 0]
    assert [1, 1] in doc["brackets"] and [1, 2] in doc["brackets"]
    mx = doc["two_brackets"][-1]
    assert mx["B"] == [1, 2]
    assert {"line": 1, "points": [1, 1]} in mx["extents"]
    assert {"line": 2, "gap": 0} in mx["extents"]
