"""2-bracketings and the face posets of the 2-associahedra W_n.

A face of W_n is a pair (B, 2B) of a bracketing of the r lines and a
compatible family of 2-brackets.  A 2-bracket crosses the consecutive lines
of a bracket and either encloses a nonempty run of marked points on a line
or passes through one of its gaps (gap g sits between points g and g+1, with
g = 0 below the first point).  Point singletons and the maximal 2-bracket
are stored explicitly; the face order is reverse containment of the pairs.

Validity of a candidate family is decided structurally: the containment
forest of the 2-brackets must parse into alternating stack nodes (all
children project to the node's own bracket, are totally ordered vertically
and split the node's points) and split nodes (children project exactly onto
the bracket-tree children and cover all points).  This parse is exactly what
makes single lines reduce to K_n and pins the face counts to the two
independent count oracles.
"""

from __future__ import annotations

import itertools
import weakref
from dataclasses import dataclass
from functools import cache
from math import factorial, prod

from .poset import PosetError, RankedPoset, _bits
from .trees import (DEFAULT_MAX_ELEMENTS, Bracketing, SearchSpaceError, Tree, all_bracketings,
                    bracketing_to_tree, check_K_size, count_K, dim_tree, root_decompose,
                    tree_to_text)


def check_nvector(n) -> tuple[int, ...]:
    n = tuple(int(v) for v in n)
    if not n:
        raise ValueError("n must have r >= 1 entries")
    if any(v < 0 for v in n):
        raise ValueError(f"n entries must be nonnegative, got {n}")
    if not any(n):
        raise ValueError("n must be nonzero (n in Z_{>=0}^r \\ {0})")
    return n


@dataclass(frozen=True)
class TwoBracket:
    """A 2-bracket: line interval [lo..hi] with one vertical extent per line.

    Extents are ('p', a, b) for the run of points a..b, or ('g', g) for the
    crossing through gap g.
    """

    lo: int
    hi: int
    extents: tuple[tuple, ...]

    def __hash__(self):
        # the value the generated dataclass hash returns, computed once: intern
        # and each fiber's duplicate check hash the same shared screens over and over
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling, so the cached hash never crosses processes
        return TwoBracket, (self.lo, self.hi, self.extents)

    def __post_init__(self):
        if not (1 <= self.lo <= self.hi):
            raise ValueError(f"bad line interval [{self.lo}..{self.hi}]")
        if len(self.extents) != self.hi - self.lo + 1:
            raise ValueError("need exactly one extent per line")
        for e in self.extents:
            if e[0] == "p":
                if len(e) != 3 or not (1 <= e[1] <= e[2]):
                    raise ValueError(f"malformed points extent {e!r}")
            elif e[0] == "g":
                if len(e) != 2 or e[1] < 0:
                    raise ValueError(f"malformed gap extent {e!r}")
            else:
                raise ValueError(f"malformed extent {e!r}")
        object.__setattr__(self, "_hash", hash((self.lo, self.hi, self.extents)))

    @property
    def bracket(self) -> tuple[int, int]:
        return (self.lo, self.hi)

    def lines(self):
        return range(self.lo, self.hi + 1)

    def extent(self, line: int):
        return self.extents[line - self.lo]

    def points(self) -> frozenset[tuple[int, int]]:
        out = []
        for line in self.lines():
            e = self.extent(line)
            if e[0] == "p":
                out += [(line, j) for j in range(e[1], e[2] + 1)]
        return frozenset(out)

    def sort_key(self):
        return (self.lo, self.hi,
                tuple((0, e[1], e[1]) if e[0] == "g" else (1, e[1], e[2])
                      for e in self.extents))

    def __str__(self):
        exts = ",".join(f"p{e[1]}-{e[2]}" if e[0] == "p" else f"g{e[1]}"
                        for e in self.extents)
        return f"[{self.lo}-{self.hi}:{exts}]"


def point_singleton(line: int, j: int) -> TwoBracket:
    return TwoBracket(line, line, (("p", j, j),))


def max_two_bracket(n: tuple[int, ...], line_off: int = 0,
                    offs: tuple[int, ...] | None = None) -> TwoBracket:
    """All points on all lines; pointless lines are crossed at their only gap.

    Placed from line `line_off` + 1 and `offs` points above each line's origin.
    """
    offs = offs or (0,) * len(n)
    exts = tuple(("p", o + 1, o + v) if v > 0 else ("g", o) for v, o in zip(n, offs))
    return TwoBracket(line_off + 1, line_off + len(n), exts)


def forced_two_brackets(n: tuple[int, ...]) -> frozenset[TwoBracket]:
    out = {max_two_bracket(n)}
    for i, v in enumerate(n, start=1):
        for j in range(1, v + 1):
            out.add(point_singleton(i, j))
    return frozenset(out)


@dataclass(frozen=True)
class TwoBracketing:
    """(bracketing, 2-brackets) pair; brackets stored as in Bracketing."""

    n: tuple[int, ...]
    brackets: frozenset[tuple[int, int]]
    two_brackets: frozenset[TwoBracket]

    @property
    def r(self) -> int:
        return len(self.n)

    def bracketing(self) -> Bracketing:
        return Bracketing(self.r, self.brackets)

    def label(self) -> str:
        """Tree text, then the 2-brackets in sort-key order; read from the table of n."""
        table = _table(check_nvector(self.n))
        return _face_label(table, _tree_text(self.bracketing()),
                           sum(1 << table.intern(x) for x in self.two_brackets))

    def to_json_dict(self) -> dict:
        rows = []
        for tb in sorted(self.two_brackets, key=TwoBracket.sort_key):
            exts = []
            for line in tb.lines():
                e = tb.extent(line)
                if e[0] == "p":
                    exts.append({"line": line, "points": [e[1], e[2]]})
                else:
                    exts.append({"line": line, "gap": e[1]})
            rows.append({"B": [tb.lo, tb.hi], "extents": exts})
        full = sorted(self.brackets | {(i, i) for i in range(1, self.r + 1)})
        return {"n": list(self.n), "brackets": [[a, b] for a, b in full],
                "two_brackets": rows}


def _top_bracketing(r: int) -> Bracketing:
    """The bracketing of the maximum: the full bracket alone (none for r = 1)."""
    return Bracketing(r, frozenset({(1, r)}) if r >= 2 else frozenset())


def top_element(n) -> TwoBracketing:
    """Only the forced members: the unique maximum of W_n."""
    n = check_nvector(n)
    return TwoBracketing(n, _top_bracketing(len(n)).brackets, forced_two_brackets(n))


def top_rank(n) -> int:
    """Dimension of the maximum: |n| + r - 3, except W_(1) which is a point."""
    n = check_nvector(n)
    if n == (1,):
        return 0
    return sum(n) + len(n) - 3


# --- extent and 2-bracket geometry ---

def _ext_inside(child, parent) -> bool:
    if parent[0] == "p":
        a, b = parent[1], parent[2]
        if child[0] == "p":
            return a <= child[1] and child[2] <= b
        return a - 1 <= child[1] <= b  # gap may sit anywhere across the run
    return child[0] == "g" and child[1] == parent[1]


def _ext_below(e, f) -> bool:
    """Strictly below: e's footprint entirely under f's."""
    if e[0] == "p":
        return e[2] < f[1] if f[0] == "p" else e[2] <= f[1]
    return e[1] < f[1]


def _ext_tie(e, f) -> bool:
    return e[0] == "g" and f[0] == "g" and e[1] == f[1]


def tb_inside(child: TwoBracket, parent: TwoBracket) -> bool:
    """Containment: nested brackets and per-line nested extents."""
    if not (parent.lo <= child.lo and child.hi <= parent.hi):
        return False
    return all(_ext_inside(child.extent(line), parent.extent(line))
               for line in child.lines())


def _tb_oriented(x: TwoBracket, y: TwoBracket) -> str | None:
    """'below'/'above' if x sits consistently on one side of y on shared lines."""
    lo, hi = max(x.lo, y.lo), min(x.hi, y.hi)
    below = above = True
    for line in range(lo, hi + 1):
        e, f = x.extent(line), y.extent(line)
        if _ext_tie(e, f):
            continue
        if not _ext_below(e, f):
            below = False
        if not _ext_below(f, e):
            above = False
    if below and not above:
        return "below"
    if above and not below:
        return "above"
    return None


def tb_compatible(x: TwoBracket, y: TwoBracket) -> bool:
    """Nested or consistently disjoint; pairs over disjoint brackets are free."""
    if x.hi < y.lo or y.hi < x.lo:
        return True
    return (tb_inside(x, y) or tb_inside(y, x)
            or _tb_oriented(x, y) is not None)


# --- validity ---

@cache
def _bracket_children(stored: frozenset[tuple[int, int]],
                      b: tuple[int, int]) -> frozenset[tuple[int, int]]:
    """Bracket-tree children of b: maximal proper sub-brackets plus singleton gaps."""
    lo, hi = b
    inner = [c for c in stored if lo <= c[0] and c[1] <= hi and c != b]
    out = []
    pos = lo
    while pos <= hi:
        sub = max((c for c in inner if c[0] == pos), key=lambda c: c[1], default=None)
        if sub is None:
            out.append((pos, pos))
            pos += 1
        else:
            out.append(sub)
            pos = sub[1] + 1
    return frozenset(out)


class _TwoBracketTable:
    """Relation rows over every well-formed 2-bracket of one n, built whole.

    Ids follow TwoBracket.sort_key, so a face's id mask read in bit order
    is its label order, and V1-V6 are decided on that mask alone
    (_valid_face): a face's 2-brackets are interned once, then never looked
    at again.  The rows are computed once, over the pairs of pointed
    2-brackets, from one _tb_oriented and at most two tb_inside calls per
    pair; compatible is tb_compatible read off those results (nested either
    way, oriented, or over disjoint brackets), not evaluated again.  A pointless
    one keeps empty rows (compatible only with itself), and a face holding
    one fails V3.  No row changes after __init__, so readers need no lock.
    Bit y of inside[x] says x lies strictly inside y, of compatible[x] that
    x and y are compatible (x itself included), of below[x] that y sits
    strictly below x.  points[x] has one bit per marked point of x; text[x]
    is str(x).  on_bracket[b] has the id bit of every 2-bracket over the
    line interval b, and pointless those of the 2-brackets without points.
    """

    def __init__(self, n: tuple[int, ...]):
        self.n = n
        self._first_point = list(itertools.accumulate(n, initial=0))
        r = len(n)
        extents = [[("p", a, b) for a in range(1, v + 1) for b in range(a, v + 1)]
                   + [("g", g) for g in range(v + 1)] for v in n]
        universe = sorted((TwoBracket(lo, hi, exts)
                           for lo in range(1, r + 1) for hi in range(lo, r + 1)
                           for exts in itertools.product(*extents[lo - 1:hi])),
                          key=TwoBracket.sort_key)
        self.ids = {x: k for k, x in enumerate(universe)}
        self.bracket = [x.bracket for x in universe]
        self.on_bracket = {}
        for k, b in enumerate(self.bracket):
            self.on_bracket[b] = self.on_bracket.get(b, 0) | 1 << k
        self.points = [self._point_mask(x) for x in universe]
        self.pointless = sum(1 << k for k, pts in enumerate(self.points) if not pts)
        self.size = [(pts.bit_count(), x.hi - x.lo)  # grows along a chain
                     for x, pts in zip(universe, self.points)]
        self.text = [str(x) for x in universe]
        self.inside = [0] * len(universe)
        self.compatible = [1 << k for k in range(len(universe))]
        self.below = [0] * len(universe)
        pointed = [k for k, pts in enumerate(self.points) if pts]
        for i, k in enumerate(pointed):
            x = universe[k]
            for j in pointed[i + 1:]:
                y = universe[j]
                o = _tb_oriented(x, y)
                if tb_inside(x, y):
                    self.inside[k] |= 1 << j
                elif tb_inside(y, x):
                    self.inside[j] |= 1 << k
                elif o is None and x.lo <= y.hi and y.lo <= x.hi:
                    continue  # overlapping brackets, neither nested nor oriented
                self.compatible[k] |= 1 << j  # tb_compatible, from the tests above
                self.compatible[j] |= 1 << k
                if o == "above":
                    self.below[k] |= 1 << j
                elif o == "below":
                    self.below[j] |= 1 << k
        self.root = self.ids[max_two_bracket(n)]
        self.forced = sum(1 << self.ids[x] for x in forced_two_brackets(n))

    def intern(self, x: TwoBracket) -> int:
        k = self.ids.get(x)
        if k is None:
            self._point_mask(x)  # raises on extents outside n
            raise VerificationError(f"2-bracket {x} lies within n={self.n} "
                                    f"but is missing from its table")
        return k

    def _point_mask(self, x: TwoBracket) -> int:
        n = self.n
        if x.hi > len(n):
            raise ValueError(f"2-bracket {x} exceeds r={len(n)}")
        out = 0
        for line, e in zip(x.lines(), x.extents):
            top = n[line - 1]
            if e[0] == "p":
                if e[2] > top:
                    raise ValueError(f"points extent {e!r} exceeds n_{line}={top}")
                out |= ((1 << (e[2] - e[1] + 1)) - 1) << (self._first_point[line - 1] + e[1] - 1)
            elif e[1] > top:
                raise ValueError(f"gap extent {e!r} exceeds n_{line}={top}")
        return out


_TABLES: dict[tuple[int, ...], _TwoBracketTable] = {}


def _table(n: tuple[int, ...]) -> _TwoBracketTable:
    table = _TABLES.get(n)
    if table is None:
        table = _TABLES.setdefault(n, _TwoBracketTable(n))
    return table


@cache
def _tree_text(kb: Bracketing) -> str:
    return tree_to_text(bracketing_to_tree(kb))


def _face_label(table: _TwoBracketTable, tree_text: str, face: int) -> str:
    """A face's label from its tree text and the table id mask of its 2-brackets.

    Ids follow sort-key order, so the text rows join in bit order.
    """
    text = table.text
    return tree_text + "|" + ";".join([text[x] for x in _bits(face)])


def validate_two_bracketing(tb: TwoBracketing) -> bool:
    """Decide the defining conditions for a structurally well-formed candidate.

    Malformed data (extents out of the range set by n, brackets out of
    range) raises; anything well-formed evaluates to True or False.  Each
    2-bracket is interned once into the face's id mask in the table of n,
    built whole on first use, and _valid_face decides V1-V6 on that mask,
    as it does for every enumerated face, with a fresh memo of its own.
    """
    n = check_nvector(tb.n)
    table = _table(n)
    face = 0
    for x in tb.two_brackets:
        face |= 1 << table.intern(x)
    for lo, hi in tb.brackets:
        if not (1 <= lo <= hi <= len(n)):
            raise ValueError(f"bracket ({lo},{hi}) out of range")
    return _valid_face(table, tb.brackets, face, {})


def _valid_face(table: _TwoBracketTable, brackets: frozenset[tuple[int, int]],
                face: int, memo: dict) -> bool:
    """V1-V6 for the 2-brackets with table id mask `face` over the stored `brackets`.

    The brackets must lie within 1..r; every relation is read from the rows
    of the table, and no 2-bracket object is touched.  What depends on less
    than the whole face is decided once per `memo`, which serves one table
    and lives as long as its caller keeps it (one enumeration): keyed by
    `brackets`, the bracketing's frame (_bracketing_frame); by a containers
    mask, its innermost member; by (node, children mask, brackets), the
    node's verdict (_node_ok).  The keys are a frozenset, an int and a
    tuple, so they never collide.  V3, the V2 AND, V4 and the chain test
    read the whole face and are decided per face.
    """
    if brackets not in memo:
        memo[brackets] = _bracketing_frame(table, brackets)
    frame = memo[brackets]
    # (V1) the bracket family is a bracketing
    if frame is None:
        return False
    allowed, needed = frame

    # (V3) forced members present; every 2-bracket encloses a point
    if table.forced & ~face or face & table.pointless:
        return False

    # (V2) projections land in the bracketing; implied by the parse, as the root
    # lies on (1, r) and each child on its parent's bracket or on one of its branches
    if face & ~allowed:
        return False

    # (V4) pairwise nesting or consistent vertical order; implied by the parse, as
    # the order tests below imply it and it implies them. By V1 two members over
    # overlapping brackets sit over nested brackets, so they are nested in the
    # forest or lie in two children of one node over one bracket, which
    # _stack_ordered orders. That order passes to all they contain, and V3 gives
    # the inner member a point, a line where the order is strict. Dropping V4
    # and those tests together fails test_validate_rejects_inconsistent_orientation.
    elems = list(_bits(face))
    compatible = table.compatible
    if any(face & ~compatible[x] for x in elems):
        return False

    # (V5)/(V6) the containment forest parses into stack and split nodes
    inside, size, root = table.inside, table.size, table.root
    children = dict.fromkeys(elems, 0)
    for x in elems:
        if x == root:
            continue
        containers = inside[x] & face
        if not containers:
            return False
        parent = memo.get(containers)
        if parent is None:
            # size grows strictly along inside, so a chain has one innermost member
            parent = memo[containers] = min(_bits(containers), key=size.__getitem__)
        if inside[parent] & face != containers ^ 1 << parent:
            # implied by V4: the containers share x's points, so each two are nested
            return False  # containers must form a chain
        children[parent] |= 1 << x

    # implied by the parse: a point's containers step down the bracket tree from (1, r)
    if not all(face & on for on in needed):
        return False  # a bracket with points needs a 2-bracket over it

    return all(_node_ok(table, memo, brackets, node, ch) for node, ch in children.items())


def _bracketing_frame(table: _TwoBracketTable, brackets: frozenset[tuple[int, int]]):
    """None unless `brackets` is a bracketing of the r lines (V1); else (allowed, needed).

    allowed is the union of on_bracket over the bracketing and the single
    lines (V2 allows nothing else); needed holds on_bracket of each bracket
    with points, each of which a face must meet.
    """
    n, on_bracket = table.n, table.on_bracket
    r = len(n)
    try:
        Bracketing(r, brackets)
    except ValueError:
        return None
    allowed = 0
    for b in brackets:
        allowed |= on_bracket[b]
    for i in range(1, r + 1):
        allowed |= on_bracket[i, i]
    needed = tuple(on_bracket[lo, hi] for lo, hi in brackets if any(n[lo - 1:hi]))
    return allowed, needed


def _node_ok(table: _TwoBracketTable, memo: dict, brackets: frozenset[tuple[int, int]],
             node: int, ch: int) -> bool:
    """_decide_node, once per (node, ch, brackets) and memo."""
    key = (node, ch, brackets)
    ok = memo.get(key)
    if ok is None:
        ok = memo[key] = _decide_node(table, brackets, node, ch)
    return ok


def _decide_node(table: _TwoBracketTable, brackets: frozenset[tuple[int, int]],
                 node: int, ch: int) -> bool:
    """Whether `node` with the children mask `ch` is a leaf, stack or split node."""
    on_bracket, bracket, points = table.on_bracket, table.bracket, table.points
    if not ch:
        return table.size[node][0] <= 1  # implied: its points' singletons would be children
    same = ch & on_bracket[bracket[node]]
    if same:
        # stack node: >= 2 screens over the same bracket splitting the points
        # (>= 2 is implied by _stack_ok: a lone screen with all the points is the node)
        return same == ch and ch.bit_count() >= 2 and _stack_ok(table, list(_bits(ch)), node)
    # split node: children sit exactly on the bracket-tree branches
    groups = [ch & on_bracket[b] for b in _bracket_children(brackets, bracket[node])]
    if ch != sum(groups):  # disjoint groups: the sum is the union
        return False
    covered = 0
    for x in _bits(ch):
        covered |= points[x]
    if covered != points[node]:
        return False  # implied: each point's singleton lies inside a child
    # implied by V4: unnested siblings over one branch are pairwise oriented,
    # and orientation over one bracket is transitive
    return all(group.bit_count() <= 1 or _stack_ordered(table, list(_bits(group)))
               for group in groups)


def _stack_ordered(table: _TwoBracketTable, group: list[int]) -> bool:
    """Pairwise strict vertical order that is acyclic (hence a total order).

    In a total order each member has as many members below it as its
    position, so sorting by that count finds the order if there is one; the
    all-pairs check (every earlier member lies below each later one) alone
    decides.
    """
    below, mask = table.below, 0
    for x in group:
        mask |= 1 << x
    seen = 0
    for y in sorted(group, key=lambda x: (below[x] & mask).bit_count()):
        if below[y] & seen != seen:
            return False
        seen |= 1 << y
    return True


def _stack_ok(table: _TwoBracketTable, same: list[int], node: int) -> bool:
    # implied by V4, as at split nodes: siblings are unnested (a sibling inside
    # another would have that one, not the node, as its smallest container), so
    # pairwise oriented, and orientation over one bracket is transitive
    if not _stack_ordered(table, same):
        return False
    covered = 0
    for x in same:
        if covered & table.points[x]:
            return False  # implied by the order: on a shared line one lies under the other
        covered |= table.points[x]
    # implied, as at split nodes: each point's singleton lies inside a child
    return covered == table.points[node]


# --- operations on faces ---

def forgetful_map(tb: TwoBracketing) -> Bracketing:
    """Project to the line-level bracketing (the K_r face)."""
    return tb.bracketing()


def removables(tb: TwoBracketing) -> tuple[frozenset[tuple[int, int]], frozenset[TwoBracket]]:
    """Brackets/2-brackets that are neither forced singletons nor the maxima."""
    r = tb.r
    rem_b = frozenset(b for b in tb.brackets if b != (1, r))
    mx = max_two_bracket(tb.n)
    rem_2b = frozenset(x for x in tb.two_brackets
                       if x != mx and not (x.lo == x.hi and x.extents[0][0] == "p"
                                           and x.extents[0][1] == x.extents[0][2]))
    return rem_b, rem_2b


def restrict_to_bracket(tb: TwoBracketing, b: tuple[int, int]) -> TwoBracketing:
    """Keep only the 2-brackets lying exactly over b, reindexed to 1..#b.

    The result lives in W_{n(b)} with the minimal bracketing: singletons, the
    full bracket, fresh point singletons and a fresh maximal 2-bracket.
    """
    lo, hi = b
    r = tb.r
    if b not in tb.brackets and not (lo == hi and 1 <= lo <= r):
        raise ValueError(f"bracket {b} not in the bracketing")
    sub_n = tb.n[lo - 1:hi]
    if not any(sub_n):
        raise ValueError(f"restriction to {b} has no marked points")
    s = hi - lo + 1
    kept = set()
    for x in tb.two_brackets:
        if x.bracket == b:
            kept.add(TwoBracket(1, s, x.extents))
    kept |= forced_two_brackets(sub_n)
    brackets = frozenset({(1, s)}) if s >= 2 else frozenset()
    out = TwoBracketing(sub_n, brackets, frozenset(kept))
    if not validate_two_bracketing(out):
        raise VerificationError(f"restriction to {b} produced an invalid 2-bracketing")
    return out


# --- enumeration ---

class VerificationError(Exception):
    """A constructed face or poset broke an invariant the engine checks.

    Deliberately not a ValueError: it reports a fault of the engine, not bad
    input, and the CLI maps it to exit status 1.
    """


def _screen_stacks(tree: Tree, n: tuple[int, ...], line_off: int,
                   offs: tuple[int, ...], screens: dict):
    """Ordered stacks of fib(tree, q) faces filling n, bottom screen first.

    Yields (2-brackets, screen dimensions); the stack starts at line
    `line_off` + 1 and at points `offs` above each line's origin.  n = 0
    yields only the empty stack.  Each screen is generated once per place
    in the caller's `screens` memo (see _gen_fiber) and reused in every
    stack that puts it there.
    """
    if not any(n):
        yield (), ()
        return
    for q in itertools.product(*[range(v + 1) for v in n]):
        if not any(q):
            continue
        first = _gen_fiber(tree, q, line_off, offs, screens)
        rest = tuple(a - b for a, b in zip(n, q))
        above = tuple(o + v for o, v in zip(offs, q))
        for tbs, dims in _screen_stacks(tree, rest, line_off, above, screens):
            for fs, d in first:
                yield fs + tbs, (d,) + dims


def _gen_fiber(tree: Tree, n: tuple[int, ...], line_off: int, offs: tuple[int, ...],
               screens: dict):
    """All faces of W_n over `tree`, placed from line `line_off` + 1 and `offs`.

    Returns a tuple of (2-bracket tuple, dimension) pairs, generated where
    they sit: `offs` counts the points below the fiber on each of its lines.
    Every face includes its own maximal 2-bracket, which is exactly the
    screen enclosing it inside a larger face.  Over a leaf the faces are
    K_n and share one 2-bracket per run of points.  A vertical face is a
    first screen fib(tree, q), 0 < q < n, under a nonempty stack filling
    n - q; a horizontal face is one stack (maybe empty) per branch.  Stacks
    come from _screen_stacks, dimensions from dim_2concat.  `screens` is the
    caller's memo, keyed by (tree, n, line_off, offs): each place is
    generated and checked once per memo, and the memo goes with its caller,
    so no face outlives the enumeration that made it.
    """
    key = (tree, n, line_off, offs)
    done = screens.get(key)
    if done is not None:
        return done
    r = tree.leaf_count()
    if len(n) != r or len(offs) != r or not any(n):
        raise ValueError(f"fiber over {tree_to_text(tree)} needs a nonzero n and offsets "
                         f"of length {r}, got {n} and {offs}")
    out = []
    if r == 1:
        q, line, o = n[0], line_off + 1, offs[0]
        run = {(a, b): TwoBracket(line, line, (("p", a + o, b + o),))
               for a in range(1, q + 1) for b in range(a, q + 1)}
        points = tuple(run[j, j] for j in range(1, q + 1))
        for kb in all_bracketings(q):  # (1, q) is in every kb for q > 1
            out.append((points + tuple(run[b] for b in kb.brackets), kb.dim))
    else:
        mx, p = max_two_bracket(n, line_off, offs), dim_tree(tree)
        # vertical: a first screen under a nonempty stack of the rest
        for q in itertools.product(*[range(v + 1) for v in n]):
            if not any(q) or q == n:
                continue
            rest = tuple(a - b for a, b in zip(n, q))
            above = list(_screen_stacks(tree, rest, line_off,
                                        tuple(o + v for o, v in zip(offs, q)), screens))
            for fs, d in _gen_fiber(tree, q, line_off, offs, screens):
                for tbs, dims in above:
                    out.append(((mx, *fs, *tbs),
                                dim_2concat([p], [1 + len(dims)], [[d, *dims]])))

        # horizontal: one stack per branch of the bracket tree
        branches = root_decompose(tree)
        stacks, pos = [], 0
        for child in branches:
            w = child.leaf_count()
            stacks.append(list(_screen_stacks(child, n[pos:pos + w], line_off + pos,
                                              offs[pos:pos + w], screens)))
            pos += w
        p_i = [dim_tree(b) for b in branches]
        for combo in itertools.product(*stacks):
            tbs = [x for fs, _ds in combo for x in fs]
            dims = [list(ds) for _fs, ds in combo]
            out.append(((mx, *tbs), dim_2concat(p_i, [len(ds) for ds in dims], dims)))

    where = f"fiber over ({tree_to_text(tree)}, {n}) at ({line_off}, {offs})"
    faces = [frozenset(fs) for fs, _ in out]
    if any(len(face) != len(fs) for face, (fs, _) in zip(faces, out)):
        raise VerificationError(f"a face lists one 2-bracket twice in {where}")
    if len(set(faces)) != len(out):
        raise VerificationError(f"duplicate faces in {where}")
    if any(d < 0 for _, d in out):
        raise VerificationError(f"negative dimension in {where}")
    screens[key] = done = tuple(out)
    return done


# each W_n by n, while some caller holds it (see enumerate_Wn)
_ENUM_CACHE: weakref.WeakValueDictionary[tuple[int, ...], RankedPoset] = \
    weakref.WeakValueDictionary()


def enumerate_Wn(n, max_elements: int = DEFAULT_MAX_ELEMENTS) -> RankedPoset:
    """Face poset of W_n with forgetful labels.

    Faces are generated fiber by fiber over the trees of K_r.  Each
    generated 2-bracket is interned once into the face's id mask in the
    relation table of n; _valid_face re-decides V1-V6 on that mask, and the
    same mask builds the label (the ids follow label order) and the order.
    One validation memo serves the call and is dropped on return: faces
    share their screens, so each bracketing frame, innermost container and
    node verdict is decided once per enumeration, never once per face.  A
    second, separate memo holds the generated screens by place (_gen_fiber)
    and goes with the same return, so no face tuple outlives the call.
    No TwoBracketing is built; face_two_bracketings yields them on demand.
    A face's poset mask has one fixed bit per bracket and, above those, the
    table id bit of each of its 2-brackets.
    RankedPoset.from_item_masks orders the faces by reverse containment of
    those masks: each face's down-set is the intersection of its items'
    holders, its covers are that down-set restricted to the layer one rank
    lower, and the closure of the covers must give back every down-set.
    The construction asserts gradedness, the unique maximum at rank
    |n| + r - 3 and minimal elements at rank 0.  Above max_elements no face
    is built.  The memo is weak: while any caller holds W_n, every call for
    n returns that same poset, checked against max_elements by its own
    size; once no one holds it, it is freed and the next call builds it
    afresh.  A caller that reads one W_n several times holds it meanwhile.
    """
    n = check_nvector(n)
    poset = _ENUM_CACHE.get(n)
    if poset is not None:
        if len(poset) > max_elements:
            raise SearchSpaceError(f"W_{n} has {len(poset)} faces, above the bound {max_elements}")
        return poset
    r = len(n)
    # refuse from lower bounds before counting any fiber: |K_r|, as no fiber
    # is empty, and over the corolla |K_(n_i)| (line i subdivided alone) and
    # |n|! / prod_i n_i! (one point per screen)
    for q in (r, *n):
        if q:
            check_K_size(q, max_elements, f"W_{n}")
    stackings = factorial(sum(n)) // prod(map(factorial, n))
    if stackings > max_elements:
        raise SearchSpaceError(f"W_{n} has at least {stackings} faces, "
                               f"above the bound {max_elements}")
    expected = 0
    bracketings = all_bracketings(r)
    for i, kb in enumerate(bracketings, start=1):  # the corolla first
        expected += sum(count_W(bracketing_to_tree(kb), m, n) for m in range(top_rank(n) + 1))
        if expected > max_elements:
            at_least = "at least " if i < len(bracketings) else ""
            raise SearchSpaceError(f"W_{n} has {at_least}{expected} faces, "
                                   f"above the bound {max_elements}")

    ranked: dict[str, int] = {}
    pi_of: dict[str, str] = {}
    masks: dict[str, int] = {}
    table = _table(n)
    intern = table.intern
    memo: dict = {}  # this enumeration's validation steps, see _valid_face
    screens: dict = {}  # its generated screens by place, see _gen_fiber; shares nothing with memo
    for kb in bracketings:
        tree = bracketing_to_tree(kb)
        pi = _tree_text(kb)
        bracket_mask = kb.mask()  # below bit r * r
        for fs, d in _gen_fiber(tree, n, 0, (0,) * r, screens):
            face = 0
            for x in fs:
                face |= 1 << intern(x)
            lab = _face_label(table, pi, face)
            if not _valid_face(table, kb.brackets, face, memo):
                raise VerificationError(f"enumerated face fails validation: {lab}")
            if lab in ranked:
                raise VerificationError(f"duplicate face across fibers: {lab}")
            ranked[lab] = d
            pi_of[lab] = pi
            masks[lab] = bracket_mask | face << r * r
    if len(ranked) != expected:
        raise VerificationError(f"enumerated {len(ranked)} faces, count oracle says {expected}")

    try:
        poset = RankedPoset.from_item_masks(
            ranked, masks, meta={"kind": "W_n", "n": n, "pi": pi_of})
    except PosetError as exc:
        # the order was built here, so a rejected order is an engine fault
        raise VerificationError(f"face order of W_{n}: {exc}") from exc

    top = _face_label(table, _tree_text(_top_bracketing(r)), table.forced)
    if poset.unique_max() != top or poset.rank_of(top) != top_rank(n):
        raise VerificationError("unique maximum is not the forced-core element at |n|+r-3")
    if any(poset.rank_of(m) != 0 for m in poset.minimal_elements()):
        raise VerificationError("a minimal face has nonzero rank")
    _ENUM_CACHE[n] = poset
    return poset


def face_two_bracketings(n):
    """(label, TwoBracketing) for each face of W_n, one at a time.

    The faces come in generation order, after enumerate_Wn (default bound)
    has validated them; each object is built when reached and kept by no one.
    The generator holds W_n while it runs, so an enumerate_Wn(n) call made
    meanwhile gets the same poset from the memo instead of building it again,
    and keeps its own screens memo (see _gen_fiber) until it is exhausted.
    """
    n = check_nvector(n)
    held = enumerate_Wn(n)  # never read: it keeps W_n in the weak memo while this runs
    screens: dict = {}
    for kb in all_bracketings(len(n)):
        for fs, _d in _gen_fiber(bracketing_to_tree(kb), n, 0, (0,) * len(n), screens):
            tb = TwoBracketing(n, kb.brackets, frozenset(fs))
            yield tb.label(), tb


# --- the count recurrence (second oracle) ---

def count_W(tree: Tree, m: int, n) -> int:
    """Faces of W_n over `tree` with dimension m, by the concatenation recurrence."""
    n = check_nvector(n)
    if tree.leaf_count() != len(n):
        raise ValueError(f"tree has {tree.leaf_count()} leaves but n has {len(n)} entries")
    if m < 0:
        return 0
    _fill_memos(tree, n)
    return _fiber_poly(tree, n).get(m, 0)


@cache
def _fill_memos(tree: Tree, n: tuple[int, ...]) -> None:
    """Memoize _stacks over each subtree at every vector up to its block of n,
    and over `tree` at every vector below n, subtrees and smaller vectors first.

    Each sum of _stacks and _fiber_poly then reads filled entries, so the
    call depth does not grow with |n|.  Memoized itself, so the count_W
    calls of one (tree, n), one per dimension, fill once.
    """
    if not tree.is_leaf:
        pos = 0
        for child in root_decompose(tree):
            block = n[pos:pos + child.leaf_count()]
            _fill_memos(child, block)
            _stacks(child, block)
            pos += len(block)
    for q, rest in _splits(n):  # q comes after every smaller vector
        if any(rest):
            _stacks(tree, q)


def _convolve(a: dict[int, int], b: dict[int, int], shift: int = 0,
              out: dict[int, int] | None = None) -> dict[int, int]:
    """a * b * t^shift, added into `out` when given."""
    out = {} if out is None else out
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = m1 + m2 + shift
            out[m] = out.get(m, 0) + c1 * c2
    return out


def _splits(n: tuple[int, ...]):
    """(q, n - q) for every nonzero sub-vector q <= n."""
    for q in itertools.product(*[range(v + 1) for v in n]):
        if any(q):
            yield q, tuple(a - b for a, b in zip(n, q))


@cache
def _stacks(tree: Tree, n: tuple[int, ...]) -> dict[int, int]:
    """Ordered stacks of fibers over `tree` filling n, t^(1 - d(tree)) per screen.

    The sum over compositions n = q_1 + ... + q_a into a >= 1 nonzero parts
    of prod_j t^(1 - d(tree)) fib(tree, q_j), by splitting off the first
    screen; the empty stack makes _stacks(tree, 0) = 1.
    """
    if not any(n):
        return {0: 1}
    out: dict[int, int] = {}
    for q, rest in _splits(n):
        _convolve(_fiber_poly(tree, q), _stacks(tree, rest), 1 - dim_tree(tree), out)
    return out


@cache
def _fiber_poly(tree: Tree, n: tuple[int, ...]) -> dict[int, int]:
    """Dimension-indexed face counts of the fiber of W_n over `tree`.

    Horizontal: t^(k-3) prod_i t^(p_i) _stacks(T_i, n_i) over the k branches
    T_i of dimension p_i, where a pointless block n_i gives the empty stack.
    Vertical: a first screen fib(T, q) = _fiber_poly(T, q) under a nonempty
    stack of the rest, times t^-1.
    """
    if tree.is_leaf:
        return {m: count_K(m, n[0]) for m in range(max(n[0] - 1, 1)) if count_K(m, n[0])}
    branches = root_decompose(tree)
    out = {len(branches) - 3: 1}
    pos = 0
    for child in branches:
        w = child.leaf_count()
        out = _convolve(out, _stacks(child, n[pos:pos + w]), dim_tree(child))
        pos += w
    for q, rest in _splits(n):
        if any(rest):
            _convolve(_fiber_poly(tree, q), _stacks(tree, rest), -1, out)
    if any(m < 0 for m in out):
        raise VerificationError(f"negative dimension in the recurrence over "
                                f"({tree_to_text(tree)}, {n})")
    return out


def dim_2concat(p_list, a_vec, P_matrix) -> int:
    """Dimension of a tree-pair concatenation from the parts' dimensions.

    Evaluates sum(P_ij) - sum((a_i - 1) p_i) + |a| + k - 3 with full shape
    checking; the trivial single-part case is excluded.
    """
    k = len(p_list)
    if k != len(a_vec) or k != len(P_matrix):
        raise ValueError("p_list, a_vec and P_matrix must share length k")
    if k < 1 or any(a < 0 for a in a_vec) or not any(a_vec):
        raise ValueError("need a in Z_{>=0}^k \\ {0}")
    for a_i, row in zip(a_vec, P_matrix):
        if len(row) != a_i:
            raise ValueError("row lengths must match a_vec")
    if k == 1 and tuple(a_vec) == (1,):
        raise ValueError("the (k, a) = (1, (1)) case is the excluded trivial concatenation")
    total = sum(sum(row) for row in P_matrix)
    return total - sum((a - 1) * p for a, p in zip(a_vec, p_list)) + sum(a_vec) + k - 3


@cache
def trees_of_Kr(r: int) -> tuple[Tree, ...]:
    return tuple(bracketing_to_tree(b) for b in all_bracketings(r))
