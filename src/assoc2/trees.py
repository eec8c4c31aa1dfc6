"""Stable rooted ribbon trees, bracketings, and the associahedron face poset.

A stable tree has >= 2 children at every internal node; the one-leaf tree is
a bare leaf.  Trees on r leaves are in canonical bijection with bracketings
of (1..r): non-singleton brackets correspond to leaf sets of internal nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import comb

from .poset import DEFAULT_MAX_ELEMENTS, RankedPoset, SearchSpaceError


@dataclass(frozen=True)
class Tree:
    """Recursive node: a leaf, or an internal node with >= 2 ordered children."""

    children: tuple["Tree", ...] = ()

    def __post_init__(self):
        if len(self.children) == 1:
            raise ValueError("stability: internal nodes need >= 2 children")

    # The hash and the two counts are computed on first use and kept: every
    # memo keyed on a tree hashes it, and dim_tree counts it, so neither walks
    # the tree again.  Not at construction, since K_r enumeration builds
    # tens of thousands of trees that it only prints.

    @cached_property
    def _hash(self) -> int:
        return hash((self.children,))  # what the generated dataclass hash returns

    @cached_property
    def _leaves(self) -> int:
        return sum(c._leaves for c in self.children) if self.children else 1

    @cached_property
    def _internal(self) -> int:
        return 1 + sum(c._internal for c in self.children) if self.children else 0

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuild on unpickling, so the cached values never cross processes
        return Tree, (self.children,)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaf_count(self) -> int:
        return self._leaves

    def internal_count(self) -> int:
        return self._internal


LEAF = Tree()


def corolla(r: int) -> Tree:
    """The unique maximal tree of K_r: one internal vertex, r leaves."""
    if r < 1:
        raise ValueError("need r >= 1")
    return LEAF if r == 1 else Tree((LEAF,) * r)


def dim_tree(tree: Tree) -> int:
    """leaf count - internal node count - 1; the face dimension in K_r."""
    return tree.leaf_count() - tree.internal_count() - 1


def concat(*trees: Tree) -> Tree:
    """Graft the given trees onto the leaves of a corolla.

    With one argument this is the identity; for k >= 2 the result has
    dimension sum(d(T_i)) + k - 2 and sum of the leaf counts.
    """
    if not trees:
        raise ValueError("concat needs k >= 1 trees")
    if len(trees) == 1:
        return trees[0]
    return Tree(tuple(trees))


def root_decompose(tree: Tree) -> tuple[Tree, ...]:
    """The branches above the root; inverse to concat on >= 2 leaves."""
    if tree.is_leaf:
        raise ValueError("the bare leaf has no root decomposition")
    return tree.children


def tree_to_text(tree: Tree) -> str:
    """Canonical text: '.' for a leaf, '(' children ')' otherwise."""
    if tree.is_leaf:
        return "."
    return "(" + "".join(tree_to_text(c) for c in tree.children) + ")"


def parse_tree(text: str) -> Tree:
    pos = 0

    def parse() -> Tree:
        nonlocal pos
        if pos >= len(text):
            raise ValueError("unexpected end of tree text")
        ch = text[pos]
        if ch == ".":
            pos += 1
            return LEAF
        if ch != "(":
            raise ValueError(f"unexpected character {ch!r} at {pos}")
        pos += 1
        children = []
        while pos < len(text) and text[pos] != ")":
            children.append(parse())
        if pos >= len(text):
            raise ValueError("unbalanced parenthesis")
        if len(children) < 2:
            raise ValueError(f"internal node needs >= 2 children at {pos}")
        pos += 1
        return Tree(tuple(children))

    tree = parse()
    if pos != len(text):
        raise ValueError(f"trailing input at {pos}")
    return tree


# --- bracketings ---

@dataclass(frozen=True)
class Bracketing:
    """Nested system of integer intervals on (1..r).

    Stored brackets exclude singletons and include the full interval when
    r >= 2; d = r - 1 - #stored.
    """

    r: int
    brackets: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("need r >= 1")
        for lo, hi in self.brackets:
            if not (1 <= lo < hi <= self.r):
                raise ValueError(f"bad bracket ({lo},{hi}) for r={self.r}")
        if self.r >= 2 and (1, self.r) not in self.brackets:
            raise ValueError("the full bracket must be present for r >= 2")
        bs = sorted(self.brackets)
        for i, (lo, hi) in enumerate(bs):
            for lo2, hi2 in bs[i + 1:]:
                if lo < lo2 <= hi < hi2:
                    raise ValueError(f"brackets ({lo},{hi}), ({lo2},{hi2}) overlap")

    @property
    def dim(self) -> int:
        return self.r - 1 - len(self.brackets)

    def mask(self) -> int:
        """Bracket (lo, hi) as bit (lo - 1) r + hi - 1, below r * r."""
        return sum(1 << (lo - 1) * self.r + hi - 1 for lo, hi in self.brackets)

    def to_json_dict(self) -> dict:
        # exported bracket lists include the implicit singletons
        full = sorted(self.brackets | {(i, i) for i in range(1, self.r + 1)})
        return {"r": self.r, "brackets": [[lo, hi] for lo, hi in full]}


def tree_to_bracketing(tree: Tree) -> Bracketing:
    r = tree.leaf_count()
    brackets = []

    def walk(t: Tree, start: int) -> int:
        width = t.leaf_count()
        if not t.is_leaf:
            brackets.append((start, start + width - 1))
            pos = start
            for c in t.children:
                pos = walk(c, pos)
        return start + width

    walk(tree, 1)
    return Bracketing(r, frozenset(brackets))


def bracketing_to_tree(b: Bracketing) -> Tree:
    def build(lo: int, hi: int) -> Tree:
        if lo == hi:
            return LEAF
        children = []
        pos = lo
        while pos <= hi:
            sub = max((bb for bb in b.brackets
                       if bb[0] == pos and bb[1] <= hi and bb != (lo, hi)),
                      key=lambda bb: bb[1], default=None)
            if sub is None:
                children.append(LEAF)
                pos += 1
            else:
                children.append(build(sub[0], sub[1]))
                pos = sub[1] + 1
        return Tree(tuple(children))

    return build(1, b.r)


def all_bracketings(r: int) -> list[Bracketing]:
    """Every bracketing of (1..r), in a deterministic order."""
    if r < 1:
        raise ValueError("need r >= 1")
    if r == 1:
        return [Bracketing(1, frozenset())]
    candidates = [(lo, hi) for lo in range(1, r + 1) for hi in range(lo + 1, r + 1)
                  if (lo, hi) != (1, r)]
    found: list[frozenset] = []

    def compatible(b1, b2):
        lo, hi = b1
        lo2, hi2 = b2
        return hi < lo2 or hi2 < lo or (lo <= lo2 and hi2 <= hi) or (lo2 <= lo and hi <= hi2)

    def extend(start: int, chosen: list[tuple[int, int]]):
        found.append(frozenset(chosen) | {(1, r)})
        for i in range(start, len(candidates)):
            c = candidates[i]
            if all(compatible(c, b) for b in chosen):
                chosen.append(c)
                extend(i + 1, chosen)
                chosen.pop()

    extend(0, [])
    return [Bracketing(r, f) for f in found]


def enumerate_Kr(r: int) -> RankedPoset:
    """Face poset of K_r: bracketings ordered by reverse inclusion.

    Ranks are the dimensions; the unique maximum is the corolla.  Element
    labels are the canonical tree texts.  RankedPoset.from_item_masks reads
    the covers off the bracket masks and checks that their closure is the
    whole order, as enumerate_Wn does for W_n.  The faces are counted by
    check_K_size first, and above DEFAULT_MAX_ELEMENTS none is built.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    check_K_size(r, DEFAULT_MAX_ELEMENTS)
    ranked = {}
    masks = {}
    for b in all_bracketings(r):
        lab = tree_to_text(bracketing_to_tree(b))
        ranked[lab] = b.dim
        masks[lab] = b.mask()
    return RankedPoset.from_item_masks(ranked, masks, meta={"kind": "K_r", "r": r})


def check_K_size(q: int, bound: int, name: str | None = None) -> None:
    """SearchSpaceError if |K_q| > bound, naming `name` (>= |K_q| faces) or K_q.

    The cheap bounds |K_q| >= Catalan(q - 1) (its vertices) >= 2^(q - 2) go
    first, the power of two by exponent alone; count_K runs only below both.
    """
    owner, at_least = (f"K_{q}", "") if name is None else (name, "at least ")
    if q - 2 >= bound.bit_length():
        raise SearchSpaceError(f"{owner} has at least 2^{q - 2} faces, above the bound {bound}")
    vertices = comb(2 * q - 2, q - 1) // q
    if vertices > bound:
        raise SearchSpaceError(f"{owner} has at least {vertices} faces, above the bound {bound}")
    size = sum(count_K(m, q) for m in range(max(q - 1, 1)))
    if size > bound:
        raise SearchSpaceError(f"{owner} has {at_least}{size} faces, above the bound {bound}")


# --- the count recurrence ---

def count_K(m: int, r: int) -> int:
    """Number of faces of K_r with dimension m, by the concatenation recurrence.

    The memos are filled by increasing leaf count, at every dimension up to
    m, before K_r is asked for: each sum then reads filled entries, so the
    call depth does not grow with r.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    for q in range(2, r):
        for m1 in range(m + 1):
            _count_K(m1, q)
    return _count_K(m, r)


@cache
def _count_K(m: int, r: int) -> int:
    if m < 0:
        return 0
    if r == 1:
        return 1 if m == 0 else 0
    return sum(_count_K_parts(k, m - k + 2, r) for k in range(2, min(r, m + 2) + 1))


@cache
def _count_K_parts(k: int, m: int, r: int) -> int:
    """Sum over k-tuples with dims summing to m and leaf counts to r."""
    if m < 0 or r < k:
        return 0
    if k == 1:
        return _count_K(m, r)
    # a face of dimension m1 has r1 >= m1 + 2 leaves, or is the leaf; k - 1
    # trees on r' leaves have dimensions summing to at most r' - k + 1
    total = 0
    for m1 in range(m + 1):
        for r1 in range(m1 + 2 if m1 else 1, r - k + 2 - (m - m1)):
            total += _count_K(m1, r1) * _count_K_parts(k - 1, m - m1, r - r1)
    return total
