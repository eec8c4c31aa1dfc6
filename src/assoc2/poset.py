"""Generic ranked-poset engine.

Finite posets with an integer rank function where every cover raises rank by
exactly one.  Provides interval alternating sums, Moebius values, Eulerian
verification, completion by a formal minimum, reduced and fiber products, flag
f/h-vectors and the cd-index, plus byte-stable JSON and DOT export.

Elements are interned to dense integer ids in (rank, label) order, so the ids
are a linear extension of the order and each rank layer is an id range; label
order appears only at the edges, in the exports and the sorted failure lists,
so every derived report is reproducible.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from math import prod
from typing import Callable, Iterable, Mapping, Sequence

DEFAULT_MAX_ELEMENTS = 100_000


class SearchSpaceError(ValueError):
    """The configured element bound would be exceeded."""


class PosetError(ValueError):
    """Domain error for poset operations (incomparable pairs, bad input)."""


class NonEulerianError(PosetError):
    """Raised when an operation requires an Eulerian poset and the input is not."""


class RankedPoset:
    """Immutable finite poset with a rank function.

    The order is the reflexive-transitive closure of covers that raise rank by
    exactly one, given as label pairs or read off down-sets (from_down_sets).
    A poset stores its down-set rows and upper-cover lists; the up-set rows and
    the sorted cover pairs are derived from them when first read.  Ids follow
    (rank, label) order, so every element below i has a smaller id: down[i]
    has no bit above i, and up[i] is stored from bit i on (bit k is i + k).
    """

    def __init__(self, ranked_labels: Mapping[str, int], covers: Iterable[tuple[str, str]],
                 meta: Mapping[str, object] | None = None):
        self._elements(*_id_order(ranked_labels), meta)
        index, ranks = self._index, self.ranks
        lower = [0] * len(ranks)  # lower[j]: the mask of j's lower covers
        skips = []
        try:
            for lo, hi in covers:
                i, j = index[lo], index[hi]
                if ranks[j] != ranks[i] + 1:
                    skips.append((lo, hi, ranks[i], ranks[j]))
                lower[j] |= 1 << i
        except KeyError as exc:
            raise PosetError(f"cover names {exc.args[0]!r}, which is no element") from None
        if skips:
            lo, hi, r_lo, r_hi = min(skips)  # the first by label pair
            raise PosetError(f"cover {lo!r} -> {hi!r} must raise rank by 1 "
                             f"(got {r_lo} -> {r_hi})")
        self._close(lower=lower)

    def _elements(self, labels: Sequence[str], ranks: Sequence[int],
                  meta: Mapping[str, object] | None) -> None:
        """Intern the labels, given in (rank, label) order with their ranks; set the
        rank layers, each layer the mask of one id range."""
        if not labels:
            raise PosetError("empty poset")
        self.labels: tuple[str, ...] = tuple(labels)
        self._index = {lab: i for i, lab in enumerate(labels)}
        if len(self._index) != len(labels):
            raise PosetError("duplicate element labels")
        self.ranks: tuple[int, ...] = tuple(ranks)
        self.meta = dict(meta) if meta else {}

        ranks, n = self.ranks, len(labels)
        starts = [i for i in range(n) if i == 0 or ranks[i] != ranks[i - 1]] + [n]
        self._rank_masks = [(ranks[lo], (1 << hi) - (1 << lo))
                            for lo, hi in zip(starts, starts[1:])]
        # the rank masks are disjoint, so their sums are unions
        self._even = sum(m for r, m in self._rank_masks if r % 2 == 0)
        self._odd = sum(m for r, m in self._rank_masks if r % 2)

    def _close(self, down: Sequence[int] | None = None,
               lower: Sequence[int] | None = None) -> None:
        """One pass in id order, which is rank order: element j's covers, the mask
        lower[j] or else down[j], cut to the layer one rank lower, get j in their (so
        increasing) upper lists, and j's bit joined with their rows fills j's row, or
        must equal the given one.  The layer below is the id range from `base`, of
        width `width`, and a cover mask is read from bit `base` on."""
        labels = self.labels
        upper = [[] for _ in labels]
        closed = [0] * len(labels) if down is None else list(down)
        minimal = 0
        prev, base, width = None, 0, 0
        for r, layer in self._rank_masks:
            lo, hi = _span(layer)
            if prev != r - 1:  # no layer one rank lower
                base, width = lo, 0
            cut = (1 << width) - 1
            for j in range(lo, hi):
                covers = (closed[j] if lower is None else lower[j]) >> base & cut
                m = 1 << j
                for k in _bits(covers):
                    m |= closed[base + k]
                    upper[base + k].append(j)
                if not covers:
                    minimal |= 1 << j
                if down is None:
                    closed[j] = m
                elif m != closed[j]:
                    raise PosetError(f"order is not the closure of rank-adjacent covers below "
                                     f"{labels[j]!r} (a relation skips a rank, or is not transitive)")
            prev, base, width = r, lo, hi - lo
        self._upper, self._down, self._minimal = upper, closed, minimal
        self._maximal = sum(1 << i for i, up in enumerate(upper) if not up)

    @cached_property
    def cover_pairs(self) -> tuple[tuple[int, int], ...]:
        """The covers as index pairs (i, j), i below j, in sorted order."""
        return tuple((i, j) for i, up in enumerate(self._upper) for j in up)

    @cached_property
    def _up(self) -> list[int]:
        """Up-set rows, each stored from its own id: bit k of up[i] is element i + k.
        Filled from the covers in reverse id order, as every element above i has a
        larger id."""
        up = [0] * len(self.labels)
        for i in range(len(up) - 1, -1, -1):
            m = 1
            for j in self._upper[i]:
                m |= up[j] << (j - i)
            up[i] = m
        return up

    # --- constructors ---

    @classmethod
    def from_order(cls, ranked_labels: Mapping[str, int],
                   leq: Callable[[str, str], bool],
                   meta: Mapping[str, object] | None = None) -> "RankedPoset":
        """Build from a comparability predicate; covers are derived.

        Only pairs with strictly increasing rank are probed, so a relation
        whose rank does not increase is never seen: callers must pass orders
        that raise rank.  See from_down_sets for the covers and the closure check.
        """
        labels, ranks = _id_order(ranked_labels)
        n = len(labels)
        down = [1 << i for i in range(n)]
        above = 0  # the first id of a higher rank than a's
        for a in range(n):
            while above < n and ranks[above] <= ranks[a]:
                above += 1
            for b in range(above, n):
                if leq(labels[a], labels[b]):
                    down[b] |= 1 << a
        return cls._from_rows(labels, ranks, down, meta)

    @classmethod
    def from_item_masks(cls, ranked_labels: Mapping[str, int], masks: Mapping[str, int],
                        meta: Mapping[str, object] | None = None) -> "RankedPoset":
        """Elements ordered by reverse containment of their item masks.

        a <= b when every item of b is an item of a.  With holders[k] the
        elements holding item k, the down-set of b is the AND of holders[k]
        over b's items, stored tight (_tight); see from_down_sets for the
        covers and the closure check.
        """
        labels, ranks = _id_order(ranked_labels)
        holders = [0] * max(masks.values(), default=0).bit_length()
        for i, lab in enumerate(labels):
            for k in _bits(masks[lab]):
                holders[k] |= 1 << i
        everything = (1 << len(labels)) - 1
        down = []
        for i, lab in enumerate(labels):
            d = everything
            for k in _bits(masks[lab]):
                d &= holders[k]
            down.append(_tight(d, i))
        return cls._from_rows(labels, ranks, down, meta)

    @classmethod
    def from_down_sets(cls, ranked_labels: Mapping[str, int], down: Sequence[int],
                       meta: Mapping[str, object] | None = None) -> "RankedPoset":
        """Build from each element's down-set; covers are read off.

        down[i] is the mask of the elements at or below element i, itself
        included, where element i is the i-th label in (rank, label) order and
        so has no element of its rank or above in a valid down-set.  They go
        straight to _close, whose one pass in id order reads element i's covers
        off down[i] on the id range of the layer one rank lower: their closure
        must give back every down-set, which the poset keeps.  A down-set with a
        bit above its own id never equals that closure and is rejected.
        """
        return cls._from_rows(*_id_order(ranked_labels), down, meta)

    @classmethod
    def _from_rows(cls, labels: Sequence[str], ranks: Sequence[int], down: Sequence[int],
                   meta: Mapping[str, object] | None) -> "RankedPoset":
        """from_down_sets on labels already in (rank, label) order, with their ranks."""
        P = cls.__new__(cls)
        P._elements(labels, ranks, meta)
        if len(down) != len(labels):
            raise PosetError(f"{len(down)} down-sets for {len(labels)} elements")
        P._close(down)
        return P

    # --- basic queries ---

    def __len__(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        return self._index[label]

    def rank_of(self, label: str) -> int:
        return self.ranks[self._index[label]]

    def rank_counts(self) -> dict[int, int]:
        return {r: m.bit_count() for r, m in self._rank_masks}

    def leq(self, x: str, y: str) -> bool:
        return bool(self._down[self._index[y]] >> self._index[x] & 1)

    def _interval_mask(self, i: int, j: int) -> int:
        """The closed interval [i, j] from bit i on: bit k is element i + k."""
        if not self._down[j] >> i & 1:
            raise PosetError(f"elements {self.labels[i]!r}, {self.labels[j]!r} "
                             "are not an increasing comparable pair")
        return self._down[j] >> i & self._up[i]

    def minimal_elements(self) -> list[str]:
        return sorted(self.labels[i] for i in _bits(self._minimal))

    def maximal_elements(self) -> list[str]:
        return sorted(self.labels[i] for i in _bits(self._maximal))

    # --- alternating sums and Eulerian verification ---

    def alternating_sum(self, x: str, y: str) -> int:
        """Signed count sum((-1)^rank(z)) over the closed interval [x, y]."""
        i = self._index[x]
        return self._signed(self._interval_mask(i, self._index[y]) << i)

    def _signed(self, mask: int) -> int:
        return (mask & self._even).bit_count() - (mask & self._odd).bit_count()

    def is_graded(self) -> bool:
        """All maximal chains in every interval share one length.

        With the cover-rank invariant every in-interval cover step raises rank
        by one and intervals are convex, so the poset is graded by
        construction whenever it validated; re-derived here for reporting.
        """
        ranks = self.ranks
        return all(ranks[j] == ranks[i] + 1 for i, up in enumerate(self._upper) for j in up)

    def verify_eulerian(self) -> "EulerianReport":
        """Check balance of every nontrivial interval [x, y], x < y.

        Interval masks are read from bit i on, against the parity masks
        shifted alike; the unbalanced intervals come sorted by label pair.
        """
        unbalanced = []
        checked = 0
        labels, down = self.labels, self._down
        for i, row in enumerate(self._up):
            even, odd = self._even >> i, self._odd >> i
            for k in _bits(row & ~1):
                checked += 1
                m = down[i + k] >> i & row
                s = (m & even).bit_count() - (m & odd).bit_count()
                if s != 0:
                    unbalanced.append((labels[i], labels[i + k], s))
        return EulerianReport(graded=self.is_graded(), pairs_checked=checked,
                              unbalanced=tuple(sorted(unbalanced)))

    def diamond_failures(self) -> list[tuple[str, str, int]]:
        """Rank-2 intervals whose open part has != 2 elements, sorted by label pair."""
        bad = []
        labels, down, up = self.labels, self._down, self._up
        layers = {r: _span(m) for r, m in self._rank_masks}
        for i, r in enumerate(self.ranks):
            if r + 2 not in layers:
                continue
            lo, hi = layers[r + 2]
            row = up[i]
            for k in _bits((row >> (lo - i)) & ((1 << (hi - lo)) - 1)):
                middles = (down[lo + k] >> i & row).bit_count() - 2
                if middles != 2:
                    bad.append((labels[i], labels[lo + k], middles))
        return sorted(bad)

    def mobius_failures(self) -> list[tuple[str, str, int]]:
        """Pairs x <= y with mu(x, y) != (-1)^(rank y - rank x), and their mu,
        sorted by label pair."""
        bad = []
        labels = self.labels
        for i, row_mask in enumerate(self._up):
            row = self._mobius_row(i, row_mask)
            same, other = self._even >> i, self._odd >> i  # from bit i on, by parity
            if self.ranks[i] % 2:
                same, other = other, same
            # a class is wrong where its value is not (-1)^(rank - rank i): +1 off
            # i's rank parity, -1 on it, any other value everywhere (& -1 keeps all);
            # the classes are disjoint, so the sum is a union
            wrong_at = {1: other, -1: same}
            wrong = sum(m & wrong_at.get(mu, -1) for mu, m in row.items())
            for k in _bits(wrong):
                bad.append((labels[i], labels[i + k], _grouped_sum(1 << k, row)))
        return sorted(bad)

    def mobius(self, x: str, y: str) -> int:
        """Moebius value mu(x, y) by the recursion over the interval [x, y]."""
        i, j = self._index[x], self._index[y]
        return _grouped_sum(1 << (j - i), self._mobius_row(i, self._interval_mask(i, j)))

    def _mobius_row(self, i: int, mask: int) -> dict[int, int]:
        """mu(i, i + k) for every bit k of mask, a down-closed part of i's up row
        read from bit i on, as value classes: each value maps to the mask, from bit
        i on, of the elements that take it.  Filled in id order, which reaches
        every element below i + k before i + k."""
        row = {1: 1}
        down = self._down
        for k in _bits(mask & ~1):
            mu = -_grouped_sum(down[i + k] >> i, row)
            row[mu] = row.get(mu, 0) | 1 << k
        return row

    # --- structural operations ---

    def complete_with_min(self, label: str = "0^") -> "RankedPoset":
        """Adjoin a formal minimum one rank below the lowest, under every element.
        It comes first in (rank, label) order: it is id 0 and every id moves up one."""
        if label in self._index:
            raise PosetError(f"label {label!r} already present")
        down = [1] + [d << 1 | 1 for d in self._down]
        return RankedPoset._from_rows((label, *self.labels), (self.ranks[0] - 1, *self.ranks),
                                      down, self.meta)

    def relabel(self, mapping: Mapping[str, str]) -> "RankedPoset":
        """The same order under new labels; mapping must send the labels one to one."""
        try:
            new = [mapping[lab] for lab in self.labels]
        except KeyError as exc:
            raise PosetError(f"relabel mapping misses {exc.args[0]!r}") from None
        ranked = dict(zip(new, self.ranks))
        if len(ranked) != len(new):
            twice = next(lab for lab in new if new.count(lab) > 1)
            raise PosetError(f"relabel mapping sends two labels to {twice!r}")
        # meta is keyed by labels and would go stale; the relabeled poset drops it
        return RankedPoset(ranked, [(new[i], new[j]) for i, j in self.cover_pairs])

    def unique_min(self) -> str:
        mins = self.minimal_elements()
        if len(mins) != 1:
            raise PosetError(f"poset has {len(mins)} minimal elements, need exactly 1")
        return mins[0]

    def unique_max(self) -> str:
        maxs = self.maximal_elements()
        if len(maxs) != 1:
            raise PosetError(f"poset has {len(maxs)} maximal elements, need exactly 1")
        return maxs[0]

    # --- export ---

    def _label_order(self) -> tuple[list[int], dict[int, int]]:
        """The ids in sorted label order, and each id's place in it: the exports
        number the elements by that place."""
        order = sorted(range(len(self.labels)), key=self.labels.__getitem__)
        return order, {i: p for p, i in enumerate(order)}

    def to_json_dict(self) -> dict:
        order, place = self._label_order()
        return {
            "elements": [{"id": p, "rank": self.ranks[i], "label": self.labels[i]}
                         for p, i in enumerate(order)],
            "covers": sorted([place[i], place[j]] for i, j in self.cover_pairs),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RankedPoset":
        try:
            elements = [(e["id"], e["label"], e["rank"]) for e in doc["elements"]]
            cover_ids = [(i, j) for i, j in doc["covers"]]
        except KeyError as exc:
            raise PosetError(f"poset document has no {exc.args[0]!r} entry") from None
        except (TypeError, ValueError) as exc:
            raise PosetError(f"malformed poset document: {exc}") from None
        label_of, ranked = {}, {}
        for i, lab, rank in elements:
            if not (type(i) is type(rank) is int and type(lab) is str):
                raise PosetError(f"element {{id: {i!r}, label: {lab!r}, rank: {rank!r}}} needs "
                                 "an integer id and rank and a string label")
            if i in label_of:
                raise PosetError(f"element id {i} appears twice")
            if lab in ranked:
                raise PosetError(f"element label {lab!r} appears twice")
            label_of[i] = lab
            ranked[lab] = rank
        covers = []
        for i, j in cover_ids:
            if not (type(i) is type(j) is int and i in label_of and j in label_of):
                raise PosetError(f"cover [{i}, {j}] names an id with no element")
            covers.append((label_of[i], label_of[j]))
        return cls(ranked, covers)

    def to_dot(self, name: str = "hasse") -> str:
        """Hasse diagram in DOT format with one layer per rank."""
        order, place = self._label_order()
        lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
        for p, i in enumerate(order):
            lines.append(f'  n{p} [label="{_dot_escape(self.labels[i])}"];')
        for _, m in self._rank_masks:
            # a layer's ids are in label order, so their places increase
            ids = "; ".join(f"n{place[i]}" for i in range(*_span(m)))
            lines.append(f"  {{ rank=same; {ids}; }}")
        for p, q in sorted((place[i], place[j]) for i, j in self.cover_pairs):
            lines.append(f"  n{p} -> n{q};")
        lines.append("}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class EulerianReport:
    graded: bool
    pairs_checked: int
    unbalanced: tuple[tuple[str, str, int], ...]

    @property
    def is_eulerian(self) -> bool:
        return self.graded and not self.unbalanced


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _id_order(ranked_labels: Mapping[str, int]) -> tuple[list[str], list[int]]:
    """The labels in (rank, label) order, the order of element ids and mask bits,
    and their ranks."""
    labels = sorted(sorted(ranked_labels), key=ranked_labels.__getitem__)  # stable
    return labels, [ranked_labels[lab] for lab in labels]


def _span(layer: int) -> tuple[int, int]:
    """(first id, end id) of a rank layer's mask, which is one id range."""
    return (layer & -layer).bit_length() - 1, layer.bit_length()


def _tight(row: int, i: int) -> int:
    """Down row i held in as few digits as its value needs.  An AND keeps the
    digits of its narrower operand even where they turn zero, so a row that has
    no bit above i is copied by a mask of i + 1 bits; a row with a higher bit is
    kept whole, for the closure check to reject."""
    return row & ((1 << (i + 1)) - 1) if row.bit_length() <= i + 1 else row


def _grouped_sum(mask: int, classes: Mapping[int, int]) -> int:
    """The sum over mask's elements of their values, given as value -> elements mask."""
    return sum(v * (mask & m).bit_count() for v, m in classes.items())


def _dot_escape(s: str) -> str:
    return s.replace("\\", "\\\\").replace('"', '\\"')


# --- products ---

def reduced_product(*posets: RankedPoset) -> RankedPoset:
    """Reduced product: open intervals multiplied, minima merged.

    For two factors the elements are ((Pmin,Pmax] x (Qmin,Qmax]) plus one new
    minimum of rank rank(Pmin) + rank(Qmin) + 1; ranks add on the product
    part.  More factors iterate the binary operation left-associatively.
    """
    if not posets:
        raise PosetError("reduced_product needs at least one factor")
    result = posets[0]
    result.unique_min(), result.unique_max()
    for Q in posets[1:]:
        result = _reduced_product2(result, Q)
    return result


def _reduced_product2(P: RankedPoset, Q: RankedPoset) -> RankedPoset:
    pmin, qmin = P.index(P.unique_min()), Q.index(Q.unique_min())
    P.unique_max(), Q.unique_max()
    new_min = "(min,min)"
    new_rank = P.ranks[pmin] + Q.ranks[qmin] + 1
    ranked = {new_min: new_rank}
    qs = [b for b in range(len(Q)) if b != qmin]
    labs: list[list[str]] = [[] for _ in P.labels]  # labs[a][k]: the label of (a, qs[k])
    for a, pa in enumerate(P.labels):
        if a == pmin:
            continue
        for b in qs:
            lab = f"({pa},{Q.labels[b]})"
            if lab in ranked:
                raise PosetError(f"reduced product label {lab} names two elements")
            ranked[lab] = P.ranks[a] + Q.ranks[b]
            labs[a].append(lab)
    if any(rk <= new_rank for lab, rk in ranked.items() if lab != new_min):
        raise PosetError("reduced product rank for the new minimum is not below the open part")

    # a cover raises one coordinate by a cover of its factor; the minima are left out
    covers = [cover for a, a2 in P.cover_pairs if a != pmin for cover in zip(labs[a], labs[a2])]
    pos = {b: k for k, b in enumerate(qs)}
    covers += [(row[pos[b]], row[pos[b2]]) for b, b2 in Q.cover_pairs if b != qmin
               for a, row in enumerate(labs) if a != pmin]
    covers += [(new_min, lab) for lab, rk in ranked.items() if rk == new_rank + 1]
    return RankedPoset(ranked, covers)


def fiber_product(posets: Sequence[RankedPoset], base: RankedPoset,
                  maps: Sequence[Mapping[str, str]]) -> RankedPoset:
    """Fiber product over order-preserving maps into a common base.

    Elements are tuples with equal image, ordered componentwise; the rank of a
    tuple is sum(rank_i) - (k-1) * rank(common image).  A tuple's down-set is
    the AND over coordinates c of the tuples whose c-th coordinate lies below
    its own, taken in one pass per tuple and stored tight (_tight): each
    coordinate's row spans the whole product.  Construction fails if those down-sets are not the closure of
    their rank-one covers, as when two comparable tuples share a rank.  A
    tuple's label joins its coordinates' labels with commas; two tuples that
    get one label raise PosetError.  Above DEFAULT_MAX_ELEMENTS tuples,
    counted from the fiber sizes before any is built, it raises SearchSpaceError.
    """
    if not posets or len(posets) != len(maps):
        raise PosetError("need k >= 1 posets with one map each")
    by_image: list[dict[str, list[int]]] = []
    for P, f in zip(posets, maps):
        if set(f) != set(P.labels):
            raise PosetError("map domain must be the whole poset")
        d: dict[str, list[int]] = {}
        for i, x in enumerate(P.labels):
            if f[x] not in base._index:
                raise PosetError(f"map image {f[x]!r} not in base")
            d.setdefault(f[x], []).append(i)
        by_image.append(d)
        for i, up in enumerate(P._upper):
            if not all(base.leq(f[P.labels[i]], f[P.labels[j]]) for j in up):
                raise PosetError("map is not order-preserving")
    k = len(posets)
    if k == 1:
        return posets[0]

    common = sorted(set.intersection(*(set(d) for d in by_image)))
    size = sum(prod(len(d[t]) for d in by_image) for t in common)
    if size > DEFAULT_MAX_ELEMENTS:
        raise SearchSpaceError(f"fiber product of {k} posets has {size} tuples, "
                               f"above the bound {DEFAULT_MAX_ELEMENTS}")
    ranked: dict[str, int] = {}
    tuples: dict[str, tuple[int, ...]] = {}
    for t in common:
        for tup in itertools.product(*(d[t] for d in by_image)):
            lab = "(" + ",".join(P.labels[x] for P, x in zip(posets, tup)) + ")"
            if lab in ranked:
                raise PosetError(f"fiber product label {lab} names two tuples")
            ranked[lab] = sum(P.ranks[x] for P, x in zip(posets, tup)) - (k - 1) * base.rank_of(t)
            tuples[lab] = tup
    if not ranked:
        raise PosetError("fiber product is empty")

    labels, ranks = _id_order(ranked)
    coords = [tuples[lab] for lab in labels]
    unders = []  # unders[c][x]: the tuples whose c-th coordinate lies at or below x
    for c, P in enumerate(posets):
        at = [0] * len(P)  # at[x]: the tuples whose c-th coordinate is x
        for i, tup in enumerate(coords):
            at[tup[c]] |= 1 << i
        unders.append([sum(at[z] for z in _bits(dx)) for dx in P._down])  # disjoint: unions
    down = []
    for i, tup in enumerate(coords):
        row = unders[0][tup[0]]
        for under, x in zip(unders[1:], tup[1:]):
            row &= under[x]
        down.append(_tight(row, i))
    return RankedPoset._from_rows(labels, ranks, down, None)


# --- flag vectors and the cd-index ---

@dataclass(frozen=True)
class FlagVector:
    """Chain counts of a bounded graded poset by proper rank set."""
    rank_span: int
    entries: Mapping[frozenset, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.entries.get(frozenset(), None) != 1:
            raise PosetError("flag vector entry for the empty set must be 1")
        if any(v < 0 for v in self.entries.values()):
            raise PosetError("flag vector entries must be nonnegative")

    def entry(self, S: Iterable[int]) -> int:
        return self.entries[frozenset(S)]


@dataclass(frozen=True)
class CdPolynomial:
    """Integer combination of words over {c, d}; c has weight 1, d weight 2."""
    terms: Mapping[str, int]

    def __post_init__(self):
        weights = {cd_weight(w) for w in self.terms}
        if len(weights) > 1:
            raise PosetError(f"cd-polynomial is not homogeneous: weights {sorted(weights)}")

    @property
    def weight(self) -> int:
        return cd_weight(next(iter(self.terms))) if self.terms else 0

    def coefficient(self, word: str) -> int:
        return self.terms.get(word, 0)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms):
            coeff = self.terms[w]
            name = _compress_word(w) if w else "1"
            parts.append(name if coeff == 1 else f"{coeff}{name}")
        return " + ".join(parts)


def _compress_word(word: str) -> str:
    out = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        out.append(word[i] if j - i == 1 else f"{word[i]}^{j - i}")
        i = j
    return "".join(out)


def cd_weight(word: str) -> int:
    return sum(1 if ch == "c" else 2 for ch in word)


def _bounded_graded_data(P: RankedPoset) -> tuple[str, str, int, dict[int, range]]:
    bot, top = P.unique_min(), P.unique_max()
    if not P.is_graded():
        raise PosetError("poset is not graded")
    span = P.rank_of(top) - P.rank_of(bot)
    shift = -P.rank_of(bot)
    layers = {r + shift: range(*_span(m)) for r, m in P._rank_masks}
    if sorted(layers) != list(range(span + 1)):
        raise PosetError("rank layers are not consecutive")
    return bot, top, span, layers


def flag_f_vector(P: RankedPoset) -> FlagVector:
    """Flag f-vector over proper rank subsets of a bounded graded poset.

    Rank sets are walked depth-first; each carries its chains as count classes,
    each chain count mapped to the mask of the chain tops with that count.
    The stack holds the current rank set's ancestors, each with the next rank
    to extend it by, so one path of classes is alive at a time.  A closure
    calling itself would be a reference cycle, keeping P alive until the
    cyclic collector ran.
    """
    bot, top, span, layers = _bounded_graded_data(P)
    down, top_row = P._down, P._down[P.index(top)]
    chains = {1: 1 << P.index(bot)}
    entries: dict[frozenset, int] = {frozenset(): _grouped_sum(top_row, chains)}
    stack = [((), chains, 1)]
    while stack:
        S, chains, r = stack.pop()
        if r >= span:
            continue
        stack.append((S, chains, r + 1))
        nxt: dict[int, int] = {}
        for j in layers[r]:
            count = _grouped_sum(down[j], chains)
            if count:
                nxt[count] = nxt.get(count, 0) | 1 << j
        S += (r,)
        entries[frozenset(S)] = _grouped_sum(top_row, nxt)
        stack.append((S, nxt, r + 1))
    return FlagVector(rank_span=span, entries=entries)


def flag_h_vector(fv: FlagVector) -> dict[frozenset, int]:
    """h_S = sum_{T <= S} (-1)^{|S - T|} f_T, as one subset difference per rank."""
    h = dict(fv.entries)
    for r in range(1, fv.rank_span):
        for S in h:
            if r in S:
                h[S] -= h[S - {r}]
    return h


def ab_index(P: RankedPoset) -> dict[str, int]:
    fv = flag_f_vector(P)
    h = flag_h_vector(fv)
    out: dict[str, int] = {}
    proper = range(1, fv.rank_span)
    for S, coeff in h.items():
        word = "".join("b" if r in S else "a" for r in proper)
        out[word] = out.get(word, 0) + coeff
    return {w: c for w, c in out.items() if c}


def _cd_words(weight: int) -> list[str]:
    if weight == 0:
        return [""]
    out = []
    if weight >= 1:
        out += ["c" + w for w in _cd_words(weight - 1)]
    if weight >= 2:
        out += ["d" + w for w in _cd_words(weight - 2)]
    return out


def _expand_cd(word: str) -> dict[str, int]:
    polys = {"": 1}
    for ch in word:
        pieces = ["a", "b"] if ch == "c" else ["ab", "ba"]
        polys = {w + p: c for w, c in polys.items() for p in pieces}
    return polys


def cd_index(P: RankedPoset) -> CdPolynomial:
    """Rewrite the ab-index in c = a+b, d = ab+ba.

    Requires a bounded graded poset.  A nonzero remainder after the
    triangular elimination means the poset is not Eulerian and raises
    NonEulerianError, which doubles as an independent Eulerian check.
    """
    residual = dict(ab_index(P))
    span = _bounded_graded_data(P)[2]
    coeffs: dict[str, int] = {}
    words = sorted(_cd_words(span - 1), key=lambda w: w.replace("c", "a").replace("d", "ab"))
    for w in words:
        leading = w.replace("c", "a").replace("d", "ab")
        alpha = residual.get(leading, 0)
        if alpha == 0:
            continue
        coeffs[w] = alpha
        for abw, c in _expand_cd(w).items():
            residual[abw] = residual.get(abw, 0) - alpha * c
    residual = {w: c for w, c in residual.items() if c}
    if residual:
        raise NonEulerianError(f"ab-index has nonzero cd-rewriting remainder: {residual}")
    return CdPolynomial(coeffs)
