"""Exact truncated multivariate power series over Laurent polynomials in t.

The coefficient ring is Z[t, t^-1] with arbitrary-precision integers; series
are truncated at a fixed total degree in the x-variables.  On top of the ring
arithmetic sits the fixed-point solver solve_F for the per-tree face counts of
the 2-associahedra; the one-variable face count of the associahedra, solve_f,
is solve_F at the one-leaf tree.  It clears the denominator of the equation
and fills the solution one total degree at a time: degree d of the cleared
equation only depends on strictly smaller degrees, so each degree is
computed once, from one degree-d convolution.  The equation as written,
with its geometric series, is then checked on the finished candidate.

Every convolution of two series goes through one kernel, _degree_product.
It packs each t-polynomial into one integer and each exponent vector into
one mixed-radix code (Kronecker substitution), so the product of two terms
is one integer product and one addition of codes, and it unpacks each
coefficient of the result once.  A series product is one kernel call over
all degrees; the degree-by-degree solvers, geometric_inverse and
_solve_cleared, make one call per degree and keep each layer's scan and
packs (a _Packs) for the length of their loop, so no layer is packed again
at every degree.  Nothing is kept between calls.
"""

from __future__ import annotations

import json
from collections import defaultdict
from functools import cache
from itertools import chain
from math import comb
from operator import mul
from typing import Mapping

from .trees import LEAF, SearchSpaceError, Tree, dim_tree, root_decompose, tree_to_text

# solve_F refuses a tree on r leaves at degree D above this many steps,
# C(D + 2r, 2r) D^2: the pairs of exponent vectors of total degree <= D,
# each a product of t-polynomials of about D terms.  Solves near the bound
# took 3-12 s on a 2-vCPU host, with Python 3.11.
MAX_SOLVE_STEPS = 10 ** 8


class LaurentPoly:
    """Laurent polynomial in t with integer coefficients; no stored zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Mapping[int, int] | None = None):
        self.coeffs = {e: c for e, c in (coeffs or {}).items() if c}

    @classmethod
    def term(cls, coeff: int, exp: int = 0) -> "LaurentPoly":
        return cls({exp: coeff})

    @classmethod
    def _of(cls, coeffs: dict[int, int]) -> "LaurentPoly":
        """The polynomial of `coeffs`, which holds no zero, taken without a copy."""
        p = object.__new__(cls)
        p.coeffs = coeffs
        return p

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out.get(e, 0) + c
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly(out)

    def times_monomial(self, exp: int, coeff: int) -> "LaurentPoly":
        """self * coeff t^exp, for a nonzero coeff."""
        return LaurentPoly._of({e + exp: c * coeff for e, c in self.coeffs.items()})

    def coefficient(self, exp: int) -> int:
        return self.coeffs.get(exp, 0)

    def eval_minus1(self) -> int:
        return sum(c if e % 2 == 0 else -c for e, c in self.coeffs.items())

    def is_nonneg_poly(self) -> bool:
        return all(e >= 0 and c > 0 for e, c in self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                bits.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else str(c))
                bits.append(f"{head}t^{e}" if e != 1 else f"{head}t")
        return " + ".join(bits)


LP_ZERO = LaurentPoly()
LP_ONE = LaurentPoly.term(1)


class TruncatedSeries:
    """Power series in x_1..x_r truncated at total degree D, Laurent coefficients."""

    __slots__ = ("var_count", "max_degree", "terms")

    def __init__(self, var_count: int, max_degree: int,
                 terms: Mapping[tuple[int, ...], LaurentPoly] | None = None):
        if var_count < 1 or max_degree < 0:
            raise ValueError("need var_count >= 1 and max_degree >= 0")
        self.var_count = var_count
        self.max_degree = max_degree
        self.terms: dict[tuple[int, ...], LaurentPoly] = {}
        terms = terms or {}
        # a product files each term by its total degree, so no entry may be negative;
        # one pass over all entries, and a per-vector min only to name the bad one
        negative = min(chain.from_iterable(terms), default=0) < 0
        for n, p in terms.items():
            if len(n) != var_count or negative and min(n) < 0:
                raise ValueError(f"exponent {tuple(n)} is not a vector of var_count = "
                                 f"{var_count} nonnegative entries")
            if sum(n) <= max_degree and p.coeffs:
                self.terms[n] = p

    @classmethod
    def constant(cls, var_count: int, max_degree: int, p: LaurentPoly) -> "TruncatedSeries":
        return cls(var_count, max_degree, {(0,) * var_count: p})

    @classmethod
    def variable(cls, var_count: int, max_degree: int, i: int) -> "TruncatedSeries":
        """The series x_i (1-based index)."""
        n = [0] * var_count
        n[i - 1] = 1
        return cls(var_count, max_degree, {tuple(n): LP_ONE})

    def _check_shape(self, other: "TruncatedSeries"):
        if self.var_count != other.var_count or self.max_degree != other.max_degree:
            raise ValueError("operands have mismatched shape")

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncatedSeries) and self.var_count == other.var_count
                and self.max_degree == other.max_degree and self.terms == other.terms)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_shape(other)
        out = dict(self.terms)
        for n, p in other.terms.items():
            q = out.get(n)
            out[n] = p if q is None else q + p
        return TruncatedSeries(self.var_count, self.max_degree, out)

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        return self + other.scaled(LaurentPoly.term(-1))

    def __mul__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        self._check_shape(other)
        out = _degree_product(_graded(self), _graded(other), range(self.max_degree + 1))
        return TruncatedSeries(self.var_count, self.max_degree, out)

    def scaled(self, p: LaurentPoly) -> "TruncatedSeries":
        if len(p.coeffs) == 1:  # c t^e: shift the exponents, scale the coefficients
            (e, c), = p.coeffs.items()
            terms = {n: q.times_monomial(e, c) for n, q in self.terms.items()}
        else:
            terms = {n: q * p for n, q in self.terms.items()}
        return TruncatedSeries(self.var_count, self.max_degree, terms)

    def coefficient_poly(self, n: tuple[int, ...]) -> LaurentPoly:
        if len(n) != self.var_count or min(n) < 0:
            raise ValueError(f"exponent {tuple(n)} is not a vector of var_count = "
                             f"{self.var_count} nonnegative entries")
        if sum(n) > self.max_degree:
            raise ValueError(f"exponent {n} exceeds truncation degree {self.max_degree}")
        return self.terms.get(tuple(n), LP_ZERO)

    def constant_term(self) -> LaurentPoly:
        return self.terms.get((0,) * self.var_count, LP_ZERO)

    def embed(self, var_count: int, offset: int) -> "TruncatedSeries":
        """Reinterpret in a wider variable set, own vars at block `offset`."""
        out = {}
        for n, p in self.terms.items():
            m = [0] * var_count
            m[offset:offset + len(n)] = n
            out[tuple(m)] = p
        return TruncatedSeries(var_count, self.max_degree, out)

    def to_json_dict(self) -> dict:
        rows = []
        for n in sorted(self.terms):
            p = self.terms[n]
            rows.append({"n": list(n),
                         "t_poly": [[e, str(p.coeffs[e])] for e in sorted(p.coeffs)]})
        return {"vars": self.var_count, "max_degree": self.max_degree, "terms": rows}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _graded(s: TruncatedSeries) -> list[dict[tuple[int, ...], LaurentPoly]]:
    """The terms of `s` split by total degree: entry d holds the degree-d terms."""
    layers: list[dict] = [{} for _ in range(s.max_degree + 1)]
    for n, p in s.terms.items():
        layers[sum(n)][n] = p
    return layers


def _ungraded(var_count: int, layers: list[dict]) -> TruncatedSeries:
    """Inverse of _graded; truncated at degree len(layers) - 1."""
    return TruncatedSeries(var_count, len(layers) - 1,
                           {n: p for layer in layers for n, p in layer.items()})


class _Layer:
    """One graded layer as the kernel reads it: nonzero terms, codes, extent, packs."""

    __slots__ = ("layer", "terms", "codes", "lo", "hi", "top", "packed_at")

    def __init__(self, layer: dict, weights: list[int]):
        self.layer = layer  # held, so its id is not reused while a _Packs lives
        self.terms = [p.coeffs for p in layer.values() if p.coeffs]
        self.codes = [sum(map(mul, n, weights)) for n, p in layer.items() if p.coeffs]
        self.packed_at: dict[tuple[int, int], list[tuple[int, int]]] = {}
        if self.terms:
            self.lo = min(map(min, self.terms))
            self.hi = max(map(max, self.terms))
            self.top = max(map(abs, chain.from_iterable(map(dict.values, self.terms))))

    def packed(self, k: int, lo: int) -> list[tuple[int, int]]:
        """(exponent code, sum_e c_e 2^(k (e - lo))) for each nonzero term."""
        pack = self.packed_at.get((k, lo))
        if pack is None:
            values = []
            for coeffs in self.terms:
                v = 0
                for e, c in coeffs.items():
                    v += c << k * (e - lo)
                values.append(v)
            pack = self.packed_at[k, lo] = list(zip(self.codes, values))
        return pack


class _Packs:
    """The _Layer of every layer the kernel reads during one caller's degree loop.

    A caller that convolves the same layers for several output degrees
    passes one _Packs to each kernel call, so each layer is scanned once and
    packed once per digit width and lowest exponent.  Layers are keyed by
    id and must not change while the _Packs lives; it lives no longer than
    the call that made it.
    """

    __slots__ = ("radix", "weights", "layers")

    def __init__(self, radix: int):
        self.radix = radix
        self.weights: list[int] = []
        self.layers: dict[int, _Layer] = {}

    def read(self, layer: dict) -> _Layer:
        entry = self.layers.get(id(layer))
        if entry is None:
            if not self.weights:  # the length of any exponent vector
                self.weights = [self.radix ** i for i in range(len(next(iter(layer))))]
            entry = self.layers[id(layer)] = _Layer(layer, self.weights)
        return entry


def _digit_width(bound: int) -> int:
    """bound.bit_length() + 2, rounded up to a multiple of 64 so packs repeat."""
    return -(-(bound.bit_length() + 2) // 64) * 64


def _degree_product(a: list[dict], b: list[dict], degrees: range,
                    out: dict | None = None, packs: _Packs | None = None) -> dict:
    """The parts of a * b of the given total degrees, added into `out` when given.

    a and b are graded series truncated at the same degree D = len(a) - 1.
    Kronecker substitution turns each product of two t-polynomials into one
    integer product.  A nonzero polynomial becomes the integer
    sum_e c_e 2^(k (e - lo)), with lo the lowest exponent on its side, and an
    exponent vector n becomes the mixed-radix code sum_i n_i (D+1)^i; no
    component of a vector of total degree <= D exceeds D, so two codes add
    without a carry.  The kernel sums v1 * v2 per code sum and reads each sum
    back once as signed k-bit digits, digit j being the coefficient of
    t^(j + lo_a + lo_b).  Each layer is filtered and scanned once per
    `packs`, and packed once per digit width and lowest exponent; without
    `packs` that store lives for this call alone.

    The digit width k holds every such coefficient.  A code sum has one
    total degree d, and with c1 + c2 fixed, c1 determines c2, so one code
    collects at most terms = max over d of the sum over degree-d layer pairs
    of min(|a_d1|, |b_(d-d1)|) polynomial products.  One product's digit j
    is a sum of at most span coefficient products, span being the smaller of
    the two sides' exponent spans, and each is at most A B in absolute value
    (A, B the largest |coefficient| on each side).  So no digit exceeds
    A B span terms in absolute value, which is below 2^(k-2) for any
    k >= bitlen(A B span terms) + 2: every digit lies well inside the signed
    k-bit range.  k is rounded up to a multiple of 64, so that later calls
    on the same `packs` find most layers already packed.  Zero polynomials
    are skipped.
    """
    out = {} if out is None else out
    packs = _Packs(len(a)) if packs is None else packs
    pairs = []  # the layers of each layer pair that meets, both nonzero
    terms = 0
    for d in degrees:
        count = 0
        for d1 in range(d + 1):
            la, lb = a[d1], b[d - d1]
            if la and lb:
                ea, eb = packs.read(la), packs.read(lb)
                if ea.terms and eb.terms:
                    pairs.append((ea, eb))
                    count += min(len(ea.terms), len(eb.terms))
        terms = max(terms, count)
    if not pairs:
        return out
    side_a = {ea for ea, _ in pairs}
    side_b = {eb for _, eb in pairs}
    lo_a, lo_b = min(e.lo for e in side_a), min(e.lo for e in side_b)
    span = min(max(e.hi for e in side_a) - lo_a, max(e.hi for e in side_b) - lo_b) + 1
    k = _digit_width(max(e.top for e in side_a) * max(e.top for e in side_b) * span * terms)

    acc: defaultdict[int, int] = defaultdict(int)
    for ea, eb in pairs:
        pb = eb.packed(k, lo_b)
        for c1, v1 in ea.packed(k, lo_a):
            for c2, v2 in pb:
                acc[c1 + c2] += v1 * v2

    radix, r = packs.radix, len(packs.weights)
    mask, half = (1 << k) - 1, 1 << (k - 1)
    for code, v in acc.items():
        if not v:
            continue  # the products cancel
        coeffs = {}
        e = lo_a + lo_b
        while v:
            c = v & mask
            if c >= half:
                c -= mask + 1
            if c:
                coeffs[e] = c
            v = (v - c) >> k
            e += 1
        n = [0] * r
        for i in range(r):
            code, n[i] = divmod(code, radix)
        n = tuple(n)
        prod = LaurentPoly._of(coeffs)
        q = out.get(n)
        out[n] = prod if q is None else q + prod
    return out


def geometric_inverse(u: TruncatedSeries) -> TruncatedSeries:
    """sum_{j>=0} u^j; requires zero constant term so the sum truncates.

    Solved as g = 1 + u g one degree at a time: degree d of u g only reads
    degrees below d of g.
    """
    if u.constant_term():
        raise ValueError("geometric_inverse needs a zero constant term")
    us = _graded(u)
    g: list[dict] = [{} for _ in us]
    g[0] = {(0,) * u.var_count: LP_ONE}
    packs = _Packs(len(us))
    for d in range(1, len(g)):
        g[d] = _degree_product(us, g, range(d, d + 1), None, packs)
    return _ungraded(u.var_count, g)


def _solve_cleared(H: TruncatedSeries, p: int) -> TruncatedSeries:
    """The solution with F_0 = 0 of F = H + t^-p ((1+t) F^2 - t H F).

    This is solve_F's equation F = t^-p F^2 / (1 - t^(1-p) F) + H with the
    denominator cleared.  Neither F nor H has a constant term, so the last
    summand is F G with G = t^-p ((1+t) F - t H), and degree d of F G only
    reads degrees below d of F and G: F_d is filled from one convolution,
    then G_d from F_d and H_d.
    """
    Hs = _graded(H)
    F: list[dict] = [{} for _ in Hs]
    G: list[dict] = [{} for _ in Hs]
    packs = _Packs(len(Hs))
    for d in range(1, len(F)):
        F[d] = _degree_product(F, G, range(d, d + 1), dict(Hs[d]), packs)
        layer = {}
        for n, f in F[d].items():  # H_d seeded F_d, so every n of H_d is here
            g: dict[int, int] = {}
            for e, c in f.coeffs.items():  # t^-p (1+t) F_d
                g[e - p] = g.get(e - p, 0) + c
                g[e + 1 - p] = g.get(e + 1 - p, 0) + c
            for e, c in Hs[d].get(n, LP_ZERO).coeffs.items():  # -t^(1-p) H_d
                g[e + 1 - p] = g.get(e + 1 - p, 0) - c
            layer[n] = LaurentPoly(g)
        G[d] = layer
    return _ungraded(H.var_count, F)


def solve_f(max_degree: int) -> TruncatedSeries:
    """f = x + f^2 sum_j (t f)^j: solve_F at the one-leaf tree, from its memo."""
    return solve_F(LEAF, max_degree)


def check_f_closed_form(max_degree: int) -> tuple[bool, tuple | None]:
    """Verify (2(1+t)f - 1 - tx)^2 == 1 - 4x - 2tx + t^2 x^2 as truncated series.

    Returns (True, None) on success, else (False, first offending exponent).
    """
    return _check_f_closed_form_of(solve_f(max_degree))


def _check_f_closed_form_of(f: TruncatedSeries) -> tuple[bool, tuple | None]:
    D = f.max_degree
    t1 = LaurentPoly({0: 2, 1: 2})  # 2(1+t)
    x = TruncatedSeries.variable(1, D, 1)
    one = TruncatedSeries.constant(1, D, LP_ONE)
    lhs_lin = f.scaled(t1) - one - x.scaled(LaurentPoly.term(1, 1))
    lhs = lhs_lin * lhs_lin
    rhs = (one
           + x.scaled(LaurentPoly({0: -4, 1: -2}))
           + (x * x).scaled(LaurentPoly.term(1, 2)))
    if lhs == rhs:
        return True, None
    diff = lhs - rhs
    bad = min(n for n, p in diff.terms.items() if p)
    return False, bad


@cache
def solve_F(tree: Tree, max_degree: int) -> TruncatedSeries:
    """Fixed point of the per-tree counting equation.

    For T = C(T_1..T_k) of dimension p the equation

        F = F^2 / (t^p - t F) + t^(p-1) (prod_i t^(p_i)/(t^(p_i) - t F_i) - 1)

    has a second summand H built from the branch series alone, with the
    divisions expanded as t-shifted geometric series, so intermediates are
    Laurent in t; the one-leaf tree has p = 0 and H = x.  The candidate F
    solves the equation with its denominator cleared, one degree at a time
    (_solve_cleared).  It must then satisfy the equation as written, with the
    geometric series, and its coefficients must come out as nonnegative
    t-polynomials (they count faces); anything else raises.  A solve above
    MAX_SOLVE_STEPS raises SearchSpaceError before any series is built.
    """
    if max_degree < 1:
        raise ValueError(f"need max_degree >= 1, got {max_degree}")
    r = tree.leaf_count()
    steps = comb(max_degree + 2 * r, 2 * r) * max_degree ** 2
    if steps > MAX_SOLVE_STEPS:
        raise SearchSpaceError(f"solve_F({tree_to_text(tree)}) to degree {max_degree} takes "
                               f"C(D + 2r, 2r) D^2 = {steps} steps, above the bound "
                               f"{MAX_SOLVE_STEPS}")
    p = dim_tree(tree)
    if tree.is_leaf:
        H = TruncatedSeries.variable(1, max_degree, 1)
    else:
        horiz = None
        offset = 0
        # each distinct branch's geometric series in its own variables:
        # embedding commutes with it, so a repeated branch is expanded once
        inverses: dict[Tree, TruncatedSeries] = {}
        for child in root_decompose(tree):
            if child not in inverses:
                shift = LaurentPoly.term(1, 1 - dim_tree(child))
                inverses[child] = geometric_inverse(solve_F(child, max_degree).scaled(shift))
            factor = inverses[child].embed(r, offset)
            horiz = factor if horiz is None else horiz * factor
            offset += child.leaf_count()
        one = TruncatedSeries.constant(r, max_degree, LP_ONE)
        H = (horiz - one).scaled(LaurentPoly.term(1, p - 1))

    F = _solve_cleared(H, p)
    vert = (F * F).scaled(LaurentPoly.term(1, -p)) \
        * geometric_inverse(F.scaled(LaurentPoly.term(1, 1 - p)))
    what = f"solve_F({tree_to_text(tree)})"
    if F != vert + H:
        raise ArithmeticError(f"{what}: candidate is not a fixed point")
    if F.terms.get((0,) * r):
        raise ArithmeticError("solve_F produced a constant term; W_n requires n != 0")
    for n, q in F.terms.items():
        if not q.is_nonneg_poly():
            raise ArithmeticError(f"{what}: coefficient at {n} is not a nonnegative "
                                  f"t-polynomial: {q!r}")
    return F


def eval_t_minus1(series: TruncatedSeries) -> TruncatedSeries:
    """Substitute t = -1 in every coefficient."""
    out = {}
    for n, p in series.terms.items():
        v = p.eval_minus1()
        if v:
            out[n] = LaurentPoly.term(v)
    return TruncatedSeries(series.var_count, series.max_degree, out)


def coefficient(series: TruncatedSeries, m: int, n: tuple[int, ...]) -> int:
    """The t^m coefficient of the x^n term (0 if absent)."""
    return series.coefficient_poly(tuple(n)).coefficient(m)


def t_minus1_closed_form(tree: Tree, max_degree: int) -> TruncatedSeries:
    """Truncation of (-1)^d(T) * (1/prod_i (1 - x_i) - 1)."""
    r = tree.leaf_count()
    sign = LaurentPoly.term((-1) ** dim_tree(tree))
    prod = TruncatedSeries.constant(r, max_degree, LP_ONE)
    for i in range(1, r + 1):
        prod = prod * geometric_inverse(TruncatedSeries.variable(r, max_degree, i))
    one = TruncatedSeries.constant(r, max_degree, LP_ONE)
    return (prod - one).scaled(sign)
