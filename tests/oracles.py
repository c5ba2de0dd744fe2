"""Independent reference implementations used only as test oracles.

Each oracle deliberately takes a different algorithmic route from the
library code it checks (extended Euclid instead of built-in modular inverses,
schoolbook products instead of packed residues, tuple Euclid with a
reduction per coefficient instead of list Euclid, exhaustive evaluation
instead of factorization, permutation expansion instead of
memoized cofactors, top reduction on exponent tuples with randomly chosen
divisors instead of the packed reducers, a heap reducer that scans every reducer for every term instead of
the memoised one, Macaulay matrices instead of staircase counting,
evaluation and Lagrange interpolation instead of Kronecker substitution,
exponent tuples instead of packed exponents, Horner's scheme and
term-by-term expansion instead of a table of moved monomials, the full Jacobian of a hypersurface instead of
a corollary of the census, the double solid's equation in four variables
instead of its check in the census ring).  ``record_schedule`` is no oracle
but a recorder: it reads the trace of a Groebner completion back from the
engine.  The schoolbook ``upoly_mul``, ``upoly_scale`` and ``upoly_eval``
build and evaluate test polynomials, and ``diagonal_instance`` is the
degenerate reference instance; the library itself runs none of them.
"""
from __future__ import annotations

from array import array
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations, permutations
from operator import add, mul

from sexticsolid import groebner
from sexticsolid.bundle import GRAM_FORMS, CubicData
from sexticsolid.exactalg import UPOLY_ONE, UPOLY_ZERO, fp_inv, upoly
from sexticsolid.multipoly import MultiPoly

MASK64 = (1 << 64) - 1


# -- extended Euclid ---------------------------------------------------------

def xgcd(a, b):
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def inverse_by_xgcd(a, p):
    g, s, _ = xgcd(a % p, p)
    assert g == 1
    return s % p


# -- splitmix64 transcribed independently from the published constants -------

def splitmix64_reference(seed, count):
    out = []
    state = seed & MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


# -- univariate helpers ------------------------------------------------------

def upoly_scale(f, a, p):
    a %= p
    if a == 0:
        return UPOLY_ZERO
    return upoly((c * a for c in f), p)


def upoly_mul(f, g, p):
    if not f or not g:
        return UPOLY_ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return upoly(out, p)


def upoly_eval(f, a, p):
    acc = 0
    for c in reversed(f):
        acc = (acc * a + c) % p
    return acc


def _schoolbook_mod(mod, p):
    """Schoolbook product and long division by the (not necessarily monic)
    modulus, inverting its leading coefficient by extended Euclid."""
    inv_lc = inverse_by_xgcd(mod[-1], p)
    n = len(mod) - 1

    def rem(a):
        a = [x % p for x in a]
        for top in range(len(a) - 1, n - 1, -1):
            q = a[top] * inv_lc % p
            for j in range(n + 1):
                a[top - n + j] = (a[top - n + j] - q * mod[j]) % p
        a = a[:n]
        while a and a[-1] == 0:
            a.pop()
        return a

    def product(a, b):
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    return rem, product


def pow_mod_by_repeated_products(base, e, mod, p):
    """base**e mod mod by e schoolbook products, each followed by long
    division by the modulus."""
    rem, product = _schoolbook_mod(mod, p)
    base = rem(list(base))
    acc = rem([1])
    for _ in range(e):
        acc = rem(product(acc, base))
    return tuple(acc)


def pow_mod_by_binary_products(base, e, mod, p):
    """base**e mod mod by right-to-left binary powering with the schoolbook
    products and long division of pow_mod_by_repeated_products, for
    exponents too large for e products."""
    rem, product = _schoolbook_mod(mod, p)
    square = rem(list(base))
    acc = rem([1])
    while e:
        if e & 1:
            acc = rem(product(acc, square))
        square = rem(product(square, square))
        e >>= 1
    return tuple(acc)


def gcd_by_tuple_euclid(f, g, p):
    """Monic gcd by Euclid on coefficient tuples: each remainder by long
    division with every coefficient reduced at every step, and the leading
    coefficient inverted by extended Euclid."""
    def canonical(c):
        c = [x % p for x in c]
        while c and c[-1] == 0:
            c.pop()
        return tuple(c)

    def rem(a, b):
        r = list(a)
        db = len(b) - 1
        inv_lc = inverse_by_xgcd(b[-1], p)
        for i in range(len(r) - 1, db - 1, -1):
            c = r[i] % p
            if c:
                c = c * inv_lc % p
                for j in range(db + 1):
                    r[i - db + j] = (r[i - db + j] - c * b[j]) % p
        return canonical(r[:db])

    a, b = canonical(f), canonical(g)
    assert a or b, "gcd(0, 0) is undefined"
    while b:
        a, b = b, rem(a, b)
    inv = inverse_by_xgcd(a[-1], p)
    return canonical(c * inv for c in a)


def upoly_interpolate(points, p):
    """Lagrange interpolation through (x, y) pairs with distinct x: one
    product with the cached Lagrange weights of the nodes."""
    pts = list(points)
    weights = _lagrange_weights(tuple(x % p for x, _ in pts), p)
    ys = [y for _, y in pts]
    return upoly([sum(map(mul, row, ys)) for row in weights], p)


@lru_cache(maxsize=64)
def _lagrange_weights(nodes, p):
    """Row k holds the t^k coefficients of the Lagrange basis polynomials
    L_i(t) = prod_{j != i} (t - x_j) / (x_i - x_j) of the nodes."""
    basis = []
    for i, xi in enumerate(nodes):
        num = UPOLY_ONE
        den = 1
        for j, xj in enumerate(nodes):
            if j != i:
                num = upoly_mul(num, ((-xj) % p, 1), p)
                den = den * (xi - xj) % p
        basis.append(upoly_scale(num, fp_inv(den, p), p))
    return tuple(tuple(L[k] if k < len(L) else 0 for L in basis)
                 for k in range(len(nodes)))


def brute_roots(f, p):
    def ev(a):
        acc = 0
        for c in reversed(f):
            acc = (acc * a + c) % p
        return acc
    return {a for a in range(p) if ev(a) == 0}


# -- integer matrices --------------------------------------------------------

def det_int(M, p):
    n = len(M)
    if n == 0:
        return 1 % p
    total = 0
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        prod = 1
        for i in range(n):
            prod = prod * M[i][perm[i]] % p
        total = (total + (-prod if inv % 2 else prod)) % p
    return total % p


def rank_by_minors(M, p):
    rows = len(M)
    cols = len(M[0]) if rows else 0
    from itertools import combinations
    for k in range(min(rows, cols), 0, -1):
        for rsel in combinations(range(rows), k):
            for csel in combinations(range(cols), k):
                sub = [[M[i][j] for j in csel] for i in rsel]
                if det_int(sub, p) != 0:
                    return k
    return 0


def charpoly_by_cofactors(M, p):
    """det(tI - M) by cofactor expansion with its own list-based polynomial
    arithmetic (coefficients lowest first)."""
    n = len(M)

    def padd(a, b):
        m = max(len(a), len(b))
        return [( (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) ) % p
                for i in range(m)]

    def pmul(a, b):
        out = [0] * (len(a) + len(b) - 1) if a and b else []
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    def pscale(a, c):
        return [x * c % p for x in a]

    # entries of tI - M as polynomials in t
    E = [[[(-M[i][j]) % p, 1 % p] if i == j else [(-M[i][j]) % p]
          for j in range(n)] for i in range(n)]

    def det(rows, cols):
        if not rows:
            return [1 % p]
        r = rows[0]
        acc = []
        for idx, c in enumerate(cols):
            sub = det(rows[1:], cols[:idx] + cols[idx + 1:])
            term = pmul(E[r][c], sub)
            if idx % 2:
                term = pscale(term, p - 1)
            acc = padd(acc, term)
        return acc

    out = det(tuple(range(n)), tuple(range(n)))
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def matmul(A, B, p):
    n = len(A)
    m = len(B[0]) if B else 0
    k = len(B)
    return [[sum(A[i][t] * B[t][j] for t in range(k)) % p for j in range(m)]
            for i in range(n)]


def mat_eval_upoly(coeffs, M, p):
    """Evaluate a univariate polynomial at a square matrix (Horner)."""
    n = len(M)
    R = [[0] * n for _ in range(n)]
    for c in reversed(coeffs):
        R = matmul(R, M, p)
        for i in range(n):
            R[i][i] = (R[i][i] + c) % p
    return R


def mat_inverse(T, p):
    n = len(T)
    A = [[T[i][j] % p for j in range(n)] + [1 if k == i else 0 for k in range(n)]
         for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if A[i][c])
        A[c], A[piv] = A[piv], A[c]
        inv = pow(A[c][c], p - 2, p)
        A[c] = [x * inv % p for x in A[c]]
        for i in range(n):
            if i != c and A[i][c]:
                f = A[i][c]
                A[i] = [(x - f * y) % p for x, y in zip(A[i], A[c])]
    return [row[n:] for row in A]


# -- instances ---------------------------------------------------------------

def diagonal_instance(p: int) -> CubicData:
    """The degenerate reference instance A = diag(Y0, Y1, Y2), B = 0, C = Y3^3."""
    ys = [MultiPoly.variable(i, 4, p) for i in range(4)]
    forms = {"A00": ys[0], "A11": ys[1], "A22": ys[2], "C": ys[3] * ys[3] * ys[3]}
    return CubicData(p, tuple(forms.get(key, MultiPoly.zero(4, p)) for key, _ in GRAM_FORMS))


# -- multivariate oracles ----------------------------------------------------

def naive_product(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Product as a flat list of pairwise term products, combined at the end."""
    pairs = []
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            pairs.append((tuple(a + b for a, b in zip(e1, e2)), c1 * c2))
    return MultiPoly.from_terms(f.nvars, f.p, pairs)


def linear_change_by_tuples(f: MultiPoly, T) -> MultiPoly:
    """f(T @ variables) on exponent tuples: each term expanded against the
    cached powers of the rows of T, each product reduced mod p once."""
    n, p = f.nvars, f.p
    lin = [{tuple(1 if j == k else 0 for k in range(n)): T[i][j] % p
            for j in range(n) if T[i][j] % p}
           for i in range(n)]
    pow_cache: dict = {}

    def times(a, b):
        r: dict = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                r[e] = r.get(e, 0) + c1 * c2
        return {e: c % p for e, c in r.items()}

    def lin_pow(i, k):
        if (i, k) not in pow_cache:
            pow_cache[(i, k)] = {(0,) * n: 1} if k == 0 else times(lin_pow(i, k - 1), lin[i])
        return pow_cache[(i, k)]

    acc: dict = {}
    for e, c in f.terms.items():
        prod = {(0,) * n: c}
        for i, ei in enumerate(e):
            if ei:
                prod = times(prod, lin_pow(i, ei))
        for ee, cc in prod.items():
            acc[ee] = (acc.get(ee, 0) + cc) % p
    return MultiPoly(n, p, acc)


def linear_change(f: MultiPoly, T) -> MultiPoly:
    """f(T @ variables) by multivariate Horner: with L_k the linear form of
    row k of T, f = sum_j x_k^j f_j splits on its last variable x_k and
    becomes (..(f_top(L) * L_k + f_{top-1}(L)) * L_k ..) + f_0(L), each
    f_j(L) found the same way on the variables before x_k, so every product
    is by a linear form and no monomial image is kept."""
    n, p = f.nvars, f.p
    zero = MultiPoly.zero(n, p)
    forms = [sum((MultiPoly.variable(j, n, p).scale(c) for j, c in enumerate(row)), zero)
             for row in T]

    def substitute(terms, k):
        # sum of c x^e over the (e, c), all supported on x_0..x_{k-1}
        if k == 0:
            return MultiPoly.constant(terms[0][1], n, p)
        parts: dict = {}
        for e, c in terms:
            parts.setdefault(e[k - 1], []).append((e, c))
        acc = zero
        for j in range(max(parts), -1, -1):
            if not acc.is_zero():
                acc = acc * forms[k - 1]
            if j in parts:
                acc = acc + substitute(parts[j], k - 1)
        return acc

    return f if f.is_zero() else substitute(list(f.terms.items()), n)


def eval_by_pow(f: MultiPoly, point) -> int:
    """Term-by-term evaluation: each term is its coefficient times the
    built-in modular power of every coordinate."""
    p = f.p
    total = 0
    for e, c in f.terms.items():
        term = c
        for v, k in zip(point, e):
            term = term * pow(v, k, p) % p
        total = (total + term) % p
    return total


def restrict_by_interpolation(f: MultiPoly, base, direction):
    """t -> f(base + t * direction), from the values at t = 0..deg f (by
    eval_by_pow) and Lagrange interpolation; needs p > deg f."""
    d = f.total_degree()
    if d < 0:
        return ()
    pts = [(t, eval_by_pow(f, [a + t * b for a, b in zip(base, direction)]))
           for t in range(d + 1)]
    return upoly_interpolate(pts, f.p)


# -- the tuple-keyed arithmetic that MultiPoly used before it keyed its terms
# by packed monomials: exponent tuples, a dict per result, every result
# rebuilt from a tuple-keyed dict

def _from_tuples(nvars, p, raw) -> MultiPoly:
    return MultiPoly(nvars, p, {e: c % p for e, c in raw.items() if c % p})


def tuple_add(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    raw = dict(f.terms)
    for e, c in g.terms.items():
        raw[e] = raw.get(e, 0) + c
    return _from_tuples(f.nvars, f.p, raw)


def tuple_sub(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    raw = dict(f.terms)
    for e, c in g.terms.items():
        raw[e] = raw.get(e, 0) - c
    return _from_tuples(f.nvars, f.p, raw)


def tuple_mul(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    raw: dict = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            raw[e] = raw.get(e, 0) + c1 * c2
    return _from_tuples(f.nvars, f.p, raw)


def tuple_partial(f: MultiPoly, i: int) -> MultiPoly:
    raw = {}
    for e, c in f.terms.items():
        if e[i]:
            raw[tuple(v - 1 if j == i else v for j, v in enumerate(e))] = c * e[i]
    return _from_tuples(f.nvars, f.p, raw)


def tuple_specialize(f: MultiPoly, i: int, value: int) -> MultiPoly:
    p = f.p
    raw: dict = {}
    for e, c in f.terms.items():
        ne = e[:i] + e[i + 1:]
        raw[ne] = raw.get(ne, 0) + c * pow(value % p, e[i], p)
    return _from_tuples(f.nvars - 1, p, raw)


def tuple_det(rows) -> MultiPoly:
    """Cofactor expansion memoized on the surviving column subset, every
    product and sum through the tuple-keyed arithmetic above."""
    n = len(rows)
    first = rows[0][0]
    one = MultiPoly.constant(1, first.nvars, first.p)
    zero = MultiPoly.zero(first.nvars, first.p)
    memo: dict = {}

    def det(cols):
        if not cols:
            return one
        if cols not in memo:
            r = n - len(cols)
            acc = zero
            for idx, ci in enumerate(cols):
                term = tuple_mul(rows[r][ci], det(cols[:idx] + cols[idx + 1:]))
                acc = tuple_sub(acc, term) if idx % 2 else tuple_add(acc, term)
            memo[cols] = acc
        return memo[cols]

    return det(tuple(range(n)))


def symmetric_minors(m, k: int) -> list:
    """The distinct nonzero k x k minors of the symmetric matrix m, each by
    tuple_det: minor(I, J) = minor(J, I), so only I <= J is enumerated.
    k = 2 gives the ideal of the rank <= 1 locus, k = 3 of rank <= 2."""
    minors = []
    for rows in combinations(range(len(m)), k):
        for cols in combinations(range(len(m)), k):
            if cols >= rows:
                minor = tuple_det([[m[i][j] for j in cols] for i in rows])
                if not minor.is_zero() and minor not in minors:
                    minors.append(minor)
    return minors


def det_by_permutations(grid) -> MultiPoly:
    n = len(grid)
    sample = grid[0][0]
    acc = MultiPoly.zero(sample.nvars, sample.p)
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
        prod = MultiPoly.constant(1, sample.nvars, sample.p)
        for i in range(n):
            prod = prod * grid[i][perm[i]]
        acc = acc - prod if inv % 2 else acc + prod
    return acc


def brute_normal_form(f: MultiPoly, basis, rng) -> MultiPoly:
    """Top reduction on exponent tuples: the remaining terms stay in one
    dict, and each time the largest of them (by a heap of grevlex keys) is
    reduced by a basis element chosen at random among those whose lead
    divides it, or else moved to the result.  For a Groebner basis the
    result must coincide with the library's normal form."""
    p = f.p
    reducers = []
    for g in basis:
        lead = g.lead_exp()
        inv = inverse_by_xgcd(g.terms[lead], p)
        reducers.append((lead, [(e, c * inv % p) for e, c in g.terms.items() if e != lead]))
    rest = dict(f.terms)
    heap = [((-sum(e), e[::-1]), e) for e in rest]
    heapify(heap)
    out = []
    while heap:
        e = heappop(heap)[1]
        c = rest.pop(e, 0)
        if not c:
            continue
        divisors = [r for r in reducers if all(a <= b for a, b in zip(r[0], e))]
        if not divisors:
            out.append((e, c))
            continue
        lead, tail = divisors[rng.below(len(divisors))]
        shift = [b - a for a, b in zip(lead, e)]
        for e2, c2 in tail:
            m = tuple(map(add, shift, e2))
            if m not in rest:
                heappush(heap, ((-sum(m), m[::-1]), m))
            v = (rest.get(m, 0) - c * c2) % p
            if v:
                rest[m] = v
            else:
                rest.pop(m, None)
    return MultiPoly.from_terms(f.nvars, p, out)


def double_solid_equation(moved: MultiPoly) -> MultiPoly:
    """w^2 - moved(1, y1, y2, y3) in the variables (w, y1, y2, y3): the
    double solid in the census chart, whose Tjurina generators
    ``singular.double_solid_census`` checks in the census ring instead."""
    w = MultiPoly.variable(0, 4, moved.p)
    return w * w - moved.specialize(0, 1).embed(4, (1, 2, 3))


class HeapReducer:
    """Normal-form reduction against a growing list of monic reducers, on
    packed monomials, scanning every reducer for every popped term and
    reducing every coefficient mod p as it is updated; the same interface as
    ``groebner._Reducer`` without its memos."""

    def __init__(self, packing, p: int, budget=None):
        self.reducers = []
        self.guard = packing.guard
        self.p = p
        self.budget = budget

    def add(self, items):
        self.reducers.append((items[0][0], items[1:]))

    def reduce_terms(self, pairs) -> dict:
        p, guard = self.p, self.guard
        work: dict = {}
        for e, c in pairs:
            c = (work.get(e, 0) + c) % p
            if c:
                work[e] = c
            else:
                work.pop(e, None)
        heap = [-e for e in work]
        heapify(heap)
        out: dict = {}
        while heap:
            e = -heappop(heap)
            c = work.pop(e, 0)
            if not c:
                continue
            eg = e | guard
            for lead, tail in self.reducers:
                if (eg - lead) & guard == guard:
                    break
            else:
                out[e] = c
                continue
            if self.budget is not None:
                self.budget.spend()
            q = e - lead
            for m, cm in tail:
                em = q + m
                prev = work.get(em, 0)
                nv = (prev - c * cm) % p
                if nv:
                    if not prev:
                        heappush(heap, -em)
                    work[em] = nv
                elif prev:
                    del work[em]
        return out


def record_schedule(gens, **kwargs) -> tuple:
    """The trace of the first reducer ``buchberger(gens, **kwargs)`` makes:
    the (i, j, lead) of each S-pair that it reduced to a nonzero normal
    form, in order, where i < j index its elements in the order they were
    added and lead is the normal form's lead exponent.

    With no schedule that reducer is the plain completion's, and the trace
    is the schedule that replays it: how ``singular.CENSUS_SCHEDULE`` was
    recorded.  With a schedule it is the replay's, and the trace equals the
    schedule iff the replay ran to its last pair.  Each pair is read back
    from its S-polynomial, a shifted element i followed by a negated shifted
    element j, by matching both halves against the elements' terms relative
    to their leads."""
    gens = [g for g in gens if not g.is_zero()]
    unpack = groebner._packing(gens[0].nvars).unpack
    p = gens[0].p
    made = []

    def relative(items, lcm, sign):
        return tuple((e - lcm, c if sign > 0 else p - c) for e, c in items)

    class Recording(groebner._Reducer):
        def __init__(self, *args):
            super().__init__(*args)
            self.index, self.calls, self.trace = {}, 0, []
            made.append(self)

        def add(self, items):
            super().add(items)
            self.index[relative(items, items[0][0], 1)] = len(self.index)

        def reduce_terms(self, terms):
            out = super().reduce_terms(terms)
            self.calls += 1
            if out and self is made[0] and self.calls > len(gens):
                lcm = terms[0][0]
                k = next(k for k in range(1, len(terms)) if terms[k][0] == lcm)
                i = self.index[relative(terms[:k], lcm, 1)]
                j = self.index[relative(terms[k:], lcm, -1)]
                self.trace.append((i, j, unpack(next(iter(out)))))
            return out

    saved = groebner._Reducer
    groebner._Reducer = Recording
    try:
        groebner.buchberger(gens, **kwargs)
    finally:
        groebner._Reducer = saved
    return tuple(made[0].trace)


def _monomials_of_degree(nvars, D):
    """Exponent tuples of total degree exactly D."""
    if nvars == 1:
        return [(D,)]
    return [(a,) + rest for a in range(D + 1)
            for rest in _monomials_of_degree(nvars - 1, D - a)]


class _Echelon:
    """Row echelon form over F_p of a growing set of rows, for its rank.

    A row is one integer of 64-bit lanes, lane k holding the entry of column
    k, so columns can be appended at any time: every row already added is
    zero there.  A row is reduced from its highest nonzero lane down: adding
    (p - f) times the pivot row of that lane (pivot lane exactly 1, zero
    above it) makes the lane a multiple of p, which is then subtracted, so
    one bigint update replaces a loop over entries.  Every lane stays
    nonnegative, and each addition raises a lane by less than p^2, so for
    fewer than 2^64 / p^2 additions per row no lane carries into the next."""

    def __init__(self, p):
        self.p = p
        self.pivots = {}    # lane -> pivot row, lanes in [0, p)

    def add(self, R) -> bool:
        """Reduce R against the pivots; True iff it became a new pivot."""
        p, pivots = self.p, self.pivots
        while R:
            c = (R.bit_length() - 1) >> 6
            s = c << 6
            lane = R >> s
            f = lane % p
            if f:
                piv = pivots.get(c)
                if piv is None:
                    inv = pow(f, -1, p)
                    lanes = array("Q", R.to_bytes(8 * (c + 1), "little"))
                    pivots[c] = int.from_bytes(
                        array("Q", [v % p * inv % p for v in lanes]).tobytes(), "little")
                    return True
                R += (p - f) * piv
                lane += p - f
            R -= lane << s
        return False


def macaulay_quotient_dim(gens, max_degree=16, window=4):
    """Dimension of F_p[x]/I for a zero-dimensional ideal, by dense linear
    algebra: the row space of all degree-bounded monomial multiples of the
    generators is reduced and its codimension tracked until it stabilizes
    for ``window`` consecutive degrees.

    The elimination is incremental: the multiples of degree at most D span
    a subspace of those of degree at most D + 1, so going from D to D + 1
    appends the columns of degree D + 1 and reduces only the multiples of
    degree exactly D + 1 against the echelon rows kept from D.

    The stopping rule is a heuristic, so only feed this tame inputs (the
    test ideals are built with pure-power leads and strictly lower-degree
    noise, for which the row space reaches the ideal quickly)."""
    p = gens[0].p
    n = gens[0].nvars
    base = max(g.total_degree() for g in gens)
    forms = [(g.total_degree(), list(g.terms.items())) for g in gens]
    index: dict = {}
    echelon = _Echelon(p)
    history: list = []
    for D in range(max_degree + 1):
        for m in _monomials_of_degree(n, D):
            index[m] = len(index)
        for dg, items in forms:
            if D < dg:
                continue
            for shift in _monomials_of_degree(n, D - dg):
                row = 0
                for e, c in items:
                    row |= c << (index[tuple(a + b for a, b in zip(e, shift))] << 6)
                echelon.add(row)
        if D < base:
            continue
        history.append(len(index) - len(echelon.pivots))
        if len(history) >= window and len(set(history[-window:])) == 1:
            return history[-1]
    raise AssertionError(f"Macaulay dimensions did not stabilize: {history}")


def hypersurface_is_smooth(f: MultiPoly, budget=None) -> bool:
    """Whether the projective hypersurface f = 0 is smooth, the direct way:
    its partials have no common zero (f itself lies in their ideal by
    Euler's formula when deg f is a unit).  For the ambient cubic of an
    instance that is one basis of seven quadrics, about 20,000 steps."""
    return groebner.is_irrelevant([f.partial(i) for i in range(f.nvars)], budget)
