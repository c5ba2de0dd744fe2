"""Independent reference implementations used only as test oracles.

Each oracle deliberately takes a different algorithmic route from the
library code it checks (extended Euclid instead of Fermat powers, exhaustive
evaluation instead of factorization, permutation expansion instead of
memoized cofactors, randomized single-step reduction instead of the heap
reducer, Macaulay matrices instead of staircase counting, evaluation and
Lagrange interpolation instead of Kronecker substitution).
"""
from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from operator import mul

from sexticsolid.exactalg import UPOLY_ONE, fp_inv, upoly, upoly_mul, upoly_scale
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

def pow_mod_by_repeated_products(base, e, mod, p):
    """base**e mod mod by e schoolbook products, each followed by long
    division by the (not necessarily monic) modulus, inverting its leading
    coefficient by extended Euclid."""
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

    base = rem(list(base))
    acc = rem([1])
    for _ in range(e):
        acc = rem(product(acc, base))
    return tuple(acc)


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


# -- multivariate oracles ----------------------------------------------------

def naive_product(f: MultiPoly, g: MultiPoly) -> MultiPoly:
    """Product as a flat list of pairwise term products, combined at the end."""
    pairs = []
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            pairs.append((tuple(a + b for a, b in zip(e1, e2)), c1 * c2))
    return MultiPoly.from_terms(f.nvars, f.p, pairs)


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
    """Repeated single-step top reduction in randomized order; for a Groebner
    basis the result must coincide with the library's normal form."""
    p = f.p
    while True:
        options = []
        for e in f.terms:
            for k, g in enumerate(basis):
                le = g.lead_exp()
                if all(a <= b for a, b in zip(le, e)):
                    options.append((e, k))
        if not options:
            return f
        options.sort()
        e, k = options[rng.below(len(options))]
        g = basis[k]
        c = f.terms[e]
        shift = tuple(b - a for a, b in zip(g.lead_exp(), e))
        factor = c * pow(g.lead_coeff(), p - 2, p) % p
        mono = MultiPoly.from_terms(f.nvars, p, [(shift, factor)])
        f = f - mono * g


def _monomials_up_to(nvars, D):
    def gen(rem, k):
        if k == 1:
            for e in range(rem + 1):
                yield (e,)
            return
        for first in range(rem + 1):
            for rest in gen(rem - first, k - 1):
                yield (first,) + rest
    return sorted(gen(D, nvars))


def _row_rank(rows, p):
    """Dense row reduction with each row packed into one big integer of
    64-bit lanes.  Eliminations accumulate row += (p - f) * pivot, which
    keeps every lane non-negative and (for fewer than ~2^20 eliminations
    per row) below 2^64, so a single C-speed bigint operation replaces the
    per-entry Python loop."""
    import struct

    rows = [r for r in rows if any(v % p for v in r)]
    if not rows:
        return 0
    n = len(rows[0])
    fmt = "<%dQ" % n
    nbytes = 8 * n

    def decode(R):
        return struct.unpack(fmt, R.to_bytes(nbytes, "little"))

    pivots = {}  # col -> pivot bigint, lanes in [0, p), pivot lane exactly 1
    rank = 0
    for row in rows:
        R = int.from_bytes(struct.pack(fmt, *[v % p for v in row]), "little")
        start = 0
        while R:
            lanes = decode(R)
            c = next((i for i in range(start, n) if lanes[i] % p), None)
            if c is None:
                break
            f = lanes[c] % p
            piv = pivots.get(c)
            if piv is None:
                inv = pow(f, p - 2, p)
                norm = [0] * c + [v % p * inv % p for v in lanes[c:]]
                pivots[c] = int.from_bytes(struct.pack(fmt, *norm), "little")
                rank += 1
                break
            R += (p - f) * piv
            start = c + 1
    return rank


def macaulay_quotient_dim(gens, max_degree=16, window=4):
    """Dimension of F_p[x]/I for a zero-dimensional ideal, by dense linear
    algebra: the row space of all degree-bounded monomial multiples of the
    generators is reduced and its codimension tracked until it stabilizes
    for ``window`` consecutive degrees.

    The stopping rule is a heuristic, so only feed this tame inputs (the
    test ideals are built with pure-power leads and strictly lower-degree
    noise, for which the row space reaches the ideal quickly)."""
    p = gens[0].p
    n = gens[0].nvars
    base = max(g.total_degree() for g in gens)
    history: list = []
    for D in range(base, max_degree + 1):
        monos = _monomials_up_to(n, D)
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for g in gens:
            dg = g.total_degree()
            for shift in _monomials_up_to(n, D - dg):
                row = [0] * len(monos)
                for e, c in g.terms.items():
                    row[index[tuple(a + b for a, b in zip(e, shift))]] = c
                rows.append(row)
        dim = len(monos) - _row_rank(rows, p)
        history.append(dim)
        if len(history) >= window and len(set(history[-window:])) == 1:
            return dim
    raise AssertionError(f"Macaulay dimensions did not stabilize: {history}")
