"""Exact arithmetic kernel: prime fields, dense univariate polynomials and
dense linear algebra over F_p, plus the toolkit's deterministic PRNG.

Conventions
-----------
* A field element is a plain ``int`` in ``[0, p)``; the modulus ``p`` is
  passed explicitly.  No floating point is used anywhere.
* A univariate polynomial ("upoly") is a ``tuple`` of coefficients, lowest
  degree first, with no trailing zeros; the zero polynomial is ``()``.
* A matrix is a list of row lists of ``int``.
* Inside ``upoly_pow_mod`` a residue modulo a monic modulus of degree n is
  one packed ``int`` (Kronecker substitution): coefficient k sits in bits
  k*S up to (k+1)*S, with S = (2*n*p^2).bit_length() wide enough for every
  unreduced coefficient of a product and its fold, so one bigint product
  replaces the schoolbook double loop.

All values are immutable (or treated as such) and every operation is a pure
function, so concurrent use from several threads is safe.
"""
from __future__ import annotations

from functools import lru_cache

from .errors import BadPrime, NonSquare, ZeroInverse

_MASK64 = (1 << 64) - 1

UPoly = tuple  # coefficient tuple, lowest degree first

UPOLY_ZERO: UPoly = ()
UPOLY_ONE: UPoly = (1,)


class SplitMix64:
    """The splitmix64 generator.

    Every source of randomness in the toolkit draws from this generator so
    that a run is a pure function of its integer seed.
    """

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform integer in [0, n), bias-free via rejection."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n


#: Miller-Rabin with the thirteen prime bases 2..41 is proven exact below this
#: bound, the least strong pseudoprime to all of them (Sorenson & Webster
#: 2015); at and above it a composite could pass.
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_TEST_BOUND (~3.3e24)."""
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ensure_field_prime(p: int) -> None:
    """The toolkit requires an odd prime p > 6 (so that 6 = deg(det) is a unit),
    below the bound where the primality test is proven exact."""
    if p >= PRIME_TEST_BOUND:
        raise BadPrime(f"field characteristic must be below {PRIME_TEST_BOUND}, where "
                       f"the primality test is proven exact, got {p}")
    if p <= 6 or not is_prime(p):
        raise BadPrime(f"field characteristic must be a prime > 6, got {p}")


def fp_inv(a: int, p: int) -> int:
    """Multiplicative inverse mod p (p prime)."""
    a %= p
    if a == 0:
        raise ZeroInverse("0 has no inverse")
    return pow(a, p - 2, p)


# ---------------------------------------------------------------------------
# dense univariate polynomials
# ---------------------------------------------------------------------------

def upoly(coeffs, p: int) -> UPoly:
    """Canonical form: coefficients reduced mod p, trailing zeros stripped."""
    c = [x % p for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def upoly_deg(f: UPoly) -> int:
    return len(f) - 1


def upoly_sub(f: UPoly, g: UPoly, p: int) -> UPoly:
    n = max(len(f), len(g))
    return upoly(((f[i] if i < len(f) else 0) - (g[i] if i < len(g) else 0)
                  for i in range(n)), p)


def upoly_scale(f: UPoly, a: int, p: int) -> UPoly:
    a %= p
    if a == 0:
        return UPOLY_ZERO
    return upoly((c * a for c in f), p)


def upoly_mul(f: UPoly, g: UPoly, p: int) -> UPoly:
    if not f or not g:
        return UPOLY_ZERO
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return upoly(out, p)


def upoly_monic(f: UPoly, p: int) -> UPoly:
    if not f or f[-1] == 1:
        return f
    return upoly_scale(f, fp_inv(f[-1], p), p)


def upoly_divmod(f: UPoly, g: UPoly, p: int) -> tuple[UPoly, UPoly]:
    if not g:
        raise ZeroDivisionError("division by zero polynomial")
    r = list(f)
    dg = len(g) - 1
    inv_lc = fp_inv(g[-1], p)
    q = [0] * max(len(f) - dg, 0)
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i] % p
        if c:
            c = c * inv_lc % p
            q[i - dg] = c
            for j in range(dg + 1):
                r[i - dg + j] = (r[i - dg + j] - c * g[j]) % p
    return upoly(q, p), upoly(r[:dg], p)


def upoly_rem(f: UPoly, g: UPoly, p: int) -> UPoly:
    return upoly_divmod(f, g, p)[1]


def upoly_gcd(f: UPoly, g: UPoly, p: int) -> UPoly:
    """Monic greatest common divisor (Euclid)."""
    if not f and not g:
        raise ValueError("gcd(0, 0) is undefined")
    a, b = f, g
    while b:
        a, b = b, upoly_rem(a, b, p)
    return upoly_monic(a, p)


def upoly_deriv(f: UPoly, p: int) -> UPoly:
    return upoly((i * f[i] for i in range(1, len(f))), p)


def upoly_is_squarefree(f: UPoly, p: int) -> bool:
    """True iff gcd(f, f') is constant."""
    if not f:
        raise ValueError("squarefree test needs a nonzero polynomial")
    if len(f) <= 2:
        return True
    return upoly_deg(upoly_gcd(f, upoly_deriv(f, p), p)) == 0


def upoly_eval(f: UPoly, a: int, p: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = (acc * a + c) % p
    return acc


def upoly_pow_mod(base: UPoly, e: int, mod: UPoly, p: int) -> UPoly:
    """base**e modulo mod, by left-to-right square-and-multiply on packed
    residues.

    The modulus is made monic once.  A residue r_0 + r_1 x + ... + r_{n-1}
    x^{n-1} is held as the int sum r_k << (k*S) with S = (2*n*p^2).bit_length(),
    so a product of two residues is one bigint product whose slot k is the
    exact, unreduced x^k coefficient (each below n*p^2).  The n-1 high slots
    are reduced mod p and folded in with the precomputed packed residues of
    x^n, ..., x^(2n-2) mod m; a low slot then stays below
    n*p^2 + (n-1)*p^2 < 2^S, and since every slot is non-negative none borrows
    from or overflows into its neighbour.  The n low slots are reduced mod p
    and repacked.
    """
    m = upoly_monic(mod, p)
    n = len(m) - 1
    if n < 0:
        raise ZeroDivisionError("division by zero polynomial")
    if n == 0:
        return UPOLY_ZERO
    if e <= 0:
        return UPOLY_ONE
    shift = (2 * n * p * p).bit_length()
    mask = (1 << shift) - 1
    low_mask = (1 << (n * shift)) - 1
    offsets = range(0, n * shift, shift)
    high = range(n * shift, (2 * n - 1) * shift, shift)

    def pack(coeffs):
        return sum(c << o for c, o in zip(coeffs, offsets))

    # packed x^(n+k) mod m for k = 0..n-2
    r = [(-c) % p for c in m[:n]]
    folds = []
    for _ in range(n - 1):
        folds.append(pack(r))
        top = r[-1]
        r = [(-top * m[0]) % p] + [(r[k - 1] - top * m[k]) % p for k in range(1, n)]

    def reduce(prod):
        low = prod & low_mask
        for o, fold in zip(high, folds):
            low += (prod >> o & mask) % p * fold
        return sum([(low >> o & mask) % p << o for o in offsets])

    b = pack(upoly_rem(base, m, p))
    result = b
    for bit in bin(e)[3:]:
        result = reduce(result * result)
        if bit == "1":
            result = reduce(result * b)
    return upoly([(result >> o) & mask for o in offsets], p)


def fp_sqrt(a: int, p: int) -> int:
    """A square root of the quadratic residue a modulo the odd prime p, by
    Tonelli-Shanks; raises ValueError when a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    c = pow(_non_residue(p), q, p) if t != 1 else 1
    while t != 1:
        # the least i with t^(2^i) == 1; a residue has i < s
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
            if i == s:
                raise ValueError(f"{a} is not a square modulo {p}")
        b = pow(c, 1 << (s - i - 1), p)
        x = x * b % p
        c = b * b % p
        t = t * c % p
        s = i
    return x


@lru_cache(maxsize=None)
def _non_residue(p: int) -> int:
    """The least quadratic non-residue modulo the odd prime p."""
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    return z


def upoly_fp_roots(f: UPoly, p: int, rng_seed: int) -> set[int]:
    """All distinct roots of f in F_p.

    First gcd(f, x^p - x) isolates the product of (x - r) over the distinct
    rational roots (x^p computed by square-and-multiply mod f).  A factor of
    degree 2 is split in closed form, (-b +- sqrt(b^2 - 4c))/2 with the square
    root by Tonelli-Shanks and checked; one of higher degree by seeded random
    equal-degree splitting with (x + a)^((p-1)/2).
    """
    if not f:
        raise ValueError("zero polynomial has every point as a root")
    if upoly_deg(f) == 0:
        return set()
    fm = upoly_monic(f, p)
    xp = upoly_pow_mod((0, 1), p, fm, p)
    g = upoly_gcd(upoly_sub(xp, (0, 1), p), fm, p)
    rng = SplitMix64(rng_seed)
    roots: set[int] = set()
    stack = [g]
    while stack:
        h = stack.pop()
        d = upoly_deg(h)
        if d <= 0:
            continue
        if d == 1:
            roots.add((-h[0]) % p)
            continue
        if d == 2:
            c, b = h[0], h[1]
            disc = (b * b - 4 * c) % p
            s = fp_sqrt(disc, p)
            if s * s % p != disc:  # pragma: no cover - a wrong root is a defect
                raise RuntimeError(f"square root {s} of the discriminant {disc} fails its check")
            half = (p + 1) // 2
            roots.add((s - b) * half % p)
            roots.add((-s - b) * half % p)
            continue
        for _ in range(512):
            a = rng.below(p)
            w = upoly_pow_mod((a, 1), (p - 1) // 2, h, p)
            d1 = upoly_gcd(upoly_sub(w, UPOLY_ONE, p), h, p)
            if 0 < upoly_deg(d1) < d:
                stack.append(d1)
                stack.append(upoly_divmod(h, d1, p)[0])
                break
        else:  # pragma: no cover - probability ~2^-512
            raise RuntimeError("equal-degree splitting failed to converge")
    return roots


# ---------------------------------------------------------------------------
# dense linear algebra over F_p
# ---------------------------------------------------------------------------

def matrix_rank(M, p: int) -> int:
    """Rank over F_p by Gaussian elimination (exact modular arithmetic)."""
    A = [[v % p for v in row] for row in M]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if A[i][c]), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        inv = fp_inv(A[r][c], p)
        arow = A[r]
        for i in range(r + 1, rows):
            t = A[i][c]
            if t:
                t = t * inv % p
                irow = A[i]
                for j in range(c, cols):
                    irow[j] = (irow[j] - t * arow[j]) % p
        r += 1
        if r == rows:
            break
    return r


def independent_pair(u, v, p: int) -> bool:
    """True iff the vectors u and v are linearly independent over F_p (the
    matrix of rows u, v has rank 2).  With u_i the first nonzero coordinate
    of u, v is a multiple of u iff every minor u_i v_j - u_j v_i vanishes."""
    for ui, vi in zip(u, v):
        if ui % p:
            return any((ui * vj - uj * vi) % p for uj, vj in zip(u, v))
    return False


def charpoly(M, p: int) -> UPoly:
    """Monic characteristic polynomial det(tI - M) over F_p.

    Uses a similarity reduction to upper Hessenberg form followed by the
    standard leading-minor recurrence; only field divisions by nonzero
    pivots occur, so the method works for every prime p.
    """
    n = len(M)
    for row in M:
        if len(row) != n:
            raise NonSquare("characteristic polynomial needs a square matrix")
    H = [[v % p for v in row] for row in M]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if H[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            H[j + 1], H[piv] = H[piv], H[j + 1]
            for row in H:
                row[j + 1], row[piv] = row[piv], row[j + 1]
        inv = fp_inv(H[j + 1][j], p)
        for i in range(j + 2, n):
            if H[i][j]:
                u = H[i][j] * inv % p
                hi, hj1 = H[i], H[j + 1]
                for c in range(j, n):
                    hi[c] = (hi[c] - u * hj1[c]) % p
                for r in range(n):
                    H[r][j + 1] = (H[r][j + 1] + u * H[r][i]) % p
    polys: list[UPoly] = [UPOLY_ONE]
    for m in range(1, n + 1):
        pm = upoly_mul(polys[m - 1], ((-H[m - 1][m - 1]) % p, 1), p)
        prod = 1
        for k in range(m - 2, -1, -1):
            prod = prod * H[k + 1][k] % p
            if prod == 0:
                break
            c = H[k][m - 1] * prod % p
            if c:
                pm = upoly_sub(pm, upoly_scale(polys[k], c, p), p)
        polys.append(pm)
    return polys[n]


# ---------------------------------------------------------------------------
# seeded random matrices / vectors
# ---------------------------------------------------------------------------

def random_matrix(n: int, p: int, rng: SplitMix64):
    return [[rng.below(p) for _ in range(n)] for _ in range(n)]


def random_invertible(n: int, p: int, rng: SplitMix64):
    while True:
        M = random_matrix(n, p, rng)
        if matrix_rank(M, p) == n:
            return M


def random_nonzero_vector(n: int, p: int, rng: SplitMix64) -> tuple[int, ...]:
    while True:
        v = tuple(rng.below(p) for _ in range(n))
        if any(v):
            return v
