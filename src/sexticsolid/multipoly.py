"""Sparse multivariate polynomials over F_p with monomial orders.

A polynomial is a mapping from exponent tuples to nonzero coefficients in
[0, p), stored in strictly decreasing monomial order so that equal
polynomials are bit-identical.  Instances are immutable by convention: no
method mutates ``terms`` and callers must not either.

On first use a polynomial compiles its terms into a list of (coefficient,
power-table indices).  ``eval`` fills the table with powers of the point's
coordinates mod p; ``restrict_to_line`` fills it with packed ints
a_k + (b_k << S), so that one pass yields every t^i coefficient of the
restriction in slot i of a single int, S bits wide with S =
(nterms * p * (2p)^deg).bit_length() (see ``restrict_to_line`` for the
bound).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .errors import ArityMismatch, IndexOutOfRange, SingularChange
from .exactalg import fp_inv, matrix_rank, upoly


@dataclass(frozen=True)
class MonomialOrder:
    """Graded reverse lexicographic order, the one order of the toolkit (the
    Groebner reducer packs monomials for it)."""

    def key_func(self):
        """Key whose *ascending* sort lists monomials from largest to
        smallest."""
        def key(e):
            return (-sum(e), e[::-1])
        return key


GREVLEX = MonomialOrder()


def _canonical(nvars: int, p: int, order: MonomialOrder, raw: dict) -> dict:
    key = order.key_func()
    items = sorted(((e, c % p) for e, c in raw.items() if c % p), key=lambda t: key(t[0]))
    return dict(items)


class MultiPoly:
    __slots__ = ("nvars", "p", "order", "terms", "_compiled")

    def __init__(self, nvars: int, p: int, order: MonomialOrder, terms: dict):
        self.nvars = nvars
        self.p = p
        self.order = order
        self.terms = _canonical(nvars, p, order, terms)
        self._compiled = None

    @classmethod
    def _make(cls, nvars, p, order, canonical_terms):
        # internal fast path: terms already canonical
        self = object.__new__(cls)
        self.nvars = nvars
        self.p = p
        self.order = order
        self.terms = canonical_terms
        self._compiled = None
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars, p, order=GREVLEX):
        return cls._make(nvars, p, order, {})

    @classmethod
    def constant(cls, value, nvars, p, order=GREVLEX):
        value %= p
        if value == 0:
            return cls.zero(nvars, p, order)
        return cls._make(nvars, p, order, {(0,) * nvars: value})

    @classmethod
    def variable(cls, i, nvars, p, order=GREVLEX):
        if not 0 <= i < nvars:
            raise IndexOutOfRange(f"variable {i} of {nvars}")
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls._make(nvars, p, order, {e: 1})

    @classmethod
    def from_terms(cls, nvars, p, order, pairs):
        raw: dict = {}
        for e, c in pairs:
            e = tuple(e)
            if len(e) != nvars:
                raise ArityMismatch(f"exponent {e} has arity != {nvars}")
            raw[e] = raw.get(e, 0) + c
        return cls(nvars, p, order, raw)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def lead_exp(self):
        return next(iter(self.terms)) if self.terms else None

    def lead_coeff(self) -> int:
        return next(iter(self.terms.values())) if self.terms else 0

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def homogeneous_degree(self):
        """Common total degree of all terms, or None; zero polynomial -> 0."""
        degs = {sum(e) for e in self.terms}
        if not degs:
            return 0
        if len(degs) == 1:
            return degs.pop()
        return None

    def _check_ctx(self, other: "MultiPoly"):
        if (self.nvars, self.p, self.order) != (other.nvars, other.p, other.order):
            raise ArityMismatch("operands live in different polynomial rings")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(other, self.nvars, self.p, self.order)
        self._check_ctx(other)
        raw = dict(self.terms)
        for e, c in other.terms.items():
            raw[e] = raw.get(e, 0) + c
        return MultiPoly(self.nvars, self.p, self.order, raw)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return MultiPoly._make(self.nvars, self.p, self.order,
                               {e: self.p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(other, self.nvars, self.p, self.order)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        self._check_ctx(other)
        raw: dict = {}
        get = raw.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                raw[e] = get(e, 0) + c1 * c2
        return MultiPoly(self.nvars, self.p, self.order, raw)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(1, self.nvars, self.p, self.order)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def scale(self, a: int):
        a %= self.p
        if a == 0:
            return MultiPoly.zero(self.nvars, self.p, self.order)
        p = self.p
        return MultiPoly._make(self.nvars, p, self.order,
                               {e: c * a % p for e, c in self.terms.items()})

    def monic(self):
        lc = self.lead_coeff()
        if lc in (0, 1):
            return self
        return self.scale(fp_inv(lc, self.p))

    def __eq__(self, other):
        return (isinstance(other, MultiPoly)
                and self.nvars == other.nvars and self.p == other.p
                and self.order == other.order and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.p, self.order, tuple(self.terms.items())))

    def __repr__(self):
        names = [f"x{i}" for i in range(self.nvars)]
        return f"MultiPoly({format_poly(self, names)!r} mod {self.p})"

    # -- calculus and substitution --------------------------------------------

    def partial(self, i: int):
        """Formal partial derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise IndexOutOfRange(f"variable {i} of {self.nvars}")
        p = self.p
        raw = {}
        for e, c in self.terms.items():
            if e[i]:
                coeff = c * e[i] % p
                if coeff:
                    raw[tuple(v - 1 if j == i else v for j, v in enumerate(e))] = coeff
        return MultiPoly._make(self.nvars, p, self.order,
                               _canonical(self.nvars, p, self.order, raw))

    def eval(self, point) -> int:
        """The value at a point, coordinates taken mod p.  The term list, with
        exponents as indices into one table of variable powers, is built on
        first use and kept; term products are summed unreduced."""
        if len(point) != self.nvars:
            raise ArityMismatch(f"point of length {len(point)} for {self.nvars} variables")
        terms, maxes, _ = self._compiled_form()
        p = self.p
        table = []
        for v, m in zip(point, maxes):
            v %= p
            x = 1
            table.append(1)
            for _ in range(m):
                x = x * v % p
                table.append(x)
        total = 0
        for c, idx in terms:
            for k in idx:
                c *= table[k]
            total += c
        return total % p

    def _compiled_form(self):
        """(term list, per-variable maximum degrees, total degree), built on
        first use and kept: each term is its coefficient and the indices of
        its variable powers in one flat table holding 1, x_k, ..., x_k^max_k
        for each variable in turn (eval and restrict_to_line fill it)."""
        if self._compiled is None:
            maxes = [max(col) for col in zip(*self.terms)] or [0] * self.nvars
            starts = list(accumulate((m + 1 for m in maxes), initial=0))
            terms = [(c, tuple(o + ei for o, ei in zip(starts, e) if ei))
                     for e, c in self.terms.items()]
            self._compiled = (terms, maxes, self.total_degree())
        return self._compiled

    def linear_change(self, T):
        """Substitute variables -> T @ variables for an invertible matrix T."""
        n = self.nvars
        p = self.p
        if len(T) != n or any(len(row) != n for row in T):
            raise ArityMismatch("change-of-coordinates matrix has wrong shape")
        if matrix_rank(T, p) != n:
            raise SingularChange("coordinate change is not invertible")
        lin = [{(tuple(1 if j == k else 0 for k in range(n))): T[i][j] % p
                for j in range(n) if T[i][j] % p}
               for i in range(n)]
        pow_cache: dict = {}

        def lin_pow(i, k):
            if (i, k) in pow_cache:
                return pow_cache[(i, k)]
            if k == 0:
                r = {(0,) * n: 1}
            else:
                prev = lin_pow(i, k - 1)
                r = {}
                for e1, c1 in prev.items():
                    for e2, c2 in lin[i].items():
                        e = tuple(a + b for a, b in zip(e1, e2))
                        r[e] = (r.get(e, 0) + c1 * c2) % p
                r = {e: c for e, c in r.items() if c}
            pow_cache[(i, k)] = r
            return r

        acc: dict = {}
        for e, c in self.terms.items():
            prod = {(0,) * n: c}
            for i, ei in enumerate(e):
                if ei:
                    nxt = {}
                    factor = lin_pow(i, ei)
                    for e1, c1 in prod.items():
                        for e2, c2 in factor.items():
                            ee = tuple(a + b for a, b in zip(e1, e2))
                            nxt[ee] = (nxt.get(ee, 0) + c1 * c2) % p
                    prod = nxt
            for ee, cc in prod.items():
                acc[ee] = (acc.get(ee, 0) + cc) % p
        return MultiPoly(n, p, self.order, acc)

    def specialize(self, i: int, value: int):
        """Substitute variable i := value, dropping it from the ring."""
        if not 0 <= i < self.nvars:
            raise IndexOutOfRange(f"variable {i} of {self.nvars}")
        p = self.p
        value %= p
        raw: dict = {}
        for e, c in self.terms.items():
            coeff = c * pow(value, e[i], p) % p if e[i] else c
            if coeff:
                ne = e[:i] + e[i + 1:]
                raw[ne] = (raw.get(ne, 0) + coeff) % p
        return MultiPoly(self.nvars - 1, p, self.order, raw)

    def embed(self, new_nvars: int, positions):
        """Map variable k of self to variable positions[k] of a larger ring."""
        if len(positions) != self.nvars or any(not 0 <= q < new_nvars for q in positions):
            raise ArityMismatch("bad embedding positions")
        raw = {}
        for e, c in self.terms.items():
            ne = [0] * new_nvars
            for k, ek in enumerate(e):
                ne[positions[k]] = ek
            raw[tuple(ne)] = c
        return MultiPoly(new_nvars, self.p, self.order, raw)


# ---------------------------------------------------------------------------
# determinants of polynomial matrices
# ---------------------------------------------------------------------------

def mp_det(rows) -> MultiPoly:
    """Determinant of a square matrix of polynomials.

    Cofactor expansion memoized on the surviving column subset: exact, and
    cheap at the 4x4 sizes that occur here.
    """
    n = len(rows)
    if n == 0:
        raise ArityMismatch("empty matrix")
    grid = [list(r) for r in rows]
    if any(len(r) != n for r in grid):
        raise ArityMismatch("determinant needs a square matrix")
    first = grid[0][0]
    for r in grid:
        for entry in r:
            first._check_ctx(entry)
    one = MultiPoly.constant(1, first.nvars, first.p, first.order)
    zero = MultiPoly.zero(first.nvars, first.p, first.order)
    memo: dict = {}

    def det(cols: tuple) -> MultiPoly:
        if not cols:
            return one
        if cols in memo:
            return memo[cols]
        r = n - len(cols)
        acc = zero
        for idx, ci in enumerate(cols):
            entry = grid[r][ci]
            if entry.is_zero():
                continue
            sub = det(cols[:idx] + cols[idx + 1:])
            term = entry * sub
            acc = acc + term if idx % 2 == 0 else acc - term
        memo[cols] = acc
        return acc

    return det(tuple(range(n)))


def restrict_to_line(f: MultiPoly, base, direction) -> tuple:
    """The univariate polynomial t -> f(base + t * direction), by Kronecker
    substitution in one pass over f's compiled term list.

    Coordinate k becomes the int a_k + (b_k << S), with a_k and b_k the base
    and direction coordinates reduced into [0, p), so every power and term
    product is a packed polynomial in t whose slot i (bits i*S up to
    (i+1)*S) is its exact, unreduced t^i coefficient.  For f of total degree
    d with N terms, a term's slots sum to at most (p - 1) * (2p - 2)^d, so
    every slot of the sum stays below N * p * (2p)^d; with
    S = (N * p * (2p)^d).bit_length() and all slots non-negative, no slot
    borrows from or overflows into the next.  The d + 1 slots are then
    reduced mod p.
    """
    if len(base) != f.nvars or len(direction) != f.nvars:
        raise ArityMismatch(f"line in {len(base)} and {len(direction)} coordinates "
                            f"for {f.nvars} variables")
    if f.is_zero():
        return ()
    terms, maxes, d = f._compiled_form()
    p = f.p
    shift = (len(terms) * p * (2 * p) ** d).bit_length()
    table = []
    for a, b, m in zip(base, direction, maxes):
        x = a % p + (b % p << shift)
        power = 1
        table.append(1)
        for _ in range(m):
            power *= x
            table.append(power)
    total = 0
    for c, idx in terms:
        for k in idx:
            c *= table[k]
        total += c
    mask = (1 << shift) - 1
    return upoly([(total >> (i * shift)) & mask for i in range(d + 1)], p)


# ---------------------------------------------------------------------------
# text serialization: "3*Y0^2*Y3 + 31*Y1*Y2*Y3"
# ---------------------------------------------------------------------------

def format_poly(f: MultiPoly, names) -> str:
    if len(names) != f.nvars:
        raise ArityMismatch("one name per variable required")
    if f.is_zero():
        return "0"
    parts = []
    for e, c in f.terms.items():
        factors = [names[i] if ei == 1 else f"{names[i]}^{ei}"
                   for i, ei in enumerate(e) if ei]
        if not factors:
            parts.append(str(c))
        elif c == 1:
            parts.append("*".join(factors))
        else:
            parts.append(str(c) + "*" + "*".join(factors))
    return " + ".join(parts)


def parse_poly(text: str, nvars: int, p: int, names, order: MonomialOrder = GREVLEX) -> MultiPoly:
    """Parse the serialization produced by format_poly (signs +/- accepted)."""
    if len(names) != nvars:
        raise ArityMismatch("one name per variable required")
    index = {nm: i for i, nm in enumerate(names)}
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty polynomial text")
    s = s.replace("-", "+-")
    raw: dict = {}
    for chunk in s.split("+"):
        if not chunk:
            continue
        sign = 1
        if chunk.startswith("-"):
            sign = -1
            chunk = chunk[1:]
            if not chunk:
                raise ValueError("dangling sign")
        coeff = sign
        exps = [0] * nvars
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {chunk!r}")
            if factor[0].isdigit():
                coeff *= int(factor)
                continue
            if "^" in factor:
                name, _, e = factor.partition("^")
                k = int(e)
            else:
                name, k = factor, 1
            if name not in index:
                raise ValueError(f"unknown variable {name!r}")
            if k < 0:
                raise ValueError("negative exponent")
            exps[index[name]] += k
        e = tuple(exps)
        raw[e] = raw.get(e, 0) + coeff
    return MultiPoly(nvars, p, order, raw)


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, degree: int) -> tuple:
    """All exponent tuples of the given total degree, in decreasing grevlex
    order (the documented coefficient order for seeded instances)."""
    def gen(rem, k):
        if k == 1:
            yield (rem,)
            return
        for first in range(rem, -1, -1):
            for rest in gen(rem - first, k - 1):
                yield (first,) + rest
    key = GREVLEX.key_func()
    return tuple(sorted(gen(degree, nvars), key=key))
