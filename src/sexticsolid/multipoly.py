"""Sparse multivariate polynomials over F_p in grevlex order.

A polynomial is a mapping from exponent tuples to nonzero coefficients in
[0, p), stored in strictly decreasing graded reverse lexicographic order
(``grevlex_key``) so that equal polynomials are bit-identical.  Instances
are immutable by convention: no method mutates ``terms`` and callers must
not either.

On first use a polynomial compiles its terms into a list of (coefficient,
power-table indices).  ``eval`` fills the table with powers of the point's
coordinates mod p; ``restrict_to_line`` fills it with packed ints
a_k + (b_k << S), so that one pass yields every t^i coefficient of the
restriction in slot i of a single int, S bits wide with S =
(nterms * p * (2p)^deg).bit_length() (see ``restrict_to_line`` for the
bound).

``linear_change`` multiplies on exponents packed into one int, one field of
max(deg, 1).bit_length() bits per variable, so a monomial product is ``+``
and no exponent of the expansion can overflow its field; the power tables
of the rows of T are built once per variable and the result is unpacked
once.
"""
from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

from .errors import ArityMismatch, IndexOutOfRange, SingularChange
from .exactalg import fp_inv, matrix_rank, upoly


def grevlex_key(e):
    """Graded reverse lexicographic key, the one monomial order of the toolkit
    (the Groebner reducer packs monomials for it): an *ascending* sort lists
    monomials from largest to smallest."""
    return (-sum(e), e[::-1])


def _canonical(p: int, raw: dict) -> dict:
    items = sorted(((e, c % p) for e, c in raw.items() if c % p), key=lambda t: grevlex_key(t[0]))
    return dict(items)


class MultiPoly:
    __slots__ = ("nvars", "p", "terms", "_compiled")

    def __init__(self, nvars: int, p: int, terms: dict):
        self.nvars = nvars
        self.p = p
        self.terms = _canonical(p, terms)
        self._compiled = None

    @classmethod
    def _make(cls, nvars, p, canonical_terms):
        # internal fast path: terms already canonical
        self = object.__new__(cls)
        self.nvars = nvars
        self.p = p
        self.terms = canonical_terms
        self._compiled = None
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars, p):
        return cls._make(nvars, p, {})

    @classmethod
    def constant(cls, value, nvars, p):
        value %= p
        if value == 0:
            return cls.zero(nvars, p)
        return cls._make(nvars, p, {(0,) * nvars: value})

    @classmethod
    def variable(cls, i, nvars, p):
        if not 0 <= i < nvars:
            raise IndexOutOfRange(f"variable {i} of {nvars}")
        e = tuple(1 if j == i else 0 for j in range(nvars))
        return cls._make(nvars, p, {e: 1})

    @classmethod
    def from_terms(cls, nvars, p, pairs):
        raw: dict = {}
        for e, c in pairs:
            e = tuple(e)
            if len(e) != nvars:
                raise ArityMismatch(f"exponent {e} has arity != {nvars}")
            raw[e] = raw.get(e, 0) + c
        return cls(nvars, p, raw)

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
        if (self.nvars, self.p) != (other.nvars, other.p):
            raise ArityMismatch("operands live in different polynomial rings")

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(other, self.nvars, self.p)
        self._check_ctx(other)
        raw = dict(self.terms)
        for e, c in other.terms.items():
            raw[e] = raw.get(e, 0) + c
        return MultiPoly(self.nvars, self.p, raw)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return MultiPoly._make(self.nvars, self.p, {e: self.p - c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MultiPoly.constant(other, self.nvars, self.p)
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
        return MultiPoly(self.nvars, self.p, raw)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = MultiPoly.constant(1, self.nvars, self.p)
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
            return MultiPoly.zero(self.nvars, self.p)
        p = self.p
        return MultiPoly._make(self.nvars, p, {e: c * a % p for e, c in self.terms.items()})

    def monic(self):
        lc = self.lead_coeff()
        if lc in (0, 1):
            return self
        return self.scale(fp_inv(lc, self.p))

    def __eq__(self, other):
        return (isinstance(other, MultiPoly)
                and self.nvars == other.nvars and self.p == other.p
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, self.p, tuple(self.terms.items())))

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
        return MultiPoly._make(self.nvars, p, _canonical(p, raw))

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
        """Substitute variables -> T @ variables for an invertible matrix T.

        Exponents are packed into one int, variable k in a field of
        w = max(deg, 1).bit_length() bits, so a monomial product is ``+``:
        every monomial of the expansion has degree at most deg < 2^w, so no
        field overflows.  The powers of each row of T are built once, each
        term's product is reduced mod p after every factor, and the sum is
        unpacked once at the end."""
        n = self.nvars
        p = self.p
        if len(T) != n or any(len(row) != n for row in T):
            raise ArityMismatch("change-of-coordinates matrix has wrong shape")
        if matrix_rank(T, p) != n:
            raise SingularChange("coordinate change is not invertible")
        w = max(self.total_degree(), 1).bit_length()
        shifts = [w * (n - 1 - k) for k in range(n)]
        maxes = [max(col) for col in zip(*self.terms)] or [0] * n
        powers = []
        for row, top in zip(T, maxes):
            lin = [(1 << s, t % p) for s, t in zip(shifts, row) if t % p]
            table = [{0: 1}]
            for _ in range(top):
                table.append(_packed_product(table[-1], lin, p))
            powers.append(table)
        acc: dict = {}
        get = acc.get
        for e, c in self.terms.items():
            prod = None
            for table, ei in zip(powers, e):
                if ei:
                    factor = table[ei]
                    prod = factor if prod is None else _packed_product(prod, factor.items(), p)
            if prod is None:                      # the constant term
                prod = {0: 1}
            for m, cm in prod.items():
                acc[m] = get(m, 0) + c * cm
        mask = (1 << w) - 1
        return MultiPoly(n, p, {tuple((m >> s) & mask for s in shifts): c
                                for m, c in acc.items()})

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
        return MultiPoly(self.nvars - 1, p, raw)

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
        return MultiPoly(new_nvars, self.p, raw)


def _packed_product(a: dict, b, p: int) -> dict:
    """Product of a {packed monomial: coeff} dict and (packed, coeff) items,
    coefficients reduced mod p once at the end."""
    out: dict = {}
    get = out.get
    for m1, c1 in a.items():
        for m2, c2 in b:
            m = m1 + m2
            out[m] = get(m, 0) + c1 * c2
    return {m: c % p for m, c in out.items()}


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
    one = MultiPoly.constant(1, first.nvars, first.p)
    zero = MultiPoly.zero(first.nvars, first.p)
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


def parse_poly(text: str, nvars: int, p: int, names) -> MultiPoly:
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
    return MultiPoly(nvars, p, raw)


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
    return tuple(sorted(gen(degree, nvars), key=grevlex_key))
