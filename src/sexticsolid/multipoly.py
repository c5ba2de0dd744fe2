"""Sparse multivariate polynomials over F_p in grevlex order.

A polynomial is a dict ``packed`` from packed monomials to coefficients in
[1, p), in no particular order.  A monomial is packed into one int
(Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007; see ``_Packing``): a degree and
partial-sum header above one guard-bit field per exponent, so a monomial
product is ``+``, grevlex comparison is ``<`` and divisibility is one mask
test.  The Groebner engine works on the same ints.  Equal polynomials have
equal dicts, so ``==`` is dict equality and the hash ignores insertion
order; the lead monomial is the largest key, found once and kept.
Instances are immutable by convention: no method mutates ``packed`` and
callers must not either.

Nothing sorts terms except where an order leaves the object: the ``terms``
view (exponent tuples in decreasing grevlex order, built on first access
and kept, for tests, oracles and the instance's Gram coefficient vectors),
``format_poly`` through it, and ``monomials_of_degree``.

Every field is ``_FIELD_BITS`` wide with its top bit a guard, so no
monomial of any ``MultiPoly`` may exceed degree ``MAX_PACKED_DEGREE``
(32,767): a product and ``mp_det`` check the sum of their factors' lead
degrees, and every exponent tuple that is packed (by the constructor,
``from_terms`` and ``parse_poly``) is checked for its degree, its arity
and its signs; too high a degree raises ``DegreeOverflow``.  ``specialize``
and ``embed`` re-pack valid monomials by a dot product with the target
ring's units, unchecked: dropping or renaming a variable cannot overflow.

On first use a polynomial unpacks its terms once into a list of
(coefficient, power-table indices).  ``eval`` fills the table with powers
of the point's coordinates mod p; ``restrict_to_line`` fills it with packed
ints a_k + (b_k << S), so that one pass yields every t^i coefficient of the
restriction in slot i of a single int, S bits wide with S =
(nterms * p * (2p)^deg).bit_length() (see ``restrict_to_line`` for the
bound).

``mp_det`` expands cofactors on the packed dicts directly: each memoised
column subset's expansion accumulates unreduced in one dict and is reduced
mod p once.  ``LinearChange`` moves polynomials of bounded degree through
one table of moved monomials, which all ten Gram entries of an instance
share.
"""
from __future__ import annotations

import re
from functools import lru_cache
from itertools import accumulate, repeat
from operator import mul

from .errors import ArityMismatch, DegreeOverflow, IndexOutOfRange, SingularChange
from .exactalg import matrix_rank, upoly

_FIELD_BITS = 16                          # per packed field, guard bit included
_FIELD_MASK = (1 << _FIELD_BITS) - 1
MAX_PACKED_DEGREE = (1 << (_FIELD_BITS - 1)) - 1


def grevlex_key(e):
    """Graded reverse lexicographic key on exponent tuples, the one monomial
    order of the toolkit (packed monomials compare the same way): an
    *ascending* sort lists monomials from largest to smallest."""
    return (-sum(e), e[::-1])


def _check_degree(d: int):
    if d > MAX_PACKED_DEGREE:
        raise DegreeOverflow(f"monomial of degree {d} exceeds the packed limit "
                             f"of {MAX_PACKED_DEGREE}")


class _Packing:
    """Packed grevlex monomials in ``nvars`` variables.

    Fields of ``_FIELD_BITS`` bits, most significant first: the degree d,
    the partial sums d - x_{n-1}, d - x_{n-1} - x_{n-2}, ..., d - x_{n-1} -
    ... - x_2, then the exponents x_0, x_1, ..., x_{n-1}.  Every field is a
    nonnegative linear form in the exponents, so packing is additive, and
    comparing the ints compares degree, then the reversed exponents with the
    smaller last exponent winning: grevlex.  The top bit of each field is a
    guard that stays clear, so l divides m iff ``((m | guard) - l) & guard
    == guard`` (no borrow crosses a field).
    """

    __slots__ = ("units", "shifts", "guard", "deg_shift")

    def __init__(self, nvars: int):
        w = _FIELD_BITS
        # variable sets of the fields, least significant first
        fields = [(i,) for i in reversed(range(nvars))]
        fields += [tuple(range(nvars - k)) for k in reversed(range(nvars - 1))]
        self.units = tuple(sum(1 << (w * f) for f, vs in enumerate(fields) if i in vs)
                           for i in range(nvars))
        self.shifts = tuple(w * (nvars - 1 - i) for i in range(nvars))
        self.guard = sum(1 << (w * f + w - 1) for f in range(len(fields)))
        self.deg_shift = w * max(len(fields) - 1, 0)

    def pack(self, e) -> int:
        """The packed form of an exponent tuple, which must have one
        nonnegative entry per variable and degree at most
        ``MAX_PACKED_DEGREE``."""
        if len(e) != len(self.units):
            raise ArityMismatch(f"exponent {tuple(e)} has arity != {len(self.units)}")
        if min(e, default=0) < 0:
            raise ValueError(f"negative exponent in {tuple(e)}")
        _check_degree(sum(e))
        m = 0
        for a, u in zip(e, self.units):
            m += a * u
        return m

    def unpack(self, m: int) -> tuple:
        return tuple((m >> s) & _FIELD_MASK for s in self.shifts)


@lru_cache(maxsize=None)
def _packing(nvars: int) -> _Packing:
    return _Packing(nvars)


def _reduced(p: int, raw: dict) -> dict:
    """raw with every coefficient taken mod p and the zeros dropped."""
    out = {}
    for m, c in raw.items():
        c %= p
        if c:
            out[m] = c
    return out


class MultiPoly:
    __slots__ = ("nvars", "p", "packed", "_lead", "_terms", "_compiled")

    def __init__(self, nvars: int, p: int, terms: dict):
        """From a dict of exponent tuples to integer coefficients, reduced
        mod p here."""
        pack = _packing(nvars).pack
        self.nvars = nvars
        self.p = p
        self.packed = _reduced(p, {pack(e): c for e, c in terms.items()})
        self._lead = None
        self._terms = None
        self._compiled = None

    @classmethod
    def _make(cls, nvars, p, packed, lead=None):
        # internal fast path: ``packed`` already reduced, zeros dropped, and
        # ``lead`` its largest key when the caller knows it
        self = object.__new__(cls)
        self.nvars = nvars
        self.p = p
        self.packed = packed
        self._lead = lead
        self._terms = None
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
        return cls._make(nvars, p, {0: value}, 0)

    @classmethod
    def variable(cls, i, nvars, p):
        if not 0 <= i < nvars:
            raise IndexOutOfRange(f"variable {i} of {nvars}")
        m = _packing(nvars).units[i]
        return cls._make(nvars, p, {m: 1}, m)

    @classmethod
    def from_terms(cls, nvars, p, pairs):
        pack = _packing(nvars).pack
        raw: dict = {}
        for e, c in pairs:
            m = pack(e)
            raw[m] = raw.get(m, 0) + c
        return cls._make(nvars, p, _reduced(p, raw))

    # -- basic queries -------------------------------------------------------

    @property
    def terms(self) -> dict:
        """Exponent tuple -> coefficient, in decreasing grevlex order: a view
        built on first access and kept, never read on a hot path."""
        if self._terms is None:
            unpack = _packing(self.nvars).unpack
            self._terms = {unpack(m): self.packed[m]
                           for m in sorted(self.packed, reverse=True)}
        return self._terms

    def is_zero(self) -> bool:
        return not self.packed

    def lead_key(self):
        """The packed lead monomial (the largest key), or None for zero."""
        if self._lead is None and self.packed:
            self._lead = max(self.packed)
        return self._lead

    def lead_exp(self):
        lead = self.lead_key()
        return None if lead is None else _packing(self.nvars).unpack(lead)

    def total_degree(self) -> int:
        """Maximum term degree, read off the lead's header; -1 for zero."""
        lead = self.lead_key()
        return -1 if lead is None else lead >> _packing(self.nvars).deg_shift

    def homogeneous_degree(self):
        """Common total degree of all terms, or None; zero polynomial -> 0."""
        shift = _packing(self.nvars).deg_shift
        degs = {m >> shift for m in self.packed}
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
        p = self.p
        out = dict(self.packed)
        get = out.get
        for m, c in other.packed.items():
            c = (get(m, 0) + c) % p
            if c:
                out[m] = c
            else:
                del out[m]
        return MultiPoly._make(self.nvars, p, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        p = self.p
        return MultiPoly._make(self.nvars, p, {m: p - c for m, c in self.packed.items()},
                               self._lead)

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
        if not self.packed or not other.packed:
            return MultiPoly.zero(self.nvars, self.p)
        _check_degree(self.total_degree() + other.total_degree())
        raw: dict = {}
        get = raw.get
        b = other.packed.items()
        for m1, c1 in self.packed.items():
            for m2, c2 in b:
                m = m1 + m2
                raw[m] = get(m, 0) + c1 * c2
        # over a field the lead of a product is the product of the leads
        return MultiPoly._make(self.nvars, self.p, _reduced(self.p, raw),
                               self.lead_key() + other.lead_key())

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
        return MultiPoly._make(self.nvars, p, {m: c * a % p for m, c in self.packed.items()},
                               self._lead)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly)
                and self.nvars == other.nvars and self.p == other.p
                and self.packed == other.packed)

    def __hash__(self):
        return hash((self.nvars, self.p, frozenset(self.packed.items())))

    def __repr__(self):
        names = [f"x{i}" for i in range(self.nvars)]
        return f"MultiPoly({format_poly(self, names)!r} mod {self.p})"

    # -- calculus and substitution --------------------------------------------

    def partial(self, i: int):
        """Formal partial derivative with respect to variable i."""
        if not 0 <= i < self.nvars:
            raise IndexOutOfRange(f"variable {i} of {self.nvars}")
        packing = _packing(self.nvars)
        s, unit = packing.shifts[i], packing.units[i]
        p = self.p
        out = {}
        for m, c in self.packed.items():
            ei = (m >> s) & _FIELD_MASK
            if ei:
                c = c * ei % p
                if c:
                    out[m - unit] = c
        return MultiPoly._make(self.nvars, p, out)

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
        first use and kept: the monomials are unpacked once, and each term is
        its coefficient and the indices of its variable powers in one flat
        table holding 1, x_k, ..., x_k^max_k for each variable in turn (eval
        and restrict_to_line fill it)."""
        if self._compiled is None:
            unpack = _packing(self.nvars).unpack
            exps = [unpack(m) for m in self.packed]
            maxes = [max(col) for col in zip(*exps)] or [0] * self.nvars
            starts = list(accumulate((m + 1 for m in maxes), initial=0))
            terms = [(c, tuple(o + ei for o, ei in zip(starts, e) if ei))
                     for e, c in zip(exps, self.packed.values())]
            self._compiled = (terms, maxes, self.total_degree())
        return self._compiled

    def specialize(self, i: int, value: int):
        """Substitute variable i := value, dropping it; re-packs like ``embed``."""
        if not 0 <= i < self.nvars:
            raise IndexOutOfRange(f"variable {i} of {self.nvars}")
        p, unpack = self.p, _packing(self.nvars).unpack
        units = _packing(self.nvars - 1).units
        targets = units[:i] + (0,) + units[i:]
        powers = list(accumulate(repeat(value, max(self.total_degree(), 0)),
                                 lambda x, v: x * v % p, initial=1))
        raw: dict = {}
        for m, c in self.packed.items():
            e = unpack(m)
            k = sum(map(mul, e, targets))
            raw[k] = raw.get(k, 0) + c * powers[e[i]]
        return MultiPoly._make(self.nvars - 1, p, _reduced(p, raw))

    def embed(self, new_nvars: int, positions):
        """Map variable k of self to variable positions[k] of a larger ring."""
        if (len(positions) != self.nvars or len(set(positions)) != self.nvars
                or any(not 0 <= q < new_nvars for q in positions)):
            raise ArityMismatch("bad embedding positions")
        unpack = _packing(self.nvars).unpack
        units = _packing(new_nvars).units
        targets = [units[q] for q in positions]
        return MultiPoly._make(new_nvars, self.p,
                               {sum(map(mul, unpack(m), targets)): c
                                for m, c in self.packed.items()})


class LinearChange:
    """The change of coordinates y -> T y for an invertible n x n matrix T
    over F_p, on polynomials of degree at most ``degree``.  ``images`` maps
    every packed monomial of that degree or less to its image, built once
    as the image of a monomial of one degree less times one row of T.
    Calling the change on f sums the images of f's terms, reduced once."""

    __slots__ = ("degree", "matrix", "images")

    def __init__(self, T, p: int, degree: int):
        n = len(T)
        if any(len(row) != n for row in T) or matrix_rank(T, p) != n:
            raise SingularChange("coordinate change is not an invertible square matrix")
        self.degree, self.matrix = degree, T
        pack, units = _packing(n).pack, _packing(n).units
        forms = [MultiPoly._make(n, p, _reduced(p, dict(zip(units, row)))) for row in T]
        self.images = images = {0: MultiPoly.constant(1, n, p)}
        for e in (e for k in range(1, degree + 1) for e in monomials_of_degree(n, k)):
            i = next(j for j, a in enumerate(e) if a)     # x^e = x^(e - u_i) x_i
            images[pack(e)] = images[pack(e) - units[i]] * forms[i]

    def __call__(self, f: MultiPoly) -> MultiPoly:
        self.images[0]._check_ctx(f)
        if f.total_degree() > self.degree:
            raise DegreeOverflow(f"degree {f.total_degree()} exceeds the change's {self.degree}")
        raw: dict = {}
        get = raw.get
        for m, c in f.packed.items():
            for k, ck in self.images[m].packed.items():
                raw[k] = get(k, 0) + c * ck
        return MultiPoly._make(f.nvars, f.p, _reduced(f.p, raw))


# ---------------------------------------------------------------------------
# determinants of polynomial matrices
# ---------------------------------------------------------------------------

def mp_det(rows) -> MultiPoly:
    """Determinant of a square matrix of polynomials.

    Cofactor expansion memoized on the surviving column subset: exact, and
    cheap at the 4x4 sizes that occur here.  Each subset's expansion
    accumulates its products unreduced in one packed dict, reduced mod p
    once; the degree bound is checked once, from the largest entry degree
    of every row.
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
    _check_degree(sum(max(entry.total_degree() for entry in r) for r in grid))
    p = first.p
    packed = [[entry.packed for entry in r] for r in grid]
    memo: dict = {(): {0: 1}}

    def det(cols: tuple) -> dict:
        hit = memo.get(cols)
        if hit is not None:
            return hit
        row = packed[n - len(cols)]
        acc: dict = {}
        get = acc.get
        for idx, ci in enumerate(cols):
            entry = row[ci]
            if not entry:
                continue
            sub = det(cols[:idx] + cols[idx + 1:]).items()
            for m1, c1 in entry.items():
                if idx % 2:
                    c1 = p - c1
                for m2, c2 in sub:
                    m = m1 + m2
                    acc[m] = get(m, 0) + c1 * c2
        acc = memo[cols] = _reduced(p, acc)
        return acc

    return MultiPoly._make(first.nvars, p, det(tuple(range(n))))


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
    """Terms in decreasing grevlex order (through the ``terms`` view)."""
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


_FACTOR = r"(?:\d+|[A-Za-z_]\w*(?:\s*\^\s*\d+)?)"
_TERM = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*"
#: What parse_poly reads: nonempty terms joined by + or -, the first term or
#: one after a + optionally negated; spaces between tokens, never inside one.
_POLY_SYNTAX = re.compile(rf"\s*(?:-\s*)?{_TERM}(?:\s*(?:\+\s*(?:-\s*)?|-\s*){_TERM})*\s*",
                          re.ASCII)


def parse_poly(text: str, nvars: int, p: int, names) -> MultiPoly:
    """Parse the serialization produced by format_poly (signs +/- accepted)."""
    if len(names) != nvars:
        raise ArityMismatch("one name per variable required")
    if not _POLY_SYNTAX.fullmatch(text):
        raise ValueError(f"malformed polynomial {text!r}")
    index = {nm: i for i, nm in enumerate(names)}
    pairs = []
    for chunk in "".join(text.split()).replace("-", "+-").split("+"):
        if not chunk:
            continue  # before a leading -, or between + and -
        coeff = -1 if chunk[0] == "-" else 1
        exps = [0] * nvars
        for factor in chunk.lstrip("-").split("*"):
            if factor[0].isdigit():
                coeff *= int(factor)
                continue
            name, _, e = factor.partition("^")
            if name not in index:
                raise ValueError(f"unknown variable {name!r}")
            exps[index[name]] += int(e or 1)
        pairs.append((exps, coeff))
    return MultiPoly.from_terms(nvars, p, pairs)


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
