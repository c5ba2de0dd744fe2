"""Buchberger-based Groebner engine and zero-dimensional ideal toolkit.

The completion uses the Gebauer-Moeller pair update (product + chain
criteria), sugar pair selection (Giovini, Mora, Niesi, Robbiano & Traverso,
"One sugar cube, please", ISSAC 1991), full tail reduction through a lazy
heap, and a final inter-reduction, so the returned basis is the unique
reduced grevlex Groebner basis of the ideal.  Sugar processes pairs in
the degree order that homogenizing the input would impose, so inhomogeneous
inputs such as dehomogenized charts do not build the high-degree
intermediates that selection by smallest lcm runs into.  A reduction-step
budget turns pathological inputs into clean ``ResourceBudgetExceeded``
errors instead of runaway computations.

The order is grevlex, the one order of ``multipoly``, so no function here
takes an order.  Inside the engine every monomial is packed into one int
(Monagan & Pearce, "Polynomial division using dynamic arrays, heaps, and
packed exponent vectors", CASC 2007): a degree and partial-sum header
above one guard-bit field per exponent, so a product is ``+``, grevlex
comparison is ``<``, and divisibility is one mask test.  Exponent tuples
appear only where a ``MultiPoly`` or ``GBasis`` enters or leaves the engine;
a monomial of degree above ``MAX_PACKED_DEGREE`` raises ``DegreeOverflow``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations

from .errors import (ArityMismatch, DegreeOverflow, NotHomogeneous,
                     NotZeroDimensional, ResourceBudgetExceeded)
from .exactalg import SplitMix64, charpoly, fp_inv, upoly_is_squarefree
from .multipoly import MultiPoly, grevlex_key

DEFAULT_BUDGET = 1_000_000

#: Random linear forms reducedness_certificate tries before "not_certified".
CERTIFICATE_TRIES = 5

_STANDARD_MONOMIAL_CAP = 1_000_000

_FIELD_BITS = 16                          # per packed field, guard bit included
_FIELD_MASK = (1 << _FIELD_BITS) - 1
MAX_PACKED_DEGREE = (1 << (_FIELD_BITS - 1)) - 1


@dataclass(frozen=True)
class Ideal:
    """A presented ideal: nonzero generators in a common ring."""

    generators: tuple
    homogeneous: bool = field(default=False)

    @property
    def nvars(self):
        return self.generators[0].nvars

    @property
    def p(self):
        return self.generators[0].p


def make_ideal(generators) -> Ideal:
    gens = tuple(g for g in generators if not g.is_zero())
    if not gens:
        raise ValueError("an ideal presentation needs at least one nonzero generator")
    first = gens[0]
    for g in gens[1:]:
        first._check_ctx(g)
    homogeneous = all(g.homogeneous_degree() is not None for g in gens)
    return Ideal(gens, homogeneous)


class GBasis:
    """Reduced grevlex Groebner basis, elements monic and sorted by increasing
    lead monomial (canonical for the ideal)."""

    __slots__ = ("basis", "nvars", "p")

    #: Not a parameter: the order is always grevlex.  A class constant only
    #: because perfbench/tracing.py's basis_fingerprint reads repr(gb.order).
    order = "grevlex"

    def __init__(self, basis):
        self.basis = tuple(basis)
        self.nvars = self.basis[0].nvars
        self.p = self.basis[0].p

    def lead_exps(self):
        return tuple(g.lead_exp() for g in self.basis)

    def is_unit(self) -> bool:
        return len(self.basis) == 1 and self.basis[0].lead_exp() == (0,) * self.nvars

    def __eq__(self, other):
        return isinstance(other, GBasis) and self.basis == other.basis

    def __repr__(self):
        return f"GBasis({len(self.basis)} elements, grevlex)"


class _Budget:
    __slots__ = ("left", "limit")

    def __init__(self, limit):
        self.left = self.limit = limit

    def spend(self, n=1):
        self.left -= n
        if self.left < 0:
            raise ResourceBudgetExceeded(
                f"reduction-step budget of {self.limit} steps exhausted")


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
        self.deg_shift = w * (len(fields) - 1)

    def pack(self, e) -> int:
        _check_degree(sum(e))
        m = 0
        for a, u in zip(e, self.units):
            m += a * u
        return m

    def unpack(self, m: int) -> tuple:
        return tuple((m >> s) & _FIELD_MASK for s in self.shifts)

    def encode(self, f: MultiPoly) -> list:
        """Terms of f as (packed, coeff), largest first."""
        pack = self.pack
        return [(pack(e), c) for e, c in f.terms.items()]

    def decode(self, items, nvars, p) -> MultiPoly:
        unpack = self.unpack
        return MultiPoly._make(nvars, p, {unpack(m): c for m, c in items})


@lru_cache(maxsize=None)
def _packing(nvars: int) -> _Packing:
    return _Packing(nvars)


class _Reducer:
    """Full normal-form reduction against a (growing) list of monic reducers.

    Reducers and terms are packed monomials.  Terms are processed
    largest-first through a heap with lazy deletion; every inserted monomial
    is strictly smaller than the one being reduced, so each monomial is
    visited once, the output comes out largest first, and no product
    outgrows the packed fields of its input.
    """

    __slots__ = ("reducers", "guard", "p", "budget")

    def __init__(self, packing: _Packing, p: int, budget=None):
        self.reducers = []
        self.guard = packing.guard
        self.p = p
        self.budget = budget

    def add(self, items):
        """Register a monic reducer given as (packed, coeff) items, largest
        first."""
        self.reducers.append((items[0][0], items[1:]))

    def reduce_terms(self, pairs) -> dict:
        p = self.p
        guard = self.guard
        reducers = self.reducers
        budget = self.budget
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
            for lead, tail in reducers:
                if (eg - lead) & guard == guard:
                    break
            else:
                out[e] = c
                continue
            if budget is not None:
                budget.spend()
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


def _monic_items(items, p):
    lc = items[0][1]
    if lc == 1:
        return items
    inv = fp_inv(lc, p)
    return [(e, c * inv % p) for e, c in items]


def _basis_reducer(gb: GBasis) -> _Reducer:
    packing = _packing(gb.nvars)
    red = _Reducer(packing, gb.p)
    for g in gb.basis:
        red.add(packing.encode(g))
    return red


def _lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _update_pairs(leads, pairs, m):
    """Gebauer-Moeller pair update after appending element m = len(leads)-1."""
    lmf = leads[m]
    kept = set()
    for (i, j) in pairs:
        lij = _lcm(leads[i], leads[j])
        if (not _divides(lmf, lij)
                or _lcm(leads[i], lmf) == lij
                or _lcm(leads[j], lmf) == lij):
            kept.add((i, j))
    groups: dict = {}
    for i in range(m):
        groups.setdefault(_lcm(leads[i], lmf), []).append(i)
    minimal = []
    for L in sorted(groups, key=lambda t: (sum(t), t)):
        if all(not _divides(Lk, L) for Lk in minimal):
            minimal.append(L)
    for L in minimal:
        # Buchberger's product criterion: drop the group if some member has
        # disjoint-support lead with the new element.
        if not any(_lcm(leads[i], lmf) == tuple(a + b for a, b in zip(leads[i], lmf))
                   for i in groups[L]):
            kept.add((min(groups[L]), m))
    return kept


def buchberger(gens_or_ideal, budget=DEFAULT_BUDGET, selection_seed=None) -> GBasis:
    """Reduced Groebner basis of the given ideal.

    Pairs are processed by smallest sugar, then smallest grevlex lcm.
    An input generator's sugar is its total degree; the S-pair of elements i
    and j has sugar ``max(s_i - deg lead_i, s_j - deg lead_j) + deg lcm``,
    and an element appended from it inherits that sugar.
    ``selection_seed`` makes the pair-processing order random (a test hook:
    the reduced result is independent of it).
    """
    if isinstance(gens_or_ideal, Ideal):
        gens = list(gens_or_ideal.generators)
    else:
        gens = [g for g in gens_or_ideal if not g.is_zero()]
    if not gens:
        raise ValueError("buchberger needs at least one nonzero generator")
    first = gens[0]
    for g in gens[1:]:
        first._check_ctx(g)
    nvars, p = first.nvars, first.p
    packing = _packing(nvars)
    pack, unpack = packing.pack, packing.unpack
    deg_shift = packing.deg_shift
    one = MultiPoly.constant(1, nvars, p)
    bud = _Budget(budget) if budget is not None else None
    rng = SplitMix64(selection_seed) if selection_seed is not None else None

    reducer = _Reducer(packing, p, bud)
    leads: list = []         # lead exponent tuples, for the pair criteria
    basis_items: list = []   # packed (monomial, coeff) items, largest first
    sugars: list = []        # sugar minus lead degree, per basis element
    pairs: set = set()

    def append(items, sugar):
        basis_items.append(items)
        leads.append(unpack(items[0][0]))
        sugars.append(sugar - (items[0][0] >> deg_shift))
        reducer.add(items)

    def selection_key(ij):
        i, j = ij
        lcm = pack(_lcm(leads[i], leads[j]))
        return (max(sugars[i], sugars[j]) + (lcm >> deg_shift), -lcm, i, j)

    for g in gens:
        nf = reducer.reduce_terms(packing.encode(g))
        if not nf:
            continue
        items = _monic_items(list(nf.items()), p)
        if items[0][0] == 0:
            return GBasis((one,))
        append(items, g.total_degree())
        pairs = _update_pairs(leads, pairs, len(leads) - 1)

    while pairs:
        if rng is not None:
            ordered = sorted(pairs)
            pair = ordered[rng.below(len(ordered))]
        else:
            pair = min(pairs, key=selection_key)
        pairs.discard(pair)
        sugar, neg_lcm, i, j = selection_key(pair)
        qi = -neg_lcm - basis_items[i][0][0]
        qj = -neg_lcm - basis_items[j][0][0]
        spairs = [(e + qi, c) for e, c in basis_items[i]]
        spairs += [(e + qj, p - c) for e, c in basis_items[j]]
        nf = reducer.reduce_terms(spairs)
        if not nf:
            continue
        items = _monic_items(list(nf.items()), p)
        if items[0][0] == 0:
            return GBasis((one,))
        append(items, sugar)
        pairs = _update_pairs(leads, pairs, len(leads) - 1)

    # minimalize: keep only elements whose lead divides no other kept lead
    kept: list = []
    for k in sorted(range(len(leads)), key=lambda k: basis_items[k][0][0]):
        if not any(_divides(leads[kk], leads[k]) for kk in kept):
            kept.append(k)
    polys = [basis_items[k] for k in kept]
    # inter-reduce: fully reduce every element against the other survivors
    for t in range(len(polys)):
        other = _Reducer(packing, p, bud)
        for s, items in enumerate(polys):
            if s != t:
                other.add(items)
        polys[t] = _monic_items(list(other.reduce_terms(polys[t]).items()), p)
    polys.sort(key=lambda items: items[0][0])
    return GBasis(tuple(packing.decode(items, nvars, p) for items in polys))


def normal_form(f: MultiPoly, gb: GBasis) -> MultiPoly:
    """The unique remainder of f modulo the basis (zero iff f is in the ideal)."""
    if (f.nvars, f.p) != (gb.nvars, gb.p):
        raise ArityMismatch("polynomial and basis live in different rings")
    packing = _packing(f.nvars)
    nf = _basis_reducer(gb).reduce_terms(packing.encode(f))
    return packing.decode(nf.items(), f.nvars, f.p)


def krull_dim(gb: GBasis) -> int:
    """Krull dimension of the quotient ring, from the leading-term ideal:
    the largest set of variables supporting no lead monomial. -1 for (1)."""
    leads = gb.lead_exps()
    n = gb.nvars
    if any(sum(e) == 0 for e in leads):
        return -1
    for size in range(n, -1, -1):
        for S in combinations(range(n), size):
            inside = set(S)
            if all(any(e[i] for i in range(n) if i not in inside) for e in leads):
                return size
    raise AssertionError("unreachable: the empty set is always independent")


def standard_monomials(gb: GBasis) -> list:
    """Monomials outside the leading-term ideal, in increasing order.

    Finite exactly when the quotient is zero-dimensional (or the unit ideal,
    which yields the empty list)."""
    leads = gb.lead_exps()
    n = gb.nvars
    if any(sum(e) == 0 for e in leads):
        return []
    start = (0,) * n
    seen = {start}
    stack = [start]
    out = []
    while stack:
        m = stack.pop()
        if any(_divides(le, m) for le in leads):
            continue
        out.append(m)
        if len(out) > _STANDARD_MONOMIAL_CAP:
            raise NotZeroDimensional("staircase is not finite")
        for i in range(n):
            m2 = tuple(v + 1 if j == i else v for j, v in enumerate(m))
            if m2 not in seen:
                seen.add(m2)
                stack.append(m2)
    return sorted(out, key=grevlex_key, reverse=True)


def quotient_dim(gb: GBasis) -> int:
    """Vector-space dimension of the quotient algebra (number of standard
    monomials); the degree of a zero-dimensional scheme."""
    if krull_dim(gb) > 0:
        raise NotZeroDimensional("quotient algebra is infinite dimensional")
    return len(standard_monomials(gb))


def mult_matrix(gb: GBasis, ell: MultiPoly):
    """Matrix of multiplication by the linear form ell on the standard
    monomial basis of a zero-dimensional quotient."""
    if (ell.nvars, ell.p) != (gb.nvars, gb.p):
        raise ArityMismatch("linear form lives in a different ring")
    if ell.is_zero() or ell.total_degree() > 1:
        raise ValueError("multiplication operator wants a nonzero linear form")
    if krull_dim(gb) > 0:
        raise NotZeroDimensional("multiplication matrices need a finite staircase")
    B = standard_monomials(gb)
    if B:
        _check_degree(sum(B[-1]) + 1)   # B ascends, so B[-1] has top degree
    packing = _packing(gb.nvars)
    index = {packing.pack(m): i for i, m in enumerate(B)}
    D = len(B)
    M = [[0] * D for _ in range(D)]
    red = _basis_reducer(gb)
    ell_items = packing.encode(ell)
    for j, b in enumerate(index):
        nf = red.reduce_terms([(b + e, c) for e, c in ell_items])
        for e, c in nf.items():
            M[index[e]][j] = c
    return M


def reducedness_certificate(gb: GBasis, rng: SplitMix64) -> str:
    """One-sided reducedness test for a zero-dimensional quotient.

    If the characteristic polynomial of multiplication by some linear form is
    squarefree, the quotient is a product of fields, hence reduced.  Up to
    ``CERTIFICATE_TRIES`` random forms are attempted; failure to certify is
    reported as "not_certified", never as "not reduced".
    """
    B = standard_monomials(gb)
    if not B:
        return "certified"
    n, p = gb.nvars, gb.p
    for _ in range(CERTIFICATE_TRIES):
        coeffs = [rng.below(p) for _ in range(n)]
        if not any(coeffs):
            continue
        ell = MultiPoly.from_terms(
            n, p, [(tuple(1 if j == i else 0 for j in range(n)), c)
                   for i, c in enumerate(coeffs) if c])
        cp = charpoly(mult_matrix(gb, ell), p)
        if upoly_is_squarefree(cp, p):
            return "certified"
    return "not_certified"


def in_radical(g: MultiPoly, ideal: Ideal, budget=DEFAULT_BUDGET) -> bool:
    """Radical membership by the Rabinowitsch trick: g is in the radical of I
    iff 1 lies in I + (1 - t*g) after adjoining a fresh variable t."""
    first = ideal.generators[0]
    if (g.nvars, g.p) != (first.nvars, first.p):
        raise ArityMismatch("polynomial and ideal live in different rings")
    if g.is_zero():
        return True
    n, p = g.nvars, g.p
    positions = tuple(range(n))
    gens = [h.embed(n + 1, positions) for h in ideal.generators]
    t = MultiPoly.variable(n, n + 1, p)
    one = MultiPoly.constant(1, n + 1, p)
    gens.append(one - t * g.embed(n + 1, positions))
    return buchberger(gens, budget).is_unit()


def is_irrelevant(ideal: Ideal, budget=DEFAULT_BUDGET) -> bool:
    """True iff the projective zero locus of a homogeneous ideal is empty,
    i.e. the reduced basis exposes a pure power of every variable."""
    if not ideal.homogeneous:
        raise NotHomogeneous("projective emptiness needs a homogeneous ideal")
    gb = buchberger(ideal, budget)
    if gb.is_unit():
        return True
    n = gb.nvars
    leads = gb.lead_exps()
    for i in range(n):
        if not any(e[i] and sum(e) == e[i] for e in leads):
            return False
    return True
