"""Buchberger-based Groebner engine and zero-dimensional ideal toolkit.

An ideal is given as a sequence of its generators (``MultiPoly`` in one
ring; zero generators are ignored), and every question about it but
projective emptiness (``is_irrelevant``) is asked of its reduced basis, a
``GBasis``.

The completion uses the Gebauer-Moeller pair update (product + chain
criteria; Gebauer & Moeller, "On an installation of Buchberger's
algorithm", J. Symbolic Comput. 6, 1988), sugar pair selection (Giovini, Mora, Niesi, Robbiano & Traverso,
"One sugar cube, please", ISSAC 1991), full tail reduction, and a final
inter-reduction, so the returned basis is the unique
reduced grevlex Groebner basis of the ideal.  Sugar processes pairs in
the degree order that homogenizing the input would impose, so inhomogeneous
inputs such as dehomogenized charts do not build the high-degree
intermediates that selection by smallest lcm runs into.  A reduction-step
budget turns pathological inputs into clean ``ResourceBudgetExceeded``
errors instead of runaway computations.

A completion may first replay a recorded trace (Traverso, "Groebner trace
algorithms", ISSAC 1988): the S-pairs that reduced to nonzero in a plain
completion of an input of the same shape, with the lead each gave.  They
are reduced in order, with no pair selection and none of the pairs that
reduce to zero, until one names a missing element, reduces to zero or
leads elsewhere.  What they found is inter-reduced and handed, followed by
the generators, to the unchanged completion, which is then the
certificate: by Buchberger's criterion the result is a Groebner basis once
the generators and the pairs the Gebauer-Moeller criteria keep reduce to
zero, and every replayed element lies in the ideal.  A stale trace costs
time, never correctness.

The order is grevlex, the one order of ``multipoly``, so no function here
takes an order.  The engine works on the packed monomials that key every
``MultiPoly`` (``multipoly._Packing``; Monagan & Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors", CASC
2007), so a product is ``+``, grevlex comparison is ``<``, and divisibility
is one mask test.  A polynomial enters as its packed items, lead first, and
a basis element leaves as a ``MultiPoly`` made from its packed dict, with
no conversion either way; a monomial of degree above ``MAX_PACKED_DEGREE``
raises ``DegreeOverflow``.  The pair criteria alone read exponent tuples:
the leads, and each pair's lcm, computed once when the pair is made.

Every reduction goes through a ``_Reducer``: one per completion (the
replay's, the certifying or plain completion's, ``is_irrelevant``'s; for the
seed-1 census basis the replay makes 77 calls and the completion 38) and one
per inter-reduction.  Each memoises across its calls: for each monomial it
has reduced, the first reducer in list order whose lead divides it; for
each irreducible one, how many reducers were tested.  The reducer list only
grows, so the first divisor of a monomial never changes once found, and an
``add`` only makes the memo test the new reducers.  The reducer chosen for
every term, the step count and the output are those of a scan of the whole
list.  A ``GBasis`` keeps the reducer that inter-reduced it (the
completion's, when one after a replay appends nothing), so its normal forms,
the strata minors, the ``mult_matrix`` columns and the double-solid normal
forms, share the memos.

One rule picks how an input is reduced: on dense rows, the row form of F4
(Faugere, "A new efficient algorithm for computing Groebner bases (F4)", J.
Pure Appl. Algebra 139, 1999), when the monomials up to its degree fit
``_LANE_CAP`` lanes, and on a heap of packed monomials past it, since dense
rows could not hold inputs near ``MAX_PACKED_DEGREE``.  A row is one int
whose lanes hold the coefficients of every monomial up to some degree in
grevlex rank order, so a step is one bigint multiply-add.  Both paths take
the first divisors from the same memo, so with the same steps.  Lanes are
read mod p and never carry, in any lane call: a row starts with each lane
below p; a step clears the top lane and adds (p - c) times a row of lanes
below p, so less than p^2, to each lane below it; one call makes at most
one step per lane; and no row has more than ``_LANE_CAP`` lanes.  So a lane
stays below ``_LANE_CAP`` * p^2, within its 2 bitlen(p) +
bitlen(``_LANE_CAP``) bits or more, for every prime.

``is_irrelevant`` runs the same completion loop, ``_completion``, and stops
at its certificate: every appended element lies in the ideal, so once the
leads found include a pure power of every variable (lead 1 counts), LT(I)
has finite colength.  Only a False answer runs the whole completion, and
neither runs the inter-reduction.
"""
from __future__ import annotations

import sys
from array import array
from heapq import heapify, heappop, heappush
from math import comb

from .errors import (ArityMismatch, NotHomogeneous,
                     NotZeroDimensional, ResourceBudgetExceeded)
from .exactalg import SplitMix64, charpoly, fp_inv, upoly_is_squarefree
# MAX_PACKED_DEGREE is re-exported: the engine's degree bound is the packing's
from .multipoly import (MAX_PACKED_DEGREE, MultiPoly, _check_degree, _Packing,  # noqa: F401
                        _packing, grevlex_key)

DEFAULT_BUDGET = 1_000_000

#: Random linear forms reducedness_certificate tries before "not_certified".
CERTIFICATE_TRIES = 5

_STANDARD_MONOMIAL_CAP = 1_000_000

#: Most lanes any lane row may have: an input whose monomials up to its
#: degree outnumber them is reduced on the heap.  The seed-1 census replay
#: uses 220, the monomials of degree at most 9 in 3 variables.
_LANE_CAP = 1024


class GBasis:
    """Reduced grevlex Groebner basis, elements monic and sorted by increasing
    lead monomial (canonical for the ideal), with the reducer that holds
    exactly those elements, in that order, and spends no budget."""

    __slots__ = ("basis", "nvars", "p", "reducer")

    #: Not a parameter: the order is always grevlex.  A class constant only
    #: because perfbench/tracing.py's basis_fingerprint reads repr(gb.order).
    order = "grevlex"

    def __init__(self, basis, reducer):
        self.basis = tuple(basis)
        self.nvars = self.basis[0].nvars
        self.p = self.basis[0].p
        self.reducer = reducer

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

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise ResourceBudgetExceeded(
                f"reduction-step budget of {self.limit} steps exhausted")


class _Reducer:
    """Full normal-form reduction against a growing list of monic reducers.

    The reduction of a monomial e always uses the *first* reducer in list
    order whose lead divides e.  The list only grows, so once found that
    reducer never changes, and the reducer keeps its memos across calls:
    ``first`` maps e to that reducer's (lead, tail), and ``scanned`` maps an
    irreducible e to the number of reducers already tested against it, so
    after an ``add`` only the new reducers are tested.  The memos live and
    die with the reducer: one completion or inter-reduction, then the
    ``GBasis`` that keeps it.

    An input whose monomials up to its degree fit ``_LANE_CAP`` lanes is
    reduced on a row: one int of ``width``-bit lanes, lane k holding the
    coefficient of ``universe[k]``, the monomial of grevlex rank k.  The
    universe is every monomial up to some degree, grown a degree at a time
    as inputs need it, so ranks only append.  ``rows`` keeps the first
    divisor's tail shifted to e as a row, and a step reads the top lane mod
    p, clears it and adds (p - c) times that row: one bigint multiply-add.
    ``reducible`` flags the ranks some lead divides, so an irreducible lane
    goes to the output with no scan of the reducers.  Lanes are read mod p
    and otherwise never reduced; the module docstring states why they never
    carry.  A larger input goes to ``_reduce_on_heap``.
    """

    __slots__ = ("reducers", "guard", "p", "budget", "first", "scanned", "rows",
                 "units", "deg_shift", "universe", "rank", "edge", "reducible",
                 "step", "width")

    def __init__(self, packing: _Packing, p: int, budget=None):
        self.reducers = []
        self.guard = packing.guard
        self.p = p
        self.budget = budget
        self.first: dict = {}
        self.scanned: dict = {}
        self.rows: dict = {}
        self.units = packing.units
        self.deg_shift = packing.deg_shift
        self.universe = [0]         # rank -> packed monomial
        self.rank = {0: 0}          # packed monomial -> rank
        self.edge = [0]             # the monomials of the top degree
        self.reducible = [False]    # rank -> whether some lead divides it
        self.step = -(-(2 * p.bit_length() + _LANE_CAP.bit_length()) // 64)
        self.width = 64 * self.step     # bits per lane, self.step words

    def add(self, items):
        """Register a monic reducer given as (packed, coeff) items, largest
        first."""
        lead, n = items[0][0], len(self.units)
        self.reducers.append((lead, items[1:]))
        room = (self.edge[0] >> self.deg_shift) - (lead >> self.deg_shift)
        if room >= 0:   # else a lead above the universe: nothing to flag
            for m in self.universe[:comb(room + n, n)]:
                self.reducible[self.rank[lead + m]] = True

    def _first_divisor(self, e):
        """The (lead, tail) of the first reducer whose lead divides e, or
        None; tests only the reducers added since e was last looked up."""
        reducers = self.reducers
        guard = self.guard
        eg = e | guard
        for k in range(self.scanned.get(e, 0), len(reducers)):
            if (eg - reducers[k][0]) & guard == guard:
                hit = self.first[e] = reducers[k]
                self.scanned.pop(e, None)
                return hit
        self.scanned[e] = len(reducers)
        return None

    def _row(self, pairs, q=0) -> int:
        """The row of the items times the packed monomial q.  For q != 0
        they are a monic reducer's tail: distinct monomials and coefficients
        below p, each stored as it is."""
        words = array("Q", bytes(8 * self.step * len(self.universe)))
        rank, step = self.rank, self.step
        if q:
            for e, c in pairs:
                words[rank[q + e] * step] = c
        else:
            p = self.p
            for e, c in pairs:
                k = rank[e] * step
                words[k] = (words[k] + c) % p
        if sys.byteorder == "big":
            words.byteswap()
        return int.from_bytes(words, "little")

    def reduce_terms(self, pairs) -> dict:
        """The normal form of the (packed, coeff) items, as a dict of its
        nonzero terms, largest first."""
        top = max(pairs, default=(0, 0))[0]
        n = len(self.units)
        if comb((top >> self.deg_shift) + n, n) > _LANE_CAP:
            return self._reduce_on_heap(pairs)
        guard = self.guard
        while top not in self.rank:
            self.edge = sorted({m + u for m in self.edge for u in self.units})
            for m in self.edge:
                self.rank[m] = len(self.universe)
                self.universe.append(m)
                self.reducible.append(any(((m | guard) - lead) & guard == guard
                                          for lead, _ in self.reducers))
        p, width, budget = self.p, self.width, self.budget
        first, rows, universe, reducible = self.first, self.rows, self.universe, self.reducible
        row = self._row(pairs)
        out: dict = {}
        while row:
            k = (row.bit_length() - 1) // width
            s = k * width
            c = row >> s
            row ^= c << s   # clears the top lane: c is all of row from bit s up
            c %= p
            if not c:
                continue
            e = universe[k]
            if not reducible[k]:
                out[e] = c
                continue
            hit = rows.get(e)
            if hit is None:
                lead, tail = first.get(e) or self._first_divisor(e)
                hit = rows[e] = self._row(tail, e - lead)
            if budget is not None:
                budget.spend()
            row += (p - c) * hit
        return out

    def _reduce_on_heap(self, pairs) -> dict:
        """``reduce_terms`` on packed monomials, for inputs past the cap.

        Terms are processed largest-first through a heap; every inserted
        monomial is strictly smaller than the one being reduced, so each
        monomial is pushed and visited once, the output comes out largest
        first, and no product outgrows the packed fields of its input.
        Coefficients accumulate unreduced and are taken mod p once, when
        their monomial is popped; a monomial whose coefficient cancels is
        popped and skipped."""
        p, budget, first = self.p, self.budget, self.first
        work: dict = {}
        get = work.get
        for e, c in pairs:
            work[e] = get(e, 0) + c
        heap = [-e for e in work]
        heapify(heap)
        out: dict = {}
        while heap:
            e = -heappop(heap)
            c = work.pop(e) % p
            if not c:
                continue
            hit = first.get(e) or self._first_divisor(e)
            if hit is None:
                out[e] = c
                continue
            if budget is not None:
                budget.spend()
            c = p - c
            q = e - hit[0]
            for m, cm in hit[1]:
                em = q + m
                v = get(em)
                if v is None:
                    work[em] = c * cm
                    heappush(heap, -em)
                else:
                    work[em] = v + c * cm
        return out


def _monic_normal_form(reducer, terms, p):
    """The reducer's normal form of ``terms`` made monic, as (packed, coeff)
    items with the lead first, or None when the normal form is zero."""
    nf = reducer.reduce_terms(terms)
    if not nf:
        return None
    items = list(nf.items())
    if items[0][1] == 1:
        return items
    inv = fp_inv(items[0][1], p)
    return [(e, c * inv % p) for e, c in items]


def _lcm(a, b):
    return tuple(x if x > y else y for x, y in zip(a, b))


def _divides(a, b):
    for x, y in zip(a, b):
        if x > y:
            return False
    return True


def _update_pairs(leads, pairs, m):
    """Gebauer-Moeller pair update after appending element m = len(leads)-1.

    ``pairs`` maps each pending pair (i, j) to the lcm of its leads; the
    result maps the pairs kept and the new ones the same way.  The lcm of
    each old lead with the new one is computed once."""
    lmf = leads[m]
    new_lcms = [_lcm(leads[i], lmf) for i in range(m)]
    kept = {}
    for (i, j), lij in pairs.items():
        if (not _divides(lmf, lij)
                or new_lcms[i] == lij
                or new_lcms[j] == lij):
            kept[(i, j)] = lij
    groups: dict = {}
    for i, L in enumerate(new_lcms):
        groups.setdefault(L, []).append(i)
    minimal = []
    for L in sorted(groups, key=lambda t: (sum(t), t)):
        if all(not _divides(Lk, L) for Lk in minimal):
            minimal.append(L)
    for L in minimal:
        # Buchberger's product criterion: drop the group if some member has
        # disjoint-support lead with the new element.
        if all(any(a and b for a, b in zip(leads[i], lmf)) for i in groups[L]):
            kept[(min(groups[L]), m)] = L
    return kept


def _s_polynomial(a, b, lcm, p):
    """The S-polynomial of the monic packed elements a and b, whose leads
    divide the packed monomial lcm, as (monomial, coeff) items."""
    qa = lcm - a[0][0]
    qb = lcm - b[0][0]
    spairs = [(e + qa, c) for e, c in a]
    spairs += [(e + qb, p - c) for e, c in b]
    return spairs


def _interreduce(elements, reducer):
    """Minimalize, then inter-reduce through one growing, empty reducer: the
    elements whose lead no other lead divides, in increasing lead order,
    each reduced, made monic and added.  No larger lead divides a monomial
    below a lead, so that reduces each against all the others.  Returns the
    reducer and the elements: the reduced basis when they form a Groebner
    basis."""
    guard = reducer.guard
    polys: list = []
    for items in sorted(elements, key=lambda items: items[0][0]):
        lead = items[0][0] | guard
        if not any((lead - kept[0][0]) & guard == guard for kept in polys):
            items = _monic_normal_form(reducer, items, reducer.p)   # keeps its lead
            reducer.add(items)
            polys.append(items)
    return reducer, polys


def _replay(gens, schedule, packing, p, budget):
    """The elements a recorded trace finds: the nonzero normal forms of the
    generators, then of each scheduled S-pair in turn, each reduced against all
    the elements before it (monic packed items, in order).

    A schedule entry (i, j, lead) names the elements i < j and the lead
    exponent its normal form had when recorded.  The replay stops at the
    first entry that names a missing element, that reduces to zero, or whose
    lead differs from the recorded one: past a divergence the recorded pairs
    would only build elements off the shape of the basis.  It also stops
    before any input whose monomials up to its degree outnumber
    ``_LANE_CAP`` lanes, where its reducer would leave the lane rows; so a
    stale entry stops before it packs an lcm past ``MAX_PACKED_DEGREE``."""
    reducer = _Reducer(packing, p, budget)
    n = len(packing.units)
    found: list = []
    if comb(max(g.total_degree() for g in gens) + n, n) > _LANE_CAP:
        return found
    for g in gens:
        items = _monic_normal_form(reducer, g.packed.items(), p)
        if items:
            reducer.add(items)
            found.append(items)
    for i, j, lead in schedule:
        if not 0 <= i < j < len(found):
            break
        lcm = _lcm(packing.unpack(found[i][0][0]), packing.unpack(found[j][0][0]))
        if comb(sum(lcm) + n, n) > _LANE_CAP:
            break
        items = _monic_normal_form(
            reducer, _s_polynomial(found[i], found[j], packing.pack(lcm), p), p)
        if items is None or packing.unpack(items[0][0]) != lead:
            break
        reducer.add(items)
        found.append(items)
    return found


def _start(gens, budget):
    """The nonzero generators, their packing and the step budget."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ValueError("buchberger needs at least one nonzero generator")
    for g in gens[1:]:
        gens[0]._check_ctx(g)
    return gens, _packing(gens[0].nvars), _Budget(budget) if budget is not None else None


def _completion(gens, found, reducer, packing):
    """Buchberger's loop: yields each element it appends to the basis, as
    monic packed items, up to a Groebner basis or the unit ideal's 1.

    The inputs are the elements ``found`` (sugar: their lead degree) and then
    ``gens`` (their total degree), each reduced against all before it; then
    the pairs the Gebauer-Moeller criteria keep, by ``buchberger``'s sugar
    order.  Every element lies in the ideal of the inputs."""
    p = reducer.p
    pack, unpack, deg_shift = packing.pack, packing.unpack, packing.deg_shift
    inputs = [(items, items[0][0] >> deg_shift) for items in found]
    inputs += [(g.packed.items(), g.total_degree()) for g in gens]
    leads: list = []         # lead exponent tuples, for the pair criteria
    basis_items: list = []   # packed (monomial, coeff) items, largest first
    sugars: list = []        # sugar minus lead degree, per basis element
    pairs: dict = {}         # pair (i, j) -> its selection key
    lcms: dict = {}          # pair (i, j) -> the lcm of its leads, a tuple

    def selection_key(ij, lcm):
        i, j = ij
        lcm = pack(lcm)
        return (max(sugars[i], sugars[j]) + (lcm >> deg_shift), -lcm, i, j)

    while inputs or pairs:
        if inputs:
            terms, sugar = inputs.pop(0)
        else:
            pair = min(pairs.values())[2:]
            sugar, neg_lcm, i, j = pairs.pop(pair)
            del lcms[pair]
            terms = _s_polynomial(basis_items[i], basis_items[j], -neg_lcm, p)
        items = _monic_normal_form(reducer, terms, p)
        if items is None:
            continue
        basis_items.append(items)
        reducer.add(items)
        yield items
        if items[0][0] == 0:
            return   # the unit ideal: the inter-reduction keeps only 1
        leads.append(unpack(items[0][0]))
        sugars.append(sugar - (items[0][0] >> deg_shift))
        # a pair's lcm and key never change, so each is computed once
        lcms = _update_pairs(leads, lcms, len(leads) - 1)
        pairs = {ij: pairs[ij] if ij in pairs else selection_key(ij, L)
                 for ij, L in lcms.items()}


def buchberger(gens, budget=DEFAULT_BUDGET, schedule=()) -> GBasis:
    """Reduced Groebner basis of the ideal generated by ``gens``.

    Pairs are processed by smallest sugar, then smallest grevlex lcm.
    An input generator's sugar is its total degree; the S-pair of elements i
    and j has sugar ``max(s_i - deg lead_i, s_j - deg lead_j) + deg lcm``,
    and an element appended from it inherits that sugar.

    ``schedule`` is a recorded trace (Traverso, "Groebner trace algorithms",
    ISSAC 1988): the (i, j, lead) of each S-pair whose normal form was
    nonzero in a plain completion of an input of the same shape, in the
    order reduced.  The scheduled pairs are reduced first, with no pair
    criteria and no selection, up to the first that diverges (see
    ``_replay``); what they found is inter-reduced and fed, followed by
    ``gens``, to the completion below, unchanged.  Every replayed element
    lies in the ideal, so that completion is the certificate: the
    generators must reduce to zero against the replayed basis and so must
    the pairs that the Gebauer-Moeller criteria keep (Buchberger's
    criterion).  A short or stale schedule costs time, never correctness.
    If the completion appends nothing, the replayed basis is the result and
    the completion's reducer its reducer.  The budget covers the replay and
    the completion together, not the normal forms of the returned basis.
    """
    gens, packing, bud = _start(gens, budget)
    nvars, p = gens[0].nvars, gens[0].p

    found: list = []
    if schedule:
        found = _interreduce(_replay(gens, schedule, packing, p, bud),
                             _Reducer(packing, p, bud))[1]
    reducer = _Reducer(packing, p, bud)
    basis_items = list(_completion(gens, found, reducer, packing))
    if len(basis_items) > len(found):  # else the replayed basis, already reduced
        reducer, basis_items = _interreduce(basis_items, _Reducer(packing, p, bud))
    reducer.budget = None
    return GBasis((MultiPoly._make(nvars, p, dict(items), items[0][0])
                   for items in basis_items), reducer)


def normal_form(f: MultiPoly, gb: GBasis) -> MultiPoly:
    """The unique remainder of f modulo the basis (zero iff f is in the ideal)."""
    if (f.nvars, f.p) != (gb.nvars, gb.p):
        raise ArityMismatch("polynomial and basis live in different rings")
    nf = gb.reducer.reduce_terms(f.packed.items())
    return MultiPoly._make(f.nvars, f.p, nf, next(iter(nf), None))


def is_zero_dimensional(gb: GBasis) -> bool:
    """True iff the quotient algebra is finite-dimensional.

    By the Finiteness Theorem (Cox, Little & O'Shea, "Ideals, Varieties, and
    Algorithms", ch. 5 section 3) that holds iff, for every variable, some
    lead monomial is a pure power of it.  The lead 1 of the unit ideal is
    the zeroth power of every variable, so the unit ideal counts."""
    leads = gb.lead_exps()
    return all(any(sum(e) == e[i] for e in leads) for i in range(gb.nvars))


def standard_monomials(gb: GBasis) -> list:
    """Monomials outside the leading-term ideal, in increasing order (empty
    for the unit ideal).  Raises ``NotZeroDimensional`` unless the quotient
    is zero-dimensional, when the list would be infinite."""
    if not is_zero_dimensional(gb):
        raise NotZeroDimensional("staircase is not finite")
    leads = gb.lead_exps()
    n = gb.nvars
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
            raise ResourceBudgetExceeded(
                f"staircase has more than {_STANDARD_MONOMIAL_CAP} monomials")
        for i in range(n):
            m2 = tuple(v + 1 if j == i else v for j, v in enumerate(m))
            if m2 not in seen:
                seen.add(m2)
                stack.append(m2)
    return sorted(out, key=grevlex_key, reverse=True)


def quotient_dim(gb: GBasis) -> int:
    """Vector-space dimension of the quotient algebra (number of standard
    monomials); the degree of a zero-dimensional scheme."""
    return len(standard_monomials(gb))


def mult_matrix(gb: GBasis, ell: MultiPoly):
    """Matrix of multiplication by the linear form ell on the standard
    monomial basis of a zero-dimensional quotient."""
    if (ell.nvars, ell.p) != (gb.nvars, gb.p):
        raise ArityMismatch("linear form lives in a different ring")
    if ell.is_zero() or ell.total_degree() > 1:
        raise ValueError("multiplication operator wants a nonzero linear form")
    B = standard_monomials(gb)
    if B:
        _check_degree(sum(B[-1]) + 1)   # B ascends, so B[-1] has top degree
    packing = _packing(gb.nvars)
    index = {packing.pack(m): i for i, m in enumerate(B)}
    D = len(B)
    M = [[0] * D for _ in range(D)]
    ell_items = ell.packed.items()
    for j, b in enumerate(index):
        nf = gb.reducer.reduce_terms([(b + e, c) for e, c in ell_items])
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
    if gb.is_unit():
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


def in_radical(g: MultiPoly, gens, budget=DEFAULT_BUDGET) -> bool:
    """Radical membership by the Rabinowitsch trick: g is in the radical of
    I = (gens) iff 1 lies in I + (1 - t*g) after adjoining a fresh variable t."""
    if any((h.nvars, h.p) != (g.nvars, g.p) for h in gens):
        raise ArityMismatch("polynomial and ideal live in different rings")
    if g.is_zero():
        return True
    n, p = g.nvars, g.p
    positions = tuple(range(n))
    lifted = [h.embed(n + 1, positions) for h in gens]
    t = MultiPoly.variable(n, n + 1, p)
    one = MultiPoly.constant(1, n + 1, p)
    lifted.append(one - t * g.embed(n + 1, positions))
    return buchberger(lifted, budget).is_unit()


def is_irrelevant(gens, budget=DEFAULT_BUDGET) -> bool:
    """True iff the homogeneous generators have no common projective zero,
    i.e. their ideal is zero-dimensional: its affine zero locus is at most
    the origin.  True is answered at the first lead that completes a pure
    power of every variable (see the module docstring)."""
    if any(g.homogeneous_degree() is None for g in gens):
        raise NotHomogeneous("projective emptiness needs a homogeneous ideal")
    gens, packing, bud = _start(gens, budget)
    n = gens[0].nvars
    powers: set = set()      # the variables some lead is a pure power of
    for items in _completion(gens, (), _Reducer(packing, gens[0].p, bud), packing):
        support = [i for i, v in enumerate(packing.unpack(items[0][0])) if v]
        if len(support) <= 1:
            powers.update(support or range(n))
            if len(powers) == n:
                return True
    return False
