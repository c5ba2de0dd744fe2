from math import comb
from pathlib import Path

import pytest

from sexticsolid.bundle import cubic_equation, discriminant, gram_matrix, random_instance
from sexticsolid.cli import main, stage_seed
from sexticsolid.errors import (DegreeOverflow, NotHomogeneous,
                                NotZeroDimensional, ResourceBudgetExceeded)
from sexticsolid.exactalg import (SplitMix64, charpoly, fp_inv, random_invertible, upoly,
                                  upoly_is_squarefree)
from sexticsolid import groebner
from sexticsolid.groebner import (_LANE_CAP, MAX_PACKED_DEGREE, GBasis, _Budget,
                                  _packing, _Reducer, buchberger,
                                  in_radical, is_irrelevant, is_zero_dimensional, mult_matrix,
                                  normal_form, quotient_dim,
                                  reducedness_certificate, standard_monomials)
from sexticsolid.multipoly import MultiPoly, grevlex_key, monomials_of_degree, mp_det
from sexticsolid import singular
from sexticsolid.singular import CENSUS_SCHEDULE, rank_stratum_ideal

import oracles

P = 32003


def V(i, n=2, p=P):
    return MultiPoly.variable(i, n, p)


def poly(pairs, n=2, p=P):
    return MultiPoly.from_terms(n, p, pairs)


def rand_poly(rng, nvars=2, maxdeg=2, terms=3, p=P):
    pairs = [(tuple(rng.below(maxdeg + 1) for _ in range(nvars)), rng.below(p))
             for _ in range(rng.below(terms) + 1)]
    return MultiPoly.from_terms(nvars, p, pairs)


def encode(f):
    """Terms of f as (packed, coeff) items, the lead first: what a reducer
    registers."""
    if not f.packed:
        return []
    lead = f.lead_key()
    return [(lead, f.packed[lead])] + [(m, c) for m, c in f.packed.items() if m != lead]


def small_ideals(seed, count, nvars=2, zero_dim=True, p=P):
    """Seeded zero-dimensional ideals: pure powers plus random noise."""
    rng = SplitMix64(seed)
    out = []
    while len(out) < count:
        gens = []
        for i in range(nvars):
            a = rng.below(3) + 1
            lead = tuple(a if j == i else 0 for j in range(nvars))
            noise = rand_poly(rng, nvars, maxdeg=a - 1 if a > 1 else 0, terms=3, p=p)
            gens.append(poly([(lead, 1)], nvars, p) + noise)
        if zero_dim:
            gens.append(rand_poly(rng, nvars, maxdeg=2, terms=3, p=p))
        gens = [g for g in gens if not g.is_zero()]
        if gens:
            out.append(gens)
    return out


def low_degree_noise(rng, nvars, below_total, p=P):
    """Random polynomial of total degree strictly below the given bound."""
    pairs = []
    for _ in range(rng.below(3) + 1):
        while True:
            e = tuple(rng.below(below_total) for _ in range(nvars))
            if sum(e) < below_total:
                break
        pairs.append((e, rng.below(p)))
    return MultiPoly.from_terms(nvars, p, pairs)


def tame_zero_dim_ideals(seed, count, nvars=2):
    """Pure-power leads with strictly lower-degree tails: the grevlex leads
    are the pure powers themselves, so the Macaulay oracle's stopping rule
    is sound on these."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        gens = []
        for i in range(nvars):
            a = rng.below(3) + 2
            lead = tuple(a if j == i else 0 for j in range(nvars))
            gens.append(poly([(lead, 1)], nvars) + low_degree_noise(rng, nvars, a))
        out.append(gens)
    return out


def mixed_degree_ideals(seed, count, nvars=3, p=P):
    """Seeded inhomogeneous ideals: each generator is a pure power of degree
    a in 1..4 plus random terms whose exponents are at most a."""
    rng = SplitMix64(seed)
    out = []
    for _ in range(count):
        gens = []
        for i in range(nvars):
            a = rng.below(4) + 1
            lead = tuple(a if j == i else 0 for j in range(nvars))
            noise = rand_poly(rng, nvars, maxdeg=a, terms=4, p=p)
            gens.append(poly([(lead, 1)], nvars, p) + noise)
        out.append(gens)
    return out


@pytest.mark.parametrize("nvars", [3, 4, 5])
def test_packed_monomials_match_grevlex_tuples(nvars):
    # packed < is grevlex, packed + is the exponent sum, and the guard-bit
    # test is componentwise <=; grevlex is multiplicative with 1 smallest
    packing = _packing(nvars)
    guard = packing.guard
    rng = SplitMix64(70 + nvars)
    exps = [(0,) * nvars] + [tuple(rng.below(4) for _ in range(nvars)) for _ in range(60)]
    packed = [packing.pack(e) for e in exps]
    assert min(packed) == packed[0] == 0

    def plus(a, b):
        return tuple(x + y for x, y in zip(a, b))

    seen = set()
    for a, pa in zip(exps, packed):
        assert packing.unpack(pa) == a
        for b, pb in zip(exps, packed):
            assert (pa < pb) == (grevlex_key(a) > grevlex_key(b))
            assert (pa < pb) == (grevlex_key(plus(a, exps[1])) > grevlex_key(plus(b, exps[1])))
            assert (pa == pb) == (a == b)
            assert packing.unpack(pa + pb) == plus(a, b)
            divides = ((pb | guard) - pa) & guard == guard
            assert divides == all(x <= y for x, y in zip(a, b))
            seen.add(divides)
    assert seen == {True, False}


def test_degree_beyond_the_packed_field_raises(monkeypatch):
    x, y = V(0), V(1)
    gb = buchberger([x - 1, y - 1])
    one = MultiPoly.constant(1, 2, P)
    assert normal_form(x ** MAX_PACKED_DEGREE, gb) == one
    with pytest.raises(DegreeOverflow):
        normal_form(x ** (MAX_PACKED_DEGREE + 1), gb)
    with pytest.raises(DegreeOverflow):
        buchberger([x ** (MAX_PACKED_DEGREE + 1) - 1, y - 1])
    # every input fits, but the S-pair's lcm x^h y^h does not
    h = MAX_PACKED_DEGREE // 2 + 1
    with pytest.raises(DegreeOverflow):
        buchberger([x ** h * y - 1, x * y ** h - 1])
    # the product criterion drops the pair of x^h and y^h, whose lcm does
    # not fit either; a schedule naming it stops the replay, no more, and
    # no reducer (the scheduled replay's, completion's and two
    # inter-reductions', the plain completion's and inter-reduction's)
    # grows its universe past its cap to reach them
    lane_reducers = []

    class Watched(_Reducer):
        def __init__(self, *args):
            super().__init__(*args)
            lane_reducers.append(self)

    monkeypatch.setattr(groebner, "_Reducer", Watched)
    pure = [x ** h, y ** h]
    assert buchberger(pure, schedule=((0, 1, (0, 0)),)) == buchberger(pure)
    assert [len(r.universe) <= _LANE_CAP for r in lane_reducers] == [True] * 6


def past_the_lane_cap():
    """Scheduled ideals whose inputs or S-pairs have more monomials up to
    their degree than ``_LANE_CAP``: the pure powers of
    ``test_degree_beyond_the_packed_field_raises`` (their replay stops at
    once), and two binomials of degrees 12 and 14 in 3 variables whose
    completion reaches degree 17, past the 969 monomials of degree at most 16
    (their replay stops at that pair)."""
    h = MAX_PACKED_DEGREE // 2 + 1
    x, y = V(0), V(1)
    X, Y, Z = (V(i, 3) for i in range(3))
    binomials = [X ** 4 * Y ** 3 * Z - 4 * X ** 5 * Z ** 2 + 5 * Y * Z,
                 Y ** 6 * Z ** 6 - X ** 5 * Y ** 2 * Z + 7 * Y]
    return [([x ** h, y ** h], ((0, 1, (0, 0)),)),
            (binomials, oracles.record_schedule(binomials))]


class CappedLanes(_Reducer):
    """A reducer that records the lanes of every row it builds and, for each
    call, whether it reduced on the heap path."""

    built: list = []
    dict_path: list = []

    def _row(self, pairs, q=0):
        row = super()._row(pairs, q)
        CappedLanes.built.append((len(self.universe), row.bit_length() <= len(self.universe) * self.width))
        return row

    def reduce_terms(self, pairs):
        CappedLanes.dict_path.append(False)
        return super().reduce_terms(pairs)

    def _reduce_on_heap(self, pairs):
        CappedLanes.dict_path[-1] = True
        return super()._reduce_on_heap(pairs)


def test_lane_reducers_take_the_dict_path_past_the_cap(monkeypatch):
    # an input or S-pair past the cap is reduced on the heap path, with the
    # same first divisors: a scheduled completion gives the basis and the
    # steps of one on the scanning oracle, and no row has more lanes than
    # the cap
    for gens, schedule in past_the_lane_cap():
        CappedLanes.built, CappedLanes.dict_path = [], []
        lanes = basis_and_steps(gens, monkeypatch, schedule, _Reducer=CappedLanes)
        assert lanes == basis_and_steps(gens, monkeypatch, schedule, _Reducer=oracles.HeapReducer)
        assert lanes[0] == buchberger(gens)
        assert any(CappedLanes.dict_path)
        assert all(lanes <= _LANE_CAP and fits for lanes, fits in CappedLanes.built)
    # the pure powers build no row; the binomials fill 969 lanes, every
    # monomial of degree at most 16, the most the cap allows
    assert max(lanes for lanes, _ in CappedLanes.built) == 969


def test_census_basis_normal_forms_past_the_lane_cap(seed1, monkeypatch):
    # the census basis reduces on lane rows up to degree 16 and on the heap
    # path above (degree 20: 1,771 monomials), both as a brute-force
    # reduction does, with no row past the cap.  The oracle reduces a
    # degree-16 or degree-20 input directly, a pure power and a dense form
    # of that degree alike, in well under a second
    CappedLanes.built, CappedLanes.dict_path = [], []
    monkeypatch.setattr(groebner, "_Reducer", CappedLanes)
    gb = buchberger(census_affine_ideal(seed1), schedule=CENSUS_SCHEDULE)
    assert type(gb.reducer) is CappedLanes and not any(CappedLanes.dict_path)
    rng = SplitMix64(68)
    for k, dict_path in [(16, False), (20, True)]:
        g = rand_poly(rng, nvars=3, maxdeg=3, terms=6)
        dense = MultiPoly.from_terms(3, P, [(e, rng.below(P))
                                            for e in monomials_of_degree(3, k)])
        for f in (V(0, 3) ** k + g, dense + g):
            assert normal_form(f, gb) == oracles.brute_normal_form(f, gb.basis, rng)
            assert CappedLanes.dict_path[-1] is dict_path
    assert all(lanes <= _LANE_CAP and fits for lanes, fits in CappedLanes.built)


def test_buchberger_trivial_examples():
    x, y = V(0), V(1)
    gb = buchberger([x, y])
    assert gb.basis == (y, x) or gb.basis == (x, y)
    gb2 = buchberger([x * x, x * y])
    assert set(gb2.basis) == {x * x, x * y}
    gb3 = buchberger([x - y * y, y - 1])
    assert set(gb3.basis) == {x - 1, y - 1}


def test_buchberger_is_reduced_and_monic():
    for gens in small_ideals(51, 10):
        gb = buchberger(gens)
        leads = gb.lead_exps()
        for i, g in enumerate(gb.basis):
            assert g.packed[g.lead_key()] == 1
            for j, le in enumerate(leads):
                if i == j:
                    continue
                # no lead divides another lead, and tails are fully reduced
                for e in g.terms:
                    assert not all(a <= b for a, b in zip(le, e))


def test_buchberger_unique_under_selection_shuffles():
    # the mixed-degree ideals are where sugar order and lcm order disagree;
    # each ideal's own recorded trace, replayed first, changes nothing either.
    # Permuting the generators changes which pairs the completion forms and
    # the order it selects them in, and can make the recorded trace stale
    for k, gens in enumerate(small_ideals(52, 5) + mixed_degree_ideals(63, 8)):
        reference = buchberger(gens)
        schedule = oracles.record_schedule(gens)
        assert buchberger(gens, schedule=schedule) == reference
        for shuffle_seed in range(5):
            rng = SplitMix64(1000 * k + shuffle_seed)
            shuffled = list(gens)
            for i in range(len(shuffled) - 1, 0, -1):
                j = rng.below(i + 1)
                shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
            assert buchberger(shuffled) == reference
            assert buchberger(shuffled, schedule=schedule) == reference


def test_census_basis_within_sugar_step_count(seed1):
    # the census's affine Jacobian ideal: four dehomogenized quintics.  Sugar
    # selection reduces it in about 7 000 steps, selection by smallest lcm
    # alone needs about 47 000
    gb = buchberger(census_affine_ideal(seed1), budget=15_000)
    assert quotient_dim(gb) == 31


def census_ideal(delta, seed):
    """The affine Jacobian ideal that the census of verify --seed seed
    (first attempt) hands to buchberger: its chart T is node_census's
    first draw from that seed."""
    T = random_invertible(4, delta.p, SplitMix64(stage_seed(seed, 0, "census")))
    moved = oracles.linear_change(delta, T)
    return [f for f in (moved.partial(i).specialize(0, 1) for i in range(4))
            if not f.is_zero()]


def census_affine_ideal(seed1):
    return census_ideal(seed1.delta, 1)


def test_census_basis_step_count_is_pinned(seed1):
    # 7 027 steps exactly: the memoised reducer picks the same reducer for
    # every term as a scan of the whole list would.  The plain completion
    # pins the engine; the next test pins the replay
    affine = census_affine_ideal(seed1)
    assert quotient_dim(buchberger(affine, budget=7027)) == 31
    with pytest.raises(ResourceBudgetExceeded):
        buchberger(affine, budget=7026)


def test_scheduled_census_basis_step_count_is_pinned(seed1):
    # 3 646 steps exactly, replay and certifying completion together: the 73
    # nonzero reductions, the generators and the 21 Gebauer-Moeller pairs of
    # the 13-element basis.  The 110 pairs that reduce to zero in the plain
    # completion (3 964 of its 7 027 steps) are never formed
    affine = census_affine_ideal(seed1)
    gb = buchberger(affine, budget=3646, schedule=CENSUS_SCHEDULE)
    assert gb == buchberger(affine) and len(gb.basis) == 13
    with pytest.raises(ResourceBudgetExceeded):
        buchberger(affine, budget=3645, schedule=CENSUS_SCHEDULE)


def _readme_work_table():
    """The counters of the README table "Work at seed 1, p = 32003"."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Work at seed 1, p = 32003", 1)[1].split("\n#", 1)[0]
    rows = [line.split("|") for line in table.splitlines() if line.startswith("| `")]
    return {cells[1].strip().strip("`"): int(cells[2].replace(",", "")) for cells in rows}


def test_readme_work_table_matches_the_engine(seed1, monkeypatch, capsys):
    # every counter of the README's work table, recomputed: a change that
    # moves one fails here until the table says so
    budgets, made, replayed = [], [], []

    class RecordedBudget(_Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    class Counted(_Reducer):
        def __init__(self, *args):
            super().__init__(*args)
            self.calls = self.zeros = 0
            made.append(self)

        def reduce_terms(self, pairs):
            out = super().reduce_terms(pairs)
            self.calls += 1
            self.zeros += not out
            return out

    real_replay = groebner._replay

    def replay(gens, schedule, packing, p, budget):
        left = budget.left
        found = real_replay(gens, schedule, packing, p, budget)
        replayed.append(left - budget.left)
        return found

    monkeypatch.setattr(groebner, "_Budget", RecordedBudget)
    monkeypatch.setattr(groebner, "_Reducer", Counted)
    monkeypatch.setattr(groebner, "_replay", replay)
    assert main(["verify", "--seed", "1"]) == 0
    capsys.readouterr()
    infinity, census, conics = (b.limit - b.left for b in budgets)
    affine = census_affine_ideal(seed1)
    made.clear()
    gb = buchberger(affine, schedule=CENSUS_SCHEDULE)
    # the replay's, the first inter-reduction's and the certifying
    # completion's, which appends nothing: its inputs are the replayed
    # basis, then the generators, then the pairs
    replayer, _, completion = made
    inputs = len(gb.basis) + len(affine)
    assert completion.zeros == completion.calls - len(gb.basis)
    made.clear()
    budgets.clear()
    buchberger(affine)
    plain = made[0]
    assert _readme_work_table() == {
        "verify.steps": infinity + census + conics,
        "infinity.steps": infinity,
        "census.steps": census,
        "conics.steps": conics,
        "replay.steps": replayed[0],
        "schedule.pairs": len(CENSUS_SCHEDULE),
        "census.pairs": completion.calls - inputs,
        "census.basis": len(gb.basis),
        "census.lanes": len(replayer.universe),
        "plain.steps": budgets[0].limit - budgets[0].left,
        "plain.pairs": plain.calls - len(affine),
        "plain.zero_pairs": plain.zeros,
    }


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_census_schedule_is_the_plain_trace(seed, census_suite):
    # the committed schedule is what the plain completion reduces to
    # nonzero, pair for pair and lead for lead, and the replay runs to its
    # last pair; a change to the sugar order or the pair criteria fails
    # here until CENSUS_SCHEDULE is recorded again
    affine = census_ideal(census_suite[seed - 1].delta, seed)
    assert oracles.record_schedule(affine) == CENSUS_SCHEDULE
    assert oracles.record_schedule(affine, schedule=CENSUS_SCHEDULE) == CENSUS_SCHEDULE


def test_schedule_never_changes_the_census_basis_at_ten_seeds(census_suite):
    for entry in census_suite:
        affine = census_ideal(entry.delta, entry.seed)
        assert buchberger(affine, schedule=CENSUS_SCHEDULE) == buchberger(affine)


@pytest.mark.parametrize("prime", [7, 11, 13, 19, 101, 32003, 2 ** 61 - 1,
                                   18446744073709551557])
def test_schedule_never_changes_the_small_prime_census_bases(prime, monkeypatch, capsys):
    # the census ideals of the verify sweep, where at small primes unlucky
    # charts and coincident leads make most replays stop early; then the
    # first of them and the random ideals at the prime, each replaying its
    # own trace: the basis is the plain one, also with no budget, and the
    # lane rows make the steps the scanning oracle makes, from 64-bit lanes
    # at p = 7 to 192-bit lanes just below 2^64
    calls = []

    def recording(gens, budget, schedule):
        calls.append((gens, budget, schedule))
        return buchberger(gens, budget, schedule=schedule)

    monkeypatch.setattr(singular, "buchberger", recording)
    main(["verify", "--prime", str(prime), "--seed", "1", "--checks", "census"])
    capsys.readouterr()
    assert calls
    for gens, budget, schedule in calls:
        assert schedule is CENSUS_SCHEDULE
        assert buchberger(gens, budget, schedule=schedule) == buchberger(gens, budget)
    ideals = small_ideals(52, 5, p=prime) + mixed_degree_ideals(63, 8, p=prime)
    for gens in [calls[0][0]] + ideals:
        reference = buchberger(gens)
        schedule = oracles.record_schedule(gens)
        assert buchberger(gens, None, schedule=schedule) == reference
        lanes = basis_and_steps(gens, monkeypatch, schedule)
        assert lanes == basis_and_steps(gens, monkeypatch, schedule, _Reducer=oracles.HeapReducer)
        assert lanes[0] == reference


def test_a_stale_schedule_costs_time_not_correctness(seed1):
    # every way a replay can stop early: it runs out (truncated), names a
    # missing element (reversed, out of range), reduces to zero (a repeated
    # pair) or leads elsewhere (a wrong recorded lead)
    affine = census_affine_ideal(seed1)
    reference = buchberger(affine)
    S = CENSUS_SCHEDULE
    i, j, lead = S[10]
    # each schedule with the trace its replay leaves: it stops right there
    stale = [(S[:30], S[:30]), (S[::-1], ()), (S[:10] + ((i, 99, lead),) + S[11:], S[:10]),
             (S[:11] + S[10:], S[:11]), (S[:10] + ((i, j, S[11][2]),) + S[11:], S[:11])]
    for schedule, trace in stale:
        assert oracles.record_schedule(affine, schedule=schedule) == trace
        assert buchberger(affine, schedule=schedule) == reference


def steps_of(run, monkeypatch, **reducer_classes):
    """run()'s result and the reduction steps of its one budget, with the
    engine's reducer class replaced as named, e.g.
    ``_Reducer=oracles.HeapReducer``."""
    budgets = []

    class RecordedBudget(_Budget):
        def __init__(self, limit):
            super().__init__(limit)
            budgets.append(self)

    with monkeypatch.context() as patch:
        for name, cls in reducer_classes.items():
            patch.setattr(groebner, name, cls)
        patch.setattr(groebner, "_Budget", RecordedBudget)
        result = run()
    (budget,) = budgets
    return result, budget.limit - budget.left


def basis_and_steps(gens, monkeypatch, schedule=(), **reducer_classes):
    """buchberger's basis and step count, as ``steps_of`` gives them."""
    return steps_of(lambda: buchberger(gens, schedule=schedule), monkeypatch, **reducer_classes)


def test_memoised_reducer_matches_heap_oracle_in_buchberger(monkeypatch):
    # same basis and the same reduction-step count as the scanning reducer
    ideals = small_ideals(58, 8) + small_ideals(59, 4, nvars=3) + mixed_degree_ideals(64, 8)
    steps = 0
    for gens in ideals:
        got = basis_and_steps(gens, monkeypatch)
        assert got == basis_and_steps(gens, monkeypatch, _Reducer=oracles.HeapReducer)
        steps += got[1]
    assert steps > 1000


def test_memoised_reducer_matches_heap_oracle_as_the_list_grows():
    # reducers are added one at a time and every reducer is reused across
    # calls, so memo entries made before an add are consulted after it, by
    # lane rows and, for an input past the cap, by the heap path alike
    rng = SplitMix64(60)
    for gens in small_ideals(61, 6) + mixed_degree_ideals(62, 6):
        nvars = gens[0].nvars
        packing = _packing(nvars)
        top = next(d for d in range(60) if comb(d + nvars, nvars) > _LANE_CAP)
        past = packing.pack((top,) + (0,) * (nvars - 1))
        memo = _Reducer(packing, P, _Budget(10 ** 6))
        scan = oracles.HeapReducer(packing, P, _Budget(10 ** 6))
        for g in gens + list(buchberger(gens).basis):
            items = encode(g.scale(fp_inv(g.packed[g.lead_key()], P)))
            memo.add(items)
            scan.add(items)
            for k in range(4):
                f = encode(rand_poly(rng, nvars, maxdeg=4, terms=8))
                if k == 3:
                    f.append((past, 1))
                assert memo.reduce_terms(f) == scan.reduce_terms(f)
                assert memo.budget.left == scan.budget.left


def test_reducer_memo_rescans_after_add():
    x, y = V(0), V(1)
    packing = _packing(2)
    red = _Reducer(packing, P)
    red.add(encode(x * x - 1))
    y2 = [(packing.pack((0, 2)), 1)]
    x2y = [(packing.pack((2, 1)), 1)]
    assert red.reduce_terms(y2) == dict(y2)          # irreducible so far
    assert red.reduce_terms(x2y) == {packing.pack((0, 1)): 1}
    red.add(encode(y - 3))
    assert red.reduce_terms(y2) == {0: 9}            # y^2 -> 9 after the add
    # x^2*y still goes through x^2 - 1, the first reducer that divides it
    scan = oracles.HeapReducer(packing, P)
    scan.add(encode(x * x - 1))
    scan.add(encode(y - 3))
    assert red.reduce_terms(x2y) == scan.reduce_terms(x2y) == {0: 3}


def test_buchberger_budget_error():
    d = random_instance(P, 1)
    m = gram_matrix(d)
    minors = oracles.symmetric_minors(m, 3)
    with pytest.raises(ResourceBudgetExceeded):
        buchberger(minors, budget=10)


def test_normal_form_examples():
    x, y = V(0), V(1)
    gb = buchberger([x * x - 1, y - x])
    for g in gb.basis:
        assert normal_form(g, gb).is_zero()
    one = MultiPoly.constant(1, 2, P)
    assert normal_form(one, gb) == one


def test_normal_form_against_brute_force_oracle():
    rng = SplitMix64(53)
    cases = 0
    for gens in small_ideals(54, 10):
        gb = buchberger(gens)
        for _ in range(15):
            f = rand_poly(rng, maxdeg=4, terms=6)
            nf = normal_form(f, gb)
            assert nf == oracles.brute_normal_form(f, gb.basis, rng)
            cases += 1
    assert cases == 150


def test_a_basis_reducer_spends_no_budget(seed1):
    # the census basis takes exactly its 3 646 steps and leaves no budget,
    # yet everything the census and the strata check ask of it still runs
    affine = census_affine_ideal(seed1)
    gb = buchberger(affine, budget=3646, schedule=CENSUS_SCHEDULE)
    assert quotient_dim(gb) == 31
    assert reducedness_certificate(gb, SplitMix64(1)) == "certified"
    T = random_invertible(4, P, SplitMix64(stage_seed(1, 0, "census")))
    moved = [[oracles.linear_change(m, T) for m in row] for row in gram_matrix(seed1.d)]
    minors = {m for row in rank_stratum_ideal(moved) for m in row if not m.is_zero()}
    assert all(normal_form(m.specialize(0, 1), gb).is_zero() for m in minors)
    # the unit ideal, in the one step that finds -1, by the completion or
    # by a replay (a stale one, which stops at once): its basis is 1 and
    # every polynomial reduces to zero, however many steps that takes
    x = V(0)
    rng = SplitMix64(66)
    for schedule in [(), CENSUS_SCHEDULE]:
        unit = buchberger([x, x - 1], budget=1, schedule=schedule)
        assert unit.is_unit() and unit.basis == (MultiPoly.constant(1, 2, P),)
        for _ in range(10):
            assert normal_form(rand_poly(rng, maxdeg=5, terms=8), unit).is_zero()


def test_basis_reducer_matches_brute_force_on_both_exits(seed1, monkeypatch):
    # a replay that finds the whole basis (p = 32003), whose reducer is the
    # certifying completion's, and one the completion has to extend (the
    # first census chart of seed 1 at p = 7), whose reducer is the final
    # inter-reduction's: the second inter-reduction only runs there
    delta7 = discriminant(random_instance(7, 1))
    rng = SplitMix64(67)
    for gens, interreductions in [(census_affine_ideal(seed1), 1),
                                  (census_ideal(delta7, 1), 2)]:
        calls = []
        original = groebner._interreduce

        def counted(*args):
            calls.append(args)
            return original(*args)

        with monkeypatch.context() as patch:
            patch.setattr(groebner, "_interreduce", counted)
            gb = buchberger(gens, schedule=CENSUS_SCHEDULE)
        assert len(calls) == interreductions
        assert gb == buchberger(gens)
        p = gb.p
        for _ in range(8):
            f = rand_poly(rng, nvars=3, maxdeg=2, terms=8, p=p)
            assert normal_form(f, gb) == oracles.brute_normal_form(f, gb.basis, rng)


def test_normal_form_is_multiplicative_modulo_ideal():
    rng = SplitMix64(55)
    for gens in small_ideals(56, 5):
        gb = buchberger(gens)
        for _ in range(10):
            f = rand_poly(rng)
            g = rand_poly(rng)
            lhs = normal_form(f * g, gb)
            rhs = normal_form(normal_form(f, gb) * normal_form(g, gb), gb)
            assert lhs == rhs


def test_quotient_dim_examples():
    x, y = V(0), V(1)
    assert quotient_dim(buchberger([x ** 2, y ** 3])) == 6
    assert quotient_dim(buchberger([x - 1, y - 1])) == 1
    sm = standard_monomials(buchberger([x ** 2, y ** 3]))
    assert set(sm) == {(0, 0), (1, 0), (0, 1), (1, 1), (0, 2), (1, 2)}


def test_quotient_dim_raises_on_positive_dimension():
    x, y = V(0), V(1)
    gb = buchberger([x])
    with pytest.raises(NotZeroDimensional):
        quotient_dim(gb)


def test_staircase_users_raise_on_positive_dimension():
    # the leading terms decide at once; no monomial is listed first
    x, y = V(0), V(1)
    gb = buchberger([x])
    with pytest.raises(NotZeroDimensional):
        standard_monomials(gb)
    with pytest.raises(NotZeroDimensional):
        mult_matrix(gb, x + y)
    with pytest.raises(NotZeroDimensional):
        reducedness_certificate(gb, SplitMix64(1))


def test_staircase_cap_is_a_resource_limit(monkeypatch):
    # a finite staircase larger than the cap is not "not zero-dimensional"
    x, y = V(0), V(1)
    monkeypatch.setattr(groebner, "_STANDARD_MONOMIAL_CAP", 5)
    with pytest.raises(ResourceBudgetExceeded):
        standard_monomials(buchberger([x ** 2, y ** 3]))


def test_quotient_dim_against_macaulay_oracle_spot():
    for gens in tame_zero_dim_ideals(57, 5):
        gb = buchberger(gens)
        assert is_zero_dimensional(gb)
        assert quotient_dim(gb) == oracles.macaulay_quotient_dim(gens)


def test_is_zero_dimensional_examples():
    x, y = V(0), V(1)
    assert not is_zero_dimensional(buchberger([x]))
    assert is_zero_dimensional(buchberger([x, y]))
    assert not is_zero_dimensional(buchberger([x * y]))
    assert is_zero_dimensional(buchberger([x * y, x ** 2 - y ** 3]))
    one = MultiPoly.constant(1, 2, P)
    assert is_zero_dimensional(buchberger([one]))


def test_in_radical_examples():
    x, y = V(0), V(1)
    assert in_radical(x, [x * x])
    assert not in_radical(y, [x])
    # the zero ideal: only zero is nilpotent
    assert not in_radical(y, [])
    assert in_radical(MultiPoly.zero(2, P), [])


def test_in_radical_determinant_in_minor_ideal():
    d = random_instance(P, 1)
    m = gram_matrix(d)
    delta = mp_det(m)
    minors = [g for row in rank_stratum_ideal(m) for g in row]
    gb = buchberger(minors)
    assert in_radical(delta, gb.basis)


def test_in_radical_agrees_with_power_membership():
    # in (x^a, y^b), a polynomial is in the radical iff its constant term
    # vanishes; when it is, some power <= 6 reduces to zero
    rng = SplitMix64(58)
    x, y = V(0), V(1)
    for _ in range(20):
        a, b = rng.below(3) + 1, rng.below(3) + 1
        ideal = [x ** a, y ** b]
        gb = buchberger(ideal)
        f = rand_poly(rng, maxdeg=2, terms=4)
        expected = f.terms.get((0, 0), 0) == 0
        assert in_radical(f, ideal) == expected
        if expected:
            powers = [normal_form(f ** k, gb).is_zero() for k in range(1, 7)]
            assert any(powers)


def test_is_irrelevant_examples():
    n = 4
    ys = [MultiPoly.variable(i, n, P) for i in range(n)]
    assert is_irrelevant(ys)
    assert not is_irrelevant([ys[0]])
    assert not is_irrelevant([ys[0] * ys[1], ys[2], ys[3]])
    with pytest.raises(NotHomogeneous):
        is_irrelevant([ys[0] + 1])
    with pytest.raises(ValueError):
        is_irrelevant([MultiPoly.zero(n, P)])


def random_forms(rng, nvars, count, p, planted):
    """``count`` random forms of degrees 1 to 3 in ``nvars`` variables, with
    a common projective zero when ``planted``: no form has the pure power of
    y0, so all vanish at (1, 0, ..., 0), which a random chart then moves."""
    forms = []
    while len(forms) < count:
        d = rng.below(3) + 1
        terms = [(e, rng.below(p)) for e in oracles._monomials_of_degree(nvars, d)
                 if not (planted and e[0] == d)]
        f = MultiPoly.from_terms(nvars, p, terms)
        if not f.is_zero():
            forms.append(f)
    T = random_invertible(nvars, p, rng)
    return [oracles.linear_change(f, T) for f in forms]


@pytest.mark.parametrize("p", [7, 32003])
def test_is_irrelevant_stops_with_the_answer_of_the_whole_basis(p):
    # True at the first pure power of every variable among the leads found,
    # False only after the whole completion: the answer of the reduced basis
    rng = SplitMix64(69)
    answers = []
    for nvars in (3, 4):
        for count, planted in [(nvars, False), (nvars, True), (nvars + 1, True),
                               (nvars - 1, False), (nvars + 1, False)]:
            for _ in range(3):
                gens = random_forms(rng, nvars, count, p, planted)
                answer = is_irrelevant(gens)
                assert answer == is_zero_dimensional(buchberger(gens))
                answers.append(answer)
    assert answers.count(True) >= 10 and answers.count(False) >= 10


@pytest.mark.parametrize("p, width", [(7, 64), (32003, 64), (2 ** 31 - 1, 128),
                                      (2 ** 61 - 1, 192), (18446744073709551557, 192)])
def test_is_irrelevant_on_lane_rows_matches_the_heap_oracle(p, width, monkeypatch, capsys):
    # the infinity-check planes and the plane conics that verify hands over
    # at seeds 1-3, and the homogeneous test ideals, on lane rows of every
    # width: the answer and the steps of the scanning oracle
    handed = []
    with monkeypatch.context() as patch:
        patch.setattr(singular, "is_irrelevant",
                      lambda gens, budget: handed.append(gens) or is_irrelevant(gens, budget))
        for seed in (1, 2, 3):
            assert main(["verify", "--prime", str(p), "--seed", str(seed),
                         "--checks", "smoothness"]) == 0
    capsys.readouterr()
    assert len(handed) >= 6 and {len(gens) for gens in handed} == {4}
    rng = SplitMix64(70)
    ideals = handed + [random_forms(rng, nvars, count, p, planted)
                       for nvars in (3, 4)
                       for count, planted in [(nvars, False), (nvars, True), (nvars + 1, False)]]
    ideals.append(oracles.symmetric_minors(gram_matrix(random_instance(p, 1)), 2))
    widths = set()

    class Lanes(_Reducer):
        def _row(self, pairs, q=0):
            widths.add(self.width)
            return super()._row(pairs, q)

    answers = []
    for gens in ideals:
        lanes = steps_of(lambda: is_irrelevant(gens), monkeypatch, _Reducer=Lanes)
        assert lanes == steps_of(lambda: is_irrelevant(gens), monkeypatch,
                                 _Reducer=oracles.HeapReducer)
        answers.append(lanes[0])
    assert widths == {width}
    assert True in answers and False in answers


def test_seed1_irrelevance_checks_take_pinned_steps(seed1):
    # the verify at seed 1 asks two irrelevance questions, both True: the
    # census partials on the plane at infinity of its chart (223 steps) and
    # the smoothness certificate's four plane conics (18 steps)
    T = random_invertible(4, P, SplitMix64(stage_seed(1, 0, "census")))
    moved = oracles.linear_change(seed1.delta, T)
    plane = [moved.partial(i).specialize(0, 0) for i in range(4)]
    conics = singular.center_plane_conics(cubic_equation(seed1.d))
    for gens, steps in [(plane, 223), (conics, 18)]:
        assert is_irrelevant(gens, budget=steps)
        with pytest.raises(ResourceBudgetExceeded):
            is_irrelevant(gens, budget=steps - 1)


def test_is_irrelevant_for_rank1_minors_of_seeded_gram():
    # the Groebner route to the empty rank <= 1 locus, which strata_check
    # derives from the census instead: an oracle for that corollary
    for seed in (1, 3):
        minors = oracles.symmetric_minors(gram_matrix(random_instance(P, seed)), 2)
        assert len(minors) == 21
        assert is_irrelevant(minors)


def test_mult_matrix_examples():
    x = V(0, n=1)
    gb = buchberger([x * x - 1])
    assert mult_matrix(gb, x) == [[0, 1], [1, 0]]
    assert charpoly(mult_matrix(gb, x), P) == upoly((-1, 0, 1), P)
    gb2 = buchberger([x - 5])
    assert mult_matrix(gb2, x) == [[5]]
    assert charpoly(mult_matrix(gb2, x), P) == upoly((-5, 1), P)


def test_mult_matrix_charpoly_annihilates_operator():
    rng = SplitMix64(59)
    for gens in small_ideals(60, 5):
        gb = buchberger(gens)
        if not is_zero_dimensional(gb) or quotient_dim(gb) == 0:
            continue
        ell = V(0) + 3 * V(1)
        cp = charpoly(mult_matrix(gb, ell), P)
        acc = MultiPoly.zero(2, P)
        power = MultiPoly.constant(1, 2, P)
        for c in cp:
            acc = acc + c * power
            power = power * ell
        assert normal_form(acc, gb).is_zero()


def test_reducedness_certificate_one_sided():
    x = V(0, n=1)
    rng = SplitMix64(61)
    gb_red = buchberger([x * x - 1])          # two distinct points
    assert reducedness_certificate(gb_red, rng) == "certified"
    gb_fat = buchberger([(x - 1) * (x - 1)])  # a double point: never certified
    assert reducedness_certificate(gb_fat, SplitMix64(62)) == "not_certified"


def test_gbasis_canonical_sorting_and_unit():
    x, y = V(0), V(1)
    one = MultiPoly.constant(1, 2, P)
    gb = buchberger([x + 1, x])
    assert gb.is_unit()
    assert gb.basis == (one,)
    assert quotient_dim(gb) == 0
    assert standard_monomials(gb) == []
