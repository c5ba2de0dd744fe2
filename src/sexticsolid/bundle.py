"""The quadric-bundle construction.

An instance is the symmetric 4x4 Gram matrix M = [[A, B], [B^T, C]] of forms
over F_p in the base coordinates Y0..Y3: a symmetric 3x3 block A of linear
forms, a column B of three quadratic forms and one cubic form C.  Projecting
the cubic hypersurface

    sum_ij A_ij X_i X_j + 2 sum_i B_i X_i + C = 0

in the seven coordinates (X0..X2, Y0..Y3) away from the plane
{Y0 = ... = Y3 = 0} fibers it in quadric surfaces over P^3 with Gram matrix
M; det M, of degree 6, is the branch sextic of the associated double solid.
An instance is stored as the ten distinct entries of M.  GRAM_FORMS (their
keys and degrees, in instance-file order) and GRAM_INDEX (where each sits in
M) state this layout: drawing, parsing, printing, the Gram matrix, the cubic
and the strata all read them.  fiber_gram alone mirrors its ten values
through a hand-written 4x4 literal, for speed on the sampling route;
test_fiber_gram_matches_entrywise_gram_matrix checks it against the layout.
"""
from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import combinations_with_replacement, islice
from operator import mul

from .errors import ArityMismatch, DegenerateDiscriminant, SexticSolidError, ZeroPoint
from .exactalg import (MASK64, SplitMix64, ensure_field_prime, fp_inv,
                       independent_pair, upoly_fp_roots)
from .multipoly import (MultiPoly, format_poly, monomials_of_degree, mp_det,
                        parse_poly, restrict_to_line)

BASE_NAMES = ("Y0", "Y1", "Y2", "Y3")
AMBIENT_NAMES = ("X0", "X1", "X2", "Y0", "Y1", "Y2", "Y3")

#: The ten distinct Gram entries, (key, degree), in instance-file order.
GRAM_FORMS = (("A00", 1), ("A01", 1), ("A02", 1), ("A11", 1), ("A12", 1), ("A22", 1),
              ("B0", 2), ("B1", 2), ("B2", 2), ("C", 3))
#: GRAM_INDEX[i][j] is the position in GRAM_FORMS of the Gram entry (i, j).
GRAM_INDEX = ((0, 1, 2, 6), (1, 3, 4, 7), (2, 4, 5, 8), (6, 7, 8, 9))

#: The 35 monomials of degree <= 3 in Y0..Y3, the table through which
#: fiber_gram evaluates every Gram entry at once: degree by degree, each
#: degree as the sorted variable multisets in lexicographic order.
_CUBIC_MONOMIALS = tuple(tuple(c.count(i) for i in range(4))
                         for k in range(4) for c in combinations_with_replacement(range(4), k))
#: Where the quadratic monomials whose smallest variable is Y_i begin.
_SQUARE_STARTS = (0, 4, 7, 9)
#: The most monomials of one Gram entry: the 20 cubic monomials of C.
_GRAM_SLOT_TERMS = sum(1 for e in _CUBIC_MONOMIALS if sum(e) == 3)


def _check_form_degree(f: MultiPoly, key: str, degree: int) -> MultiPoly:
    """f, if it is zero or homogeneous of the degree of the entry key."""
    if not (f.is_zero() or f.homogeneous_degree() == degree):
        raise ArityMismatch(f"{key} is not homogeneous of degree {degree}")
    return f


class CubicData(namedtuple("CubicData", "p entries seed")):
    """One instance: its ten distinct Gram entries, forms in F_p[Y0..Y3] in
    GRAM_FORMS order (A00 A01 A02 A11 A12 A22 B0 B1 B2 C), each zero or
    homogeneous of its key's degree, and the seed it was drawn from, if
    any.  The Gram matrix is symmetric by construction (GRAM_INDEX).

    No __slots__: the cached properties below live in the instance dict."""

    def __new__(cls, p, entries, seed=None):
        ensure_field_prime(p)
        if len(entries) != len(GRAM_FORMS):
            raise ArityMismatch(f"an instance has {len(GRAM_FORMS)} Gram entries "
                                f"({' '.join(k for k, _ in GRAM_FORMS)}), "
                                f"got {len(entries)}")
        for f, (key, degree) in zip(entries, GRAM_FORMS):
            if f.nvars != 4 or f.p != p:
                raise ArityMismatch(f"{key} must live in F_p[Y0..Y3]")
            _check_form_degree(f, key, degree)
        return super().__new__(cls, p, entries, seed)

    @cached_property
    def _ambient(self) -> tuple:
        """The ambient cubic and its seven partials, built (and compiled on
        first evaluation) once per instance."""
        f = cubic_equation(self)
        return f, tuple(f.partial(i) for i in range(f.nvars))

    @cached_property
    def _gram_vectors(self) -> tuple:
        """The ten Gram entries, Kronecker-packed over _CUBIC_MONOMIALS: the
        slot width S and one int per monomial whose slot k, bits k*S up to
        (k+1)*S, holds that monomial's coefficient in entry k.

        Against a table of monomial values in [0, p), slot k of the dot
        product is entry k's value before reduction: a sum of at most
        _GRAM_SLOT_TERMS products, each at most (p-1)^2, since no entry has
        more monomials than the cubic C.  S is the bit length of
        _GRAM_SLOT_TERMS * p^2, so no slot overflows into its neighbour."""
        shift = (_GRAM_SLOT_TERMS * self.p * self.p).bit_length()
        packed = tuple(sum(f.terms.get(e, 0) << (k * shift)
                           for k, f in enumerate(self.entries))
                       for e in _CUBIC_MONOMIALS)
        return shift, packed


def random_instance(p: int, seed: int) -> CubicData:
    """Seeded instance with every coefficient uniform in F_p.

    Coefficient order (documented, fixed): the forms in GRAM_FORMS order
    (A00, A01, A02, A11, A12, A22, B0, B1, B2, C); within each form, one draw
    per monomial of its degree, monomials in decreasing grevlex order.
    Identical (p, seed mod 2^64) gives an identical instance, bit for bit,
    and the instance records the seed mod 2^64 that it was drawn from.
    """
    ensure_field_prime(p)
    rng = SplitMix64(seed)
    return CubicData(p, tuple(
        MultiPoly.from_terms(4, p, [(e, rng.below(p)) for e in monomials_of_degree(4, degree)])
        for _, degree in GRAM_FORMS), seed & MASK64)


def symmetric_matrix(entries) -> tuple:
    """The symmetric 4x4 tuple of rows holding the ten entries, given in
    GRAM_FORMS order, at their GRAM_INDEX places."""
    return tuple(tuple(entries[k] for k in row) for row in GRAM_INDEX)


def gram_matrix(d: CubicData) -> tuple:
    """The 4x4 symmetric Gram matrix [[A, B], [B^T, C]] of the fiber quadric,
    as a tuple of rows of forms in Y0..Y3."""
    return symmetric_matrix(d.entries)


def discriminant(d: CubicData) -> MultiPoly:
    """The branch sextic delta = det(Gram matrix); raises if it vanishes identically."""
    delta = mp_det(gram_matrix(d))
    if delta.is_zero():
        raise DegenerateDiscriminant("determinant of the Gram matrix is identically zero")
    if delta.homogeneous_degree() != 6:
        raise DegenerateDiscriminant("discriminant is not homogeneous of degree 6")
    return delta


def cubic_equation(d: CubicData) -> MultiPoly:
    """The defining cubic v^T M v in the seven ambient coordinates X0..X2,
    Y0..Y3, with M = gram_matrix(d) and v = (X0, X1, X2, 1): over a base
    point y, F(x, s y) = s (x, s) M(y) (x, s)^T, so its fiber quadric has
    Gram matrix M(y)."""
    v = [MultiPoly.variable(i, 7, d.p) for i in range(3)] + [MultiPoly.constant(1, 7, d.p)]
    total = MultiPoly.zero(7, d.p)
    for i, row in enumerate(gram_matrix(d)):
        for j, f in enumerate(row):
            total = total + f.embed(7, (3, 4, 5, 6)) * v[i] * v[j]
    return total


def _check_base_point(d: CubicData, y):
    if len(y) != 4:
        raise ArityMismatch("base points have 4 coordinates")
    if all(v % d.p == 0 for v in y):
        raise ZeroPoint("the zero vector is not a point of P^3")


def fiber_gram(d: CubicData, y):
    """The 4x4 Gram matrix of the fiber quadric at the base point y: one dot
    product of the packed coefficient vectors with the values of
    _CUBIC_MONOMIALS at y, one extraction per slot of the ten distinct
    entries, mirrored."""
    _check_base_point(d, y)
    p = d.p
    shift, packed = d._gram_vectors
    y = [v % p for v in y]
    squares = [a * b % p for i, a in enumerate(y) for b in y[i:]]
    cubes = [a * b % p for a, start in zip(y, _SQUARE_STARTS) for b in squares[start:]]
    total = sum(map(mul, packed, [1] + y + squares + cubes))
    mask = (1 << shift) - 1
    a00, a01, a02, a11, a12, a22, b0, b1, b2, c = [
        (total >> o & mask) % p for o in range(0, 10 * shift, shift)]
    return [[a00, a01, a02, b0], [a01, a11, a12, b1],
            [a02, a12, a22, b2], [b0, b1, b2, c]]


class SmoothnessReport(namedtuple("SmoothnessReport",
                                  "points_requested points_checked failures")):
    """Spot-check of nonsingularity at sampled rational points.  It passes
    only when every requested point was found and none is singular."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.points_checked == self.points_requested and not self.failures


def points_on_lines(f: MultiPoly, rng: SplitMix64, lines: int):
    """Yield the distinct F_p points of f = 0 on up to ``lines`` seeded
    random lines, normalized (first nonzero coordinate 1).

    Draw order, per line: the f.nvars coordinates of a, then those of b, each
    one rng.below(p); a zero or dependent pair uses up the line.  f is
    restricted to a + t b, and its roots, found with the seed
    rng.next_u64(), give the points in increasing order of t.  A point
    already yielded, from this line or an earlier one, is skipped; a line
    inside f = 0 yields nothing.
    """
    p, n = f.p, f.nvars
    seen = set()
    for _ in range(lines):
        a = tuple(rng.below(p) for _ in range(n))
        b = tuple(rng.below(p) for _ in range(n))
        if not independent_pair(a, b, p):
            continue
        r = restrict_to_line(f, a, b)
        if not r:
            continue  # the line lies inside f = 0
        for t in sorted(upoly_fp_roots(r, p, rng.next_u64())):
            pt = _normalize_projective([(x + t * y) % p for x, y in zip(a, b)], p)
            if pt not in seen:
                seen.add(pt)
                yield pt


def smoothness_spotcheck(d: CubicData, n_samples: int, seed: int) -> SmoothnessReport:
    """Sample n_samples rational points of the instance's ambient cubic on
    seeded random lines (points_on_lines, 64 n_samples + 256 lines at most),
    and check that its Jacobian vanishes at none of them."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    f, partials = d._ambient
    points = list(islice(points_on_lines(f, SplitMix64(seed), 64 * n_samples + 256),
                         n_samples))
    failures = tuple(pt for pt in points
                     if all(g.eval(pt) == 0 for g in partials))
    return SmoothnessReport(points_requested=n_samples, points_checked=len(points),
                            failures=failures)


def _normalize_projective(v, p):
    """Scale so the first nonzero coordinate is 1; None for the zero vector."""
    for x in v:
        if x % p:
            inv = fp_inv(x, p)
            return tuple(c * inv % p for c in v)
    return None


# ---------------------------------------------------------------------------
# instance files
# ---------------------------------------------------------------------------

def parse_instance(text: str) -> CubicData:
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ValueError(f"line {lineno}: expected 'key: value'")
        key, _, value = line.partition(":")
        key = key.strip()
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = (lineno, value.strip())
    if "prime" not in entries:
        raise ValueError("instance file must declare a prime")

    def read(key, parse):
        """parse(the value at key); an error names the key and its line."""
        lineno, value = entries.pop(key)
        try:
            return parse(value)
        except (ValueError, SexticSolidError) as exc:
            raise type(exc)(f"line {lineno}: {key}: {exc}") from exc

    p = read("prime", lambda value: ensure_field_prime(int(value)))
    if "seed" in entries:
        seed = read("seed", int)
        if entries:
            raise ValueError("seeded instance file must not also list forms")
        return random_instance(p, seed)
    keys = [k for k, _ in GRAM_FORMS]
    missing = [k for k in keys if k not in entries]
    if missing:
        raise ValueError(f"missing form entries: {', '.join(missing)}")
    extra = [k for k in entries if k not in keys]
    if extra:
        raise ValueError(f"unknown entries: {', '.join(extra)}")
    return CubicData(p, tuple(
        read(k, lambda value: _check_form_degree(parse_poly(value, 4, p, BASE_NAMES), k, degree))
        for k, degree in GRAM_FORMS))


def load_instance(path) -> CubicData:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def explicit_instance_text(d: CubicData) -> str:
    """The ten defining forms as an explicit instance file, regardless of
    whether the instance was seeded (what `show-instance` prints)."""
    lines = [f"prime: {d.p}"]
    for (key, _), f in zip(GRAM_FORMS, d.entries):
        lines.append(f"{key}: {format_poly(f, BASE_NAMES)}")
    return "\n".join(lines) + "\n"
