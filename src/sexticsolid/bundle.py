"""The quadric-bundle construction.

An instance is a triple of form families over F_p in the base coordinates
Y0..Y3: a symmetric 3x3 array A of linear forms, a vector B of three
quadratic forms, and one cubic form C.  Projecting the cubic hypersurface

    sum_ij A_ij X_i X_j + 2 sum_i B_i X_i + C = 0

in the seven coordinates (X0..X2, Y0..Y3) away from the plane
{Y0 = ... = Y3 = 0} fibers it in quadric surfaces over P^3; the 4x4
symmetric Gram matrix [[A, B], [B^T, C]] of the fiber quadric has degree-6
determinant, the branch sextic of the associated double solid.  The Gram
matrix is the one statement of this layout: the cubic is built from it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations_with_replacement, islice
from operator import mul

from .errors import ArityMismatch, DegenerateDiscriminant, ZeroPoint
from .exactalg import (SplitMix64, ensure_field_prime, fp_inv, independent_pair,
                       upoly_fp_roots)
from .multipoly import (MultiPoly, format_poly, monomials_of_degree, mp_det,
                        parse_poly, restrict_to_line)

BASE_NAMES = ("Y0", "Y1", "Y2", "Y3")
AMBIENT_NAMES = ("X0", "X1", "X2", "Y0", "Y1", "Y2", "Y3")

_FORM_KEYS = ("A00", "A01", "A02", "A11", "A12", "A22", "B0", "B1", "B2", "C")
_UPPER = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))

#: The 35 monomials of degree <= 3 in Y0..Y3, the table through which
#: fiber_gram evaluates every Gram entry at once: degree by degree, each
#: degree as the sorted variable multisets in lexicographic order.
_CUBIC_MONOMIALS = tuple(tuple(c.count(i) for i in range(4))
                         for k in range(4) for c in combinations_with_replacement(range(4), k))
#: Where the quadratic monomials whose smallest variable is Y_i begin.
_SQUARE_STARTS = (0, 4, 7, 9)
#: The most monomials of one Gram entry: the 20 cubic monomials of C.
_GRAM_SLOT_TERMS = sum(1 for e in _CUBIC_MONOMIALS if sum(e) == 3)


@dataclass(frozen=True)
class CubicData:
    """Defining forms of one instance; A is the full symmetric 3x3 tuple."""

    p: int
    A: tuple
    B: tuple
    C: MultiPoly
    seed: int | None = None

    def __post_init__(self):
        ensure_field_prime(self.p)
        if len(self.A) != 3 or any(len(r) != 3 for r in self.A):
            raise ArityMismatch("A must be 3x3")
        if len(self.B) != 3:
            raise ArityMismatch("B must have 3 entries")
        for i in range(3):
            for j in range(3):
                if self.A[i][j] != self.A[j][i]:
                    raise ArityMismatch("A must be symmetric")
        for f, d in self._declared():
            if f.nvars != 4 or f.p != self.p:
                raise ArityMismatch("forms must live in F_p[Y0..Y3]")
            hd = f.homogeneous_degree()
            if not (f.is_zero() or hd == d):
                raise ArityMismatch(f"form of declared degree {d} is not homogeneous of that degree")

    def _declared(self):
        for i, j in _UPPER:
            yield self.A[i][j], 1
        for b in self.B:
            yield b, 2
        yield self.C, 3

    @cached_property
    def _ambient(self) -> tuple:
        """The ambient cubic and its seven partials, built (and compiled on
        first evaluation) once per instance."""
        f = cubic_equation(self)
        return f, tuple(f.partial(i) for i in range(f.nvars))

    @cached_property
    def _gram_vectors(self) -> tuple:
        """The ten distinct Gram entries (the upper triangle of A, then B,
        then C), Kronecker-packed over _CUBIC_MONOMIALS: the slot width S and
        one int per monomial whose slot k, bits k*S up to (k+1)*S, holds that
        monomial's coefficient in entry k.

        Against a table of monomial values in [0, p), slot k of the dot
        product is entry k's value before reduction: a sum of at most
        _GRAM_SLOT_TERMS products, each at most (p-1)^2, since no entry has
        more monomials than the cubic C.  S is the bit length of
        _GRAM_SLOT_TERMS * p^2, so no slot overflows into its neighbour."""
        shift = (_GRAM_SLOT_TERMS * self.p * self.p).bit_length()
        packed = tuple(sum(f.terms.get(e, 0) << (k * shift)
                           for k, (f, _) in enumerate(self._declared()))
                       for e in _CUBIC_MONOMIALS)
        return shift, packed


@dataclass(frozen=True)
class DiscriminantSurface:
    """The branch sextic: delta = det(Gram), homogeneous of degree 6."""

    delta: MultiPoly

    @cached_property
    def partials(self) -> tuple:
        """The four partials of delta, built once per surface.  They generate
        the Jacobian ideal of the sextic: delta itself is redundant, as six
        times it is the Euler combination of the partials and 6 is a unit
        because p > 6."""
        return tuple(self.delta.partial(i) for i in range(4))


def random_instance(p: int, seed: int) -> CubicData:
    """Seeded instance with every coefficient uniform in F_p.

    Coefficient order (documented, fixed): the upper triangle of A row by
    row (A00, A01, A02, A11, A12, A22), then B0, B1, B2, then C; within each
    form, one draw per monomial of the declared degree, monomials in
    decreasing grevlex order.  Identical (p, seed) gives an identical
    instance, bit for bit.
    """
    ensure_field_prime(p)
    rng = SplitMix64(seed)

    def draw(degree):
        return MultiPoly.from_terms(
            4, p, [(e, rng.below(p)) for e in monomials_of_degree(4, degree)])

    upper = {idx: draw(1) for idx in _UPPER}
    A = tuple(tuple(upper[(min(i, j), max(i, j))] for j in range(3)) for i in range(3))
    B = tuple(draw(2) for _ in range(3))
    C = draw(3)
    return CubicData(p=p, A=A, B=B, C=C, seed=seed)


def diagonal_instance(p: int) -> CubicData:
    """The degenerate reference instance A = diag(Y0, Y1, Y2), B = 0, C = Y3^3."""
    zero = MultiPoly.zero(4, p)
    ys = [MultiPoly.variable(i, 4, p) for i in range(4)]
    A = tuple(tuple(ys[i] if i == j else zero for j in range(3)) for i in range(3))
    B = (zero, zero, zero)
    C = ys[3] * ys[3] * ys[3]
    return CubicData(p=p, A=A, B=B, C=C, seed=None)


def gram_matrix(d: CubicData) -> tuple:
    """The 4x4 symmetric Gram matrix [[A, B], [B^T, C]] of the fiber quadric,
    as a tuple of rows of forms in Y0..Y3."""
    rows = []
    for i in range(3):
        rows.append(tuple(d.A[i]) + (d.B[i],))
    rows.append(tuple(d.B) + (d.C,))
    return tuple(rows)


def discriminant(d: CubicData) -> DiscriminantSurface:
    """delta = det(Gram matrix); raises if it vanishes identically."""
    delta = mp_det(gram_matrix(d))
    if delta.is_zero():
        raise DegenerateDiscriminant("determinant of the Gram matrix is identically zero")
    if delta.homogeneous_degree() != 6:
        raise DegenerateDiscriminant("discriminant is not homogeneous of degree 6")
    return DiscriminantSurface(delta)


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


def _entry_values(d: CubicData, y, count: int):
    """The first count of the ten Gram entries at y, mod p: one dot product
    of the packed coefficient vectors with the values of _CUBIC_MONOMIALS at
    y, reduced mod p, and one extraction per slot."""
    p = d.p
    shift, packed = d._gram_vectors
    y = [v % p for v in y]
    squares = [a * b % p for i, a in enumerate(y) for b in y[i:]]
    cubes = [a * b % p for a, start in zip(y, _SQUARE_STARTS) for b in squares[start:]]
    total = sum(map(mul, packed, [1] + y + squares + cubes))
    mask = (1 << shift) - 1
    return [(total >> o & mask) % p for o in range(0, count * shift, shift)]


def fiber_gram(d: CubicData, y):
    """The 4x4 Gram matrix of the fiber quadric at the base point y: the ten
    distinct entries are evaluated once and mirrored."""
    _check_base_point(d, y)
    a00, a01, a02, a11, a12, a22, b0, b1, b2, c = _entry_values(d, y, 10)
    return [[a00, a01, a02, b0], [a01, a11, a12, b1],
            [a02, a12, a22, b2], [b0, b1, b2, c]]


def exceptional_conic(d: CubicData, y):
    """The 3x3 matrix A(y): the Gram matrix of the conic traced on the
    center plane of the projection over the base point y."""
    _check_base_point(d, y)
    a00, a01, a02, a11, a12, a22 = _entry_values(d, y, 6)
    return [[a00, a01, a02], [a01, a11, a12], [a02, a12, a22]]


@dataclass(frozen=True)
class SmoothnessReport:
    """Spot-check of nonsingularity at sampled rational points.  It passes
    only when every requested point was found and none is singular."""

    points_requested: int
    points_checked: int
    failures: tuple

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


def smoothness_spotcheck_cubic(f: MultiPoly, n_samples: int, seed: int) -> SmoothnessReport:
    """Sample n_samples rational points of the hypersurface f = 0 on seeded
    random lines (points_on_lines, 64 n_samples + 256 lines at most), and
    verify the Jacobian does not vanish at any of them."""
    return _spotcheck(f, [f.partial(i) for i in range(f.nvars)], n_samples, seed)


def smoothness_spotcheck(d: CubicData, n_samples: int, seed: int) -> SmoothnessReport:
    """smoothness_spotcheck_cubic of the instance's ambient cubic, whose
    partials are built once per instance."""
    return _spotcheck(*d._ambient, n_samples, seed)


def _spotcheck(f: MultiPoly, partials, n_samples: int, seed: int) -> SmoothnessReport:
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
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
        entries[key] = value.strip()
    if "prime" not in entries:
        raise ValueError("instance file must declare a prime")
    p = int(entries.pop("prime"))
    ensure_field_prime(p)
    if "seed" in entries:
        seed = int(entries.pop("seed"))
        if entries:
            raise ValueError("seeded instance file must not also list forms")
        return random_instance(p, seed)
    missing = [k for k in _FORM_KEYS if k not in entries]
    if missing:
        raise ValueError(f"missing form entries: {', '.join(missing)}")
    extra = [k for k in entries if k not in _FORM_KEYS]
    if extra:
        raise ValueError(f"unknown entries: {', '.join(extra)}")
    forms = {k: parse_poly(entries[k], 4, p, BASE_NAMES) for k in _FORM_KEYS}
    upper = {idx: forms[k] for idx, k in zip(_UPPER, _FORM_KEYS)}
    A = tuple(tuple(upper[(min(i, j), max(i, j))] for j in range(3)) for i in range(3))
    B = (forms["B0"], forms["B1"], forms["B2"])
    return CubicData(p=p, A=A, B=B, C=forms["C"], seed=None)


def load_instance(path) -> CubicData:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def explicit_instance_text(d: CubicData) -> str:
    """The ten defining forms as an explicit instance file, regardless of
    whether the instance was seeded (what `show-instance` prints)."""
    lines = [f"prime: {d.p}"]
    for key, (f, _) in zip(_FORM_KEYS, d._declared()):
        lines.append(f"{key}: {format_poly(f, BASE_NAMES)}")
    return "\n".join(lines) + "\n"
