"""Reference implementations that the tests check the package against.

Each helper is a plain, slow route to a value that the package computes
another way: span membership and span dimension by rank, matrix
products in ``Fraction``s, forms as explicit coefficient vectors with
products and evaluation, the full condition matrix and its kernel, a
separating hyperplane read off a flat's normals, the canonical change of
coordinates in ``Fraction``s, the single-group flat dimension by a
downward scan of spans.  None of them is called by the package
itself.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Iterable, Sequence

from fatpoints.constructions import _scan_avoiding
from fatpoints.geometry import Flat, LinearForm, ProjPoint, flat_contains, frame_change
from fatpoints.linalg import Matrix, kernel_basis, rank_rows
from fatpoints.schemes import FatPointScheme, Form, condition_rows, monomial_basis

Terms = dict[tuple[int, ...], Fraction]


# ---------------------------------------------------------------------------
# vectors and matrices
# ---------------------------------------------------------------------------

def in_span(v: Sequence[object], basis: Iterable[Sequence[object]]) -> bool:
    """Whether v lies in the rational span of the given vectors: adding it keeps the rank."""
    basis = [list(b) for b in basis]
    if any(len(b) != len(v) for b in basis):
        raise ValueError("dimension mismatch")
    return rank_rows(basis + [list(v)], len(v)) == rank_rows(basis, len(v))


def mat_vec(m: Matrix, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    if len(v) != m.cols:
        raise ValueError("dimension mismatch")
    return tuple(sum((m.at(i, j) * v[j] for j in range(m.cols)), Fraction(0)) for i in range(m.rows))


def canonical_change(
    n: int, leading: Sequence[Sequence[int]], candidates: Sequence[Sequence[int]] = ()
) -> tuple[Matrix, tuple[int, ...]]:
    """The canonical change E of :func:`frame_change`, in ``Fraction``s, and ``taken``.

    Each of frame_change's rows D E divided by its pivot value.
    """
    rows, pivots, taken = frame_change(n, leading, candidates)
    change = [[Fraction(int(x), int(v)) for x in row] for row, v in zip(rows, pivots)]
    return Matrix.from_rows(change), taken


def identity(k: int) -> Matrix:
    return Matrix.from_rows([[int(i == j) for j in range(k)] for i in range(k)])


def integer_change(m: Matrix) -> tuple[tuple[int, ...], ...]:
    """The rows of m times the lcm of its denominators: the same change of coordinates."""
    scale = lcm(*(x.denominator for x in m.entries))
    return tuple(tuple(int(x * scale) for x in row) for row in m.to_rows())


def random_invertible_change(n: int, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    """A random invertible change of P^n: n+1 integer rows of small entries."""
    while True:
        rows = tuple(tuple(rng.randint(-9, 9) for _ in range(n + 1)) for _ in range(n + 1))
        if rank_rows(rows, n + 1) == n + 1:
            return rows


# ---------------------------------------------------------------------------
# points, hyperplanes and coordinate changes
# ---------------------------------------------------------------------------

def span_dim(points: Sequence[ProjPoint]) -> int:
    """Dimension of the span of the points, read off the rank of their integer reps.

    Raises what :func:`fatpoints.geometry.span` raises for no points or
    points of different ambient spaces.
    """
    if not points:
        raise ValueError("span of an empty point set is undefined")
    n = points[0].ambient_n
    if any(p.ambient_n != n for p in points):
        raise ValueError("ambient dimensions disagree")
    return rank_rows([p.rep for p in points], n + 1) - 1


def evaluate_linear(h: LinearForm, p: ProjPoint) -> Fraction:
    """The form's canonical coefficients dotted with the point's canonical coordinates."""
    if len(h.coeffs) != len(p.coords):
        raise ValueError("ambient dimensions disagree")
    return sum((c * x for c, x in zip(h.coeffs, p.coords)), Fraction(0))


def hyperplane_containing_avoiding(f: Flat, avoid: ProjPoint) -> LinearForm:
    """A hyperplane through the flat that misses the given point."""
    if avoid.ambient_n != f.ambient_n:
        raise ValueError("ambient dimensions disagree")
    if f.dim > f.ambient_n - 1:
        raise ValueError("the whole space is contained in no hyperplane")
    if flat_contains(f, avoid):
        raise ValueError("the point lies on the flat; no hyperplane can separate them")
    rep = avoid.rep
    return LinearForm(next(v for v in f.normals if sum(map(mul, v, rep))))


def coordinate_change_to_origin(p: ProjPoint) -> tuple[tuple[int, ...], ...]:
    """Invertible change of coordinates sending p to (1, 0, ..., 0), as integer rows."""
    return integer_change(canonical_change(p.ambient_n, [p.rep])[0])


def single_group_dim_by_scan(points: Sequence[ProjPoint], origin: ProjPoint, n: int) -> int:
    """The single-group flat dimension by the certificate builder's first
    rule: the largest r from min(n, s) down to 2 whose scan finds no span
    of r points through the origin, else 1, every candidate's spans fresh."""
    for candidate in range(min(n, len(points)), 1, -1):
        try:
            _scan_avoiding(points, origin, candidate, {})
        except ValueError:
            continue
        return candidate
    return 1


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

def form_from_terms(degree: int, nvars: int, terms: Terms) -> Form:
    basis = monomial_basis(degree, nvars)
    coeffs = [Fraction(0)] * len(basis)
    for expo, c in terms.items():
        coeffs[basis.index(expo)] += c
    return Form(degree, nvars, tuple(coeffs))


def monomial_form(nvars: int, exponent: Sequence[int]) -> Form:
    exponent = tuple(exponent)
    return form_from_terms(sum(exponent), nvars, {exponent: Fraction(1)})


def form_terms(f: Form) -> Terms:
    basis = monomial_basis(f.degree, f.nvars)
    return {e: c for e, c in zip(basis, f.coeffs) if c}


def form_mul(f: Form, g: Form) -> Form:
    """The product of two forms, expanded term by term."""
    if f.nvars != g.nvars:
        raise ValueError("variable counts disagree")
    out: Terms = {}
    for ea, ca in form_terms(f).items():
        for eb, cb in form_terms(g).items():
            key = tuple(x + y for x, y in zip(ea, eb))
            out[key] = out.get(key, Fraction(0)) + ca * cb
    return form_from_terms(f.degree + g.degree, f.nvars, out)


def evaluate_form(f: Form, point: ProjPoint) -> Fraction:
    """The form at the point's canonical coordinates."""
    total = Fraction(0)
    for expo, c in form_terms(f).items():
        v = c
        for x, e in zip(point.coords, expo):
            v *= x**e
        total += v
    return total


def linear_form_to_form(coeffs: Sequence[Fraction]) -> Form:
    nvars = len(coeffs)
    terms = {}
    for j, c in enumerate(coeffs):
        if c:
            terms[tuple(int(k == j) for k in range(nvars))] = Fraction(c)
    if not terms:
        raise ValueError("zero linear form")
    return form_from_terms(1, nvars, terms)


# ---------------------------------------------------------------------------
# condition matrices and ideals
# ---------------------------------------------------------------------------

def condition_matrix(z: FatPointScheme, t: int) -> Matrix:
    """The degree-t derivative-vanishing matrix; its rank is H_Z(t)."""
    return Matrix.from_rows(condition_rows(z, t))


def ideal_basis(z: FatPointScheme, t: int) -> list[Form]:
    """Basis of the degree-t forms vanishing to the scheme's orders."""
    return [Form(t, z.n + 1, vec) for vec in kernel_basis(condition_matrix(z, t))]
