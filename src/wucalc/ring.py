"""Strong ring of complexes: disjoint union as addition, Cartesian product
as multiplication.

A product of simplicial complexes is not simplicial any more; its cells are
tuples of simplices with additive dimension and a Leibniz boundary. The
ProductComplex below implements the same small cell interface as
simplicial.Complex, so the interaction basis, derivative and cohomology
machinery run on products unchanged. Two product cells intersect
component-wise: (x, y) meets (u, v) iff x meets u and y meets v, which is
why a product cell's support is the set of its vertex tuples.
"""

from __future__ import annotations

import math
from itertools import product as iter_product

from .basis import poly_mul, wu_characteristic
from .cohomology import cohomology_data
from .simplicial import MAX_SIMPLICES, Complex


class ProductComplex:
    """Cartesian cell product of two or more simplicial complexes.

    Raises ValueError, before listing any cell, when it would have more than
    simplicial.MAX_SIMPLICES cells."""

    def __init__(self, factors):
        factors = tuple(factors)
        if len(factors) < 2:
            raise ValueError("a product needs at least two factors")
        if not all(isinstance(f, Complex) for f in factors):
            raise TypeError("factors must be simplicial complexes")
        if math.prod(len(f) for f in factors) > MAX_SIMPLICES:
            raise ValueError(
                f"the product has more than {MAX_SIMPLICES} cells")
        self.factors = factors
        cells = list(iter_product(*(f.cells for f in factors)))
        cells.sort(key=lambda c: (self.cell_dim(c), self.flat_key(c)))
        self.cells = cells

    @staticmethod
    def cell_dim(cell) -> int:
        return sum(len(part) - 1 for part in cell)

    @staticmethod
    def cell_boundary(cell):
        """Signed codimension-1 faces by the Leibniz rule: a face of part j
        carries its Complex.cell_boundary sign times (-1)^(dims of the parts
        before j). Returns (face cell, sign) pairs with the faces of part 0
        first, each part's faces in Complex.cell_boundary order."""
        out = []
        pre = 0
        for j, part in enumerate(cell):
            sign_j = -1 if pre % 2 else 1
            for face, fsign in Complex.cell_boundary(part):
                out.append((cell[:j] + (face,) + cell[j + 1:], sign_j * fsign))
            pre += len(part) - 1
        return out

    @staticmethod
    def cell_support(cell):
        """The vertex tuples of x_1 x ... x x_m: two product cells share one
        exactly when every factor pair shares a vertex."""
        return iter_product(*cell)

    @staticmethod
    def flat_key(cell):
        return tuple(v for part in cell for v in part)

    def __len__(self):
        return len(self.cells)

    def __eq__(self, other):
        return isinstance(other, ProductComplex) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        sizes = "x".join(str(len(f)) for f in self.factors)
        return f"ProductComplex({sizes} cells)"


def product_cell_complex(factors):
    """The Cartesian cell complex of the factors; one factor is returned as is."""
    factors = list(factors)
    if not factors:
        raise ValueError("need at least one factor")
    if len(factors) == 1:
        return factors[0]
    return ProductComplex(factors)


def disjoint_union(a: Complex, b: Complex) -> Complex:
    """Disjoint union as one complex, with b relabeled above a's vertices."""
    shift = (max(a.vertex_set) + 1 if a.vertex_set else 0)
    shifted = [tuple(v + shift for v in s) for s in b.simplices]
    return Complex(list(a.simplices) + shifted)


class RingElement:
    """Formal integer combination of formal products of complexes."""

    def __init__(self, terms):
        norm = []
        for coeff, factors in terms:
            factors = tuple(factors)
            if not factors:
                raise ValueError("each term needs at least one factor")
            if coeff:
                norm.append((int(coeff), factors))
        self.terms = tuple(norm)

    def __add__(self, other):
        return RingElement(self.terms + other.terms)

    def __mul__(self, other):
        terms = []
        for c1, f1 in self.terms:
            for c2, f2 in other.terms:
                terms.append((c1 * c2, f1 + f2))
        return RingElement(terms)

    def __repr__(self):
        return f"RingElement({len(self.terms)} terms)"


def _terms(e):
    """The (coeff, factors) terms of a Complex, ProductComplex or RingElement."""
    if isinstance(e, Complex):
        return ((1, (e,)),)
    if isinstance(e, ProductComplex):
        return ((1, e.factors),)
    return e.terms


def _term_sum(e, value):
    """sum_i coeff_i * value(T_i) over the product terms T_i of e, where
    value maps a cell complex to a coefficient list; lists of different
    lengths are added zero-padded. Every ring map here is linear this way."""
    total: list = []
    for coeff, factors in _terms(e):
        v = value(product_cell_complex(factors))
        total.extend([0] * (len(v) - len(total)))
        for i, x in enumerate(v):
            total[i] += coeff * x
    return total


def ring_wu(e, k: int) -> int:
    """Wu characteristic of a ring element, computed on each product term by
    direct enumeration of intersecting cell tuples."""
    return sum(_term_sum(e, lambda c: [wu_characteristic([c] * k)]))


def ring_betti(e, k: int):
    """Betti vector of a non-negative ring element, computed directly on the
    product-cell interaction basis. Negative coefficients are rejected."""
    if any(coeff < 0 for coeff, _ in _terms(e)):
        raise ValueError("cohomology of a negative combination is undefined")
    return _term_sum(e, lambda c: cohomology_data(tuple([c] * k)).betti)


def _trim(poly):
    p = list(poly)
    while p and p[-1] == 0:
        p.pop()
    return p


def kuenneth_check(g: Complex, h: Complex, k: int) -> dict:
    """Poincare polynomial of the product against the product of polynomials."""
    product = ProductComplex((g, h))
    p_product = cohomology_data(tuple([product] * k)).betti
    p_g = cohomology_data(tuple([g] * k)).betti
    p_h = cohomology_data(tuple([h] * k)).betti
    expected = poly_mul(p_g, p_h)
    ok = _trim(p_product) == _trim(expected)
    return {
        "k": k,
        "poincare_product": list(p_product),
        "poincare_factors": [list(p_g), list(p_h)],
        "poincare_expected": list(expected),
        "kuenneth_ok": ok,
    }
