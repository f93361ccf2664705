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

from itertools import product as iter_product

from .basis import euler_polynomial, wu_characteristic
from .cohomology import cohomology_data
from .simplicial import Complex, leibniz_boundary


class ProductComplex:
    """Cartesian cell product of two or more simplicial complexes."""

    def __init__(self, factors):
        factors = tuple(factors)
        if len(factors) < 2:
            raise ValueError("a product needs at least two factors")
        if not all(isinstance(f, Complex) for f in factors):
            raise TypeError("factors must be simplicial complexes")
        self.factors = factors
        cells = list(iter_product(*(f.cells for f in factors)))
        cells.sort(key=lambda c: (self.cell_dim(c), self.flat_key(c)))
        self.cells = cells
        self._hash = hash(factors)

    @staticmethod
    def cell_dim(cell) -> int:
        return sum(len(part) - 1 for part in cell)

    @staticmethod
    def cell_boundary(cell):
        """Leibniz rule over the factor simplices, as in leibniz_boundary."""
        return leibniz_boundary((Complex,) * len(cell), cell)

    @staticmethod
    def cell_support(cell):
        """The vertex tuples of x_1 x ... x x_m: two product cells share one
        exactly when every factor pair shares a vertex."""
        return iter_product(*cell)

    @staticmethod
    def flat_key(cell):
        return tuple(v for part in cell for v in part)

    @property
    def dim(self) -> int:
        return sum(f.dim for f in self.factors)

    def __len__(self):
        return len(self.cells)

    def __eq__(self, other):
        return isinstance(other, ProductComplex) and self.factors == other.factors

    def __hash__(self):
        return self._hash

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


def cell_f_vector(c):
    """Cell counts by dimension for a Complex or ProductComplex."""
    counts: dict = {}
    for cell in c.cells:
        d = c.cell_dim(cell)
        counts[d] = counts.get(d, 0) + 1
    if not counts:
        return ()
    return tuple(counts.get(p, 0) for p in range(max(counts) + 1))


def cell_euler_polynomial(c):
    fv = cell_f_vector(c)
    return list(fv) if fv else [0]


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

    @classmethod
    def from_complex(cls, c: Complex, coeff=1):
        return cls([(coeff, (c,))])

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


def ring_wu(e, k: int) -> int:
    """Wu characteristic of a ring element: linear over terms, computed on
    each product term by direct enumeration of intersecting cell tuples."""
    return sum(coeff * wu_characteristic([product_cell_complex(factors)] * k)
               for coeff, factors in _terms(e))


def ring_betti(e, k: int):
    """Betti vector of a non-negative ring element, computed directly on the
    product-cell interaction basis. Negative coefficients are rejected."""
    out: list = []
    for coeff, factors in _terms(e):
        if coeff < 0:
            raise ValueError("cohomology of a negative combination is undefined")
        c = product_cell_complex(factors)
        betti = cohomology_data(tuple([c] * k)).betti
        if len(betti) > len(out):
            out.extend([0] * (len(betti) - len(out)))
        for p, b in enumerate(betti):
            out[p] += coeff * b
    return out


def poly_mul(a, b):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


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


def ring_euler_polynomial(e) -> list:
    """Euler polynomial of a ring element: additive over terms, multiplicative
    over factors (cell counts of a product multiply as polynomials)."""
    total: list = []
    for coeff, factors in _terms(e):
        poly = euler_polynomial(factors[0])
        for f in factors[1:]:
            poly = poly_mul(poly, euler_polynomial(f))
        if len(poly) > len(total):
            total.extend([0] * (len(poly) - len(total)))
        for i, c in enumerate(poly):
            total[i] += coeff * c
    return total
