"""Exact finite group theory in GL2(F_ell).

Matrices are tuples (a, b, c, d) of residues mod ell, row-major.  GL2(F_ell)
and SL2(F_ell) are enumerated by their determinant, other subgroups by
breadth-first closure, which keeps every predicate (irreducibility,
cohomology, commutator quotients, element searches) a finite exact computation.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import BudgetExceeded
from .primes import check_ell, check_unit, is_prime, legendre_table, primitive_root

Mat2 = tuple[int, int, int, int]

#: largest closure we will enumerate: |GL2(F_13)|
MAX_GROUP_ORDER = (13**2 - 1) * (13**2 - 13)

#: largest group accepted by the cocycle solver
H1_BUDGET = 2500


def identity() -> Mat2:
    return (1, 0, 0, 1)


def mat_mul(g: Mat2, h: Mat2, ell: int) -> Mat2:
    a, b, c, d = g
    e, f, i, j = h
    return (
        (a * e + b * i) % ell,
        (a * f + b * j) % ell,
        (c * e + d * i) % ell,
        (c * f + d * j) % ell,
    )


def mat_det(g: Mat2, ell: int) -> int:
    """ad - bc mod ell; g may also be a (4, n) array of matrices as columns."""
    return (g[0] * g[3] - g[1] * g[2]) % ell


def mat_inv(g: Mat2, ell: int) -> Mat2:
    det = mat_det(g, ell)
    if det == 0:
        raise ValueError(f"{g} is singular mod {ell}")
    inv = pow(det, -1, ell)
    a, b, c, d = g
    return ((d * inv) % ell, (-b * inv) % ell, (-c * inv) % ell, (a * inv) % ell)


def gl2_order(ell: int) -> int:
    return (ell**2 - 1) * (ell**2 - ell)


def sl2_order(ell: int) -> int:
    return ell * (ell**2 - 1)


def delta_numerator(t, d, ell: int):
    """ell + chi(t^2 - 4d), the numerator of delta_density, for ints or (broadcastable) int arrays."""
    return ell + legendre_table(ell)[(t * t - 4 * d) % ell].astype(np.int64)


def delta_density(t: int, d: int, ell: int) -> Fraction:
    """(ell + chi(t^2 - 4d)) / (ell^2 - 1): density of trace t in the det-d coset."""
    check_ell(ell)
    check_unit(d, ell)
    return Fraction(int(delta_numerator(t, d, ell)), ell * ell - 1)


def _gl2(ell: int) -> np.ndarray:
    """GL2(F_ell) by definition: the columns (a, b, c, d) with ad - bc != 0 mod ell,
    refused before any enumeration past MAX_GROUP_ORDER (int16 holds ad - bc up to
    ell = 181, far past the ell = 13 that the budget admits)."""
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    if gl2_order(ell) > MAX_GROUP_ORDER:
        raise BudgetExceeded("exhaustive GL2 enumeration limited to ell <= 13")
    m = np.indices((ell,) * 4, dtype=np.int16).reshape(4, -1)
    return m[:, mat_det(m, ell) != 0]


@lru_cache(maxsize=8)
def _trace_det_counts(ell: int) -> np.ndarray:
    """counts[t * ell + d] = #{g in GL2(F_ell): tr g = t, det g = d}."""
    m = _gl2(ell)
    return np.bincount((m[0] + m[3]) % ell * ell + mat_det(m, ell), minlength=ell * ell)


def count_trace_det(t: int, d: int, ell: int) -> int:
    """Exhaustive #{g in GL2(F_ell): tr g = t, det g = d}; oracle for delta_density."""
    check_unit(d, ell)
    return int(_trace_det_counts(ell)[t % ell * ell + d % ell])


@dataclass(frozen=True)
class MatGroup:
    ell: int
    generators: tuple[Mat2, ...]
    elements: frozenset[Mat2]

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Mat2) -> bool:
        return g in self.elements


def _closure(step) -> dict:
    """Breadth-first walk from the identity, where step(x) lists the neighbours of x.

    Returns the spanning tree {y: (x, i)} with y = step(x)[i], keyed in
    breadth-first order, the identity mapping to None.  Raises BudgetExceeded
    past MAX_GROUP_ORDER elements.
    """
    tree, queue = {identity(): None}, [identity()]
    for x in queue:
        for i, y in enumerate(step(x)):
            if y not in tree:
                if len(tree) >= MAX_GROUP_ORDER:
                    raise BudgetExceeded(f"closure exceeds budget {MAX_GROUP_ORDER}")
                tree[y] = (x, i)
                queue.append(y)
    return tree


def generate_subgroup(gens: list[Mat2] | tuple[Mat2, ...], ell: int) -> MatGroup:
    """Breadth-first closure of the generators under multiplication, up to MAX_GROUP_ORDER."""
    if not is_prime(ell):
        raise ValueError("ell must be prime")
    gens = tuple(tuple(x % ell for x in g) for g in gens)
    for g in gens:
        if mat_det(g, ell) == 0:
            raise ValueError(f"generator {g} is not invertible mod {ell}")
    return MatGroup(ell, gens, frozenset(_closure(lambda x: [mat_mul(x, h, ell) for h in gens])))


def sl2_generators(ell: int) -> list[Mat2]:
    return [(1, 1, 0, 1), (1, 0, 1, 1)]


def gl2_generators(ell: int) -> list[Mat2]:
    g = primitive_root(ell)
    return sl2_generators(ell) + [(g, 0, 0, 1)]


@lru_cache(maxsize=8)
def full_gl2(ell: int) -> MatGroup:
    return MatGroup(ell, tuple(gl2_generators(ell)), frozenset(zip(*_gl2(ell).tolist())))


@lru_cache(maxsize=8)
def full_sl2(ell: int) -> MatGroup:
    return MatGroup(ell, tuple(sl2_generators(ell)), frozenset(
        g for g in full_gl2(ell).elements if mat_det(g, ell) == 1))


def is_irreducible(G: MatGroup) -> bool:
    """True iff no line of F_ell^2 is stabilized by every generator."""
    ell = G.ell
    lines = [(1, 0)] + [(t, 1) for t in range(ell)]
    for v in lines:
        if all(_fixes_line(g, v, ell) for g in G.generators):
            return False
    return True


def _fixes_line(g: Mat2, v: tuple[int, int], ell: int) -> bool:
    a, b, c, d = g
    return mat_det((a * v[0] + b * v[1], v[0], c * v[0] + d * v[1], v[1]), ell) == 0  # det(gv | v)


def _row_reduce_basis(rows: list[list[int]], ell: int) -> list[list[int]]:
    """Maintainable echelon basis; returns the pivot rows."""
    basis: list[list[int]] = []
    pivots: list[int] = []
    for row in rows:
        row = [x % ell for x in row]
        for prow, pcol in zip(basis, pivots):
            if row[pcol]:
                f = row[pcol]
                row = [(x - f * y) % ell for x, y in zip(row, prow)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            inv = pow(row[lead], -1, ell)
            row = [(x * inv) % ell for x in row]
            basis.append(row)
            pivots.append(lead)
    return basis


def _h1_by_cocycles(G: MatGroup) -> bool:
    """Exact dim Z^1 - dim B^1 == 0 via the standard-module cocycle equations."""
    if G.order > H1_BUDGET:
        raise BudgetExceeded(f"cocycle solver limited to |G| <= {H1_BUDGET}")
    ell = G.ell
    gens = G.generators
    ncols = 2 * len(gens)

    # c(g) as a 2 x 2k matrix of coefficients in the unknowns c(g_1)..c(g_k) of
    # the k generators, built along the closure's tree; every edge x -> x g_i
    # then asks that c(x g_i) = c(x) + x c(g_i)
    def extend(x: Mat2, i: int) -> list[list[int]]:
        rows = [list(r) for r in exprs[x]]
        for r in range(2):
            rows[r][2 * i] = (rows[r][2 * i] + x[2 * r]) % ell
            rows[r][2 * i + 1] = (rows[r][2 * i + 1] + x[2 * r + 1]) % ell
        return rows

    step = lambda x: [mat_mul(x, h, ell) for h in gens]  # noqa: E731
    tree = _closure(step)
    exprs: dict[Mat2, list[list[int]]] = {}
    for y, edge in tree.items():  # a parent comes before its children
        exprs[y] = extend(*edge) if edge else [[0] * ncols, [0] * ncols]
    constraints = [[(u - v) % ell for u, v in zip(new, old)]
                   for x in tree for i, y in enumerate(step(x))
                   for new, old in zip(extend(x, i), exprs[y])]

    rank = len(_row_reduce_basis(constraints, ell))
    dim_z1 = ncols - rank

    # B^1 is the image of v -> ((g_i - 1)v)_i: the rank of the g_i - 1 stacked
    g_minus_1 = [row for a, b, c, d in gens for row in ([a - 1, b], [c, d - 1])]
    return dim_z1 == len(_row_reduce_basis(g_minus_1, ell))


def h1_vanishes(G: MatGroup) -> bool:
    """True iff H^1(G, F_ell^2) = 0 for the standard action.

    True at once when -1 is in G (restriction to the order-2 subgroup kills
    both the fixed space and the cohomology), else _h1_by_cocycles decides.
    """
    return (G.ell - 1, 0, 0, G.ell - 1) in G or _h1_by_cocycles(G)


def no_abelian_ell_quotient(H: MatGroup) -> bool:
    """True iff ell does not divide |H / [H, H]|.

    [H, H] is the closure of 1 under x -> x c for the generator commutators c
    and x -> g x g^-1 for the generators g: the normal closure, since the
    inverses of c and g are powers of them.
    """
    ell = H.ell
    pairs = [(g, mat_inv(g, ell)) for g in H.generators]
    comms = [mat_mul(mat_mul(g, h, ell), mat_mul(gi, hi, ell), ell)
             for g, gi in pairs for h, hi in pairs]
    derived = _closure(lambda x: [mat_mul(x, c, ell) for c in comms]
                       + [mat_mul(mat_mul(g, x, ell), gi, ell) for g, gi in pairs])
    return H.order // len(derived) % ell != 0


def _det_minus_one(g: Mat2, ell: int) -> int:
    """det(g - 1) mod ell: zero iff 1 is an eigenvalue of g."""
    return mat_det((g[0] - 1, g[1], g[2], g[3] - 1), ell)


def find_tau0(H: MatGroup) -> Mat2 | None:
    """First element (lexicographic) with 1 not an eigenvalue, or None."""
    return next((g for g in sorted(H.elements) if _det_minus_one(g, H.ell)), None)


def find_tau1(H: MatGroup) -> Mat2 | None:
    """First element (lexicographic) with rank(g - 1) = 1, or None."""
    return next((g for g in sorted(H.elements)
                 if g != identity() and not _det_minus_one(g, H.ell)), None)
