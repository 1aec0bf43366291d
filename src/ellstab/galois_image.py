"""One-sided mod-ell image classification from sampled Frobenius traces.

Surjectivity of the mod-ell representation is proven by exhibiting trace
witnesses that rule out every maximal-subgroup family of GL2(F_ell)
(Borel, split/nonsplit Cartan normalizers, projectively exceptional
groups) plus full determinant coverage.  Absence of witnesses is always
reported as Undetermined, never as non-surjectivity.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd

import numpy as np

from .curves import CurveModel, curve_box, discriminant
from .primes import legendre_table, primes_up_to, unit_group
from .traces import check_ell_and_bound, curve_traces, frobenius_trace, good_primes
from .traces import trace_census_table  # noqa: F401  perfbench/inprocess.py wraps this binding

SURJECTIVE_PROVEN = "SurjectiveProven"
UNDETERMINED = "Undetermined"

MEMBER = "Member"

#: the rational j-invariants of curves with complex multiplication
CM_J = (0, 1728, -3375, 8000, -32768, 54000, 287496, -884736, -12288000,
        16581375, -884736000, -147197952000, -262537412640768000)


@dataclass(frozen=True)
class ImageVerdict:
    status: str
    witnesses: dict


#: largest field degree n given with a Galois closure degree g: g | n! is checked
#: at each prime up to n, 1,229 of them at 10^4 (transitive groups are classified to degree 48)
MAX_CLOSURE_FIELD_DEGREE = 10**4


@dataclass(frozen=True)
class FieldSpec:
    n: int
    galois_closure_degree: int | None = None

    def __post_init__(self) -> None:
        n, g = self.n, self.galois_closure_degree
        if n < 1:
            raise ValueError("field degree must be >= 1")
        if g is None:
            return
        if g < n:
            raise ValueError(f"galois closure degree must be >= n = {n}, got {g}")
        if g % n != 0:
            raise ValueError("galois closure degree must be divisible by n")
        if n > MAX_CLOSURE_FIELD_DEGREE:
            raise ValueError(f"field degree must be <= {MAX_CLOSURE_FIELD_DEGREE} with a galois"
                             f" closure degree, got {n}")
        rest = g  # the closure's group lies in S_n; Legendre: q^k || n! for k = sum_i n // q^i
        for q in primes_up_to(n):
            rest //= gcd(rest, q ** sum(n // q**i for i in range(1, n.bit_length() + 1)))
        if rest != 1:
            raise ValueError(f"galois closure degree must divide {n}!, got {g}")


@lru_cache(maxsize=16)
def _witness_tables(ell: int) -> tuple[np.ndarray, list, list]:
    """(flags, inv, nonsq): lookups mod ell for _witnesses.

    A trace t at d = p mod ell has t^2 - 4d = d(u - 4) with u = t^2/d, so its
    flags depend on u and on the square class of d only: flags[nonsq[d], :, u].
    inv[d] is the inverse of the unit d, and nonsq[d] is 1 iff d is not a square.
    """
    chi = legendre_table(ell)
    u = np.arange(ell)
    c = np.where(u == 0, 0, chi[(u - 4) % ell])
    excl = ((u * u - 3 * u + 1) % ell != 0) & ~np.isin(u, (0, 1, 2, 4))
    flags = np.array([[c == 1, c == -1, excl], [c == -1, c == 1, excl]])
    inv = [0] + [pow(d, -1, ell) for d in range(1, ell)]
    return flags, inv, [int(v < 0) for v in chi]


def _witnesses(t, d: int, ell: int) -> np.ndarray:
    """(split, nonsplit, exceptional-excluding) flags of trace t at d = p mod ell.

    A trace is split (nonsplit) iff t != 0 and t^2 - 4d is a nonzero square (a
    non-square) mod ell; it excludes the exceptional groups iff u = t^2/d is
    none of 0, 1, 2, 4 and no root of u^2 - 3u + 1.  t is an int, giving three
    flags, or an integer array, giving a (3, len(t)) array.
    """
    flags, inv, nonsq = _witness_tables(ell)
    return flags[nonsq[d]][:, t * t * inv[d] % ell]


def classify_image(c: CurveModel, ell: int, bound: int) -> ImageVerdict:
    """Scan traces of good primes p <= bound for the four witness classes.

    Returns SurjectiveProven iff a split witness, a nonsplit witness, an
    exceptional-excluding witness, and determinant coverage are all found.
    """
    check_ell_and_bound(ell, bound)
    log = unit_group(ell)[1]
    w: dict = {"split": None, "nonsplit": None, "exceptional": None, "det": {}}
    g = ell - 1
    for p in good_primes(discriminant(c), bound, ell):
        d = p % ell
        a = frobenius_trace(c.A, c.B, p)
        split, nonsplit, exceptional = _witnesses(a, d, ell).tolist()
        if split and w["split"] is None:
            w["split"] = p
        if nonsplit and w["nonsplit"] is None:
            w["nonsplit"] = p
        if exceptional and w["exceptional"] is None:
            w["exceptional"] = p
        if d not in w["det"]:
            w["det"][d] = p
            g = gcd(g, log[d])
        if g == 1 and w["split"] and w["nonsplit"] and w["exceptional"]:
            return ImageVerdict(SURJECTIVE_PROVEN, w)
    return ImageVerdict(UNDETERMINED, w)


def t_kl_member(c: CurveModel, ell: int, K: FieldSpec, bound: int) -> str:
    """Member iff surjectivity is proven and ell cannot divide [Ktilde : Q].

    The field condition is certified by divisibility alone: it passes when
    ell > [K:Q] (so ell does not divide [K:Q]!) or when the supplied Galois
    closure degree is prime to ell.  Anything else is Undetermined.
    """
    v = classify_image(c, ell, bound)
    if v.status != SURJECTIVE_PROVEN:
        return UNDETERMINED
    if ell > K.n:
        return MEMBER
    if K.galois_closure_degree is not None and K.galois_closure_degree % ell != 0:
        return MEMBER
    return UNDETERMINED


def t_A_proxy_member(e: CurveModel, a: CurveModel, ell: int, bound: int) -> bool:
    """True iff t_p(e) = +-t_p(a) mod ell at every shared good prime p <= bound."""
    check_ell_and_bound(ell, bound)
    for p in good_primes(discriminant(e) * discriminant(a), bound, ell):
        te = frobenius_trace(e.A, e.B, p) % ell
        ta = frobenius_trace(a.A, a.B, p) % ell
        if te != ta and te != (-ta) % ell:
            return False
    return True


@dataclass
class SweepResult:
    total: int
    proven: int
    proven_mask: np.ndarray = field(repr=False)
    A: np.ndarray = field(repr=False)
    B: np.ndarray = field(repr=False)

    @property
    def fraction(self) -> float:
        return self.proven / self.total if self.total else float("nan")


def _has_cm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Exact mask of the curves whose j = 6912A^3/(4A^3 + 27B^2) is in CM_J
    (int64 holds 6912A^3 up to X = 331, far past any box curve_box builds)."""
    num, den = 6912 * A**3, 4 * A**3 + 27 * B * B
    return (num % den == 0) & np.isin(num // den, CM_J)


def surjectivity_sweep(X: int, ell: int, bound: int) -> SweepResult:
    """classify_image verdicts for every curve in the height-X box.

    One pass over the primes, on the curves not yet proven: a curve is dropped
    after the prime that completes its witnesses.  The determinant test keeps
    one running gcd per curve (it divides ell - 1, so int32 holds it).  CM
    curves are never proven (their image lies in a Cartan normalizer, so no
    prime gives both a split and a nonsplit witness); they are dropped once, at
    the first p with p^2 > len(survivors), where the census table stops serving.
    """
    check_ell_and_bound(ell, bound)
    A, B = curve_box(X)
    n = len(A)
    log = unit_group(ell)[1]
    proven = np.zeros(n, dtype=bool)
    surv = np.arange(n)
    flags = np.zeros((3, n), dtype=bool)
    g = np.full(n, ell - 1, dtype=np.int32)
    cm_dropped = False
    # disc 1 keeps every prime; a curve's own bad primes read as trace 0 (not
    # good), which flags nothing and adds no det
    for p in good_primes(1, bound, ell):
        if not cm_dropped and p * p > len(surv):
            keep, cm_dropped = ~_has_cm(A[surv], B[surv]), True
            surv, flags, g = surv[keep], flags[:, keep], g[keep]
        t, good = curve_traces(A[surv], B[surv], p)
        flags |= _witnesses(t, p % ell, ell)
        g[good] = np.gcd(g[good], log[p % ell])
        keep = ~(flags.all(axis=0) & (g == 1))
        proven[surv[~keep]] = True
        surv, flags, g = surv[keep], flags[:, keep], g[keep]
        if not len(surv):
            break
    return SweepResult(n, int(proven.sum()), proven, A, B)
