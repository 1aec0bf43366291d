"""Diophantine-stability verdicts combining image, field and group criteria.

A verdict is Satisfied only when the trace witnesses certify a full mod-ell
image, the field degree rules out interference from K, and the five
group-theoretic conditions hold on GL2/SL2.  Everything else stays
Undetermined; the criterion is sufficient, never necessary.
"""

from dataclasses import dataclass
from functools import lru_cache

from .curves import CurveModel, count_curves
from .galois_image import MEMBER, UNDETERMINED, FieldSpec, t_kl_member
from .matgroup import (
    find_tau0,
    find_tau1,
    full_gl2,
    full_sl2,
    h1_vanishes,
    is_irreducible,
    no_abelian_ell_quotient,
)

SATISFIED = "Satisfied"

_CHECKABLE_ELLS = (5, 7, 11, 13)

#: most curves of a box checked one by one: check_ds took 0.08-0.33 ms a curve
#: at bound 1000 (samples of X = 3, 5 and 12, ell = 5 and 13), so about 8-33 s
#: at the limit; X = 7 (67,930 curves) passes and X = 8 (132,066) does not
MAX_STABILITY_CURVES = 100_000


@dataclass(frozen=True)
class StabilityReport:
    t_kl: str
    conditions: tuple[bool, bool, bool, bool, bool]  # full_image_conditions(ell)
    ds_verdict: str


@lru_cache(maxsize=8)
def full_image_conditions(ell: int) -> tuple[bool, bool, bool, bool, bool]:
    """The five criterion flags on GL2(F_ell) and SL2(F_ell); ValueError unless ell is checkable."""
    if ell not in _CHECKABLE_ELLS:
        raise ValueError(f"ell must be one of {_CHECKABLE_ELLS}")
    G = full_gl2(ell)
    H = full_sl2(ell)
    return (
        is_irreducible(G),
        h1_vanishes(G),
        no_abelian_ell_quotient(H),
        find_tau0(H) is not None,
        find_tau1(H) is not None,
    )


def check_box_curves(X: int) -> int:
    """count_curves(X); ValueError if it exceeds MAX_STABILITY_CURVES."""
    n = count_curves(X)
    if n > MAX_STABILITY_CURVES:
        raise ValueError(
            f"the height-{X} box has {n} curves, more than the {MAX_STABILITY_CURVES} checked one by one"
        )
    return n


def check_ds(c: CurveModel, K: FieldSpec, ell: int, bound: int) -> StabilityReport:
    """Evaluate the full stability criterion for one curve."""
    flags = full_image_conditions(ell)  # refuses an unsupported ell before any trace
    t_kl = t_kl_member(c, ell, K, bound)
    verdict = SATISFIED if (t_kl == MEMBER and all(flags)) else UNDETERMINED
    return StabilityReport(t_kl, flags, verdict)
