import pytest

from ellstab.curves import CurveModel
from ellstab.galois_image import SURJECTIVE_PROVEN, FieldSpec, classify_image
from ellstab.stability import (
    MAX_STABILITY_CURVES,
    SATISFIED,
    UNDETERMINED,
    check_box_curves,
    check_ds,
    full_image_conditions,
)


@pytest.mark.parametrize("ell", [5, 7])
def test_full_image_conditions_all_hold(ell):
    assert full_image_conditions(ell) == (True, True, True, True, True)


def test_check_ds_satisfied():
    rep = check_ds(CurveModel(1, 1), FieldSpec(2), 5, 1000)
    assert rep.t_kl == "Member"
    assert rep.conditions == (True, True, True, True, True)
    assert rep.ds_verdict == SATISFIED


def test_check_ds_cm_undetermined():
    rep = check_ds(CurveModel(1, 0), FieldSpec(2), 5, 1000)
    assert rep.t_kl == UNDETERMINED
    assert rep.ds_verdict == UNDETERMINED


def test_check_ds_field_uncertified():
    rep = check_ds(CurveModel(1, 1), FieldSpec(10), 5, 1000)
    assert rep.t_kl == UNDETERMINED
    assert rep.conditions == (True, True, True, True, True)
    assert rep.ds_verdict == UNDETERMINED


def test_check_ds_rejects_large_ell():
    with pytest.raises(ValueError):
        check_ds(CurveModel(1, 1), FieldSpec(2), 17, 1000)


def test_box_curve_limit_admits_X7_and_refuses_X8():
    # 67,930 and 132,066 curves on either side of the limit
    assert check_box_curves(7) == 67930 <= MAX_STABILITY_CURVES
    with pytest.raises(ValueError, match="132066 curves"):
        check_box_curves(8)


def test_implication_chain():
    for c in (CurveModel(1, 1), CurveModel(1, 0), CurveModel(-1, 1)):
        rep = check_ds(c, FieldSpec(2), 5, 500)
        if rep.ds_verdict == SATISFIED:
            assert rep.t_kl == "Member"
            assert classify_image(c, 5, 500).status == SURJECTIVE_PROVEN
            assert all(rep.conditions)
