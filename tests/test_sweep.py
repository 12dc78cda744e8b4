"""The exhaustive small-scope sweep of ``sweep.py`` at its tier-1 size."""

from sweep import sweep


def test_every_small_formula_on_every_short_lasso():
    # every formula of at most 4 nodes over {p}, on every lasso with
    # |u| <= 2 and |v| <= 2; a mismatch names the smallest formula and lasso
    assert sweep(4, ["p"]) == (1760, 42)
