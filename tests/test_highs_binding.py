"""The private HiGHS binding that ``barycenter_lp.solve`` drives.

scipy ships HiGHS as ``scipy.optimize._highspy._core``, a private module
that may move or change between releases.  This test imports only scipy, so
it still runs, and names the installed version, when ``fairpost`` itself can
no longer import the binding.
"""

import scipy

# what barycenter_lp imports from the module, the _Highs methods solve calls,
# and the HighsLp fields it fills
NAMES = ("HighsLp", "HighsModelStatus", "HighsStatus", "MatrixFormat", "_Highs")
METHODS = ("setOptionValue", "passModel", "run", "getModelStatus", "modelStatusToString",
           "getInfo", "getSolution", "addCols")
LP_FIELDS = ("num_col_", "num_row_", "col_cost_", "col_lower_", "col_upper_", "row_lower_",
             "row_upper_", "a_matrix_")
MATRIX_FIELDS = ("num_col_", "num_row_", "format_", "start_", "index_", "value_")


def test_scipy_ships_the_highs_binding_solve_calls():
    where = f"scipy {scipy.__version__}"
    try:
        from scipy.optimize._highspy import _core
    except ImportError as exc:
        raise AssertionError(f"{where} has no scipy.optimize._highspy._core: {exc}") from None
    missing = [name for name in NAMES if not hasattr(_core, name)]
    assert not missing, f"{where}: scipy.optimize._highspy._core lacks {missing}"
    missing = [name for name in METHODS if not hasattr(_core._Highs, name)]
    assert not missing, f"{where}: scipy.optimize._highspy._core._Highs lacks {missing}"
    lp = _core.HighsLp()
    missing = ([name for name in LP_FIELDS if not hasattr(lp, name)]
               + [f"a_matrix_.{name}" for name in MATRIX_FIELDS
                  if not hasattr(lp.a_matrix_, name)])
    assert not missing, f"{where}: scipy.optimize._highspy._core.HighsLp lacks {missing}"
