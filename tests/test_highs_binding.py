"""The private HiGHS binding that ``barycenter_lp.solve`` drives.

scipy ships HiGHS as ``scipy.optimize._highspy._core``, a private module
that may move or change between releases.  This test imports only scipy, so
it still runs, and names the installed version, when ``fairpost`` itself can
no longer import the binding.
"""

import numpy as np
import scipy

# what barycenter_lp imports from the module, and the _Highs methods solve calls
NAMES = ("HighsModelStatus", "HighsStatus", "MatrixFormat", "ObjSense", "_Highs")
METHODS = ("setOptionValue", "passModel", "run", "getModelStatus", "modelStatusToString",
           "getInfo", "getSolution", "addCols")


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


def test_pass_model_takes_a_column_wise_master_as_arrays():
    """The array overload ``_seed_master`` feeds: min x0 + 2 x1 subject to
    x0 + x1 = 1 and x1 <= 0.5, column-wise, with one integrality entry per
    column.  HiGHS must hold exactly that model and solve it."""
    from scipy.optimize._highspy import _core
    where = f"scipy {scipy.__version__}"
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    int32 = lambda *xs: np.array(xs, dtype=np.int32)
    status = highs.passModel(2, 2, 3, _core.MatrixFormat.kColwise, _core.ObjSense.kMinimize,
                             0.0, np.array([1.0, 2.0]), np.zeros(2), np.full(2, np.inf),
                             np.array([-np.inf, 1.0]), np.array([0.5, 1.0]), int32(0, 1),
                             int32(1, 0, 1), np.ones(3), int32(0, 0))
    assert status == _core.HighsStatus.kOk, f"{where}: the array passModel returned {status}"
    lp = highs.getLp()
    a = lp.a_matrix_
    assert (lp.num_col_, lp.num_row_, a.format_) == (2, 2, _core.MatrixFormat.kColwise), where
    assert (list(a.start_), list(a.index_), list(a.value_)) == ([0, 1, 3], [1, 0, 1],
                                                                [1.0, 1.0, 1.0]), where
    assert list(lp.col_cost_) == [1.0, 2.0] and list(lp.row_upper_) == [0.5, 1.0], where
    highs.run()
    assert highs.getModelStatus() == _core.HighsModelStatus.kOptimal, where
    assert list(highs.getSolution().col_value) == [1.0, 0.0], where
