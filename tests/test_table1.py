"""Reference-table regression: which printed cells agree with the formulas."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinsqueeze import (EulerAngles, SpinDensity, TensorParams, analyze,
                         classify_orientation, from_tensors, lf_variances,
                         wigner_d_matrix)
from spinsqueeze.errors import UnphysicalStateError
from spinsqueeze.table1 import ROWS, cell_tolerance, evaluate_table

# (computed values frozen from the closed forms; printed-match pattern)
EXPECTED = [
    ((1.167423, 0.432577, 0.698771), (True, False, True)),
    ((1.512372, 0.287628, 0.592558), (True, True, True)),
    ((1.545125, 0.344875, 0.553427), (True, True, True)),
    ((1.816589, 0.273411, 0.452804), (True, True, True)),
    ((0.876953, 0.126397, 0.326599), (True, True, False)),
    ((0.808623, 0.289008, 0.367423), (True, True, True)),
    ((0.947663, 0.197108, 0.204124), (True, True, True)),
    ((0.878858, 0.313054, 0.285774), (False, False, True)),
]


def test_cell_tolerance_respects_printed_precision():
    assert cell_tolerance("0.876") == pytest.approx(0.01)
    assert cell_tolerance("0.28") == pytest.approx(0.01)
    assert cell_tolerance("1.5") == pytest.approx(0.05)
    assert cell_tolerance("0.7") == pytest.approx(0.05)


def test_row_count():
    assert len(ROWS) == 8


def test_computed_values_and_match_pattern():
    results = evaluate_table()
    assert len(results) == len(EXPECTED)
    for res, (computed, pattern) in zip(results, EXPECTED):
        for got, want in zip(res.computed, computed):
            assert got == pytest.approx(want, abs=1e-5)
        assert res.matches == pattern, res.row


def test_discrepant_cells_are_flagged_loudly():
    results = evaluate_table()
    discrepant = [(r.row.spin, r.row.t20, i)
                  for r in results for i, ok in enumerate(r.matches) if not ok]
    # exactly the known disagreements: row 1 Var_y0, row 5 Sz/2, row 8 Var_x0+Var_y0
    assert discrepant == [("3/2", 0.9, 1), ("1", 0.7, 2), ("1", 0.3, 0), ("1", 0.3, 1)]


def _row_state(row) -> SpinDensity:
    """The row's state in its own special Lakin frame."""
    return from_tensors(TensorParams(
        row.spin, {(1, 0): row.t10, (2, 0): row.t20, (2, 2): row.t22}))


@settings(max_examples=40)
@given(st.floats(0.0, 2 * math.pi), st.floats(0.0, math.pi),
       st.floats(0.0, 2 * math.pi))
def test_table1_rows_in_any_frame(alpha, beta, gamma):
    """In any frame, analyze() finds each spin-1 row's closed-form
    variances and the state is not oriented; the spin-3/2 rows are not
    positive semi-definite in any frame."""
    angles = EulerAngles(alpha, beta, gamma)
    for row in ROWS:
        rho = _row_state(row)
        u = wigner_d_matrix(row.spin, angles)
        rotated = SpinDensity(row.spin, u @ rho.matrix @ u.conj().T)
        if row.spin == "3/2":
            with pytest.raises(UnphysicalStateError):
                analyze(rotated)
            continue
        rep = analyze(rotated)
        got = (rep.variance_x0, rep.variance_y0, rep.sz_half)
        want = lf_variances(row.spin, row.t10, row.t20, row.t22)
        assert max(abs(x - y) for x, y in zip(got, want)) < 1e-12, (row, got, want)
        assert not classify_orientation(rotated).oriented
