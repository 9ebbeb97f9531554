from unittest import mock

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgtsv

from smc import operators
from smc.errors import InvalidThetaError, SingularSystemError
from smc.grid import Field, build_grid, inner_product, norm_h
from smc.operators import (
    OperatorSpec,
    SpaceMeanOperator,
    TridiagonalStepper,
    _window_averages,
    apply_a,
    apply_a_star,
    check_garding,
    operator_matrix,
    operator_tridiagonal,
    space_mean,
    space_mean_adjoint,
    space_mean_dual_weight,
)


def overlap_mean(x, theta, x_min=0.0, x_max=1.0):
    """Closed-form window average of the indicator of D for constant 1 data."""
    return (min(x_max, x + theta) - max(x_min, x - theta)) / (2.0 * theta)


# ---------------------------------------------------------------------------
# space mean
# ---------------------------------------------------------------------------


def test_space_mean_constant_interior_window():
    g = build_grid(0.0, 1.0, 199)
    one = Field.from_function(g, lambda x: np.ones_like(x))
    m = space_mean(one, 0.1)
    mid = np.argmin(np.abs(g.nodes - 0.5))
    assert m.values[mid] == pytest.approx(1.0, abs=1e-13)
    inner = (g.nodes > 0.1 + 1e-12) & (g.nodes < 0.9 - 1e-12)
    np.testing.assert_allclose(m.values[inner], 1.0, atol=1e-13)


def test_space_mean_constant_near_boundary_matches_overlap():
    g = build_grid(0.0, 1.0, 199)
    one = Field.from_function(g, lambda x: np.ones_like(x))
    m = space_mean(one, 0.1)
    i = np.argmin(np.abs(g.nodes - 0.05))
    assert m.values[i] == pytest.approx(overlap_mean(g.nodes[i], 0.1), abs=1e-13)
    assert m.values[i] == pytest.approx(0.75, abs=1e-12)


def test_space_mean_linear_function_center_value():
    g = build_grid(0.0, 1.0, 199)
    lin = Field.from_function(g, lambda x: x)
    m = space_mean(lin, 0.1)
    mid = np.argmin(np.abs(g.nodes - 0.5))
    assert m.values[mid] == pytest.approx(0.5, abs=1e-13)


def test_space_mean_rejects_bad_theta():
    g = build_grid(0.0, 1.0, 20)
    f = Field.zeros(g)
    with pytest.raises(InvalidThetaError):
        space_mean(f, 0.0)
    with pytest.raises(InvalidThetaError):
        space_mean(f, -0.3)


def test_space_mean_linearity():
    g = build_grid(0.0, 1.0, 80)
    rng = np.random.default_rng(11)
    for _ in range(20):
        a, b = rng.standard_normal(2)
        f = rng.standard_normal(g.n_total)
        p = rng.standard_normal(g.n_total)
        op = SpaceMeanOperator(g, 0.13)
        left = op.apply(a * f + b * p)
        right = a * op.apply(f) + b * op.apply(p)
        np.testing.assert_allclose(left, right, rtol=1e-12, atol=1e-14)


def _dense_space_mean(g, theta):
    """The dense reference: the window averages of every column of the identity at once."""
    return _window_averages(g, theta, np.eye(g.n_total))


def test_space_mean_matrix_matches_apply():
    g = build_grid(0.0, 1.0, 60)
    op = SpaceMeanOperator(g, 0.07)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(g.n_total)
    np.testing.assert_allclose(_dense_space_mean(g, 0.07) @ v, op.apply(v), rtol=1e-12, atol=1e-15)


def test_slab_built_space_mean_is_the_dense_reference_byte_for_byte():
    # both benchmark grids, two grids of several 256-column slabs, then random windows
    rng = np.random.default_rng(42)
    cases = [(0.0, 1.0, 60, 0.1), (0.0, 1.0, 60, 0.05), (0.0, 1.0, 600, 0.1), (0.0, 1.0, 511, 0.3)]
    cases += [(-0.5, 1.5, int(rng.integers(2, 700)), float(rng.uniform(0.0, 2.0))) for _ in range(40)]
    for x_min, x_max, n_cells, theta in cases:
        g = build_grid(x_min, x_max, n_cells)
        want = scipy.sparse.csr_array(_dense_space_mean(g, theta))
        csr = SpaceMeanOperator(g, theta)._csr
        for name in ("indptr", "indices", "data"):
            got, ref = getattr(csr, name), getattr(want, name)
            assert (got.dtype, got.tobytes()) == (ref.dtype, ref.tobytes()), (n_cells, theta, name)


def test_space_mean_adjoint_is_the_interior_block_transpose_byte_for_byte():
    # the whole CSR's transpose, on values whose boundary rows are zeroed, adds each column's
    # weights in the order the sliced interior block's transpose does; both benchmark grids,
    # then random windows, on one vector and a three-path bundle, boundary values ignored
    rng = np.random.default_rng(43)
    cases = [(0.0, 1.0, 60, 0.1), (0.0, 1.0, 60, 0.05)]
    cases += [(-0.5, 1.5, int(rng.integers(2, 700)), float(rng.uniform(0.0, 2.0))) for _ in range(40)]
    for x_min, x_max, n_cells, theta in cases:
        g = build_grid(x_min, x_max, n_cells)
        op = SpaceMeanOperator(g, theta)
        for values in (rng.standard_normal(g.n_total), rng.standard_normal((g.n_total, 3))):
            want = np.zeros_like(values)
            want[1:-1] = op._csr[1:-1, 1:-1].T @ values[1:-1]
            given = values.copy()
            got = op.apply_adjoint(values)
            assert (got.dtype, got.tobytes()) == (want.dtype, want.tobytes()), (n_cells, theta)
            assert values.tobytes() == given.tobytes()


@pytest.mark.parametrize("width", [1, 2, 4097])
def test_space_mean_bundle_columns_match_vector_apply(width):
    g = build_grid(0.0, 1.0, 60)
    op = SpaceMeanOperator(g, 0.1)
    bundle = np.random.default_rng(width).standard_normal((g.n_total, width))
    averaged = op.apply(bundle)
    for j in range(width):
        np.testing.assert_array_equal(averaged[:, j], op.apply(bundle[:, j].copy()))


@pytest.mark.parametrize("n_cells, theta", [(60, 0.1), (61, 0.05), (200, 0.13), (30, 0.9)])
def test_space_mean_apply_matches_window_formula(n_cells, theta):
    g = build_grid(-0.5, 1.5, n_cells)
    op = SpaceMeanOperator(g, theta)
    bundle = np.random.default_rng(n_cells).standard_normal((g.n_total, 7))
    formula = _window_averages(g, theta, bundle)
    np.testing.assert_allclose(op.apply(bundle), formula, rtol=0.0, atol=1e-14)
    np.testing.assert_allclose(op.apply(bundle[:, 0].copy()), formula[:, 0], rtol=0.0, atol=1e-14)


def _hand_bands(op, grid, c, adjoint=False, penalty=None):
    lower, diag, upper = operator_tridiagonal(op, grid, adjoint)
    ab = np.zeros((3, grid.n_cells))
    ab[0, 1:] = -c * upper[:-1]
    ab[1, :] = 1.0 - c * diag
    ab[2, :-1] = -c * lower[1:]
    if penalty is not None:
        ab[1, :] += penalty
    return ab


@pytest.mark.parametrize("bands", ["forward", "adjoint", "penalized"])
@pytest.mark.parametrize("width", [None, 1, 5])
def test_stepper_matches_solve_banded_bitwise(bands, width):
    g = build_grid(0.0, 1.0, 50)
    op = OperatorSpec(second_order=0.3 + 0.2 * np.sin(g.interior), first_order=0.7, theta=0.1)
    c = 0.7e-3
    adjoint = bands != "forward"
    rng = np.random.default_rng(3)
    shape = (g.n_cells,) if width is None else (g.n_cells, width)
    rhs = rng.standard_normal(shape)
    penalty = c * 4096.0 * (rng.uniform(size=g.n_cells) < 0.4) if bands == "penalized" else None
    stepper = TridiagonalStepper(op, g, c, adjoint)
    want = scipy.linalg.solve_banded((1, 1), _hand_bands(op, g, c, adjoint, penalty), rhs)
    got = stepper.solve_in_place(rhs.copy()) if penalty is None else stepper.solve(rhs, penalty)
    assert got.shape == shape
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("adjoint", [False, True])
def test_stepper_keeps_the_bands_and_coupling_of_operator_tridiagonal_bitwise(adjoint):
    # with a drift A* is not A, so each side's bands and boundary entries are its own
    g = build_grid(0.0, 1.0, 40)
    op = OperatorSpec(second_order=0.3 + 0.2 * np.sin(g.interior), first_order=0.7)
    c = 0.7e-3
    lower, diag, upper = operator_tridiagonal(op, g, adjoint)
    other = operator_tridiagonal(op, g, not adjoint)
    assert not np.array_equal(lower, other[0]) and not np.array_equal(upper, other[2])
    stepper = TridiagonalStepper(op, g, c, adjoint)
    assert stepper.c == c
    want = [lower[1:], diag, upper[:-1]]
    assert [band.tobytes() for band in stepper.bands] == [band.tobytes() for band in want]
    assert np.array(stepper.coupling).tobytes() == np.array([lower[0], upper[-1]]).tobytes()


# (second_order, first_order, c): the derivative benchmark's forward band, the
# adjoint band with drift, and Crank-Nicolson's half weight c = dt/2
STEP_BANDS = {
    "forward": (0.5, 0.0, 1e-3, False),
    "adjoint": (0.3, 0.7, 0.7e-3, True),
    "crank-nicolson": (0.5, 0.0, 0.5 * 1e-3, False),
}


@pytest.mark.parametrize("width", [None, 1, 2, TridiagonalStepper.SWEEP_MIN_PATHS, 4097])
@pytest.mark.parametrize("bands", sorted(STEP_BANDS))
def test_stepper_factored_and_column_solves_match_gtsv_bitwise(bands, width):
    g = build_grid(0.0, 1.0, 60)
    second, first, c, adjoint = STEP_BANDS[bands]
    op = OperatorSpec(second_order=second + 0.1 * np.sin(g.interior), first_order=first)
    stepper = TridiagonalStepper(op, g, c, adjoint)
    rng = np.random.default_rng(width or 0)
    shape = (g.n_cells,) if width is None else (g.n_cells, width)
    rhs = rng.standard_normal(shape)
    want = dgtsv(stepper.lower, stepper.diag, stepper.upper, rhs)[3]
    np.testing.assert_array_equal(stepper.solve(rhs, 0.0), want)
    in_place = rhs.copy()
    assert stepper.solve_in_place(in_place) is in_place
    np.testing.assert_array_equal(in_place, want)
    shared = c * 4096.0 * (rng.uniform(size=g.n_cells) < 0.4)
    shared_want = dgtsv(stepper.lower, stepper.diag + shared, stepper.upper, rhs)[3]
    np.testing.assert_array_equal(stepper.solve(rhs, shared), shared_want)


@settings(max_examples=20)
@given(
    n_cells=st.integers(2, 40),
    below=st.integers(1, TridiagonalStepper.SWEEP_MIN_PATHS - 1),
    above=st.integers(TridiagonalStepper.SWEEP_MIN_PATHS, TridiagonalStepper.SWEEP_MIN_PATHS + 64),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_cells=2, below=3, above=TridiagonalStepper.SWEEP_MIN_PATHS, seed=1)
def test_stepper_equals_dgtsv_on_random_dominant_bands(n_cells, below, above, seed):
    rng = np.random.default_rng(seed)
    lower, upper = rng.uniform(-1.0, 1.0, (2, n_cells))
    lower[0] = upper[-1] = 0.0
    # column dominant: gtsv interchanges no rows, so the factored solves run
    column = np.abs(np.roll(lower, -1)) + np.abs(np.roll(upper, 1))
    diag = rng.choice([-1.0, 1.0], n_cells) * column * rng.uniform(1.01, 3.0, n_cells)
    g = build_grid(0.0, 1.0, n_cells)

    def bands(op, grid, adjoint=False):
        return -lower, 1.0 - diag, -upper  # the stepper's bands at c = 1: lower, diag, upper

    with mock.patch.object(operators, "operator_tridiagonal", bands):
        stepper = TridiagonalStepper(OperatorSpec(), g, 1.0)
    # scipy's gttrf rejects 2 rows, so a 2-node stepper solves through gtsv alone
    assert (stepper._factors is not None) == (n_cells >= 3)
    penalty = rng.uniform(0.0, 10.0, n_cells)
    for shape in [(n_cells,), (n_cells, below), (n_cells, above)]:
        rhs = rng.standard_normal(shape)
        want = dgtsv(stepper.lower, stepper.diag, stepper.upper, rhs)[3]
        np.testing.assert_array_equal(stepper.solve_in_place(rhs.copy()), want)
        penalized = dgtsv(stepper.lower, stepper.diag + penalty, stepper.upper, rhs)[3]
        np.testing.assert_array_equal(stepper.solve(rhs, penalty), penalized)


def test_stepper_pivoting_band_falls_back_to_gtsv():
    # pure transport with c b / 2h >> 1: gtsv interchanges rows at every step
    g = build_grid(0.0, 1.0, 40)
    stepper = TridiagonalStepper(OperatorSpec(second_order=0.0, first_order=50.0), g, 0.1)
    rng = np.random.default_rng(5)
    for shape in [(g.n_cells,), (g.n_cells, 1), (g.n_cells, TridiagonalStepper.SWEEP_MIN_PATHS)]:
        rhs = rng.standard_normal(shape)
        want = dgtsv(stepper.lower, stepper.diag, stepper.upper, rhs)[3]
        np.testing.assert_array_equal(stepper.solve(rhs, 0.0), want)
        np.testing.assert_array_equal(stepper.solve_in_place(rhs.copy()), want)


def test_stepper_singular_band_raises_typed_error(monkeypatch):
    g = build_grid(0.0, 1.0, 12)

    def bands(op, grid, adjoint=False):
        zero = np.zeros(grid.n_cells)
        return zero, np.full(grid.n_cells, 2.0), zero

    monkeypatch.setattr(operators, "operator_tridiagonal", bands)
    stepper = TridiagonalStepper(OperatorSpec(0.5, 0.0), g, 0.5)  # I - 0.5 * 2 I = 0
    solves = [
        lambda: stepper.solve(np.ones(g.n_cells), 0.0),
        lambda: stepper.solve_in_place(np.ones((g.n_cells, 3))),
        lambda: stepper.solve(np.ones((g.n_cells, 3)), np.zeros(g.n_cells)),
    ]
    for solve in solves:
        with pytest.raises(SingularSystemError):
            solve()


def _reference_sweep(b, multipliers, pivots, upper):
    """The row sweep as first written: indexed rows, keyword ``out``, numpy scalar factors."""
    row = np.empty_like(b[0])
    for i, m in enumerate(multipliers):
        np.subtract(b[i + 1], np.multiply(m, b[i], out=row), out=b[i + 1])
    np.divide(b[-1], pivots[-1], out=b[-1])
    for i in range(len(upper) - 1, -1, -1):
        np.subtract(b[i], np.multiply(upper[i], b[i + 1], out=row), out=row)
        np.divide(row, pivots[i], out=b[i])
    return b


@pytest.mark.parametrize("width", [512, 2048, 4097])
def test_substitute_matches_reference_sweep_bitwise(width):
    g = build_grid(0.0, 1.0, 60)
    op = OperatorSpec(second_order=0.5 + 0.1 * np.sin(g.interior), first_order=0.3)
    stepper = TridiagonalStepper(op, g, 1e-3)
    rng = np.random.default_rng(width)
    rhs = rng.standard_normal((g.n_cells, width))
    # the stepper's own factors, as stored arrays and as the sweep's floats
    want = _reference_sweep(rhs.copy(), *stepper._factors[:3])
    np.testing.assert_array_equal(operators._substitute(rhs.copy(), *stepper._sweep_factors), want)
    np.testing.assert_array_equal(stepper.solve_in_place(rhs.copy()), want)


def test_space_mean_operator_shared_per_grid_and_theta():
    g = build_grid(0.0, 1.0, 40)
    f = Field.from_interior(g, np.random.default_rng(1).standard_normal(g.n_cells))
    shared = operators._space_mean_operator(build_grid(0.0, 1.0, 40), 0.1)
    assert shared is operators._space_mean_operator(g, 0.1)
    assert shared is not operators._space_mean_operator(g, 0.2)
    for weights in (shared._csr.data, shared._csr.indices, shared._csr.indptr):
        assert not weights.flags.writeable
    want = SpaceMeanOperator(g, 0.1).apply(f.values)
    np.testing.assert_array_equal(space_mean(f, 0.1).values, want)


def test_space_mean_contraction_random_fields():
    # discrete echo of ||G phi|| <= ||phi|| with quadrature cushion 10 h ||phi||
    rng = np.random.default_rng(2024)
    for n in (50, 100, 200):
        g = build_grid(0.0, 1.0, n)
        theta = 0.1
        for _ in range(350):
            f = Field.from_interior(g, rng.standard_normal(n))
            m = space_mean(f, theta)
            m_interior = Field(g, np.concatenate([[0.0], m.interior, [0.0]]))
            assert norm_h(m_interior) <= norm_h(f) * (1.0 + 10.0 * g.h)


def test_space_mean_adjoint_identity_exact():
    g = build_grid(0.0, 1.0, 120)
    rng = np.random.default_rng(9)
    theta = 0.09
    for _ in range(50):
        f = Field.from_interior(g, rng.standard_normal(120))
        p = Field.from_interior(g, rng.standard_normal(120))
        lhs = inner_product(space_mean(f, theta), p)
        rhs = inner_product(f, space_mean_adjoint(p, theta))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_space_mean_adjoint_of_one_approximates_dual_weight():
    g = build_grid(0.0, 1.0, 200)
    theta = 0.1
    ones = Field.from_function(g, lambda x: np.ones_like(x))
    adj = space_mean_adjoint(ones, theta)
    w = space_mean_dual_weight(g, theta)
    err = np.max(np.abs(adj.interior - w.interior))
    assert err <= 10.0 * g.h


def test_dual_weight_closed_form():
    g = build_grid(0.0, 1.0, 100)
    theta = 0.1
    w = space_mean_dual_weight(g, theta)
    expected = [overlap_mean(x, theta) for x in g.nodes]
    np.testing.assert_allclose(w.values, expected, atol=1e-12)
    i0 = np.argmin(np.abs(g.nodes - 0.0))
    i1 = np.argmin(np.abs(g.nodes - 1.0))
    mid = np.argmin(np.abs(g.nodes - 0.5))
    assert w.values[i0] == pytest.approx(0.5, abs=1e-15)
    assert w.values[i1] == pytest.approx(0.5, abs=1e-15)
    assert w.values[mid] == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize(
    "n_cells, theta", [(100, 0.1), (60, 0.05), (61, 0.13), (200, 0.3), (30, 0.9)]
)
def test_dual_weight_is_the_space_mean_of_one(n_cells, theta):
    # criterion 04's oracle: an independent operator, not a copy of the closed form
    g = build_grid(0.0, 1.0, n_cells)
    mean_of_one = SpaceMeanOperator(g, theta).apply(np.ones(g.n_total))
    w = space_mean_dual_weight(g, theta).values
    assert np.max(np.abs(w - mean_of_one)) <= 1e-12
    shifted = np.roll(w, 1)  # a weight misplaced by one cell
    assert np.max(np.abs(shifted - mean_of_one)) > 1e-3


# ---------------------------------------------------------------------------
# generator and adjoint
# ---------------------------------------------------------------------------


def test_apply_a_exact_on_quadratic():
    g = build_grid(0.0, 1.0, 40)
    op = OperatorSpec(second_order=0.5, first_order=0.0)
    u = Field.from_function(g, lambda x: x * (1.0 - x))
    out = apply_a(u, op)
    np.testing.assert_allclose(out.interior, -1.0, atol=1e-11)
    assert out.values[0] == 0.0 and out.values[-1] == 0.0


def test_apply_a_annihilates_constants():
    g = build_grid(0.0, 1.0, 25)
    op = OperatorSpec(second_order=0.5, first_order=0.0)
    u = Field.from_function(g, lambda x: 3.7 * np.ones_like(x))
    np.testing.assert_allclose(apply_a(u, op).values, 0.0, atol=1e-11)


def test_apply_a_eigenfunction_accuracy():
    g = build_grid(0.0, 1.0, 200)
    op = OperatorSpec(second_order=0.5, first_order=0.0)
    u = Field.from_function(g, lambda x: np.sin(np.pi * x))
    out = apply_a(u, op)
    expected = -(np.pi**2 / 2.0) * np.sin(np.pi * g.interior)
    assert np.max(np.abs(out.interior - expected)) <= 1e-3


def test_adjoint_equals_direct_for_pure_diffusion():
    g = build_grid(0.0, 1.0, 50)
    op = OperatorSpec(second_order=0.5, first_order=0.0)
    rng = np.random.default_rng(17)
    u = Field.from_function(g, lambda x: np.interp(x, [0, 0.3, 0.8, 1], [0.2, 1.1, -0.4, 0.6]))
    np.testing.assert_allclose(
        apply_a_star(u, op).values, apply_a(u, op).values, rtol=1e-12, atol=1e-12
    )
    u2 = Field(g, rng.standard_normal(g.n_total), "dirichlet-data")
    np.testing.assert_allclose(
        apply_a_star(u2, op).values, apply_a(u2, op).values, rtol=1e-12, atol=1e-10
    )


def test_green_identity_with_drift():
    g = build_grid(0.0, 1.0, 64)
    op = OperatorSpec(second_order=0.5, first_order=1.0)
    rng = np.random.default_rng(23)
    for _ in range(25):
        f = Field.from_interior(g, rng.standard_normal(64))
        p = Field.from_interior(g, rng.standard_normal(64))
        lhs = inner_product(apply_a(f, op), p)
        rhs = inner_product(f, apply_a_star(p, op))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-13)


def _paired_fields(data, n_cells):
    """A grid of ``n_cells`` interior nodes with a random span, and two zero-boundary fields."""
    x_min, width = data.draw(st.floats(-10.0, 10.0)), data.draw(st.floats(1e-3, 100.0))
    g = build_grid(x_min, x_min + width, n_cells)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32)))
    f, p = (Field.from_interior(g, rng.standard_normal(n_cells) * data.draw(st.floats(1e-3, 1e3)))
            for _ in range(2))
    return g, rng, f, p


def _duality_gap(direct, adjoint, weights, f, p) -> tuple[float, float]:
    """|<direct f, p> - <f, adjoint p>| and its rounding bound, from |weights| |f| against |p|."""
    gap = abs(inner_product(direct(f), p) - inner_product(f, adjoint(p)))
    scale = f.grid.h * np.abs(p.interior) @ (np.abs(weights) @ np.abs(f.interior))
    return gap, 16.0 * f.grid.n_total * np.finfo(float).eps * scale


@settings(max_examples=100)
@given(data=st.data(), n_cells=st.integers(2, 200))
def test_green_identity_holds_for_any_nodal_coefficients(data, n_cells):
    g, rng, f, p = _paired_fields(data, n_cells)
    op = OperatorSpec(
        second_order=rng.uniform(0.0, data.draw(st.floats(0.0, 100.0)), n_cells),
        first_order=rng.uniform(-1.0, 1.0, n_cells) * data.draw(st.floats(0.0, 100.0)),
        theta=g.width / 2.0,
    )
    gap, bound = _duality_gap(lambda u: apply_a(u, op), lambda u: apply_a_star(u, op),
                              operator_matrix(op, g), f, p)
    assert gap <= bound, (gap, bound)


@settings(max_examples=60)
@given(data=st.data(), n_cells=st.integers(2, 200))
def test_space_mean_duality_holds_for_any_window(data, n_cells):
    g, _, f, p = _paired_fields(data, n_cells)
    theta = data.draw(st.floats(0.0, g.width, exclude_min=True, exclude_max=True))
    weights = _dense_space_mean(g, theta)[1:-1, 1:-1]
    gap, bound = _duality_gap(lambda u: space_mean(u, theta),
                              lambda u: space_mean_adjoint(u, theta), weights, f, p)
    assert gap <= bound, (gap, bound)


def test_adjoint_matrix_is_transpose():
    g = build_grid(0.0, 1.0, 30)
    rng = np.random.default_rng(4)
    op = OperatorSpec(second_order=rng.uniform(0.1, 1.0, 30), first_order=rng.standard_normal(30))
    direct = operator_matrix(op, g, adjoint=False)
    adj = operator_matrix(op, g, adjoint=True)
    np.testing.assert_allclose(adj, direct.T, rtol=1e-14, atol=1e-14)


def test_adjoint_pure_drift_on_quadratic():
    g = build_grid(0.0, 1.0, 40)
    op = OperatorSpec(second_order=0.0, first_order=1.0)
    u = Field.from_function(g, lambda x: x * (1.0 - x), boundary_kind="dirichlet-zero")
    out = apply_a_star(u, op)
    expected = -(1.0 - 2.0 * g.interior)
    np.testing.assert_allclose(out.interior, expected, atol=1e-11)


# ---------------------------------------------------------------------------
# coercivity
# ---------------------------------------------------------------------------


def test_garding_pure_diffusion_lambda_zero():
    g = build_grid(0.0, 1.0, 60)
    rep = check_garding(OperatorSpec(second_order=0.5, first_order=0.0), g)
    assert rep.satisfied
    assert rep.alpha > 0.0
    assert rep.lam == 0.0
    # analytic value 1/(1 + C_P) with the discrete Poincare constant
    c_p = g.h**2 / (4.0 * np.sin(np.pi * g.h / 2.0) ** 2)
    assert rep.alpha == pytest.approx(1.0 / (1.0 + c_p), rel=1e-8)


def test_garding_zero_operator_fails():
    g = build_grid(0.0, 1.0, 40)
    rep = check_garding(OperatorSpec(second_order=0.0, first_order=0.0), g)
    assert not rep.satisfied
    assert rep.alpha == 0.0


def test_garding_with_drift_satisfied():
    g = build_grid(0.0, 1.0, 60)
    rep = check_garding(OperatorSpec(second_order=0.5, first_order=1.0), g)
    assert rep.satisfied
    assert rep.alpha > 0.0


def test_garding_certificate_on_random_fields():
    g = build_grid(0.0, 1.0, 45)
    op = OperatorSpec(second_order=0.5, first_order=1.0)
    rep = check_garding(op, g)
    rng = np.random.default_rng(31)
    a_mat = operator_matrix(op, g)
    h = g.h
    lap = 2.0 * np.eye(45) - np.eye(45, k=1) - np.eye(45, k=-1)
    for _ in range(200):
        u = rng.standard_normal(45)
        q = -2.0 * h * u @ a_mat @ u
        norm_sq = h * u @ u
        grad_sq = u @ lap @ u / h
        lhs = q + rep.lam * norm_sq
        rhs = rep.alpha * (norm_sq + grad_sq)
        assert lhs >= rhs - 1e-9 * max(1.0, abs(rhs))
