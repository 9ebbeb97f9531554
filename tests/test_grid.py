import numpy as np
import pytest

from smc.errors import GridMismatchError, InvalidBoundsError, InvalidSizeError
from smc.grid import DIRICHLET_ZERO, Field, FieldPath, build_grid, inner_product, norm_h, norm_w


def test_build_grid_nodes_and_spacing():
    g = build_grid(0.0, 1.0, 3)
    assert g.h == 0.25
    np.testing.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-15)
    assert g.n_total == 5


def test_build_grid_spacing_wide_domain():
    g = build_grid(0.0, 2.0, 99)
    assert g.h == pytest.approx(0.02, abs=1e-15)


def test_build_grid_rejects_small_and_inverted():
    with pytest.raises(InvalidSizeError):
        build_grid(0.0, 1.0, 1)
    with pytest.raises(InvalidBoundsError):
        build_grid(1.0, 0.0, 10)
    with pytest.raises(InvalidBoundsError):
        build_grid(1.0, 1.0, 10)


def test_grid_nodes_strictly_increasing_uniform():
    g = build_grid(-1.5, 2.5, 37)
    d = np.diff(g.nodes)
    assert np.all(d > 0)
    np.testing.assert_allclose(d, g.h, rtol=1e-12)
    assert g.nodes[0] == -1.5 and g.nodes[-1] == 2.5


def test_field_validates_length_and_zero_boundary():
    g = build_grid(0.0, 1.0, 4)
    with pytest.raises(GridMismatchError):
        Field(g, np.zeros(3))
    with pytest.raises(ValueError):
        Field(g, np.ones(g.n_total), DIRICHLET_ZERO)
    f = Field.from_interior(g, np.arange(4.0))
    assert f.values[0] == 0.0 and f.values[-1] == 0.0


def test_inner_product_constant_field():
    g = build_grid(0.0, 1.0, 99)
    one = Field.from_function(g, lambda x: np.ones_like(x))
    assert inner_product(one, one) == pytest.approx(0.99, abs=1e-12)


def test_inner_product_zero_field():
    g = build_grid(0.0, 1.0, 17)
    z = Field.zeros(g)
    f = Field.from_function(g, np.cos)
    assert inner_product(z, f) == 0.0


def test_inner_product_sine_matches_integral():
    g = build_grid(0.0, 1.0, 199)
    s = Field.from_function(g, lambda x: np.sin(np.pi * x))
    assert inner_product(s, s) == pytest.approx(0.5, abs=1e-4)


def test_inner_product_symmetric_bilinear():
    g = build_grid(0.0, 1.0, 31)
    rng = np.random.default_rng(7)
    f = Field.from_interior(g, rng.standard_normal(31))
    p = Field.from_interior(g, rng.standard_normal(31))
    assert inner_product(f, p) == pytest.approx(inner_product(p, f), rel=1e-15)
    assert inner_product(f, f) >= 0.0
    assert norm_h(f) == pytest.approx(np.sqrt(inner_product(f, f)), rel=1e-12)


def test_inner_product_grid_mismatch():
    f = Field.zeros(build_grid(0.0, 1.0, 5))
    p = Field.zeros(build_grid(0.0, 1.0, 6))
    with pytest.raises(GridMismatchError):
        inner_product(f, p)


def test_norm_w_dominates_norm_h():
    g = build_grid(0.0, 1.0, 25)
    rng = np.random.default_rng(3)
    f = Field.from_interior(g, rng.standard_normal(25))
    assert norm_w(f) >= norm_h(f)


def test_field_path_shape_checks():
    g = build_grid(0.0, 1.0, 4)
    times = np.linspace(0.0, 1.0, 3)
    with pytest.raises(GridMismatchError):
        FieldPath(g, times, np.zeros((3, 4)))
    path = FieldPath(g, times, np.zeros((3, g.n_total)))
    assert path.n_times == 3
