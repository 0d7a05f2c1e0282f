import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bin_oracles import searchsorted_bins
from fairpost.grid import discretize_many, make_grid


def discretize(g, y):
    return int(discretize_many(g, [y])[0])


def test_midpoints_unit_interval():
    g = make_grid(0, 1, 4)
    assert np.allclose(g.midpoints, [0.125, 0.375, 0.625, 0.875])


def test_midpoints_single_bin():
    g = make_grid(0, 1, 1)
    assert np.allclose(g.midpoints, [0.5])


def test_midpoints_offset_interval():
    g = make_grid(1, 4, 3)
    assert np.allclose(g.midpoints, [1.5, 2.5, 3.5])


def test_invalid_interval():
    with pytest.raises(ValueError):
        make_grid(1, 1, 3)
    with pytest.raises(ValueError):
        make_grid(2, 1, 3)


def test_invalid_bins():
    with pytest.raises(ValueError):
        make_grid(0, 1, 0)


def test_discretize_nearest():
    g = make_grid(0, 1, 4)
    assert discretize(g, 0.2) == 0


def test_discretize_tie_goes_lower():
    g = make_grid(0, 1, 4)
    # 0.25 is equidistant from 0.125 and 0.375
    assert discretize(g, 0.25) == 0


def test_discretize_clamps_out_of_range():
    g = make_grid(0, 1, 4)
    assert discretize(g, 1.7) == 3
    assert discretize(g, -2.0) == 0
    assert discretize(g, np.inf) == 3
    assert discretize(g, -np.inf) == 0


def test_discretize_names_the_first_nan():
    g = make_grid(0, 1, 4)
    with pytest.raises(ValueError, match=r"^row 2: NaN has no bin$"):
        discretize_many(g, [0.1, np.inf, np.nan, 0.3, np.nan])


grids = st.tuples(
    st.floats(-5, 5), st.floats(0.1, 10), st.integers(1, 40)
).map(lambda x: make_grid(x[0], x[0] + x[1], x[2]))


@given(grids, st.floats(0, 1))
def test_displacement_bound_inside_interval(g, u):
    y = g.s + u * (g.t - g.s)
    j = discretize(g, y)
    assert abs(g.midpoints[j] - y) <= (g.t - g.s) / (2 * g.k) + 1e-12


@given(grids, st.floats(-10, 10), st.floats(-10, 10))
def test_discretize_monotone(g, y1, y2):
    lo, hi = min(y1, y2), max(y1, y2)
    assert discretize(g, lo) <= discretize(g, hi)


@given(grids, st.lists(st.floats(-10, 10), min_size=1, max_size=30))
def test_vectorized_matches_scalar(g, ys):
    """Against a per-value brute force: the nearest midpoint by absolute
    distance, first (lowest) index on ties."""
    got = discretize_many(g, np.array(ys))
    assert [int(b) for b in got] == [int(np.argmin(np.abs(g.midpoints - y))) for y in ys]


@given(grids)
def test_midpoints_strictly_increasing_inside_interval(g):
    assert (np.diff(g.midpoints) > 0).all() or g.k == 1
    assert g.midpoints[0] > g.s and g.midpoints[-1] < g.t


def edge_values(g):
    """Midpoints, half-way points between them, bin boundaries, the ends,
    values far out of range and +-inf, each with its two float neighbours."""
    m = g.midpoints
    base = np.concatenate([m, (m[:-1] + m[1:]) / 2, g.s + np.arange(g.k + 1) * (g.t - g.s) / g.k,
                           [g.s, g.t, g.s - 1.0, g.t + 1.0, 0.0, -0.0, 5e-324, 1e308, -1e308,
                            np.inf, -np.inf]])
    return np.concatenate([base, np.nextafter(base, np.inf), np.nextafter(base, -np.inf)])


@pytest.mark.parametrize("s, t", [(0.0, 1.0), (1.0, 4.0), (-3.3, 7.1)])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 12, 36, 60, 100, 999, 1000])
def test_discretize_equals_the_binary_search_on_edge_values(s, t, k):
    g = make_grid(s, t, k)
    ys = edge_values(g)
    assert np.array_equal(discretize_many(g, ys), searchsorted_bins(g.midpoints, ys))


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e3, 1e3), st.floats(1e-3, 1e3), st.integers(1, 1000),
       st.lists(st.floats(allow_nan=False), max_size=20), st.integers(0, 2 ** 32 - 1))
def test_discretize_equals_the_binary_search(s, width, k, drawn, seed):
    """Offset grids with k from 1 to 1,000, on the edge values, uniform
    values over three times the interval, and any other float."""
    g = make_grid(s, s + width, k)
    inside = np.random.default_rng(seed).uniform(g.s - width, g.t + width, 200)
    ys = np.concatenate([edge_values(g), inside, drawn])
    assert np.array_equal(discretize_many(g, ys), searchsorted_bins(g.midpoints, ys))
