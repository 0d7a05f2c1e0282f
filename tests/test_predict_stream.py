"""The vectorized prediction path against a per-row scalar reference.

Sample mode must consume one uniform per row in row order and read kernel
row (a, j) by inverse CDF, exactly as a loop of scalar draws would; the
barycentric mode must return the same per-row 1-D dot products.
"""

import dataclasses
import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fairpost.data_io import AffineTransform
from fairpost.pipeline import FairPostprocessor
from fairpost.grid import make_grid
from fairpost.transport import row_bands, sample_bins


def random_kernels(rng, n_groups, k):
    """Row-stochastic kernels with zero-mass entries and identity rows."""
    w = rng.random((n_groups, k, k)) * (rng.random((n_groups, k, k)) < 0.5)
    identity = (rng.random((n_groups, k)) < 0.3) | (w.sum(axis=2) == 0.0)
    w[identity] = np.tile(np.eye(k), (n_groups, 1, 1))[identity]
    return w / w.sum(axis=2, keepdims=True)


def model_from_kernels(matrices, s=0.0, t=1.0):
    n_groups, k, _ = matrices.shape
    flat = np.full((n_groups, k), 1.0 / k)
    return FairPostprocessor(
        grid=make_grid(s, t, k), groups=tuple(f"g{a}" for a in range(n_groups)),
        kernels=matrices, alpha=0.1, epsilon=math.inf,
        weights=np.full(n_groups, 1.0 / n_groups), pmfs=flat,
        targets=flat, barycenter=flat[0], objective=0.0)


def nearest_bin(grid, y):
    return int(np.argmin(np.abs(grid.midpoints - y)))


def scalar_reference(model, model_rows, ys, uniforms):
    """One uniform per row: searchsorted(cumsum(row), u, side="right"), clamped."""
    out = []
    for a, y, u in zip(model_rows, ys, uniforms):
        row = model.kernels[a, nearest_bin(model.grid, y)]
        b = min(int(np.searchsorted(np.cumsum(row), u, side="right")), model.grid.k - 1)
        out.append(model.grid.midpoints[b])
    return np.array(out, dtype=float)


class Replay:
    """Stands in for a Generator and hands out fixed uniforms in order."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)
        self.pos = 0

    def random(self, size):
        out = self.uniforms[self.pos:self.pos + size]
        self.pos += size
        return out.copy()


@st.composite
def batches(draw):
    """A random model plus a batch of rows in the caller's own group order."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    n_groups, k = draw(st.integers(1, 4)), draw(st.integers(1, 12))
    s = draw(st.floats(-2, 2))
    model = model_from_kernels(random_kernels(rng, n_groups, k), s, s + draw(st.floats(0.5, 3)))
    n = draw(st.integers(0, 60))
    g = model.grid
    boundaries = g.s + np.arange(k + 1) * (g.t - g.s) / k
    pools = [rng.uniform(g.s, g.t, n), rng.choice(boundaries, n), rng.choice(g.midpoints, n),
             rng.choice([g.s - 1.0, g.s - 1e-9, g.t + 1e-9, g.t + 0.5], n)]
    ys = np.choose(rng.integers(0, len(pools), n), pools)
    universe = tuple(rng.permutation(model.groups))
    group_idx = rng.integers(0, n_groups, n)
    model_rows = np.array([model.groups.index(universe[i]) for i in group_idx], dtype=np.intp)
    return model, universe, group_idx, ys, model_rows, rng


@settings(max_examples=150, deadline=None)
@given(batches())
def test_sample_mode_matches_scalar_reference_and_stream(batch):
    model, universe, group_idx, ys, model_rows, rng = batch
    seed = int(rng.integers(0, 2 ** 32))
    stream = np.random.default_rng(seed)
    got = model.predict_batch(universe, group_idx, ys, stream)
    scalar = np.random.default_rng(seed)
    uniforms = [scalar.random() for _ in range(len(ys))]
    assert np.array_equal(got, scalar_reference(model, model_rows, ys, uniforms))
    assert stream.bit_generator.state == scalar.bit_generator.state
    outside = int(np.count_nonzero((ys < model.grid.s) | (ys > model.grid.t)))
    assert model.out_of_range_count == outside


@settings(max_examples=150, deadline=None)
@given(batches())
def test_uniforms_on_cdf_values_match_scalar_reference(batch):
    """Uniforms exactly equal to a CDF entry of the row being read (and 0)."""
    model, universe, group_idx, ys, model_rows, rng = batch
    cdfs = np.cumsum(model.kernels, axis=2)
    uniforms = np.array([cdfs[a, nearest_bin(model.grid, y), rng.integers(0, model.grid.k)]
                         for a, y in zip(model_rows, ys)])
    uniforms[rng.random(len(ys)) < 0.2] = 0.0
    uniforms = np.minimum(uniforms, np.nextafter(1.0, 0.0))
    got = model.predict_batch(universe, group_idx, ys, Replay(uniforms))
    assert np.array_equal(got, scalar_reference(model, model_rows, ys, uniforms))


@settings(max_examples=100, deadline=None)
@given(batches())
def test_barycentric_mode_is_per_row_dot_bit_for_bit(batch):
    model, universe, group_idx, ys, model_rows, _ = batch
    stream = np.random.default_rng(0)
    got = model.predict_batch(universe, group_idx, ys, stream, mode="barycentric")
    expected = [model.kernels[a, nearest_bin(model.grid, y)] @ model.grid.midpoints
                for a, y in zip(model_rows, ys)]
    assert np.array_equal(got, np.array(expected, dtype=float))
    assert stream.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_batches_larger_than_one_block_match_reference():
    rng = np.random.default_rng(4)
    model = model_from_kernels(random_kernels(rng, 3, 20))
    n = 10_000
    group_idx = rng.integers(0, 3, n)
    ys = rng.random(n)
    got = model.predict_batch(model.groups, group_idx, ys, np.random.default_rng(8))
    uniforms = np.random.default_rng(8).random(n)
    assert np.array_equal(got, scalar_reference(model, group_idx, ys, uniforms))


def test_predict_is_the_one_row_batch():
    rng = np.random.default_rng(5)
    model = model_from_kernels(random_kernels(rng, 2, 7))
    ys = rng.random(40)
    batch = model.predict_batch(model.groups, np.arange(40) % 2, ys, np.random.default_rng(3))
    stream = np.random.default_rng(3)
    assert [model.predict(f"g{i % 2}", y, stream) for i, y in enumerate(ys)] == list(batch)


def test_sample_bins_exact_cdf_values_and_clamp():
    kernels = np.array([[[0.25, 0.25, 0.5, 0.0],
                         [0.0, 1.0, 0.0, 0.0],
                         [0.0, 0.0, 1.0, 0.0],
                         [0.0, 0.0, 0.0, 1.0]]])
    u = np.array([0.0, 0.2499, 0.25, 0.5, 0.75, 0.9999, 1.0])
    zeros = np.zeros(7, dtype=np.intp)
    got = sample_bins(row_bands(kernels), zeros, zeros, u)
    # side="right": a uniform equal to a CDF value moves past that bin;
    # u = 1.0 runs off the end and is clamped to the last bin
    assert list(got) == [0, 0, 1, 2, 2, 2, 3]


def test_out_of_range_warning_logged_once(caplog):
    """Once per model, naming the raw score and the raw interval."""
    model = model_from_kernels(random_kernels(np.random.default_rng(6), 2, 5))
    affine = dataclasses.replace(model_from_kernels(random_kernels(np.random.default_rng(6), 2, 5)),
                                 transform=AffineTransform(offset=1.0, scale=3.0))
    with caplog.at_level(logging.WARNING, logger="fairpost.pipeline"):
        model.predict_batch(model.groups, [0, 1, 0], [1.5, -0.2, 0.4], np.random.default_rng(0))
        model.predict_batch(model.groups, [1], [2.0], np.random.default_rng(0))
        model.predict("g0", -3.0, np.random.default_rng(0))
        affine.predict_batch(affine.groups, [0, 1, 0], [2.5, 4.25, 1.0], np.random.default_rng(0))
        affine.predict("g1", 0.5, np.random.default_rng(0))
    warnings = [r.getMessage() for r in caplog.records
                if "outside fitted interval" in r.getMessage()]
    assert warnings == ["score 1.5 outside fitted interval [0, 1]; clamping",
                        "score 4.25 outside fitted interval [1, 4]; clamping"]
    assert model.out_of_range_count == 4
    assert affine.out_of_range_count == 2


def test_unknown_group_raises_before_any_draw():
    model = model_from_kernels(random_kernels(np.random.default_rng(7), 2, 4))
    stream = np.random.default_rng(0)
    before = stream.bit_generator.state
    with pytest.raises(KeyError, match=r"row 2: group 'zz'"):
        model.predict_batch(("g0", "zz"), [0, 0, 1], [0.1, 0.2, 0.3], stream)
    assert stream.bit_generator.state == before


def test_negative_group_index_rejected():
    model = model_from_kernels(random_kernels(np.random.default_rng(9), 2, 3))
    with pytest.raises(ValueError, match="negative group index"):
        model.predict_batch(model.groups, [0, -1], [0.5, 0.5], np.random.default_rng(0))


def test_group_index_past_the_labels_rejected():
    model = model_from_kernels(random_kernels(np.random.default_rng(9), 2, 3))
    with pytest.raises(ValueError, match="row 2: group index 2 out of range for 2 group labels"):
        model.predict_batch(model.groups, [0, 1, 2], [0.5, 0.5, 0.5], np.random.default_rng(0))


def test_unknown_mode_rejected():
    model = model_from_kernels(random_kernels(np.random.default_rng(8), 1, 3))
    with pytest.raises(ValueError, match="unknown mode"):
        model.predict_batch(model.groups, [0], [0.5], np.random.default_rng(0), mode="median")
