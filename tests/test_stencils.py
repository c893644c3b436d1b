"""Node stencils read neighbours through `core.shifted`; pinned bit for bit to the
slice-based stencils they replaced, kept here as references."""

import numpy as np
import pytest

from roconvex.core import MatrixPoint, SampledField, gradient_field, grid_spec, sample, shifted
from roconvex.corpus import corpus
from roconvex.verify import NodeMinReport, symmetric_operator_check, viscosity_subharmonic_check


def _reference_gradient(fld):
    h = fld.grid.spacing
    v = fld.values_nd()
    out = []
    for axis in range(fld.grid.shape.dim):
        vm = np.moveaxis(v, axis, 0)
        g = np.full_like(vm, np.nan)
        central = (vm[2:] - vm[:-2]) / (2.0 * h)
        fwd = (-3.0 * vm[:-2] + 4.0 * vm[1:-1] - vm[2:]) / (2.0 * h)
        bwd = (3.0 * vm[2:] - 4.0 * vm[1:-1] + vm[:-2]) / (2.0 * h)
        g[1:-1] = central
        g[:-2] = np.where(np.isfinite(g[:-2]), g[:-2], fwd)
        g[2:] = np.where(np.isfinite(g[2:]), g[2:], bwd)
        g = np.moveaxis(g, 0, axis)
        out.append(SampledField(fld.grid, g.reshape(-1), np.isfinite(g).reshape(-1)))
    return out


def _reference_laplacian(fld):
    dim = fld.shape.dim
    ppa = fld.grid.points_per_axis
    h = fld.grid.spacing
    v = fld.values_nd()
    core = (slice(1, -1),) * dim
    acc = np.zeros((ppa - 2,) * dim)
    for axis in range(dim):
        sl_p = tuple(slice(2, None) if a == axis else slice(1, -1) for a in range(dim))
        sl_m = tuple(slice(0, -2) if a == axis else slice(1, -1) for a in range(dim))
        acc = acc + v[sl_p] + v[sl_m] - 2.0 * v[core]
    lap = acc / (h * h)
    finite = np.isfinite(lap)
    flat = np.where(finite, lap, np.inf).reshape(-1)
    k = int(np.argmin(flat))
    idx = np.unravel_index(k, lap.shape)
    witness = tuple(float(fld.grid.axis_values(a)[idx[a] + 1]) for a in range(dim))
    return NodeMinReport(float(flat[k]), witness, int(np.sum(finite)))


def _reference_symmetric(fld):
    n = fld.shape.rows
    dim = fld.shape.dim
    ppa = fld.grid.points_per_axis
    h = fld.grid.spacing
    coord_index = {pair: k for k, pair in enumerate(fld.shape.coord_pairs())}
    v = fld.values_nd()
    pad = np.pad(v, 1, constant_values=np.nan)

    def pad_shifted(step):
        return pad[tuple(slice(1 + int(s), 1 + int(s) + ppa) for s in step)]

    total = np.zeros_like(v)
    for i in range(n):
        for j in range(i, n):
            step = np.zeros(dim, dtype=int)
            step[coord_index[(i, i)]] = 1
            weight = 1.0
            if i != j:
                step[coord_index[(i, j)]] = 1
                step[coord_index[(j, j)]] = 1
                weight = 2.0
            second = (pad_shifted(step) + pad_shifted(-step) - 2.0 * v) / (h * h)
            total = total + weight * second
    finite = np.isfinite(total)
    flat = np.where(finite, total, np.inf).reshape(-1)
    k = int(np.argmin(flat))
    idx = np.unravel_index(k, total.shape)
    witness = tuple(float(fld.grid.axis_values(a)[idx[a]]) for a in range(dim))
    return NodeMinReport(float(flat[k]), witness, int(np.sum(finite)))


@pytest.mark.parametrize("h", corpus(), ids=lambda h: h.name)
def test_stencils_match_slice_references_bitwise(h):
    # non-dyadic radii and off-centre grids, so no difference is exact by accident
    rng = np.random.default_rng(len(h.name))
    for points in (3, 5, 7, 9, 11, 13):
        for clip in ("cube", "ball"):
            center = MatrixPoint(h.shape, rng.uniform(-0.4, 0.4, h.shape.dim))
            spec = grid_spec(h.shape, float(rng.uniform(0.3, 1.7)), points, clip, center)
            fld = sample(h, spec)
            for got, ref in zip(gradient_field(fld), _reference_gradient(fld), strict=True):
                assert got.values.tobytes() == ref.values.tobytes()
                assert got.mask.tobytes() == ref.mask.tobytes()
            ref = _reference_symmetric(fld) if h.shape.symmetric else _reference_laplacian(fld)
            check = symmetric_operator_check if h.shape.symmetric else viscosity_subharmonic_check
            if ref.nodes_checked == 0:
                with pytest.raises(ValueError, match="no interior nodes"):
                    check(fld)
            else:
                assert check(fld) == ref


def test_shifted_vacates_the_faces_it_leaves():
    v = np.arange(5.0 * 7.0).reshape(5, 7)
    for s in (1, 2, -1, -2):
        out = shifted(v, (s, 0))
        rows = slice(None, -s) if s > 0 else slice(-s, None)
        vacated = slice(-s, None) if s > 0 else slice(None, -s)
        assert np.array_equal(out[rows], np.roll(v, -s, axis=0)[rows])
        assert np.all(np.isnan(out[vacated]))
        out = shifted(v, (0, s))
        assert np.array_equal(out[:, rows], np.roll(v, -s, axis=1)[:, rows])
        assert np.all(np.isnan(out[:, vacated]))
    assert np.array_equal(shifted(v, (0, 0)), v)
    assert np.array_equal(shifted(v, (1, -1))[:-1, 1:], v[1:, :-1])


@pytest.mark.parametrize("step", [(5, 0), (-5, 0), (0, 7), (0, -9), (6, 1)])
def test_shifted_past_the_axis_is_all_nan(step):
    assert np.all(np.isnan(shifted(np.ones((5, 7)), step)))
