"""Column kernels that must give NumPy's own bits: row sums, diagonal
quadratic forms and the in-place noise leaf."""

import math

import numpy as np
import pytest

from orthostab.orthogonality import row_sums
from orthostab.perturb import make_bounded_noise, make_quadratic

EINSUM = np.einsum


def same_bits(got, want):
    # shape, dtype and every byte, so the sign of a zero and NaN bits count
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def special_rows(width, rng):
    # random magnitudes over 40 decades, then rows of +-0, inf and NaN
    a = rng.standard_normal((64, width)) * 10.0 ** rng.integers(-20, 20,
                                                                (64, width))
    a[0], a[1], a[2] = 0.0, -0.0, np.where(np.arange(width) % 2, -0.0, 0.0)
    a[3, 0], a[4, -1] = np.inf, -np.inf
    a[5, 0], a[5, -1] = np.inf, -np.inf
    a[6, width // 2] = np.nan
    a[7] = -np.inf
    return a


WIDTHS = list(range(1, 21)) + [64, 130]


class TestRowSums:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_matches_numpy_sum(self, width):
        rng = np.random.default_rng(width)
        a = special_rows(width, rng)
        before = a.copy()
        with np.errstate(invalid="ignore"):
            for arr in (a, a[:, None, :], a[9], a[2], a[5]):
                assert same_bits(row_sums(arr), np.sum(arr, axis=-1))
                assert type(row_sums(arr)) is type(np.sum(arr, axis=-1))
        assert same_bits(a, before)

    def test_column_sums_below_eight_columns(self, monkeypatch):
        # narrow rows never reach np.sum, which runs one loop per row
        a = special_rows(7, np.random.default_rng(0))
        with np.errstate(invalid="ignore"):
            want = np.sum(a, axis=-1)
            monkeypatch.setattr(np, "sum", None)
            assert same_bits(row_sums(a), want)


def diagonal_forms(dim, k, rng):
    diag = rng.uniform(0.2, 0.8, size=(k, dim))
    diag[0] = -diag[0]
    diag[-1, ::2] = -diag[-1, ::2]
    forms = np.zeros((k, dim, dim))
    forms[:, np.arange(dim), np.arange(dim)] = diag
    return forms


def point_sets(dim, rng):
    pts = rng.standard_normal((33, dim)) * 10.0 ** rng.integers(-60, 60,
                                                                (33, dim))
    pts[0] = 0.0
    pts[1] = -0.0
    pts[2:, ::3] = 0.0
    pts[3, -1] = 1e200
    return pts, pts[:, None, :], pts[5], pts[0]


def einsum_form(b, pts):
    return EINSUM("...i,kij,...j->...k", pts, b, pts)


class TestDiagonalQuadratic:
    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 9, 16, 64])
    def test_matches_einsum(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        for k in (1, 3, dim):
            b = diagonal_forms(dim, k, rng)
            sets = point_sets(dim, rng)
            with np.errstate(over="ignore"):
                want = [einsum_form(b, pts) for pts in sets]
            p = make_quadratic(b)
            # the diagonal path does not fall back on the einsum
            monkeypatch.setattr(np, "einsum", None)
            with np.errstate(over="ignore"):
                for pts, w in zip(sets, want):
                    assert same_bits(p(pts), w)
            monkeypatch.undo()

    def test_tiny_off_diagonal_entry_takes_einsum(self, monkeypatch):
        b = diagonal_forms(3, 2, np.random.default_rng(1))
        b[1, 0, 2] = b[1, 2, 0] = 1e-300
        calls = []

        def counted(*args):
            calls.append(args[0])
            return EINSUM(*args)

        p = make_quadratic(b)
        pts = point_sets(3, np.random.default_rng(2))[0]
        monkeypatch.setattr(np, "einsum", counted)
        with np.errstate(over="ignore"):
            assert same_bits(p(pts), einsum_form(b, pts))
        assert calls == ["...i,kij,...j->...k"]

    def test_negative_zero_off_diagonal_is_diagonal(self, monkeypatch):
        b = diagonal_forms(3, 2, np.random.default_rng(3))
        b[0, 0, 1] = b[0, 1, 0] = -0.0
        pts = point_sets(3, np.random.default_rng(4))[0]
        with np.errstate(over="ignore"):
            want = einsum_form(b, pts)
            p = make_quadratic(b)
            monkeypatch.setattr(np, "einsum", None)
            assert same_bits(p(pts), want)


def one_line_noise(delta, seed, source_dim, target_dim):
    # the leaf as a single expression, drawing its data as the package does
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(target_dim, source_dim))
    p = rng.uniform(0.0, 2.0 * math.pi, size=target_dim)
    a = delta / math.sqrt(target_dim)

    def fn(pts):
        r = np.sqrt(np.sum(pts * pts, axis=-1, keepdims=True))
        env = r / (1.0 + r)
        return a * env * np.cos(pts @ w.T + p)
    return fn


class TestNoiseLeaf:
    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 9, 16, 64])
    def test_matches_one_line_expression(self, dim):
        rng = np.random.default_rng(dim)
        for k, delta, seed in ((1, 1e-2, 7), (3, 0.3, 101), (dim, 1.0, 9)):
            noise = make_bounded_noise(delta, seed, dim, k)
            ref = one_line_noise(delta, seed, dim, k)
            for pts in point_sets(dim, rng):
                before = pts.copy()
                with np.errstate(over="ignore", invalid="ignore"):
                    assert same_bits(noise(pts), ref(pts))
                assert same_bits(pts, before)
