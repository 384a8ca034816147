"""Column kernels that must give NumPy's own bits: row sums, diagonal
quadratic forms, the noise leaf and the sup norms; and every leaf on a
stack of ladder levels, with the bits of each level alone."""

import math

import numpy as np
import pytest

from orthostab import stability
from orthostab.fixedpoint import iterate
from orthostab.funcspace import (MapHandle, make_grid, map_sum,
                                 shift_to_zero, sup_norm)
from orthostab.orthogonality import max_row_norm, row_sums
from orthostab.perturb import (make_additive, make_bounded_noise,
                               make_cubic_growth, make_quadratic)

EINSUM = np.einsum
COS = np.cos


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


def point_sets(dim, rng, rows=33):
    pts = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(
        -60, 60, (rows, dim))
    pts[0] = 0.0
    pts[1] = -0.0
    pts[2:, ::3] = 0.0
    pts[3, -1] = 1e200
    return pts, pts[:, None, :], pts[5], pts[0]


def einsum_form(b, pts):
    return EINSUM("...i,kij,...j->...k", pts, b, pts)


def no_full_form_einsum(subscripts, *operands):
    # diagonal forms may take the two-index einsum, never the O(dim^3) one
    assert subscripts != "...i,kij,...j->...k"
    return EINSUM(subscripts, *operands)


class TestDiagonalQuadratic:
    @pytest.mark.parametrize("dim", [2, 3, 5, 7, 8, 9, 16, 64])
    def test_matches_einsum(self, dim, monkeypatch):
        rng = np.random.default_rng(dim)
        for k, rows in ((1, 33), (3, 33), (dim, 33), (3, 64), (dim, 600)):
            b = diagonal_forms(dim, k, rng)
            sets = point_sets(dim, rng, rows)
            with np.errstate(over="ignore"):
                want = [einsum_form(b, pts) for pts in sets]
            p = make_quadratic(b)
            monkeypatch.setattr(np, "einsum", no_full_form_einsum)
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
            monkeypatch.setattr(np, "einsum", no_full_form_einsum)
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


ROWS = [1, 2, 63, 64, 255, 256, 511, 512, 513, 4097, 24577]
DIMS = [2, 3, 5, 7, 8, 9, 16, 64]


def rows_for(*widths):
    # the row counts that keep an array within 2^21 values: up to 512
    # rows at dim 64 with 64 output columns
    return [n for n in ROWS if n * math.prod(widths) <= 1 << 21]


def ladder_sets(n, dim, rng):
    # rows at the Picard ladder's magnitudes 8 * 2^j, j = 0..40; the same
    # rows under special_rows; that as a (m, 1, dim) stack; single points
    pts = rng.standard_normal((n, dim)) * 8.0 * 2.0 ** rng.integers(
        0, 41, (n, 1))
    special = pts.copy()
    special[:min(n, 64)] = special_rows(dim, rng)[:min(n, 64)]
    return [pts, special, special[:, None, :], special[0], pts[-1]]


def loop_form(diag, pts):
    # the diagonal quadratic map as the package computed it on (rows, k)
    # arrays: 0.0 + sum over i of (x_i d_ki) x_i, in i order
    out, t = 0.0, np.empty(pts.shape[:-1] + diag.shape[:1])
    for i, d in enumerate(diag.T):
        np.multiply(pts[..., i, None], d, out=t)
        t *= pts[..., i, None]
        out += t  # the first term makes a new array
    return out


def broadcast_noise(delta, seed, source_dim, target_dim):
    # the noise leaf as the package computed it, broadcasting the phase
    # and the envelope over whole rows
    rng = np.random.default_rng(seed)
    w = rng.normal(size=(target_dim, source_dim))
    p = rng.uniform(0.0, 2.0 * math.pi, size=target_dim)
    a = delta / math.sqrt(target_dim)

    def fn(pts):
        r = np.sqrt(row_sums(pts * pts))[..., None]
        env = r / (1.0 + r)
        z = pts @ w.T
        z += p
        return np.multiply(np.cos(z, out=z), a * env, out=z)
    return fn


def sup_reference(v):
    return float(np.max(np.sqrt(row_sums(v * v))))


@pytest.mark.parametrize("dim", DIMS)
class TestLongAxisKernels:
    """Each leaf and sup norm against the formula it replaced, on point
    arrays on both sides of every gate: 63 and 64 rows for the quadratic
    map, 511 and 512 for the noise, 7 and 8 output columns."""

    def test_diagonal_quadratic(self, dim):
        rng = np.random.default_rng(dim)
        for k in sorted({1, 3, 7, 8, dim}):
            b = diagonal_forms(dim, k, rng)
            diag = b[:, range(dim), range(dim)]
            p = make_quadratic(b)
            for n in rows_for(dim, k):
                for pts in ladder_sets(n, dim, rng):
                    with np.errstate(over="ignore", invalid="ignore"):
                        got, want = p(pts), loop_form(diag, pts)
                    assert same_bits(got, want), (k, n, pts.shape)

    def test_first_term_adds_to_zero(self, dim):
        # (d_i x_i) x_i is -0.0 where d_i < 0 and x_i = +0.0: starting the
        # sum from the first term, not from 0.0 + it, leaves -0.0 there
        b = -np.abs(diagonal_forms(dim, 2, np.random.default_rng(dim)))
        diag = b[:, range(dim), range(dim)]
        for n in (63, 64, 600):
            pts = np.zeros((n, dim))
            t = np.multiply(pts[..., 0, None], diag[:, 0]) * pts[..., 0, None]
            assert np.signbit(t).all()
            got = make_quadratic(b)(pts)
            assert same_bits(got, loop_form(diag, pts))
            assert not np.signbit(got).any()

    def test_noise_leaf(self, dim):
        rng = np.random.default_rng(dim)
        for k, delta, seed in ((1, 1e-2, 7), (3, 0.3, 101), (7, 1.0, 5),
                               (8, 1.0, 6), (dim, 1.0, 9)):
            noise = make_bounded_noise(delta, seed, dim, k)
            ref = broadcast_noise(delta, seed, dim, k)
            for n in rows_for(dim, k):
                for pts in ladder_sets(n, dim, rng):
                    before = pts.copy()
                    with np.errstate(over="ignore", invalid="ignore"):
                        assert same_bits(noise(pts), ref(pts)), (k, n)
                    assert same_bits(pts, before)

    def test_matmul_on_the_transposed_view(self, dim, monkeypatch):
        # the leaves multiply by m.T as a view: a contiguous copy of m.T
        # gives other bits on some shapes, such as (m, 1, dim) stacks
        rng = np.random.default_rng(dim)
        for k in (2, 3, dim):
            m = rng.normal(size=(k, dim))
            noise = make_bounded_noise(1.0, 11, dim, k)
            drawn = np.random.default_rng(11)  # as the package draws them
            w = drawn.normal(size=(k, dim))
            p = drawn.uniform(0.0, 2.0 * math.pi, size=k)
            cos_args = []

            def cos(z, out):
                cos_args.append(z.copy())
                return COS(z, out=out)
            for n in (1, 2, 513, 4097):
                for pts in ladder_sets(n, dim, rng)[::2]:
                    monkeypatch.setattr(np, "cos", cos)
                    with np.errstate(over="ignore", invalid="ignore"):
                        noise(pts)
                        monkeypatch.undo()
                        assert same_bits(make_additive(m)(pts), pts @ m.T)
                        z = pts @ w.T
                        z += p
                    assert same_bits(cos_args.pop(), z)

    def test_sup_norms(self, dim):
        # the three sup sites take one square root of the largest row sum
        rng = np.random.default_rng(dim)
        ident = make_additive(np.eye(dim))
        for n in ROWS:
            for v in ladder_sets(n, dim, rng)[:2]:
                with np.errstate(over="ignore", invalid="ignore"):
                    want = sup_reference(v)
                    assert same_bits(max_row_norm(v), want)
                    if math.isfinite(want):
                        assert stability._max_row_norm(v, "v") == want
                if np.isfinite(v).all():
                    with np.errstate(over="ignore"):
                        want = sup_reference(ident(v))
                    got = sup_norm(ident, v)
                    assert got == (want if want <= 1e12 else math.inf)

    def test_ladder_gaps(self, dim):
        rng = np.random.default_rng(dim)
        phi0 = map_sum(make_quadratic(diagonal_forms(dim, dim, rng)),
                       make_bounded_noise(0.5, 3, dim, dim))
        for n in rows_for(dim, dim)[1:]:
            grid = make_grid(dim, n - 1, seed=n)
            res = iterate(0.25, phi0, grid, tol=1e-300, n_max=4)
            assert len(res.raw_gaps) == 5
            for j, gap in enumerate(res.raw_gaps):
                x = 2.0 ** j * grid.points
                diff = phi0(x) - 0.25 * phi0(2.0 * x)
                assert gap == 0.25 ** j * sup_reference(diff)


def stack_leaves(dim, k, rng):
    """Every kind of leaf map, from dim to k columns: the noise, additive,
    diagonal and general quadratic, cubic and shift (-f(0)) leaves."""
    b = rng.normal(size=(k, dim, dim))
    shifted = shift_to_zero(MapHandle(lambda p: np.ones(p.shape[:-1] + (k,)),
                                      dim, k))
    return {"noise": make_bounded_noise(0.3, 7, dim, k),
            "additive": make_additive(rng.normal(size=(k, dim))),
            "diagonal": make_quadratic(diagonal_forms(dim, k, rng)),
            "general": make_quadratic(b + b.transpose(0, 2, 1)),
            "cubic": make_cubic_growth(1.5, dim, k),
            "shift": shifted.terms[-1]}


@pytest.mark.parametrize("dim", [2, 3, 7, 8, 16, 33, 64])
def test_leaves_on_stacked_levels(dim):
    # the Picard ladder reads K levels c * pts of N rows as one (K, N,
    # dim) stack: each slice must round as that level does alone.  N and
    # K straddle the gates: 64 rows for the diagonal quadratic map, 512
    # for the noise, 8 columns in and out
    rng = np.random.default_rng(dim)
    for k in sorted({1, 3, 7, 8, dim}):
        for name, leaf in stack_leaves(dim, k, rng).items():
            for n in (2, 3, 25, 40, 257):
                # on two-row levels of a 2 x 2 form the einsum may add in
                # another order: the ladder climbs such grids level by level
                if name == "general" and (n == 2 or n * k * dim > 1 << 14):
                    continue
                pts = rng.standard_normal((n, dim)) * 8.0
                pts[0] = 0.0
                for K in (K for K in (1, 2, 3, 12, 13, 15)
                          if K == 1 or n * K * k * dim <= 1 << 21):
                    first = int(rng.integers(1, 40))
                    factors = [2.0 ** m for m in range(first, first + K)]
                    stack = np.multiply.outer(factors, pts)
                    for sign in (1.0, -1.0):
                        with np.errstate(over="ignore", invalid="ignore"):
                            got = leaf(sign * stack)
                            want = np.stack([leaf(sign * c * pts)
                                             for c in factors])
                        assert same_bits(got, want), (name, k, n, K, sign)
