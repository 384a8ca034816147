"""Map-handle algebra: parity projections, sums, grids, sup distances."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthostab import funcspace
from orthostab.fixedpoint import iterate
from orthostab.funcspace import (DEFAULT_CAP, INFINITE, EvaluationError,
                                 MapHandle, SampleGrid, evaluation_scope,
                                 even_part, hand_over, make_grid, map_scale,
                                 map_sum, odd_part, scaled_points,
                                 shift_to_zero, sup_distance, sup_norm,
                                 zero_map)
from orthostab.orthogonality import DimensionMismatchError
from test_fixedpoint import reference_apply


def linear(mat, **kw):
    m = np.asarray(mat, float)
    return MapHandle(lambda p: p @ m.T, m.shape[1], m.shape[0], **kw)


class TestMapHandle:
    def test_call_shapes(self):
        f = linear(np.eye(3))
        assert f(np.zeros(3)).shape == (3,)
        assert f(np.zeros((7, 3))).shape == (7, 3)
        assert f(np.zeros((2, 5, 3))).shape == (2, 5, 3)

    def test_dim_check(self):
        f = linear(np.eye(3))
        with pytest.raises(DimensionMismatchError):
            f(np.zeros((4, 2)))

    def test_bad_output_shape(self):
        f = MapHandle(lambda p: np.zeros(p.shape[:-1] + (5,)), 3, 2)
        with pytest.raises(EvaluationError):
            f(np.zeros((4, 3)))

    def test_value_at_zero_cached(self):
        calls = []

        def fn(p):
            calls.append(1)
            return p.sum(axis=-1, keepdims=True) + 1.0

        f = MapHandle(fn, 2, 1)
        assert f.value_at_zero == 1.0
        assert f.value_at_zero == 1.0
        assert len(calls) == 1

    def test_construction_validation(self):
        with pytest.raises(ValueError):
            MapHandle(None, 2, 2)
        with pytest.raises(ValueError):
            MapHandle(lambda p: p, 2, 2, parity="sideways")


def counted(fn, log):
    """fn, appending a copy of every argument it is called on to log."""
    def wrapper(p):
        log.append(np.array(p))
        return fn(p)
    return wrapper


class TestEvaluationScope:
    def test_leaf_evaluated_once_per_point_array(self):
        log = []
        f = MapHandle(counted(lambda p: np.cos(p), log), 2, 2)
        pts = np.random.default_rng(0).normal(size=(5, 2))
        same = pts.copy()
        with evaluation_scope():
            first = f(pts)
            assert f(pts) is first
            # the key is the array object, not its contents
            assert np.array_equal(f(same), first)
            assert len(log) == 2
        assert np.array_equal(first, np.cos(pts))
        f(pts)
        assert len(log) == 3

    def test_derived_handles_share_their_leaf(self):
        log = []
        a = MapHandle(counted(lambda p: 3.0 * p, log), 2, 2, parity="odd")
        pts = np.arange(6.0).reshape(3, 2)
        with evaluation_scope():
            out = map_scale(-1.0, a)(pts) + map_scale(2.0, a)(pts)
        assert len(log) == 1
        assert np.array_equal(out, 3.0 * pts)

    def test_both_parities_share_x_and_minus_x(self):
        log = []
        f = MapHandle(counted(lambda p: (p + 1.0) ** 3, log), 2, 2)
        pts = np.random.default_rng(1).normal(size=(7, 2))
        want = even_part(f)(pts), odd_part(f)(pts)
        log.clear()
        with evaluation_scope():
            got = even_part(f)(pts), odd_part(f)(pts)
        assert len(log) == 2
        assert np.array_equal(log[0], pts) and np.array_equal(log[1], -pts)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_stored_values_are_read_only(self):
        ident = MapHandle(lambda p: p, 2, 2)
        pts = np.ones((3, 2))
        with evaluation_scope():
            out = ident(pts)
            with pytest.raises(ValueError):
                out[0, 0] = 5.0
            assert ident(pts)[0, 0] == 1.0
            # a view: the caller's own array keeps its flags
            assert pts.flags.writeable
            neg = odd_part(ident)(pts)
        assert np.array_equal(neg, pts)

    def test_nothing_outlives_the_block(self):
        f = MapHandle(lambda p: np.sin(p), 2, 2)
        pts = np.ones((4, 2))
        with evaluation_scope():
            ref = weakref.ref(f(pts).base)
            assert funcspace._SCOPE.get() is not None
        gc.collect()
        assert ref() is None
        assert funcspace._SCOPE.get() is None

    def test_key_holds_the_handle(self):
        # a handle freed inside the block must not lend its id, and so
        # its stored value, to the next handle allocated at its address
        pts = np.ones((2, 2))
        with evaluation_scope():
            for c in range(20):
                f = MapHandle(lambda p, _c=c: _c * p, 2, 2)
                assert f(pts)[0, 0] == c
                del f

    def test_nested_block_starts_empty_and_restores_outer(self):
        log = []
        f = MapHandle(counted(lambda p: 2.0 * p, log), 2, 2)
        pts = np.ones((2, 2))
        with evaluation_scope():
            f(pts)
            with evaluation_scope():
                f(pts)
                f(pts)
            f(pts)
        assert len(log) == 2

    def test_block_that_stores_nothing(self):
        log = []
        f = MapHandle(counted(lambda p: 2.0 * p, log), 2, 2)
        pts = np.ones((2, 2))
        with evaluation_scope():
            f(pts)
            with evaluation_scope(store=False):
                assert funcspace._SCOPE.get() is None
                f(pts)
                f(scaled_points(2.0, pts))
            assert funcspace._SCOPE.get() is not None
            f(pts)
        assert len(log) == 3

    def test_block_exits_on_error(self):
        with pytest.raises(ZeroDivisionError):
            with evaluation_scope():
                1 / 0
        assert funcspace._SCOPE.get() is None

    def test_value_at_zero_first_read_in_a_block_is_not_stored(self):
        f = MapHandle(lambda p: np.cos(p), 2, 2)
        with evaluation_scope():
            v0 = f.value_at_zero
            stored = [value for _, value in funcspace._SCOPE.get().values()]
            assert stored
            assert not any(np.shares_memory(v0, s) for s in stored)
            refs = [weakref.ref(s if s.base is None else s.base)
                    for s in stored]
        del stored
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert f.value_at_zero is v0
        assert v0.flags.writeable
        assert np.array_equal(v0, np.ones(2))


class TestScaledPoints:
    def test_one_array_per_factor_and_point_array(self):
        pts = np.random.default_rng(2).normal(size=(6, 3))
        factors = (-1.0, 2.0, -2.0, 2.0 ** 30)
        with evaluation_scope():
            got = {c: scaled_points(c, pts) for c in factors}
            for c, arr in got.items():
                assert scaled_points(c, pts) is arr
                assert arr.tobytes() == (c * pts).tobytes()
                assert not arr.flags.writeable
            # the key is the array object, not its contents
            assert scaled_points(2.0, pts.copy()) is not got[2.0]
            # -(2x) is -2x bit for bit
            assert (scaled_points(-1.0, got[2.0]).tobytes()
                    == got[-2.0].tobytes())
            refs = [weakref.ref(arr.base) for arr in got.values()]
        del got, arr
        gc.collect()
        assert all(ref() is None for ref in refs)
        assert scaled_points(-1.0, pts).tobytes() == (-pts).tobytes()
        assert scaled_points(2.0, pts) is not scaled_points(2.0, pts)
        assert pts.flags.writeable

    def test_copies_are_keyed_by_their_total_factor(self):
        pts = np.random.default_rng(4).normal(size=(5, 3))
        with evaluation_scope():
            two = scaled_points(2.0, pts)
            assert scaled_points(2.0, two) is scaled_points(4.0, pts)
            assert scaled_points(-1.0, two) is scaled_points(-2.0, pts)
            assert scaled_points(2.0 ** 5, scaled_points(-2.0, pts)) is (
                scaled_points(-(2.0 ** 6), pts))
            # -(-x) is x itself, and a factor of 1 is no copy
            assert scaled_points(-1.0, scaled_points(-1.0, pts)) is pts
            assert scaled_points(1.0, pts) is pts
            for c in (4.0, -2.0, -(2.0 ** 6)):
                assert scaled_points(c, pts).tobytes() == (c * pts).tobytes()
            # a factor that can round is not keyed: a fresh product
            half = scaled_points(0.5, two)
            assert half is not scaled_points(0.5, two)
            assert half.tobytes() == (0.5 * two).tobytes()

    def test_composed_copies_keep_overflow_and_signed_zeros(self):
        pts = np.array([[0.0, -0.0, 1e308], [-1e308, 5e-324, -5e-324]])
        with np.errstate(over="ignore"):
            want = {c: (c * pts).tobytes() for c in (-2.0, 4.0, -8.0)}
            with evaluation_scope():
                neg = scaled_points(-1.0, pts)
                got = {-2.0: scaled_points(2.0, neg),
                       4.0: scaled_points(2.0, scaled_points(2.0, pts)),
                       -8.0: scaled_points(4.0, scaled_points(-2.0, pts))}
                got = {c: arr.tobytes() for c, arr in got.items()}
        assert got == want

    def test_hand_over_serves_a_derived_map(self):
        log = []
        leaf = MapHandle(counted(np.cos, log), 2, 2)
        odd = odd_part(leaf)
        pts = np.random.default_rng(6).normal(size=(4, 2))
        want = odd(pts)
        log.clear()
        with evaluation_scope():
            hand_over(odd, pts, want)
            got = odd(pts)
            assert got.tobytes() == want.tobytes()
            assert not got.flags.writeable and want.flags.writeable
            # the leaf itself was not handed a value
            leaf(pts)
        assert len(log) == 1
        hand_over(odd, pts, want)  # outside a scope: a no-op
        odd(pts)
        assert len(log) == 3

    def test_parts_apply_and_limit_read_each_leaf_once(self):
        log = []
        leaf = MapHandle(counted(lambda p: 3.0 * p + 1e-3 * np.sin(p), log),
                         2, 2)
        grid = make_grid(2, 16, 4.0, seed=3)
        res = iterate(0.5, leaf, grid, tol=1e-5)
        n = res.n_steps
        assert n >= 2

        maps = [even_part(leaf), odd_part(leaf), reference_apply(0.5, leaf),
                reference_apply(0.5, even_part(leaf)), res.limit, res.limit]

        def measure():
            return ([m(grid.points) for m in maps]
                    + [sup_distance(leaf, res.limit, grid)])

        want = measure()
        log.clear()
        with evaluation_scope():
            got = measure()
        # x, -x, 2x, -(2x) and 2^n x: one evaluation each
        seen = [np.array(p) for p in log]
        pts = grid.points
        assert len(seen) == 5
        for c in (1.0, -1.0, 2.0, -2.0, 2.0 ** n):
            assert sum(np.array_equal(p, c * pts) for p in seen) == 1
        assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestAlgebra:
    def test_sum_evaluates_left_to_right(self):
        a = linear(2.0 * np.eye(2))
        b = linear(3.0 * np.eye(2))
        s = map_sum(a, b)
        pts = np.array([[1.0, -1.0]])
        assert np.array_equal(s(pts), a(pts) + b(pts))

    def test_sum_flattens_and_drops_zero(self):
        a = linear(np.eye(2))
        b = linear(np.eye(2))
        inner = map_sum(a, b)
        outer = map_sum(inner, zero_map(2, 2), a)
        assert outer.terms == (a, b, a)

    def test_sum_collapse_preserves_identity(self):
        a = linear(np.eye(2))
        assert map_sum(a, zero_map(2, 2)) is a
        z = map_sum(zero_map(2, 2), zero_map(2, 2))
        assert z.is_zero_map

    def test_sum_parity_combination(self):
        a = linear(np.eye(2), parity="odd")
        b = linear(np.eye(2), parity="odd")
        c = linear(np.eye(2), parity="even")
        assert map_sum(a, b).parity == "odd"
        assert map_sum(a, c).parity is None

    def test_scale(self):
        a = linear(np.eye(2))
        assert map_scale(0.0, a).is_zero_map
        assert map_scale(1.0, a) is a
        pts = np.array([[2.0, 3.0]])
        assert np.array_equal(map_scale(-2.0, a)(pts), -2.0 * a(pts))

    def test_scale_distributes(self):
        a = linear(np.eye(2), parity="odd")
        b = linear(2 * np.eye(2), parity="odd")
        s = map_scale(3.0, map_sum(a, b))
        assert s.terms is not None and len(s.terms) == 2
        assert s.parity == "odd"

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            map_sum(linear(np.eye(2)), linear(np.eye(3)))


class TestParity:
    def test_structural_shortcuts(self):
        ev = linear(np.eye(2), parity="even")
        od = linear(np.eye(2), parity="odd")
        assert even_part(ev) is ev
        assert odd_part(od) is od
        assert even_part(od).is_zero_map
        assert odd_part(ev).is_zero_map

    def test_terms_distribute(self):
        ev = linear(np.eye(2), parity="even")
        od = linear(2 * np.eye(2), parity="odd")
        s = map_sum(ev, od)
        assert even_part(s) is ev
        assert odd_part(s) is od

    def test_pointwise_formula(self):
        f = MapHandle(lambda p: (p + 1.0) ** 3, 2, 2)
        pts = np.random.default_rng(0).normal(size=(9, 2))
        fe, fo = even_part(f), odd_part(f)
        assert np.allclose(fe(pts), 0.5 * (f(pts) + f(-pts)))
        assert np.allclose(fo(pts), 0.5 * (f(pts) - f(-pts)))
        assert fe.parity == "even" and fo.parity == "odd"

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10 ** 6))
    def test_projections_recompose(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(2, 3))

        f = MapHandle(lambda p: np.tanh(p @ m.T) + (p @ m.T) ** 2, 3, 2)
        pts = rng.normal(size=(6, 3)) * 2.0
        total = even_part(f)(pts) + odd_part(f)(pts)
        assert np.allclose(total, f(pts), atol=1e-12)

    def test_zero_both_parities(self):
        z = zero_map(3, 2)
        assert even_part(z) is z
        assert odd_part(z) is z


class TestShift:
    def test_already_anchored_is_identity(self):
        f = linear(np.eye(2))
        assert shift_to_zero(f) is f

    def test_shift_removes_offset(self):
        f = MapHandle(lambda p: p.sum(-1, keepdims=True) + 5.0, 2, 1)
        g = shift_to_zero(f)
        assert np.all(g.value_at_zero == 0.0)
        pts = np.array([[1.0, 2.0]])
        assert np.allclose(g(pts), f(pts) - 5.0)

    def test_shift_keeps_odd_structure(self):
        od = linear(np.eye(2), parity="odd")
        const = MapHandle(
            lambda p: np.broadcast_to(np.array([1.0, 0.0]),
                                      p.shape[:-1] + (2,)).copy(),
            2, 2, parity="even")
        f = map_sum(od, const)
        g = shift_to_zero(f)
        # the odd projection of the shifted map resolves structurally
        assert odd_part(g) is od


class TestGrid:
    def test_make_grid(self):
        grid = make_grid(3, 16, 8.0, seed=0)
        assert grid.dim == 3
        assert len(grid) == 17
        assert np.all(grid.points[0] == 0.0)
        assert np.max(np.linalg.norm(grid.points, axis=1)) <= 8.0 + 1e-12

    def test_determinism(self):
        a = make_grid(3, 16, 8.0, seed=5)
        b = make_grid(3, 16, 8.0, seed=5)
        assert np.array_equal(a.points, b.points)

    def test_origin_required(self):
        with pytest.raises(ValueError):
            SampleGrid(np.ones((3, 2)))

    def test_points_are_a_read_only_copy(self):
        raw = np.zeros((3, 2))
        raw[1:] = 1.0
        grid = SampleGrid(raw)
        with pytest.raises(ValueError):
            grid.points[1, 0] = 5.0
        # the caller's own array stays writeable and apart
        assert raw.flags.writeable
        raw[1, 0] = 5.0
        assert grid.points[1, 0] == 1.0
        with pytest.raises(ValueError):
            make_grid(2, 4, seed=0).points[1] *= 2.0


class TestSupDistance:
    def test_identical_objects_exact_zero(self):
        f = MapHandle(lambda p: np.sin(p), 2, 2)
        grid = make_grid(2, 8, 4.0, seed=0)
        assert sup_distance(f, f, grid) == 0.0

    def test_value(self):
        f = linear(np.eye(2))
        g = zero_map(2, 2)
        grid = make_grid(2, 32, 4.0, seed=0)
        want = float(np.max(np.linalg.norm(grid.points, axis=1)))
        assert sup_distance(f, g, grid) == pytest.approx(want, rel=1e-15)
        assert sup_norm(f, grid) == pytest.approx(want, rel=1e-15)

    def test_cap(self):
        # past DEFAULT_CAP (1e12) a supremum is infinite; the grid
        # reaches radius 8, so the scales give 8e12 and 8e11
        grid = make_grid(2, 8, 8.0, seed=0)
        big = map_scale(1e12, linear(np.eye(2)))
        assert sup_distance(big, zero_map(2, 2), grid) == INFINITE
        assert math.isinf(sup_norm(big, grid))
        small = map_scale(1e11, linear(np.eye(2)))
        assert 1e11 < sup_norm(small, grid) < DEFAULT_CAP

    def test_non_finite_raises(self):
        f = MapHandle(lambda p: p / np.sum(p, axis=-1, keepdims=True), 2, 2)
        grid = make_grid(2, 8, 4.0, seed=1)  # row 0 divides by zero
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(EvaluationError):
                sup_distance(f, zero_map(2, 2), grid)

    def test_raw_points_accepted(self):
        f = linear(np.eye(2))
        pts = np.array([[3.0, 4.0]])
        assert sup_distance(f, zero_map(2, 2), pts) == 5.0
