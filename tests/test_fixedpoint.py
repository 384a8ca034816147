"""Rescaling-operator tests: exact fixed points, contraction, divergence."""

import collections
import math

import numpy as np
import pytest

from orthostab.fixedpoint import (IterationResult, apriori_bound, iterate,
                                  iterate_lockstep)
from orthostab import funcspace
from orthostab.funcspace import (INFINITE, EvaluationError, MapHandle,
                                 evaluation_scope, even_part, make_grid,
                                 map_scale, map_sum, odd_part,
                                 scaled_points, sup_distance, zero_map)
from orthostab.perturb import (compose_cauchy_instance,
                               compose_pexider_instance,
                               compose_quadratic_instance, make_additive,
                               make_bounded_noise, make_cubic_growth,
                               make_quadratic, random_ground_truth)
from orthostab.stability import derive_normalized_parts


@pytest.fixture
def grid():
    return make_grid(3, 48, 8.0, seed=0)


def noisy_odd(delta=1e-2, seed=3):
    a = make_additive(np.array([[0.3, -0.2, 0.1],
                                [0.0, 0.5, -0.4],
                                [0.2, 0.2, 0.2]]))
    n = make_bounded_noise(delta, seed, 3, 3, parity="odd")
    return map_sum(a, n)


def noisy_even(delta=1e-2, seed=3):
    p = make_quadratic(np.stack([0.4 * np.eye(3), np.diag([0.1, 0.3, 0.2]),
                                 0.25 * np.eye(3)]))
    n = make_bounded_noise(delta, seed, 3, 3, parity="even")
    return map_sum(p, n)


def reference_apply(lam, phi):
    """J phi = lam * phi(2x) as a map handle, distributed over phi's
    summands as the package's operator handle did before the a-priori
    bound was read off the ladder; for power-of-two lam it agrees
    bitwise with lam * phi(2x)."""
    if phi.is_zero_map:
        return phi
    if phi.terms is not None:
        return map_sum(*[reference_apply(lam, t) for t in phi.terms],
                       label=f"J[{phi.label}]")
    return MapHandle(lambda pts, _f=phi, _l=lam:
                     _l * _f(scaled_points(2.0, pts)),
                     phi.source_dim, phi.target_dim,
                     label=f"J[{phi.label}]", parity=phi.parity,
                     _derived=True)


class TestOperator:
    def test_lam_range(self, grid):
        # lam is checked before any phi0 is evaluated
        def never(p):
            raise AssertionError("phi0 was evaluated")

        phi0 = MapHandle(never, 3, 3)
        for lam in (0.0, 1.0, 1.5, -0.5, math.nan):
            with pytest.raises(ValueError, match=r"lam must lie in \(0, 1\)"):
                iterate(lam, phi0, grid)
            with pytest.raises(ValueError, match=r"lam must lie in \(0, 1\)"):
                iterate_lockstep([(0.5, phi0), (lam, phi0)], grid)


class TestExactFixedPoints:
    def test_additive_fixed_under_half(self, grid):
        a = make_additive(np.array([[1.0, 2.0, 0.0], [0.5, 0.0, 1.0],
                                    [0.0, 0.3, 0.7]]))
        res = iterate(0.5, a, grid)
        assert res.verdict == "converged"
        assert res.n_steps == 0
        assert res.limit is a
        assert res.raw_gaps == [0.0]

    def test_quadratic_fixed_under_quarter(self, grid):
        p = make_quadratic(np.stack([np.eye(3), 0.5 * np.eye(3)] + [
            np.diag([1.0, 2.0, 3.0])]))
        res = iterate(0.25, p, grid)
        assert res.verdict == "converged"
        assert res.n_steps == 0
        assert res.limit is p


class TestConvergence:
    def test_noisy_converges(self, grid):
        phi = noisy_odd()
        res = iterate(0.5, phi, grid)
        assert res.verdict == "converged"
        assert res.n_steps > 0
        assert res.limit.parity == "odd"
        # the limit is numerically a fixed point on the base grid
        j = reference_apply(0.5, res.limit)
        assert sup_distance(res.limit, j, grid) <= 4e-10

    @pytest.mark.parametrize("lam,phi_parity", [(0.5, "odd"),
                                                (0.25, "even")])
    def test_per_step_contraction(self, grid, lam, phi_parity):
        a = make_additive(0.4 * np.eye(3))
        n = make_bounded_noise(5e-3, 11, 3, 3, parity=phi_parity)
        phi = map_sum(a, n) if phi_parity == "odd" else map_sum(
            make_quadratic(np.stack([0.4 * np.eye(3)] * 3)), n)
        res = iterate(lam, phi, grid)
        assert res.verdict == "converged"
        d = res.per_step_distances
        for i in range(len(d)):
            assert d[i] <= lam ** i * d[0] + 1e-10
        # consecutive monotone decay as well
        for i in range(len(d) - 1):
            assert d[i + 1] <= lam * d[i] + 1e-16

    def test_gap_sequence_lengths(self, grid):
        phi = noisy_odd()
        res = iterate(0.5, phi, grid)
        assert len(res.per_step_distances) == len(res.raw_gaps)
        assert len(res.raw_gaps) == res.n_steps + 1


class TestDivergence:
    def test_cubic_diverges(self, grid):
        cub = make_cubic_growth(1.0, 3, 3)
        res = iterate(0.25, cub, grid)
        assert res.verdict == "diverged"
        assert res.limit is None
        # raw gaps double each level: 8x growth against a 1/4 contraction
        rg = res.raw_gaps
        assert len(rg) >= 4
        for i in range(1, len(rg)):
            assert rg[i] == pytest.approx(2.0 * rg[i - 1], rel=1e-12)

    def test_cubic_diverges_under_half_too(self, grid):
        cub = make_cubic_growth(1.0, 3, 3)
        res = iterate(0.5, cub, grid)
        assert res.verdict == "diverged"

    def test_budget_exhaustion(self, grid):
        phi = noisy_odd(delta=1e-2)
        res = iterate(0.5, phi, grid, tol=1e-30, n_max=5)
        assert res.verdict == "iteration-budget-exhausted"
        assert res.limit is not None  # best iterate so far is still usable


def instance_parts(kind, delta):
    """(name, lam, phi0) for R, R', S and S' of a main, Cauchy or
    quadratic instance, as the pipeline extracts them."""
    gt = random_ground_truth(3, delta=delta, seed=5)
    if kind == "main":
        quad = compose_pexider_instance(gt)
    elif kind == "cauchy":
        f, h, k = compose_cauchy_instance(gt)
        quad = f, zero_map(3, 3), h, k
    else:
        q = compose_quadratic_instance(gt)
        quad = q, q, map_scale(2.0, q), map_scale(2.0, q)
    parts = derive_normalized_parts(*quad)
    return [("R", 0.5, parts.Fo),
            ("R_prime", 0.5, parts.Go),
            ("S", 0.25, parts.Fe),
            ("S_prime", 0.25, parts.Ge)]


class TestAprioriBound:
    def test_literal_definition(self):
        # d(phi, J phi) / (1 - lam) with J phi evaluated on the grid,
        # bit for bit, on every extraction the pipeline runs
        for kind in ("main", "cauchy", "quadratic"):
            for delta in (0.0, 0.01):
                for radius in (8.0, 1.5e-153):
                    grid = make_grid(3, 32, radius, seed=1)
                    for name, lam, phi in instance_parts(kind, delta):
                        res = iterate(lam, phi, grid)
                        want = (sup_distance(phi, reference_apply(lam, phi),
                                             grid) / (1.0 - lam))
                        case = (kind, delta, radius, name)
                        assert res.verdict == "converged", case
                        assert apriori_bound(res) == want, case

    def test_diverged_at_level_zero(self, grid):
        # the first gap is already past the cap, so the bound is infinite
        cub = make_cubic_growth(1e12, 3, 3)
        res = iterate(0.25, cub, grid)
        assert res.verdict == "diverged" and res.n_steps == 0
        assert apriori_bound(res) == INFINITE
        assert sup_distance(cub, reference_apply(0.25, cub), grid) == INFINITE

    def test_bounds_distance_to_limit(self, grid):
        # the certificate applies to the matched parity class only:
        # odd data under the halving operator, even data under the
        # quartering one.  Mismatched combos have unbounded distance
        # to their limit and the grid bound says nothing about them.
        runs = [(0.5, noisy_odd(seed=0)), (0.5, noisy_odd(seed=5)),
                (0.25, noisy_even(seed=0)), (0.25, noisy_even(seed=5))]
        for lam, phi in runs:
            res = iterate(lam, phi, grid)
            assert res.verdict == "converged"
            d = sup_distance(phi, res.limit, grid)
            assert d <= apriori_bound(res) + 1e-10


def ref_iterate(lam, phi0, grid, tol=1e-10, n_max=40, cap=1e12):
    """The one-map Picard loop as it stood before the lockstep ladder."""
    if phi0.value_at_zero.any():
        raise ValueError(
            f"operator domain requires phi(0) = 0, got map {phi0.label!r} "
            "with a nonzero value at the origin")
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    pts = grid.points
    raw_c = []
    verdict = "iteration-budget-exhausted"
    n_stop = n_max
    lam_pow = 1.0
    cur = phi0(pts)
    if not np.all(np.isfinite(cur)):
        raise EvaluationError("phi0 is non-finite on the base grid")
    for n in range(n_max + 1):
        nxt = phi0((2.0 ** (n + 1)) * pts)
        if not np.all(np.isfinite(nxt)):
            raise EvaluationError(
                f"phi0 is non-finite on the level-{n + 1} grid")
        diff = cur - lam * nxt
        c_n = float(np.max(np.sqrt(np.sum(diff * diff, axis=-1))))
        raw_c.append(c_n)
        gap = lam_pow * c_n
        if gap <= tol:
            verdict = "converged"
            n_stop = n
            break
        if gap > cap:
            verdict = "diverged"
            n_stop = n
            break
        cur = nxt
        lam_pow = lam_pow * lam
    suffix = list(raw_c)
    for i in range(len(suffix) - 2, -1, -1):
        suffix[i] = max(suffix[i], suffix[i + 1])
    per_step, raw_gaps, pw = [], [], 1.0
    for m, c in zip(suffix, raw_c):
        per_step.append(pw * m)
        raw_gaps.append(pw * c)
        pw = pw * lam
    if verdict == "diverged":
        return IterationResult(verdict, n_stop, lam, None, per_step,
                               raw_gaps)
    if n_stop == 0 and verdict == "converged":
        limit = phi0
    else:
        n_lim = n_stop if verdict == "converged" else n_max
        factor, scale = lam ** n_lim, 2.0 ** n_lim
        limit = MapHandle(lambda p: factor * phi0(scale * p),
                          phi0.source_dim, phi0.target_dim)
    return IterationResult(verdict, n_stop, lam, limit, per_step,
                           raw_gaps)


def pexider_runs(cubic=None):
    """(lam, phi0) for R, R', S and S' of a noisy pexider instance, whose
    four phi0 share the leaves a, p and both parities of two noises."""
    f, g, h, k = compose_pexider_instance(
        random_ground_truth(3, delta=0.01, seed=5))
    if cubic is not None:
        f = map_sum(f, make_cubic_growth(cubic, 3, 3))
    parts = derive_normalized_parts(f, g, h, k)
    return [(0.5, parts.Fo), (0.5, parts.Go), (0.25, parts.Fe),
            (0.25, parts.Ge)]


def assert_same_result(got, want, grid):
    assert got.verdict == want.verdict
    assert got.n_steps == want.n_steps
    assert got.lam == want.lam
    assert got.raw_gaps == want.raw_gaps
    assert got.per_step_distances == want.per_step_distances
    if want.limit is None:
        assert got.limit is None
    else:
        assert np.array_equal(got.limit(grid.points),
                              want.limit(grid.points))


class TestLockstep:
    @pytest.mark.parametrize("runs, kwargs, verdicts", [
        (pexider_runs(), {}, ["converged"] * 4),
        # the cubic term is even: S diverges, the others converge
        (pexider_runs(cubic=1.0), {},
         ["converged", "converged", "diverged", "converged"]),
        (pexider_runs(), {"tol": 1e-30, "n_max": 5},
         ["iteration-budget-exhausted"] * 4),
        (pexider_runs(), {"n_max": 0}, ["iteration-budget-exhausted"] * 4),
        ([(0.5, noisy_odd()),
          (0.25, make_cubic_growth(1.0, 3, 3)),
          (0.25, noisy_even()),
          (0.5, make_additive(np.eye(3)))], {},
         ["converged", "diverged", "converged", "converged"]),
    ], ids=["converged", "diverged", "budget", "n_max-0", "mixed"])
    def test_equals_one_map_runs(self, grid, runs, kwargs, verdicts):
        together = iterate_lockstep(runs, grid, **kwargs)
        assert [res.verdict for res in together] == verdicts
        for (lam, phi0), res in zip(runs, together):
            assert_same_result(res, iterate(lam, phi0, grid, **kwargs), grid)
            assert_same_result(res, ref_iterate(lam, phi0, grid, **kwargs),
                               grid)

    def test_failed_run_leaves_the_others_alone(self, grid):
        # non-finite from the level-2 grid on (radius 8 * 4 > 20)
        blowup = MapHandle(
            lambda p: np.where(np.linalg.norm(p, axis=-1, keepdims=True)
                               > 20.0, np.nan, 0.0 * p), 3, 3, parity="odd")
        unanchored = MapHandle(lambda p: p + 1.0, 3, 3)
        runs = [(0.5, map_sum(noisy_odd(), blowup)),
                (0.5, noisy_odd(seed=4)),
                (0.5, unanchored)]
        out = iterate_lockstep(runs, grid)
        assert str(out[0]) == "phi0 is non-finite on the level-2 grid"
        assert_same_result(out[1], ref_iterate(*runs[1], grid), grid)
        for run, res in ((runs[0], out[0]), (runs[2], out[2])):
            with pytest.raises(type(res)) as want:
                ref_iterate(*run, grid)
            assert str(res) == str(want.value)
            with pytest.raises(type(res)) as single:
                iterate(*run, grid)
            assert str(single.value) == str(res)


class TestLadderInAScope:
    """Run in a caller's evaluation scope, the ladder keeps the grid and
    the doubled grid, drops every level it climbed past and hands over
    each converged run's values on its stop level and the one above."""

    def test_limits_read_no_leaf_after_the_ladder(self, grid, monkeypatch):
        runs = pexider_runs()
        pts = grid.points
        want = [iterate(lam, phi0, grid) for lam, phi0 in runs]
        want_vals = [(res.limit(pts).tobytes(),
                      res.limit(2.0 * pts).tobytes()) for res in want]
        calls = []
        evaluate = MapHandle._evaluate

        def recording(self, arr):
            if not self._derived:
                calls.append(arr.shape)
            return evaluate(self, arr)

        monkeypatch.setattr(MapHandle, "_evaluate", recording)
        with evaluation_scope():
            got = iterate_lockstep(runs, grid)
            scope = funcspace._SCOPE.get()
            factors = {v[0] for key, v in scope.items()
                       if isinstance(key, int)}
            climbed = len(calls)
            two = scaled_points(2.0, pts)
            vals = [(res.limit(pts).tobytes(), res.limit(two).tobytes())
                    for res in got]
            assert len(calls) == climbed
        assert vals == want_vals
        stops = {res.n_steps for res in got}
        assert [res.verdict for res in got] == ["converged"] * 4
        assert max(stops) >= 3
        assert factors == ({-1.0, 2.0, -2.0}
                           | {2.0 ** n for n in stops if n > 0}
                           | {2.0 ** (n + 1) for n in stops})

    def test_outside_a_scope_nothing_is_kept(self, grid):
        runs = pexider_runs()
        got = iterate_lockstep(runs, grid)
        assert funcspace._SCOPE.get() is None
        for (lam, phi0), res in zip(runs, got):
            assert_same_result(res, ref_iterate(lam, phi0, grid), grid)


def leaf_log(monkeypatch, rows=None):
    """The shapes of the leaf evaluations that follow; each (leaf, point
    row bytes) pair they evaluate is counted into the Counter ``rows``."""
    shapes = []
    evaluate = MapHandle._evaluate

    def recording(self, arr):
        if not self._derived:
            shapes.append(arr.shape)
            if rows is not None:
                rows.update((self, r.tobytes())
                            for r in arr.reshape(-1, arr.shape[-1]))
        return evaluate(self, arr)

    monkeypatch.setattr(MapHandle, "_evaluate", recording)
    return shapes


def ladder_runs(dim, seed, general):
    """An odd run under 1/2 and an even one under 1/4 that share one
    noise leaf, on diagonal forms; with ``general``, two more on a
    general form and one output column."""
    rng = np.random.default_rng(seed)
    forms = np.zeros((3, dim, dim))
    forms[:, range(dim), range(dim)] = rng.uniform(0.2, 0.8, (3, dim))
    noise = make_bounded_noise(0.01, seed, dim, 3)
    runs = [(0.5, map_sum(make_additive(rng.uniform(-0.6, 0.6, (3, dim))),
                          odd_part(noise))),
            (0.25, map_sum(make_quadratic(forms), even_part(noise)))]
    if general:
        b = rng.normal(size=(1, dim, dim))
        runs += [(0.25,
                  map_sum(make_quadratic(b + b.transpose(0, 2, 1)),
                          make_bounded_noise(0.01, seed, dim, 1, "even"))),
                 (0.5,
                  map_sum(make_additive(rng.normal(size=(1, dim))),
                          make_bounded_noise(0.01, seed, dim, 1, "odd")))]
    return runs


def assert_same_outcome(got, run, grid, **kwargs):
    # a result or an error, as the one-map loop gives it
    try:
        want = ref_iterate(*run, grid, **kwargs)
    except Exception as err:
        assert type(got) is type(err) and str(got) == str(err)
    else:
        assert_same_result(got, want, grid)


class TestBlockedLadder:
    """Blocks of levels give what climbing one level per step gives:
    verdicts, gaps, limits and errors, and the same leaf points."""

    @pytest.mark.parametrize("dim", [2, 3, 8, 16, 33, 64])
    @pytest.mark.parametrize("rows", [2, 3, 25, 257, 4097])
    def test_equals_the_one_map_loop(self, rows, dim, monkeypatch):
        grid = make_grid(dim, rows - 1, 8.0, seed=rows + dim)
        # general forms cost dim^2 per point and output column
        runs = ladder_runs(dim, rows * dim, rows * dim * dim <= 1 << 18)
        shapes = leaf_log(monkeypatch)
        with evaluation_scope():
            got = iterate_lockstep(runs, grid)
        monkeypatch.undo()
        for res, run in zip(got, runs):
            assert res.verdict == "converged"
            assert_same_outcome(res, run, grid)
        stacked = [s[0] * s[1] for s in shapes if len(s) == 3]
        # blocks stay within the row budget, and grids of at most two
        # rows or more than half of it climb one level per step
        assert all(n <= 4096 for n in stacked)
        assert bool(stacked) == (rows in (3, 25, 257))

    @pytest.mark.parametrize("rows", [3, 49, 257])
    @pytest.mark.parametrize("kwargs", [
        {"n_max": 0}, {"n_max": 1}, {"n_max": 5},
        {"n_max": 5, "tol": 1e-30}, {"n_max": 1200, "tol": 1e-300}])
    def test_budgets(self, rows, kwargs):
        grid = make_grid(3, rows - 1, 8.0, seed=rows)
        runs = pexider_runs() + pexider_runs(cubic=1.0)[2:3]
        # a block predicted from the others' gaps can take the cubic run
        # far past its divergence, where its values overflow
        with np.errstate(over="ignore"):
            got = iterate_lockstep(runs, grid, **kwargs)
            for res, run in zip(got, runs):
                assert_same_outcome(res, run, grid, **kwargs)

    def test_past_the_largest_power_of_two(self):
        # gaps 2^-n * |phi(2^n x) - phi(2^(n+1) x) / 2| stay above 5e-324
        # up to level 1074, so both maps climb to the level factor
        # 2.0 ** 1024, which overflows; x / (1 + |x|) is NaN first, on
        # the level whose points overflow
        grid = make_grid(3, 24, 8.0, seed=1)
        kwargs = {"tol": 5e-324, "n_max": 1200}
        run = (0.5, MapHandle(np.tanh, 3, 3, parity="odd"))
        for climb in (ref_iterate, iterate):
            with pytest.raises(OverflowError), np.errstate(over="ignore"):
                climb(*run, grid, **kwargs)
        run = (0.5, MapHandle(lambda p: p / (1.0 + np.abs(p)), 3, 3,
                              parity="odd"))
        with np.errstate(invalid="ignore", over="ignore"):
            (res,) = iterate_lockstep([run], grid, **kwargs)
            assert isinstance(res, EvaluationError)
            assert_same_outcome(res, run, grid, **kwargs)

    @pytest.mark.parametrize("rows", [3, 49, 257])
    def test_failing_maps_inside_a_block(self, rows, monkeypatch):
        def far_out(limit):
            def fn(p):
                if np.abs(p).max() > limit:
                    raise ValueError(f"evaluated past {limit:g}")
                return 0.0 * p
            return MapHandle(fn, 3, 3)

        def non_finite(limit):
            return MapHandle(lambda p: np.where(
                np.abs(p).max(axis=-1, keepdims=True) > limit, np.inf,
                0.0 * p), 3, 3)

        # the even runs converge at level 24 or 25, inside a block that
        # reaches past 2^31 (tol 1e-300 predicts some 500 levels)
        grid = make_grid(3, rows - 1, 8.0, seed=rows)
        kwargs = {"tol": 1e-300, "n_max": 100}
        runs = [(lam, map_sum(phi, bad))
                for lam, phi, limit in ((0.5, noisy_odd(), 2.0 ** 9),
                                        (0.25, noisy_even(), 2.0 ** 31))
                for bad in (far_out(limit), non_finite(limit))]
        runs += pexider_runs()
        shapes = leaf_log(monkeypatch)
        got = iterate_lockstep(runs, grid, **kwargs)
        monkeypatch.undo()
        assert str(got[0]) == "evaluated past 512"
        assert str(got[1]).startswith("phi0 is non-finite on the level-")
        assert [res.verdict for res in got[2:]] == ["converged"] * 6
        for res, run in zip(got, runs):
            assert_same_outcome(res, run, grid, **kwargs)
        # the maps that raise do so on a block first
        assert any(len(s) == 3 for s in shapes)

    @pytest.mark.parametrize("rows", [49, 257])
    @pytest.mark.parametrize("cubic", [None, 1.0])
    def test_same_leaf_points(self, rows, cubic, monkeypatch):
        grid = make_grid(3, rows - 1, 8.0, seed=rows)
        pts = grid.points
        runs = pexider_runs(cubic)
        stops = [ref_iterate(lam, phi0, grid).n_steps for lam, phi0 in runs]
        want, got = collections.Counter(), collections.Counter()
        leaf_log(monkeypatch, want)
        # one level per step, each in a scope of its own
        for n in range(-1, max(stops) + 1):
            level = pts if n < 0 else 2.0 ** (n + 1) * pts
            with evaluation_scope():
                for (_, phi0), stop in zip(runs, stops):
                    if n <= stop:
                        phi0(level)
        monkeypatch.undo()
        shapes = leaf_log(monkeypatch, got)
        with evaluation_scope():
            res = iterate_lockstep(runs, grid)
        assert [r.n_steps for r in res] == stops
        assert got == want
        assert any(len(s) == 3 for s in shapes)
