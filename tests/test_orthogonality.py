"""Relation-layer tests: norms, margins, predicates, solvers, samplers.

Margin values are checked against an independent dense-grid oracle so
the closed-form margins are never trusted to certify themselves.
"""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orthostab import cli
from orthostab.orthogonality import (DEFAULT_TOL, DimensionMismatchError,
                                     OrthoRelation, PairGenerationError,
                                     ThalesianNotFoundError, _bj_margins,
                                     birkhoff_james_relation, bj_margin,
                                     check_axioms,
                                     inner_product_relation, is_orthogonal,
                                     norm_eval, relation_descriptor,
                                     sample_orthogonal_pairs,
                                     symmetrize_relation, thalesian_solve,
                                     trivial_relation, unit_perp)


def margin_oracle(norm, x, y, n=20001, rounds=4):
    """Dense-scan minimum of ||x + t*y|| - ||x||, no golden section.

    Independent of the production search: pure grid refinement.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    nx = norm_eval(norm, x)
    ny = norm_eval(norm, y)
    if nx == 0.0 or ny == 0.0:
        return 0.0
    lo, hi = -2.0 * nx / ny, 2.0 * nx / ny
    best_t = 0.0
    for _ in range(rounds):
        ts = np.linspace(lo, hi, n)
        vals = norm_eval(norm, x[None, :] + ts[:, None] * y[None, :])
        i = int(np.argmin(vals))
        best_t = ts[i]
        span = (hi - lo) / (n - 1)
        lo, hi = best_t - 2 * span, best_t + 2 * span
    val = norm_eval(norm, x + best_t * y)
    return min(val - nx, 0.0)


# coordinates with exact zeros and repeated magnitudes (l1 kinks, linf
# ties) next to generic values
_coord = st.one_of(st.integers(-3, 3).map(float), st.floats(0.001, 4.0),
                   st.floats(-4.0, -0.001))
_vec_pair = st.integers(2, 5).flatmap(
    lambda d: st.tuples(st.lists(_coord, min_size=d, max_size=d),
                        st.lists(_coord, min_size=d, max_size=d)))
_norms = st.sampled_from(["euclidean", "l1", "linf"])


class TestNorms:
    def test_frozen_values(self):
        assert norm_eval("euclidean", [3.0, 4.0]) == 5.0
        assert norm_eval("linf", [1.0, -2.0]) == 2.0
        assert norm_eval("l1", [1.0, 2.0]) == 3.0

    def test_batch_shape(self):
        out = norm_eval("l1", np.ones((5, 4, 3)))
        assert out.shape == (5, 4)
        assert np.all(out == 3.0)

    def test_invalid(self):
        x, y = [1.0, 2.0], [2.0, -1.0]
        for name in ("l3", "weighted"):
            for build in (lambda: norm_eval(name, x),
                          lambda: bj_margin(name, x, y),
                          lambda: OrthoRelation("birkhoff_james", name),
                          lambda: birkhoff_james_relation(name)):
                with pytest.raises(ValueError):
                    build()


class TestMargin:
    def test_frozen_values(self):
        assert bj_margin("euclidean", [1.0, 0.0], [0.0, 1.0]) == 0.0
        assert abs(bj_margin("l1", [1.0, 2.0], [1.0, 0.0]) + 1.0) < 1e-9
        assert abs(bj_margin("euclidean", [1.0, 0.0], [1.0, 0.0])
                   + 1.0) < 1e-9

    def test_zero_conventions(self):
        assert bj_margin("euclidean", [0.0, 0.0], [1.0, 2.0]) == 0.0
        assert bj_margin("euclidean", [1.0, 2.0], [0.0, 0.0]) == 0.0

    def test_never_positive(self):
        rng = np.random.default_rng(5)
        for norm in ("euclidean", "l1", "linf"):
            for _ in range(20):
                x, y = rng.normal(size=(2, 3)) * 4.0
                assert bj_margin(norm, x, y) <= 0.0

    @pytest.mark.parametrize("norm", ["euclidean", "l1", "linf"])
    def test_against_dense_oracle(self, norm):
        rng = np.random.default_rng(17)
        for _ in range(12):
            x = rng.normal(size=3) * rng.uniform(0.3, 6.0)
            y = rng.normal(size=3) * rng.uniform(0.3, 6.0)
            got = bj_margin(norm, x, y)
            want = margin_oracle(norm, x, y)
            assert got == pytest.approx(want, abs=1e-7)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           beta=st.floats(0.05, 20.0, allow_nan=False))
    def test_scale_invariance_in_y(self, seed, beta):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(2, 3)) * 3.0
        if np.linalg.norm(y) < 1e-6 or np.linalg.norm(x) < 1e-6:
            return
        assert bj_margin("l1", x, beta * y) == pytest.approx(
            bj_margin("l1", x, y), abs=1e-8 * (1 + np.linalg.norm(x)))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10 ** 6),
           alpha=st.floats(0.1, 5.0, allow_nan=False))
    def test_homogeneous_in_x(self, seed, alpha):
        rng = np.random.default_rng(seed)
        x, y = rng.normal(size=(2, 3)) * 3.0
        if np.linalg.norm(y) < 1e-6 or np.linalg.norm(x) < 1e-6:
            return
        assert bj_margin("linf", alpha * x, y) == pytest.approx(
            alpha * bj_margin("linf", x, y),
            abs=1e-8 * (1 + alpha * np.linalg.norm(x)))

    @settings(max_examples=150, deadline=None)
    @given(norm=_norms, xy=_vec_pair,
           exponent=st.sampled_from([-100, 0, 100]))
    def test_exact_margin_below_dense_oracle(self, norm, xy, exponent):
        x, y = (np.array(v) * 10.0 ** exponent for v in xy)
        got = bj_margin(norm, x, y)
        assert got <= 0.0
        assert got <= margin_oracle(norm, x, y) + 1e-12 * norm_eval(norm, x)

    @settings(max_examples=60, deadline=None)
    @given(norm=_norms, xy=_vec_pair, ex=st.sampled_from([-100, 0, 100]),
           ey=st.sampled_from([-100, 0, 100]))
    def test_margin_scales_with_x_only(self, norm, xy, ex, ey):
        x, y = (np.array(v) for v in xy)
        want = 10.0 ** ex * bj_margin(norm, x, y)
        got = bj_margin(norm, 10.0 ** ex * x, 10.0 ** ey * y)
        assert got == pytest.approx(
            want, rel=1e-12, abs=1e-12 * 10.0 ** ex * norm_eval(norm, x))

    @settings(max_examples=60, deadline=None)
    @given(norm=_norms, xy=_vec_pair, c=st.floats(-50.0, 50.0),
           exponent=st.sampled_from([-100, 0, 100]))
    def test_parallel_y_collapses_x(self, norm, xy, c, exponent):
        x = np.array(xy[0]) * 10.0 ** exponent
        if not x.any() or abs(c) < 1e-3:
            return
        assert bj_margin(norm, x, c * x) == pytest.approx(
            -norm_eval(norm, x), rel=1e-12)

    @pytest.mark.parametrize("norm", ["euclidean", "l1", "linf"])
    def test_batch_matches_rows(self, norm):
        rng = np.random.default_rng(23)
        xs = rng.normal(size=(64, 4)) * rng.uniform(0.1, 9.0, size=(64, 1))
        ys = rng.normal(size=(64, 4))
        xs[::5, 1] = 0.0
        ys[::3, 2] = 0.0
        xs[::7, 0] = xs[::7, 3]
        ys[::11] = 2.0 * xs[::11]
        ys[::13] = 0.0
        batch = _bj_margins(norm, xs, ys)
        assert batch.shape == (64,)
        assert batch.tolist() == [bj_margin(norm, x, y)
                                  for x, y in zip(xs, ys)]


class TestPredicates:
    def test_trivial(self):
        rel = trivial_relation()
        assert is_orthogonal(rel, [0.0, 0.0], [3.0, 4.0])
        assert is_orthogonal(rel, [1.0, 2.0], [2.0, 1.0])
        assert not is_orthogonal(rel, [1.0, 2.0], [2.0, 4.0])

    def test_inner(self):
        rel = inner_product_relation()
        assert is_orthogonal(rel, [1.0, 0.0], [0.0, 5.0])
        assert not is_orthogonal(rel, [1.0, 0.0], [1.0, 5.0])

    def test_bj_l1_asymmetry(self):
        """The frozen counterexample: order matters away from l2."""
        rel = birkhoff_james_relation("l1")
        assert is_orthogonal(rel, [1.0, 0.0], [1.0, 2.0])
        assert not is_orthogonal(rel, [1.0, 2.0], [1.0, 0.0])

    def test_symmetrized_closure(self):
        rel = symmetrize_relation(birkhoff_james_relation("l1"))
        assert rel.symmetrized and rel.is_symmetric
        assert is_orthogonal(rel, [1.0, 2.0], [1.0, 0.0])
        assert is_orthogonal(rel, [1.0, 0.0], [1.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            is_orthogonal(trivial_relation(), [1.0, 0.0], [1.0, 0.0, 0.0])

    @pytest.mark.parametrize("rel, polyhedral", [
        (trivial_relation(), False),
        (inner_product_relation(), False),
        (birkhoff_james_relation("l2"), False),
        (birkhoff_james_relation("l1"), True),
        (birkhoff_james_relation("linf"), True),
    ], ids=["trivial", "inner", "bj:l2", "bj:l1", "bj:linf"])
    def test_polyhedral_decides_symmetry(self, rel, polyhedral):
        assert rel.polyhedral is polyhedral
        assert rel.is_symmetric is not polyhedral
        sym = symmetrize_relation(rel)
        assert sym.polyhedral is polyhedral and sym.is_symmetric

    def test_bj_euclidean_matches_inner(self):
        rel_bj = birkhoff_james_relation("euclidean", tol=1e-9)
        rel_ip = inner_product_relation(tol=1e-9)
        rng = np.random.default_rng(123)
        for _ in range(200):
            x = rng.normal(size=3) * rng.uniform(0.2, 8.0)
            y = rng.normal(size=3) * rng.uniform(0.2, 8.0)
            assert (is_orthogonal(rel_bj, x, y)
                    == is_orthogonal(rel_ip, x, y))


class TestUnitPerp:
    def test_perpendicular_and_unit(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            x = rng.normal(size=4) * rng.uniform(0.1, 9.0)
            v = unit_perp(x)
            assert abs(float(v @ x)) < 1e-10 * (1 + np.linalg.norm(x))
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12

    def test_dim_one_rejected(self):
        with pytest.raises(DimensionMismatchError):
            unit_perp([2.0])


SPLIT_RELATIONS = {
    "trivial": trivial_relation(),
    "inner": inner_product_relation(),
    "bj:l2": birkhoff_james_relation(),
    "bj:l1": symmetrize_relation(birkhoff_james_relation("l1")),
    "bj:linf": symmetrize_relation(birkhoff_james_relation("linf")),
}


def one_point_closed_form_split(rel, x, lam):
    """The closed-form split as computed one point at a time before the
    solver took batches; its rounding is what the pinned reports hold."""
    j = int(np.argmin(np.abs(x)))
    e = np.zeros_like(x)
    e[j] = 1.0
    v = e - (x[j] / float(x @ x)) * x
    u = v / math.sqrt(float(v @ v))
    return math.sqrt(lam) * math.sqrt(float(x @ x)) * u


def split_points(dim, seed, count=24):
    """Random points over three scales, plus lattice points with zero
    coordinates and ties in |x|."""
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(count, dim))
    pts *= 10.0 ** rng.integers(-3, 4, size=(count, 1))
    lattice = rng.integers(-2, 3, size=(8, dim)).astype(float)
    lattice[:, 0] = np.where(lattice[:, 0] == 0.0, 1.0, lattice[:, 0])
    return np.vstack([pts, lattice])


class TestThalesian:
    def test_frozen_inner_example(self):
        rel = inner_product_relation()
        y0 = thalesian_solve(rel, [1.0, 0.0], 4.0)
        assert np.allclose(y0, [0.0, 2.0])
        x = np.array([1.0, 0.0])
        assert float((x + y0) @ (4.0 * x - y0)) == pytest.approx(0.0,
                                                                 abs=1e-12)

    def test_lam_zero(self):
        y0 = thalesian_solve(inner_product_relation(), [1.0, 0.0], 0.0)
        assert np.all(y0 == 0.0)

    def test_lam_one_norm(self):
        y0 = thalesian_solve(inner_product_relation(), [1.0, 0.0], 1.0)
        assert np.linalg.norm(y0) == pytest.approx(1.0, abs=1e-12)

    def test_zero_x_rejected(self):
        with pytest.raises(ValueError):
            thalesian_solve(inner_product_relation(), [0.0, 0.0], 1.0)

    def test_negative_lam_rejected(self):
        with pytest.raises(ValueError):
            thalesian_solve(inner_product_relation(), [1.0, 0.0], -1.0)

    @pytest.mark.parametrize("rel", [inner_product_relation(),
                                     trivial_relation(),
                                     birkhoff_james_relation()])
    def test_closed_form_residuals(self, rel):
        rng = np.random.default_rng(11)
        for _ in range(40):
            x = rng.normal(size=3)
            x *= rng.uniform(0.5, 8.0) / np.linalg.norm(x)
            lam = rng.uniform(0.0, 10.0)
            y0 = thalesian_solve(rel, x, lam)
            scale = 1.0 + np.linalg.norm(x) * max(np.linalg.norm(y0), 1.0)
            assert abs(float(x @ y0)) <= 1e-9 * scale
            assert abs(float((x + y0) @ (lam * x - y0))) <= 1e-9 * (
                1.0 + np.linalg.norm(x + y0) * max(
                    np.linalg.norm(lam * x - y0), 1.0))

    def test_l1_search(self):
        rel = birkhoff_james_relation("l1")
        rng = np.random.default_rng(17)
        for _ in range(6):
            x = rng.normal(size=3)
            x *= rng.uniform(0.5, 6.0) / np.linalg.norm(x)
            lam = rng.uniform(0.0, 6.0)
            y0 = thalesian_solve(rel, x, lam)
            assert is_orthogonal(rel, x, y0)
            assert is_orthogonal(rel, x + y0, lam * x - y0)

    @pytest.mark.parametrize("name", SPLIT_RELATIONS)
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    @pytest.mark.parametrize("lam", [0.0, 1.0, 2.7])
    def test_batch_equals_rows_bit_for_bit(self, name, dim, lam):
        rel = SPLIT_RELATIONS[name]
        xs = split_points(dim, seed=dim)
        batch = thalesian_solve(rel, xs, lam)
        rows = np.array([thalesian_solve(rel, x, lam) for x in xs])
        assert batch.shape == xs.shape
        assert batch.tobytes() == rows.tobytes()
        if lam > 0.0 and name not in ("bj:l1", "bj:linf"):
            want = np.array([one_point_closed_form_split(rel, x, lam)
                             for x in xs])
            assert batch.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name", SPLIT_RELATIONS)
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    def test_per_row_lam_equals_scalar_calls(self, name, dim):
        rel = SPLIT_RELATIONS[name]
        xs = split_points(dim, seed=dim + 1)
        lams = np.random.default_rng(dim).uniform(0.0, 10.0, size=len(xs))
        lams[::4] = 0.0
        lams[1::4] = 1.0
        batch = thalesian_solve(rel, xs, lams)
        rows = np.array([thalesian_solve(rel, x, float(lam))
                         for x, lam in zip(xs, lams)])
        assert batch.tobytes() == rows.tobytes()
        # lam = 0 gives +0, never -0, whatever the perpendicular's signs
        assert not np.signbit(batch[lams == 0.0]).any()
        if name not in ("bj:l1", "bj:linf"):
            want = np.array([one_point_closed_form_split(rel, x, lam)
                             if lam > 0.0 else np.zeros(dim)
                             for x, lam in zip(xs, lams)])
            assert batch.tobytes() == want.tobytes()

    def test_lam_per_row_shape_checked(self):
        xs = np.array([[1.0, 2.0], [3.0, -1.0]])
        with pytest.raises(DimensionMismatchError):
            thalesian_solve(inner_product_relation(), xs, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            thalesian_solve(inner_product_relation(), xs, [1.0, math.nan])

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_batch_marks_rows_without_split_as_nan(self, norm,
                                                   monkeypatch):
        import orthostab.orthogonality as orth

        solve = orth._bj_splits

        def fails_on_negative_lead(rel, xs, lams):
            y0, first, second = solve(rel, xs, lams)
            y0[xs[:, 0] < 0.0] = np.nan
            return y0, first, second

        monkeypatch.setattr(orth, "_bj_splits", fails_on_negative_lead)
        rel = symmetrize_relation(birkhoff_james_relation(norm))
        xs = split_points(3, seed=5)
        batch = thalesian_solve(rel, xs, 1.0)
        for x, y0 in zip(xs, batch):
            try:
                want = thalesian_solve(rel, x, 1.0)
            except ThalesianNotFoundError:
                assert np.isnan(y0).all()
            else:
                assert y0.tobytes() == want.tobytes()
        assert np.isnan(batch[:, 0]).sum() == (xs[:, 0] < 0.0).sum() > 0

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    @pytest.mark.parametrize("symmetrized", [False, True])
    @pytest.mark.parametrize("dim", [2, 3, 5, 8])
    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    # no candidate scale may overflow or divide by zero out loud
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_polyhedral_row_splits(self, norm, symmetrized, dim,
                                         scale):
        rel = birkhoff_james_relation(norm)
        if symmetrized:
            rel = symmetrize_relation(rel)
        pts = split_points(dim, seed=3 * dim) * scale
        lams = np.random.default_rng(dim).uniform(0.0, 10.0, size=len(pts))
        lams[::5] = 1.0
        y0 = thalesian_solve(rel, pts, lams)
        assert not np.isnan(y0).any()
        # judged at unit scale, where the predicate's tolerance is relative
        for x, y, lam in zip(pts / scale, y0 / scale, lams):
            assert is_orthogonal(rel, x, y)
            assert is_orthogonal(rel, x + y, lam * x - y)

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_slope_blocks_leave_the_split_unchanged(self, norm, monkeypatch):
        import orthostab.orthogonality as orth

        rel = birkhoff_james_relation(norm)
        pts = split_points(12, seed=4)
        whole = thalesian_solve(rel, pts, 1.5)
        # one row per block
        monkeypatch.setattr(orth, "_BLOCK", 1)
        assert thalesian_solve(rel, pts, 1.5).tobytes() == whole.tobytes()

    def test_linf_split_memory_stays_flat_in_dim(self):
        import tracemalloc

        # 64 rows at dim 32 have 65536 candidate scales; exact margins on
        # all of them would build (131072, 32, 32) arrays of 1 GB each
        rel = birkhoff_james_relation("linf")
        pts = np.random.default_rng(8).normal(size=(64, 32))
        tracemalloc.start()
        try:
            y0 = thalesian_solve(rel, pts, 1.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
        assert not np.isnan(y0).any()
        for x, y in zip(pts, y0):
            assert is_orthogonal(rel, x + y, 1.5 * x - y)

    @pytest.mark.parametrize("norm", ["l1", "linf"])
    def test_no_passing_candidate_raises_with_residuals(self, norm,
                                                        monkeypatch):
        import orthostab.orthogonality as orth

        # s = 0 leaves x + y0 = x, which x's own multiples shorten
        monkeypatch.setattr(orth, "_split_scales",
                            lambda spec, x, y, lam: np.zeros((len(x), 3)))
        with pytest.raises(ThalesianNotFoundError) as err:
            thalesian_solve(birkhoff_james_relation(norm), [1.0, -2.0, 0.5],
                            2.0)
        assert set(err.value.residuals) == {"first_margin", "second_margin",
                                            "lam"}
        assert err.value.residuals["lam"] == 2.0

    def test_batch_rejects_a_zero_row(self):
        xs = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(ValueError):
            thalesian_solve(inner_product_relation(), xs, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(norm=st.sampled_from(["l1", "linf"]), dim=st.integers(2, 6),
           seed=st.integers(0, 2 ** 32 - 1), lam=st.floats(0.0, 10.0),
           scale=st.sampled_from([1e-100, 1.0, 1e100]))
    # lam*||x|| lies below the smallest subnormal, so y0 rounds to 0
    @example(norm="l1", dim=2, seed=1, lam=2.225073858507e-311,
             scale=1e-100)
    # at unit scale too: a sampled x whose every candidate missed the
    # second condition by 5e-16 once raised ThalesianNotFoundError
    @example(norm="l1", dim=6, seed=1453015, lam=5e-324, scale=1.0)
    def test_polyhedral_sampler_and_split_never_fail(self, norm, dim, seed,
                                                     lam, scale):
        rel = birkhoff_james_relation(norm)
        pairs = sample_orthogonal_pairs(rel, dim, 6, radius=8.0 * scale,
                                        seed=seed)
        # lattice points add zero coordinates and ties in |x|
        lattice = np.random.default_rng(seed).integers(-2, 3, size=(3, dim))
        lattice[:, 0] = 1
        # judged at unit scale, where the predicate's tolerance is relative
        for x in [p[0] for p in pairs if p[0].any()] + list(lattice * scale):
            y0 = thalesian_solve(rel, x, lam)
            # the split vector has length about lam*||x||; below the
            # normal range no float carries it to the precision the
            # second condition is judged at, but x _|_ y0 holds by the
            # kernel construction whatever y0 rounds to
            representable = (lam == 0.0 or lam * norm_eval(rel.norm, x)
                             >= sys.float_info.min)
            y0 = y0 / scale
            x = x / scale
            assert is_orthogonal(rel, x, y0)
            if representable:
                assert is_orthogonal(rel, x + y0, lam * x - y0)
        for x, y in pairs / scale:
            assert is_orthogonal(rel, x, y)


class TestAxioms:
    @pytest.mark.parametrize("rel", [trivial_relation(),
                                     inner_product_relation(),
                                     birkhoff_james_relation()])
    def test_closed_form_relations_pass(self, rel):
        report = check_axioms(rel, 3, n_samples=48, seed=0)
        assert report.passed
        assert report.symmetric

    def test_l1_passes_but_asymmetric(self):
        rel = birkhoff_james_relation("l1")
        report = check_axioms(rel, 3, n_samples=16, seed=0)
        assert report.passed
        assert not report.symmetric
        assert report.checks["symmetry"].failures > 0
        assert len(report.checks["symmetry"].witnesses) <= 3

    def test_report_shape(self):
        report = check_axioms(inner_product_relation(), 2, n_samples=8,
                              seed=1)
        d = report.to_dict()
        assert set(d["checks"]) == {"zero_orthogonal", "independence",
                                    "homogeneity", "split_existence",
                                    "symmetry"}
        assert d["passed"] is True

    def test_dim_one_rejected(self):
        with pytest.raises(DimensionMismatchError):
            check_axioms(inner_product_relation(), 1)


class TestPairSampling:
    @pytest.mark.parametrize("rel", [trivial_relation(),
                                     inner_product_relation(),
                                     birkhoff_james_relation(),
                                     symmetrize_relation(
                                         birkhoff_james_relation("linf"))])
    def test_pairs_are_orthogonal(self, rel):
        pairs = sample_orthogonal_pairs(rel, 3, 40, seed=2)
        assert pairs.shape == (40, 2, 3)
        assert np.all(pairs[0, 1] == 0.0) and pairs[0, 0].any()
        assert np.all(pairs[1, 0] == 0.0) and pairs[1, 1].any()
        for x, y in pairs:
            assert is_orthogonal(rel, x, y)

    def test_l1_pairs(self):
        rel = birkhoff_james_relation("l1")
        pairs = sample_orthogonal_pairs(rel, 3, 12, seed=4)
        for x, y in pairs:
            assert is_orthogonal(rel, x, y)

    def test_determinism(self):
        rel = inner_product_relation()
        a = sample_orthogonal_pairs(rel, 3, 16, seed=9)
        b = sample_orthogonal_pairs(rel, 3, 16, seed=9)
        assert np.array_equal(a, b)

    def test_radius_respected(self):
        pairs = sample_orthogonal_pairs(inner_product_relation(), 3, 64,
                                        radius=2.0, seed=0)
        norms = np.linalg.norm(pairs.reshape(-1, 3), axis=1)
        assert np.max(norms) <= 2.0 + 1e-9


class TestDescriptor:
    # the five relations a command builds, and the symmetric closures
    # that report runs on the polyhedral ones
    @pytest.mark.parametrize("name, closed", [
        *((name, False) for name in cli._RELATIONS),
        ("bj:l1", True), ("bj:linf", True)])
    def test_rebuilds_the_relation(self, name, closed):
        rel = cli._build_relation(name)
        if closed:
            rel = symmetrize_relation(rel)
        d = json.loads(json.dumps(relation_descriptor(rel)))
        assert OrthoRelation(d["kind"], d.get("norm", "euclidean"), d["tol"],
                             d["symmetrized"]) == rel
