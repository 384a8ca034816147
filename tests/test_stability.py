"""Pipeline tests: defect oracles, verdict semantics, full runs."""

import collections
import dataclasses
import gc
import hashlib
import math
import weakref

import numpy as np
import pytest

from orthostab.funcspace import (EvaluationError, MapHandle, SampleGrid,
                                 make_grid, map_scale, map_sum, sup_distance,
                                 zero_map)
from orthostab import cli, funcspace, stability
from orthostab.orthogonality import (NormSpec, ThalesianNotFoundError,
                                     birkhoff_james_relation,
                                     inner_product_relation,
                                     symmetrize_relation, thalesian_solve,
                                     trivial_relation)
from orthostab.perturb import (compose_cauchy_instance,
                               compose_pexider_instance,
                               compose_quadratic_instance, make_additive,
                               make_cubic_growth, make_quadratic,
                               random_ground_truth)
from orthostab.stability import (ADDITIVE_CASE_COEFFS, MAIN_BOUND_COEFFS,
                                 DivergenceError, DoublingIdentityError,
                                 PipelineConfig, _check, closure_pairs,
                                 derive_normalized_parts, doubling_defect,
                                 extract_even, extract_odd, necessity_check,
                                 pexider_defect, ratz_decompose,
                                 run_cauchy_corollary,
                                 run_inner_product_corollary,
                                 run_main_theorem, run_quadratic_corollary)

# the gap checks engineered to vanish identically on exact instances
EXACT_ZERO_CHECKS = (
    "f_odd_gap", "g_odd_gap", "mean_odd_gap",
    "g_even_gap", "f_even_gap", "mean_even_gap",
    "f_total_gap", "g_total_gap", "hk_total_gap",
)

SMALL = PipelineConfig(pair_count=96, grid_count=64)


def constant_map(c, source_dim):
    c = np.asarray(c, dtype=float)
    return MapHandle(
        fn=lambda pts: np.broadcast_to(
            c, pts.shape[:-1] + c.shape).copy(),
        source_dim=source_dim, target_dim=c.shape[0],
        label="const", parity="even")


class TestDefectOracles:
    def test_pexider_defect_constant_offset(self):
        """Offsetting k by a constant c makes the defect exactly |c|."""
        z = zero_map(2, 2)
        k = constant_map([3.0, 4.0], 2)
        pairs = np.random.default_rng(0).normal(size=(40, 2, 2)) * 5.0
        assert pexider_defect(z, z, z, k, pairs) == 5.0

    def test_pexider_defect_exact_instance(self):
        gt = random_ground_truth(3, delta=0.0, seed=3)
        f, g, h, k = compose_pexider_instance(gt)
        pairs = np.random.default_rng(1).normal(size=(60, 2, 3)) * 8.0
        assert pexider_defect(f, g, h, k, pairs) < 1e-10

    def test_doubling_defect_constant_offset(self):
        """f = P + c has even doubling residual 3|c|, so defect 6|c|."""
        p = make_quadratic(np.stack([np.eye(2), 0.5 * np.eye(2)]))
        f = map_sum(p, constant_map([3.0, 4.0], 2))
        grid = make_grid(2, 32, 6.0, seed=0)
        assert doubling_defect(f, grid) == pytest.approx(30.0, rel=1e-12)

    def test_doubling_defect_pure_quadratic_is_zero(self):
        p = make_quadratic(np.eye(3)[None, :, :])
        grid = make_grid(3, 32, 8.0, seed=0)
        assert doubling_defect(p, grid) == 0.0


class TestVerdictSemantics:
    def test_boundary_inclusive(self):
        eps = 1e-3
        bound = 2.0 * eps
        at = _check("x", 2.0, bound * (1.0 + 1e-9), eps)
        assert at.passed
        above = _check("x", 2.0, bound * (1.0 + 1.1e-9), eps)
        assert not above.passed

    def test_zero_measured_zero_bound(self):
        c = _check("x", 2.0, 0.0, 0.0)
        assert c.passed and c.ratio == 0.0

    def test_positive_measured_zero_bound(self):
        c = _check("x", 2.0, 1e-300, 0.0)
        assert not c.passed and c.ratio == np.inf

    def test_to_dict_verdict(self):
        c = _check("x", 2.0, 1.0, 1.0)
        assert c.to_dict()["verdict"] == "pass"


class TestClosurePairs:
    def test_contents(self):
        pairs = np.random.default_rng(2).normal(size=(5, 2, 3))
        grid = make_grid(3, 8, 4.0, seed=1)  # origin plus 8 shell points
        closed = closure_pairs(pairs, grid)
        assert closed.shape == (2 * 5 + 1 + 4 * 8, 2, 3)
        assert any(np.array_equal(row, np.zeros((2, 3))) for row in closed)
        # negations of the sampled pairs are present
        assert any(np.array_equal(row, -pairs[3]) for row in closed)
        # each nonzero grid point shows up against zero on both slots
        u = grid.points[3]
        zero = np.zeros(3)
        assert any(np.array_equal(row, np.stack([u, zero]))
                   for row in closed)
        assert any(np.array_equal(row, np.stack([zero, -u]))
                   for row in closed)


class TestNormalizedParts:
    def test_anchoring_and_mean(self):
        gt = random_ground_truth(3, delta=1e-2, seed=4)
        f, g, h, k = compose_pexider_instance(gt)
        parts = derive_normalized_parts(f, g, h, k)
        zero = np.zeros(3)
        for m in (parts.F, parts.G, parts.H, parts.K, parts.L):
            assert not m(zero).any()
        pts = np.random.default_rng(3).normal(size=(20, 3)) * 5.0
        lv = parts.L(pts)
        mv = 0.5 * (parts.H(pts) + parts.K(pts))
        assert np.allclose(lv, mv, atol=1e-11)

    def test_parity_tags(self):
        gt = random_ground_truth(3, delta=1e-2, seed=5)
        f, g, h, k = compose_pexider_instance(gt)
        parts = derive_normalized_parts(f, g, h, k)
        assert parts.Fo.parity == "odd" and parts.Fe.parity == "even"
        assert parts.Lo.parity == "odd" and parts.Le.parity == "even"


class TestExtraction:
    def test_exact_additive_is_its_own_limit(self):
        a = make_additive(np.random.default_rng(4).normal(size=(3, 3)))
        grid = make_grid(3, 32, 8.0, seed=0)
        limit, res = extract_odd(a, grid)
        assert res.verdict == "converged" and res.n_steps == 0
        assert limit is a

    def test_exact_quadratic_is_its_own_limit(self):
        p = make_quadratic(np.stack([np.eye(3), 0.5 * np.eye(3)]))
        grid = make_grid(3, 32, 8.0, seed=0)
        limit, res = extract_even(p, grid)
        assert res.verdict == "converged" and res.n_steps == 0
        assert limit is p


class TestMainTheorem:
    def test_exact_instance_deviations_vanish(self):
        gt = random_ground_truth(3, delta=0.0, seed=6)
        f, g, h, k = compose_pexider_instance(gt)
        report = run_main_theorem(inner_product_relation(), f, g, h, k,
                                  config=SMALL)
        assert report.eps_hat <= 1e-12
        for name in EXACT_ZERO_CHECKS:
            assert report.bound(name).measured == 0.0, name
        assert report.bound("joint_even_doubling").measured == 0.0
        assert report.bound("g_even_doubling").measured == 0.0
        assert report.passed

    def test_noisy_instance_passes(self):
        gt = random_ground_truth(3, delta=1e-2, seed=7)
        f, g, h, k = compose_pexider_instance(gt)
        report = run_main_theorem(inner_product_relation(), f, g, h, k,
                                  config=SMALL)
        assert report.passed
        assert report.eps_hat > 1e-4
        total = report.bound("f_total_gap")
        assert total.coefficient == pytest.approx(140.0 / 3.0)
        assert total.bound == pytest.approx(report.eps_hat * 140.0 / 3.0)

    def test_bound_order_matches_declaration(self):
        gt = random_ground_truth(2, delta=1e-3, seed=8)
        f, g, h, k = compose_pexider_instance(gt)
        report = run_main_theorem(trivial_relation(), f, g, h, k,
                                  config=SMALL)
        names = [c.name for c in report.bounds]
        assert names == list(MAIN_BOUND_COEFFS)

    def test_no_split_witness_omits_joint_doubling(self, monkeypatch):
        def no_split(rel, x, lam):
            # a batch marks each row without a split witness as NaN
            return np.full_like(x, np.nan)

        monkeypatch.setattr(stability, "thalesian_solve", no_split)
        gt = random_ground_truth(3, delta=1e-3, seed=8)
        f, g, h, k = compose_pexider_instance(gt)
        report = run_main_theorem(inner_product_relation(), f, g, h, k,
                                  config=SMALL)
        names = [c.name for c in report.bounds]
        assert names == [n for n in MAIN_BOUND_COEFFS
                         if n != "joint_even_doubling"]
        diag = report.diagnostics
        assert diag["split_witness_attempts"] == len(report.grid) - 1
        assert diag["split_witness_failures"] == diag[
            "split_witness_attempts"]

    def test_unsymmetrized_relation_rejected(self):
        gt = random_ground_truth(3, delta=0.0, seed=9)
        f, g, h, k = compose_pexider_instance(gt)
        rel = birkhoff_james_relation("l1")
        with pytest.raises(ValueError, match="symmetrize"):
            run_main_theorem(rel, f, g, h, k, config=SMALL)

    def test_report_dict_shape(self):
        gt = random_ground_truth(3, delta=1e-3, seed=10)
        f, g, h, k = compose_pexider_instance(gt)
        report = run_main_theorem(inner_product_relation(), f, g, h, k,
                                  config=SMALL)
        d = report.to_dict()
        assert set(d) == {"corollary", "relation", "dim", "target_dim",
                          "config", "defects", "passed", "bounds",
                          "iterations", "necessity", "diagnostics",
                          "fingerprints"}
        assert d["corollary"] == "main"
        assert set(d["iterations"]) == {"R", "R_prime", "S", "S_prime"}
        assert set(d["fingerprints"]) == {"grid", "T", "T_prime", "T_second"}
        for c in d["bounds"]:
            assert c["verdict"] in ("pass", "fail")

    def test_divergent_even_part_raises(self):
        gt = random_ground_truth(3, delta=0.0, seed=11)
        f, g, h, k = compose_pexider_instance(gt)
        f = map_sum(f, make_cubic_growth(0.5, 3, 3))
        with pytest.raises(DivergenceError) as exc:
            run_main_theorem(inner_product_relation(), f, g, h, k,
                             config=SMALL)
        assert exc.value.result.verdict == "diverged"


def norm_cubed_odd():
    """x -> |x|^2 x: odd, and too fast for the halving operator."""
    return MapHandle(lambda p: np.sum(p * p, axis=-1, keepdims=True) * p,
                     3, 3, label="odd_cubic", parity="odd")


def non_finite_beyond(radius, parity):
    """0 up to the given norm and NaN past it; the level-4 grid of a
    radius-8 grid is the first to reach 100."""
    return MapHandle(
        lambda p: np.where(np.linalg.norm(p, axis=-1, keepdims=True)
                           > radius, np.nan, 0.0 * p),
        3, 3, label=f"nan_{parity}", parity=parity)


def sequential_extractions(f, g, h, k, cfg):
    """The extraction loop as it stood before the lockstep ladder: one
    run after another, raising for the first that fails."""
    parts = derive_normalized_parts(f, g, h, k)
    grid = make_grid(f.source_dim, cfg.grid_count, cfg.radius, cfg.seed + 1)
    for name, phi, extractor in (("R", parts.Fo, extract_odd),
                                 ("R_prime", parts.Go, extract_odd),
                                 ("S", parts.Fe, extract_even),
                                 ("S_prime", parts.Ge, extract_even)):
        _, res = extractor(phi, grid, tol=cfg.tol, n_max=cfg.n_max)
        if res.verdict != "converged":
            raise DivergenceError(name, res)


class TestLockstepExtractionErrors:
    # (extra term of f, extra term of g, n_max): two of R, R', S and S'
    # fail, and the later one in R, R', S, S' order fails on a lower
    # level of the ladder, so the lockstep loop meets it first
    @pytest.mark.parametrize("f_extra, g_extra, n_max, component", [
        (norm_cubed_odd(), non_finite_beyond(100.0, "even"), 40, "R"),
        (non_finite_beyond(100.0, "odd"), make_cubic_growth(1.0, 3, 3), 40,
         None),
        (non_finite_beyond(100.0, "even"), norm_cubed_odd(), 40, "R_prime"),
        (make_cubic_growth(1.0, 3, 3), non_finite_beyond(100.0, "odd"), 40,
         None),
        (None, non_finite_beyond(100.0, "even"), 5, "R"),
    ], ids=["R-diverges-S'-nan", "R-nan-S'-diverges", "R'-diverges-S-nan",
            "R'-nan-S-diverges", "R-budget-S'-nan"])
    def test_first_failure_in_component_order(self, f_extra, g_extra,
                                              n_max, component):
        f, g, h, k = compose_pexider_instance(
            random_ground_truth(3, delta=0.01, seed=3))
        if f_extra is not None:
            f = map_sum(f, f_extra)
        g = map_sum(g, g_extra)
        cfg = PipelineConfig(pair_count=96, grid_count=64, n_max=n_max)
        with pytest.raises((DivergenceError, EvaluationError)) as want:
            sequential_extractions(f, g, h, k, cfg)
        with pytest.raises((DivergenceError, EvaluationError)) as got:
            run_main_theorem(inner_product_relation(), f, g, h, k, cfg)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)
        assert getattr(got.value, "component", None) == component
        if component is not None:
            assert got.value.component == want.value.component
            assert got.value.result.raw_gaps == want.value.result.raw_gaps


def counted_leaves(maps, log):
    """Wrap, in place, the fn of every leaf among the summands of maps.

    ``log`` gets one (points, weakref to the value, scope open) record
    per evaluation that reaches a leaf's own callable.
    """
    leaves = {t for m in maps for t in m.terms if not t._derived}
    for leaf in leaves:
        def fn(p, _fn=leaf.fn):
            out = _fn(p)
            log.append((p.size // p.shape[-1], weakref.ref(out),
                        funcspace._SCOPE.get() is not None))
            return out
        leaf.fn = fn
    return leaves


class TestLeafEvaluations:
    def test_default_inner_report_leaf_points(self):
        # the CLI's `report --delta 0.01` instance and configuration
        f, g, h, k = compose_pexider_instance(
            random_ground_truth(3, delta=0.01, seed=42))
        log = []
        assert len(counted_leaves((f, g, h, k), log)) == 6
        run_main_theorem(inner_product_relation(), f, g, h, k)
        # each leaf evaluated afresh on every call, before evaluation
        # scopes: 239446 points in 625 calls; with scopes over the
        # residual slots and the ladder only, 166334 points in 473 calls;
        # with eps measured apart from the parity residuals, 131382
        # points in 337 calls; with J phi evaluated apart from the
        # ladder for the a-priori bounds, 108843 points in 326 calls;
        # with the a-priori bounds read off the ladder, 108061 points in
        # 312 calls; with the ladder handing its levels to the
        # measurements after it in one grid scope, 91099 points in 246
        # calls; with the ladder climbing in predicted blocks of levels,
        # the same points in 114 calls
        assert sum(n for n, _, _ in log) <= 91099
        assert len(log) <= 114

    @pytest.mark.parametrize("cubic", [None, 1.0])
    def test_no_value_outlives_the_run(self, cubic):
        f, g, h, k = compose_pexider_instance(
            random_ground_truth(3, delta=0.01, seed=42))
        if cubic is not None:
            f = map_sum(f, make_cubic_growth(cubic, 3, 3))
        log = []
        counted_leaves((f, g, h, k), log)
        try:
            report = run_main_theorem(inner_product_relation(), f, g, h, k,
                                      config=SMALL)
        except DivergenceError:
            report = None
        assert (report is None) == (cubic is not None)
        assert_no_scoped_value_alive(log)

    def test_no_value_outlives_a_run_failing_in_the_shared_scope(
            self, monkeypatch):
        f, g, h, k = compose_pexider_instance(
            random_ground_truth(3, delta=0.01, seed=42))
        log = []
        counted_leaves((f, g, h, k), log)

        def failing(arr):
            # the last measurement of the scope the grid measurements share
            assert funcspace._SCOPE.get() is not None
            raise RuntimeError("fingerprint failed")

        monkeypatch.setattr(stability, "_fingerprint", failing)
        with pytest.raises(RuntimeError, match="fingerprint failed"):
            run_main_theorem(inner_product_relation(), f, g, h, k,
                             config=SMALL)
        assert_no_scoped_value_alive(log)


def leaf_point_sets(monkeypatch) -> list:
    """Record (leaf, shape, digest of the points) for every evaluation
    that reaches a leaf map's own callable."""
    seen = []
    evaluate = MapHandle._evaluate

    def recording(self, arr):
        if not self._derived:
            seen.append((self, arr.shape,
                         hashlib.sha256(arr.tobytes()).hexdigest()))
        return evaluate(self, arr)

    monkeypatch.setattr(MapHandle, "_evaluate", recording)
    return seen


def shifted(m: MapHandle) -> MapHandle:
    return map_sum(m, constant_map(np.full(m.target_dim, 0.5), m.source_dim))


def pexider_run(rel, shift=False):
    def run():
        f, g, h, k = compose_pexider_instance(
            random_ground_truth(3, delta=0.01, seed=21))
        if shift:
            f, h = shifted(f), shifted(h)
        run_main_theorem(rel, f, g, h, k, config=SMALL)
    return run


def cauchy_run():
    f, h, k = compose_cauchy_instance(random_ground_truth(3, delta=0.01,
                                                          seed=22))
    run_cauchy_corollary(inner_product_relation(), f, h, k, config=SMALL)


def quadratic_run():
    q = compose_quadratic_instance(random_ground_truth(3, delta=0.01,
                                                       seed=23))
    run_quadratic_corollary(inner_product_relation(), q, config=SMALL)


def defect_command():
    assert cli.main(["defect", "--delta", "0.01", "--pairs", "96",
                     "--samples", "64", "--json", "-"]) == 0


class TestEachPointSetReadOnce:
    """No leaf map is evaluated twice on equal point arrays of more than
    one row: each run reads a leaf once per point set it measures."""

    @pytest.mark.parametrize("run", [
        pexider_run(inner_product_relation()),
        pexider_run(inner_product_relation(), shift=True),
        pexider_run(symmetrize_relation(birkhoff_james_relation("l1"))),
        cauchy_run, quadratic_run, defect_command,
    ], ids=["main", "main-shifted", "main-bj-l1", "cauchy", "quadratic",
            "defect"])
    def test_no_leaf_reads_a_point_set_twice(self, run, monkeypatch,
                                             capsys):
        seen = leaf_point_sets(monkeypatch)
        run()
        capsys.readouterr()
        assert len({leaf for leaf, _, _ in seen}) >= 2
        repeated = [(leaf.label, shape) for (leaf, shape, _), n
                    in collections.Counter(seen).items()
                    if n > 1 and math.prod(shape[:-1]) > 1]
        assert repeated == []


def assert_no_scoped_value_alive(log):
    """No scope is open and no value a leaf computed in one is alive."""
    gc.collect()
    assert funcspace._SCOPE.get() is None
    scoped = [ref for _, ref, in_scope in log if in_scope]
    assert scoped
    assert all(ref() is None for ref in scoped)


def per_point_joint_even_doubling(rel, Fe, Ge, pts):
    """The per-point loop the batched split-witness stage replaced: one
    Thalesian solve and one map call per point."""
    rows = []
    for x in pts:
        try:
            y0 = thalesian_solve(rel, x, 1.0)
        except ThalesianNotFoundError:
            continue
        stack = np.array([y0, x])
        rows.append(Fe(2.0 * stack[:1]) - 4.0 * Fe(stack[:1])
                    + Ge(2.0 * stack[1:]) - 4.0 * Ge(stack[1:]))
    return np.array(rows)


# relation name -> the relation in a given dimension
SPLIT_RELATIONS = {
    "trivial": lambda dim: trivial_relation(),
    "inner": lambda dim: inner_product_relation(),
    "bj:l2": lambda dim: birkhoff_james_relation(),
    "bj:weighted": lambda dim: birkhoff_james_relation(
        NormSpec.weighted(np.linspace(0.5, 3.0, dim))),
    "bj:l1": lambda dim: symmetrize_relation(birkhoff_james_relation("l1")),
    "bj:linf": lambda dim: symmetrize_relation(
        birkhoff_james_relation("linf")),
}


class TestJointEvenDoubling:
    @pytest.mark.parametrize("name", SPLIT_RELATIONS)
    @pytest.mark.parametrize("dim", [3, 5])
    @pytest.mark.parametrize("delta", [0.0, 0.01])
    def test_batch_equals_per_point_loop(self, name, dim, delta):
        rel = SPLIT_RELATIONS[name](dim)
        gt = random_ground_truth(dim, delta=delta, seed=dim)
        parts = derive_normalized_parts(*compose_pexider_instance(gt))
        pts = make_grid(dim, 64, 8.0, seed=dim).points[1:]
        got = stability._joint_even_doubling(rel, parts.Fe, parts.Ge, pts)
        want = per_point_joint_even_doubling(rel, parts.Fe, parts.Ge, pts)
        assert got.shape == (len(pts), 1, dim)
        assert got.tobytes() == want.tobytes()


def ref_residual(f, g, h, k, pairs):
    """The equation residual as one expression, each map called afresh."""
    xs, ys = pairs[:, 0, :], pairs[:, 1, :]
    return stability._max_row_norm(
        f(xs + ys) + g(xs - ys) - h(xs) - k(ys), "the equation residual")


def ref_parity_residuals(parts, pairs):
    """The odd and the even residual, a scope per slot for both parts."""
    xs, ys = pairs[:, 0, :], pairs[:, 1, :]

    def add_slot(sums, combine, odd_map, even_map, pts):
        with funcspace.evaluation_scope():
            odd, even = odd_map(pts), even_map(pts)
        return combine(sums[0], odd), combine(sums[1], even)

    with funcspace.evaluation_scope():
        pts = xs + ys
        sums = parts.Fo(pts), parts.Fe(pts)
    sums = add_slot(sums, np.add, parts.Go, parts.Ge, xs - ys)
    sums = add_slot(sums, np.subtract, parts.Ho, parts.He, xs)
    sums = add_slot(sums, np.subtract, parts.Ko, parts.Ke, ys)
    return (stability._max_row_norm(sums[0], "the equation residual"),
            stability._max_row_norm(sums[1], "the equation residual"))


def slot_pass_closure(rel):
    """The closure pairs a run with the SMALL configuration measures."""
    pairs = stability.sample_orthogonal_pairs(
        rel, 3, SMALL.pair_count, radius=SMALL.radius, seed=SMALL.seed)
    grid = make_grid(3, SMALL.grid_count, SMALL.radius, SMALL.seed + 1)
    return closure_pairs(pairs, grid)


class TestSlotPass:
    """eps and the residuals of one slot pass, against the expressions
    they were measured with one at a time."""

    @pytest.mark.parametrize("name", ["trivial", "inner", "bj:l1", "bj:l2",
                                      "bj:linf"])
    @pytest.mark.parametrize("kind", ["main", "cauchy", "quadratic"])
    @pytest.mark.parametrize("delta", [0.0, 0.01])
    def test_residuals_equal_the_references(self, name, kind, delta):
        rel = SPLIT_RELATIONS[name](3)
        gt = random_ground_truth(3, delta=delta, seed=5)
        if kind == "main":
            quad = compose_pexider_instance(gt)
            report = run_main_theorem(rel, *quad, SMALL)
        elif kind == "cauchy":
            f, h, k = compose_cauchy_instance(gt)
            quad = f, zero_map(3, 3), h, k
            report = run_cauchy_corollary(rel, f, h, k, SMALL)
        else:
            q = compose_quadratic_instance(gt)
            quad = q, q, map_scale(2.0, q), map_scale(2.0, q)
            report = run_quadratic_corollary(rel, q, SMALL)
        closed = slot_pass_closure(rel)
        eps = ref_residual(*quad, closed)
        assert report.diagnostics["closure_pair_count"] == len(closed)
        assert pexider_defect(*quad, closed) == eps
        assert report.eps_hat == eps
        assert report.bound("shifted_residual").measured == eps
        odd, even = ref_parity_residuals(derive_normalized_parts(*quad),
                                         closed)
        assert report.bound("odd_part_residual").measured == odd
        assert report.bound("even_part_residual").measured == even

    @pytest.mark.parametrize("delta", [0.0, 0.01])
    def test_shifted_quadruple(self, delta, monkeypatch):
        # f, h and k do not vanish at 0, so the shifted quadruple is
        # measured too, and the extractions read its anchored parts
        f, g, h, k = compose_pexider_instance(
            random_ground_truth(3, delta=delta, seed=5))
        f = map_sum(f, constant_map([0.5, -1.0, 2.0], 3))
        h = map_sum(h, constant_map([1.5, 0.0, 0.25], 3))
        k = map_sum(k, constant_map([-1.0, 2.0, 1.0], 3))
        assert_shifted_run((f, g, h, k), monkeypatch,
                           lambda rel: run_main_theorem(rel, f, g, h, k,
                                                        SMALL))

    @pytest.mark.parametrize("kind", ["cauchy", "quadratic"])
    @pytest.mark.parametrize("delta", [0.0, 0.01])
    def test_shifted_corollary(self, kind, delta, monkeypatch):
        gt = random_ground_truth(3, delta=delta, seed=5)
        if kind == "cauchy":
            f, h, k = compose_cauchy_instance(gt)
            f = map_sum(f, constant_map([0.5, -1.0, 2.0], 3))
            h = map_sum(h, constant_map([1.5, 0.0, 0.25], 3))
            k = map_sum(k, constant_map([-1.0, 2.0, 1.0], 3))
            assert_shifted_run((f, zero_map(3, 3), h, k), monkeypatch,
                               lambda rel: run_cauchy_corollary(rel, f, h, k,
                                                                SMALL))
        else:
            q = map_sum(compose_quadratic_instance(gt),
                        constant_map([0.5, -1.0, 2.0], 3))
            assert_shifted_run((q, q, map_scale(2.0, q), map_scale(2.0, q)),
                               monkeypatch,
                               lambda rel: run_quadratic_corollary(rel, q,
                                                                   SMALL))


def assert_shifted_run(quad, monkeypatch, run):
    """A run on a quadruple the shift moves passes, and measures eps,
    the shifted, the odd and the even residual in that order."""
    rel = inner_product_relation()
    closed = slot_pass_closure(rel)
    parts = derive_normalized_parts(*quad)
    assert parts.F is not quad[0]
    eps = ref_residual(*quad, closed)
    shifted = ref_residual(parts.F, parts.G, parts.H, parts.K, closed)
    assert shifted != eps
    assert pexider_defect(*quad, closed) == eps

    measured = []
    norm = stability._max_row_norm

    def recording(arr, what):
        value = norm(arr, what)
        if what == "the equation residual":
            measured.append(value)
        return value

    monkeypatch.setattr(stability, "_max_row_norm", recording)
    report = run(rel)
    monkeypatch.undo()
    assert report.passed
    assert report.eps_hat == eps
    assert report.bound("shifted_residual").measured == shifted
    # in the order the run reports a failure of theirs
    assert measured == [eps, shifted, *ref_parity_residuals(parts, closed)]


class TestCauchyCorollary:
    def test_tightened_coefficients(self):
        gt = random_ground_truth(3, delta=1e-2, seed=12)
        f, h, k = compose_cauchy_instance(gt)
        report = run_cauchy_corollary(inner_product_relation(), f, h, k,
                                      config=SMALL)
        assert report.corollary == "cauchy"
        for name, coeff in ADDITIVE_CASE_COEFFS.items():
            assert report.bound(name).coefficient == coeff
        assert report.bound("f_total_gap").coefficient == 32.0
        assert report.bound("hk_total_gap").coefficient == 72.0
        assert report.passed

    def test_statement_bound_is_informational(self):
        gt = random_ground_truth(3, delta=1e-3, seed=13)
        f, h, k = compose_cauchy_instance(gt)
        report = run_cauchy_corollary(inner_product_relation(), f, h, k,
                                      config=SMALL)
        extra = report.bound("hk_total_gap_statement")
        assert extra.informational
        assert extra.coefficient == 16.0
        coeffs = {**MAIN_BOUND_COEFFS, **ADDITIVE_CASE_COEFFS}
        assert [c.name for c in report.bounds] == [
            *coeffs, "hk_total_gap_statement"]
        # the same distance as the normative check, measured once
        assert extra.measured == report.bound("hk_total_gap").measured
        comp = report.components
        assert extra.measured == sup_distance(
            map_sum(comp["H"], comp["K"]), comp["T_second"], report.grid)


class TestQuadraticCorollary:
    def test_additive_extract_vanishes(self):
        gt = random_ground_truth(3, delta=1e-3, seed=14)
        q = compose_quadratic_instance(gt)
        report = run_quadratic_corollary(inner_product_relation(), q,
                                         config=SMALL)
        assert report.corollary == "quadratic"
        size = report.bound("additive_component_size")
        assert size.coefficient == 18.0
        assert [c.name for c in report.bounds] == [
            *MAIN_BOUND_COEFFS, "additive_component_size"]
        # even-parity noise keeps the odd part structurally zero
        assert size.measured == 0.0
        assert report.passed

    def test_quadratic_form_recovered(self):
        gt = random_ground_truth(3, delta=1e-3, seed=15)
        q = compose_quadratic_instance(gt)
        report = run_quadratic_corollary(inner_product_relation(), q,
                                         config=SMALL)
        p0 = gt.quadratic_map()
        err = sup_distance(report.components["S"], p0, report.grid)
        assert err <= (86.0 / 3.0) * report.eps_hat + gt.delta

    def test_cubic_contaminant_diverges(self):
        gt = random_ground_truth(3, delta=0.0, seed=16)
        q = compose_quadratic_instance(gt)
        with pytest.raises(DivergenceError) as exc:
            run_quadratic_corollary(inner_product_relation(), q,
                                    config=SMALL,
                                    contaminant=make_cubic_growth(1.0, 3, 3))
        assert exc.value.component == "S"


class TestInnerProductCorollary:
    def test_dimension_gate(self):
        gt = random_ground_truth(2, delta=0.0, seed=17)
        f, g, h, k = compose_pexider_instance(gt)
        with pytest.raises(ValueError, match="dimension"):
            run_inner_product_corollary(f, g, h, k, config=SMALL)

    def test_runs_in_dim_three(self):
        gt = random_ground_truth(3, delta=1e-3, seed=18)
        f, g, h, k = compose_pexider_instance(gt)
        report = run_inner_product_corollary(f, g, h, k, config=SMALL)
        assert report.corollary == "inner_product"
        assert report.passed


class TestRatzDecomposition:
    def test_exact_corrector_splits_cleanly(self):
        a = make_additive(np.random.default_rng(5).normal(size=(3, 3)))
        forms = np.stack([np.eye(3), np.diag([0.5, 1.0, 2.0]),
                          0.3 * np.eye(3)])
        t = map_sum(a, make_quadratic(forms))
        grid = make_grid(3, 48, 8.0, seed=2)
        dec = ratz_decompose(t, grid)
        assert dec.additive_defect <= 1e-9
        assert dec.quadratic_defect <= 1e-9
        assert dec.recomposition_defect <= 1e-12
        assert dec.odd_component.parity == "odd"
        assert dec.even_component.parity == "even"

    def test_to_dict(self):
        t = make_additive(np.eye(2))
        grid = make_grid(2, 16, 4.0, seed=0)
        d = ratz_decompose(t, grid).to_dict()
        assert set(d) == {"additive_defect", "quadratic_defect",
                          "recomposition_defect"}


class TestNecessity:
    def test_exact_pass(self):
        a = make_additive(np.eye(3))
        p = make_quadratic(np.stack([np.eye(3), 0.5 * np.eye(3),
                                     np.diag([1.0, 2.0, 3.0])]))
        t = map_sum(a, p)
        grid = make_grid(3, 32, 8.0, seed=1)
        out = necessity_check(t, t, grid, doubling_tol=1e-9)
        assert out["passed"]
        assert out["measured"] == 0.0
        assert out["corrector_doubling_residual"] == 0.0

    def test_bad_corrector_raises(self):
        grid = make_grid(3, 32, 8.0, seed=1)
        f = make_quadratic(np.eye(3)[None, :, :])
        bad = make_cubic_growth(1.0, 3, 1)
        with pytest.raises(DoublingIdentityError):
            necessity_check(f, bad, grid, doubling_tol=1e-9)


class TestBirkhoffJamesPipeline:
    def test_symmetrized_l1_passes(self):
        gt = random_ground_truth(2, delta=1e-2, seed=19)
        f, g, h, k = compose_pexider_instance(gt)
        rel = symmetrize_relation(birkhoff_james_relation("l1"))
        cfg = PipelineConfig(pair_count=64, grid_count=64)
        report = run_main_theorem(rel, f, g, h, k, config=cfg)
        assert report.passed
        assert report.diagnostics["split_witness_failures"] == 0


class TestFixedSettings:
    def test_config_has_six_fields(self):
        assert [f.name for f in dataclasses.fields(PipelineConfig)] == [
            "pair_count", "grid_count", "radius", "seed", "tol", "n_max"]

    def test_report_echoes_the_fixed_settings_last(self):
        f, g, h, k = compose_pexider_instance(random_ground_truth(3, seed=1))
        report = run_main_theorem(inner_product_relation(), f, g, h, k,
                                  config=SMALL)
        assert report.config == {
            **dataclasses.asdict(SMALL), "cap": 1e12, "verdict_rtol": 1e-9,
            "fresh_pair_offset": 7919, "split_subsample": 32}
        assert list(report.config)[6:] == [
            "cap", "verdict_rtol", "fresh_pair_offset", "split_subsample"]


class TestFingerprint:
    def test_matches_the_joined_17g_text(self):
        rng = np.random.default_rng(0)
        values = np.concatenate([
            [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308,
             -1e308, 1.0, -3.0, 2.0 ** 53, 1e16, 12345678.0],
            rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)])
        rows = values.reshape(128, 4)
        for arr in (values, rows, rows.T, values[:0]):
            text = ",".join(map("{:.17g}".format, arr.ravel().tolist()))
            assert (stability._fingerprint(arr)
                    == hashlib.sha256(text.encode("ascii")).hexdigest())


def grid_bump(grid: SampleGrid, height: float) -> MapHandle:
    """An even leaf equal to height in every coordinate on the nonzero
    grid points and their negatives, and 0 everywhere else."""
    nonzero = grid.points[1:]
    marked = {tuple(p) for p in np.concatenate([nonzero, -nonzero])}

    def fn(pts):
        flat = pts.reshape(-1, pts.shape[-1])
        hit = np.array([tuple(p) in marked for p in flat], dtype=bool)
        return np.where(hit.reshape(pts.shape[:-1])[..., None], height,
                        np.zeros(pts.shape))

    return MapHandle(fn, grid.dim, grid.dim, label="bump", parity="even")


class TestKnownFindings:
    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "eps is measured on the closed pair set only: the closure pairs "
        "(+-u, 0) and (0, +-u) cancel a bump that f and g carry with "
        "opposite signs on the grid, no sampled x +- y lands on a grid "
        "point, and the extractions read the grid"))
    def test_grid_bump_cancelled_in_the_pairs(self):
        # at this writing eps_hat is 4.49e-14 and six bounds fail:
        # joint_even_doubling, g_even_doubling, g_even_gap, f_even_gap,
        # f_total_gap and g_total_gap (f_even_gap measures 1.7e-3
        # against a bound of 1.3e-12)
        cfg = PipelineConfig()
        f, g, h, k = compose_pexider_instance(random_ground_truth(3, seed=5))
        bump = grid_bump(make_grid(3, cfg.grid_count, cfg.radius,
                                   cfg.seed + 1), 1e-3)
        report = run_main_theorem(inner_product_relation(),
                                  map_sum(f, bump),
                                  map_sum(g, map_scale(-1.0, bump)), h, k,
                                  config=cfg)
        assert report.passed

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "a --tol at or above an extraction's first gap stops it at level 0 "
        "with phi0 as its own limit: the gaps read 0 and the necessity "
        "check's 4*tol slack covers any doubling residual, so the verdict "
        "cannot fail (ROADMAP items 3 and 5)"))
    def test_huge_tol_hides_a_diverging_cubic(self, capsys):
        # the default tol and --tol 1 exit 3 (diverged) on this instance
        assert cli.main(["quadratic", "--cubic", "1.0", "--tol", "1e300"]) == 3
