"""Acceptance criteria for the stability laboratory.

Each test covers one criterion and prints a single line

    ACCEPTANCE NN <name>: PASS|FAIL

before asserting, so a plain ``pytest -s tests/test_acceptance.py``
reads as a checklist.  The sweep fixture (three noise levels, five
seeds, dimension 3, inner-product orthogonality) is shared by the
criteria that quantify over it.
"""

import json
import time

import numpy as np
import pytest

from orthostab.cli import main as cli_main
from orthostab.funcspace import (even_part, make_grid, map_scale, map_sum,
                                 odd_part, sup_distance)
from orthostab.orthogonality import (birkhoff_james_relation,
                                     inner_product_relation, is_orthogonal,
                                     thalesian_solve)
from orthostab.perturb import (compose_cauchy_instance,
                               compose_pexider_instance,
                               compose_quadratic_instance, make_cubic_growth,
                               random_ground_truth)
from orthostab.stability import (PipelineConfig, extract_even,
                                 run_cauchy_corollary, run_main_theorem,
                                 run_quadratic_corollary)

DELTAS = (1e-3, 1e-2, 1e-1)
SEEDS = (0, 1, 2, 3, 4)


def _emit(num: int, name: str, failures: list):
    verdict = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict}")
    assert not failures, "; ".join(failures)


@pytest.fixture(scope="module")
def sweep():
    t0 = time.perf_counter()
    runs = []
    rel = inner_product_relation()
    for delta in DELTAS:
        for seed in SEEDS:
            gt = random_ground_truth(3, delta=delta, seed=seed)
            f, g, h, k = compose_pexider_instance(gt)
            runs.append((delta, seed, run_main_theorem(rel, f, g, h, k)))
    return runs, time.perf_counter() - t0


@pytest.fixture(scope="module")
def cauchy_reports():
    rel = inner_product_relation()
    out = []
    for delta in DELTAS:
        gt = random_ground_truth(3, delta=delta, seed=0)
        f, h, k = compose_cauchy_instance(gt)
        out.append((delta, run_cauchy_corollary(rel, f, h, k)))
    return out


@pytest.fixture(scope="module")
def quadratic_reports():
    rel = inner_product_relation()
    out = []
    for delta in (1e-3, 1e-2):
        gt = random_ground_truth(3, delta=delta, seed=0)
        q = compose_quadratic_instance(gt)
        out.append((gt, run_quadratic_corollary(rel, q)))
    return out


def test_criterion_01_exact_instances():
    """Unperturbed instances reproduce the corrector to round-off."""
    failures = []
    rel = inner_product_relation()
    for dim in (2, 3, 5):
        for seed in SEEDS:
            gt = random_ground_truth(dim, delta=0.0, seed=seed)
            f, g, h, k = compose_pexider_instance(gt)
            t0 = time.perf_counter()
            rep = run_main_theorem(rel, f, g, h, k)
            wall = time.perf_counter() - t0
            tag = f"dim={dim} seed={seed}"
            if rep.eps_hat > 1e-12:
                failures.append(f"{tag}: eps_hat {rep.eps_hat:.3e}")
            m = rep.bound("f_total_gap").measured
            if m > 1e-9:
                failures.append(f"{tag}: f_total_gap {m:.3e}")
            if not rep.passed:
                failures.append(f"{tag}: report failed")
            if wall > 5.0:
                failures.append(f"{tag}: took {wall:.1f}s")
    _emit(1, "exact-instances", failures)


def test_criterion_02_main_bounds_sweep(sweep):
    """All three corrector distances hold across the noise sweep."""
    runs, wall = sweep
    failures = []
    expected = {"f_total_gap": 140.0 / 3.0, "g_total_gap": 98.0 / 3.0,
                "hk_total_gap": 256.0 / 3.0}
    for delta, seed, rep in runs:
        for name, coeff in expected.items():
            c = rep.bound(name)
            if abs(c.coefficient - coeff) > 1e-12:
                failures.append(f"{name}: coefficient {c.coefficient}")
            if not c.passed:
                failures.append(
                    f"d={delta} s={seed} {name}: ratio {c.ratio:.3f}")
    if wall > 30.0:
        failures.append(f"sweep took {wall:.1f}s")
    _emit(2, "main-bounds-sweep", failures)


def test_criterion_03_chain_constants(sweep):
    """Every intermediate inequality holds with its pinned constant."""
    runs, _ = sweep
    pinned = {"f_odd_gap": 18.0, "g_odd_gap": 18.0, "f_odd_vs_mean": 2.0,
              "mean_odd_gap": 20.0, "g_even_gap": 44.0 / 3.0,
              "f_even_gap": 86.0 / 3.0, "mean_even_gap": 136.0 / 3.0}
    failures = []
    for delta, seed, rep in runs:
        for name, coeff in pinned.items():
            c = rep.bound(name)
            if abs(c.coefficient - coeff) > 1e-12:
                failures.append(f"{name}: coefficient {c.coefficient}")
            if not c.passed:
                failures.append(
                    f"d={delta} s={seed} {name}: ratio {c.ratio:.3f}")
    _emit(3, "chain-constants", failures)


def test_criterion_04_iteration_discipline(sweep):
    """Contraction per step, a-priori bound honored, divergence flagged."""
    runs, _ = sweep
    failures = []
    for delta, seed, rep in runs:
        for name, rec in rep.iterations.items():
            tag = f"d={delta} s={seed} {name}"
            if rec["verdict"] != "converged":
                failures.append(f"{tag}: {rec['verdict']}")
                continue
            lam = rec["lam"]
            per = rec["per_step_distances"]
            for n, d in enumerate(per):
                if d > lam ** n * per[0] + 1e-10:
                    failures.append(f"{tag}: step {n} above geometric decay")
                    break
            if rec["final_distance"] > rec["apriori"] + 1e-10:
                failures.append(f"{tag}: final {rec['final_distance']:.3e} "
                                f"vs apriori {rec['apriori']:.3e}")
    grid = make_grid(3, 64, 8.0, seed=0)
    _, res = extract_even(make_cubic_growth(1.0, 3, 3), grid)
    if res.verdict != "diverged":
        failures.append(f"cubic input verdict {res.verdict}")
    _emit(4, "iteration-discipline", failures)


def test_criterion_05_relation_geometry():
    """Predicate equivalences, asymmetry, splitting accuracy."""
    failures = []
    inner = inner_product_relation()
    bj2 = birkhoff_james_relation("l2")
    rng = np.random.default_rng(2024)
    xs = rng.normal(size=(500, 3)) * 5.0
    ys = rng.normal(size=(500, 3)) * 5.0
    # half the sample orthogonalized so both predicate values occur
    proj = (np.sum(xs * ys, axis=1) /
            np.sum(xs * xs, axis=1))[:, None] * xs
    ys = np.vstack([ys, ys - proj])
    xs = np.vstack([xs, xs])
    mismatch = sum(
        1 for x, y in zip(xs, ys)
        if is_orthogonal(bj2, x, y) != is_orthogonal(inner, x, y))
    if mismatch:
        failures.append(f"{mismatch}/1000 predicate disagreements")

    l1 = birkhoff_james_relation("l1")
    x, y = np.array([1.0, 0.0]), np.array([1.0, 2.0])
    if not is_orthogonal(l1, x, y):
        failures.append("l1: (1,0) not orthogonal to (1,2)")
    if is_orthogonal(l1, y, x):
        failures.append("l1: relation not asymmetric on the witness pair")

    for rel in (inner, bj2):
        for i in range(100):
            x = rng.normal(size=3) * 4.0
            lam = rng.uniform(0.0, 10.0)
            y0 = thalesian_solve(rel, x, lam)
            r1 = abs(x @ y0)
            r1 /= 1.0 + np.linalg.norm(x) * np.linalg.norm(y0)
            lhs, rhs = x + y0, lam * x - y0
            r2 = abs(lhs @ rhs)
            r2 /= 1.0 + np.linalg.norm(lhs) * np.linalg.norm(rhs)
            if max(r1, r2) > 1e-9:
                failures.append(
                    f"{rel.kind} trial {i}: residual {max(r1, r2):.2e}")
                break
    _emit(5, "relation-geometry", failures)


def test_criterion_06_cauchy_specialization(cauchy_reports):
    """Additive case: sharpened 32 and 72 hold, statement bound shown."""
    failures = []
    for delta, rep in cauchy_reports:
        for name, coeff in (("f_total_gap", 32.0), ("hk_total_gap", 72.0)):
            c = rep.bound(name)
            if c.coefficient != coeff or not c.passed:
                failures.append(f"d={delta} {name}: coeff {c.coefficient} "
                                f"ratio {c.ratio:.3f}")
        info = rep.bound("hk_total_gap_statement")
        if not info.informational or info.coefficient != 16.0:
            failures.append(f"d={delta}: statement bound misdeclared")
        if not rep.passed:
            failures.append(f"d={delta}: report failed")
    _emit(6, "cauchy-specialization", failures)


def test_criterion_07_quadratic_specialization(quadratic_reports):
    """Quadratic case: bounds hold and the true form is recovered."""
    failures = []
    for gt, rep in quadratic_reports:
        tag = f"d={gt.delta}"
        total = rep.bound("f_total_gap")
        if abs(total.coefficient - 140.0 / 3.0) > 1e-12 or not total.passed:
            failures.append(f"{tag}: f_total_gap ratio {total.ratio:.3f}")
        size = rep.bound("additive_component_size")
        if size.coefficient != 18.0 or not size.passed:
            failures.append(f"{tag}: additive size {size.measured:.3e}")
        err = sup_distance(rep.components["S"], gt.quadratic_map(), rep.grid)
        allow = (86.0 / 3.0) * rep.eps_hat + gt.delta
        if err > allow:
            failures.append(f"{tag}: S is {err:.3e} from the true form, "
                            f"allowed {allow:.3e}")
    _emit(7, "quadratic-specialization", failures)


def test_criterion_08_necessity(sweep, cauchy_reports, quadratic_reports):
    """The measured doubling defect never exceeds its certified bound."""
    failures = []
    everything = ([(f"main d={d} s={s}", r) for d, s, r in sweep[0]] +
                  [(f"cauchy d={d}", r) for d, r in cauchy_reports] +
                  [(f"quadratic d={gt.delta}", r)
                   for gt, r in quadratic_reports])
    for tag, rep in everything:
        nec = rep.necessity
        if not nec["passed"]:
            failures.append(f"{tag}: measured {nec['measured']:.3e} "
                            f"vs bound {nec['bound']:.3e}")
    _emit(8, "necessity", failures)


def test_criterion_09_corrector_decomposition():
    """The pipeline's corrector T = R + S splits into its two laws.

    The quadruple (P + A, 3P - A, 4P, 4P + 2A) solves the equation on
    orthogonal pairs, as the generator's does, but gives f and g even
    parts of their own: with a shared P, S and S' are one map.
    """
    failures = []
    for name, rel in (("inner", inner_product_relation()),
                      ("bj:l2", birkhoff_james_relation("l2"))):
        for dim in (2, 3, 5):
            for s in SEEDS:
                gt = random_ground_truth(dim, delta=0.0, seed=s)
                a, p = gt.additive_map(), gt.quadratic_map()
                quad = (map_sum(p, a), map_sum(map_scale(3.0, p),
                                               map_scale(-1.0, a)),
                        map_scale(4.0, p),
                        map_sum(map_scale(4.0, p), map_scale(2.0, a)))
                rep = run_main_theorem(rel, *quad, PipelineConfig(seed=s))
                tag, c = f"{name} dim={dim} s={s}", rep.components
                if odd_part(c["T"]) is not c["R"]:
                    failures.append(f"{tag}: odd part of T is not R")
                if even_part(c["T"]) is not c["S"]:
                    failures.append(f"{tag}: even part of T is not S")
                diag = rep.diagnostics
                for key in ("orthogonal_additivity_of_R",
                            "orthogonal_quadratic_identity_of_S"):
                    if diag[key] > 1e-9:
                        failures.append(f"{tag}: {key} {diag[key]:.3e}")
                if any(diag["scaling_residuals"].values()):
                    failures.append(f"{tag}: scaling residuals "
                                    f"{diag['scaling_residuals']}")
    _emit(9, "corrector-decomposition", failures)


def test_criterion_10_cli_determinism(tmp_path):
    """Identical invocations serialize byte-identical reports."""
    failures = []
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["report", "--delta", "1e-2", "--seed", "3",
            "--samples", "64", "--pairs", "64"]
    ra = cli_main([*argv, "--json", str(a)])
    rb = cli_main([*argv, "--json", str(b)])
    if (ra, rb) != (0, 0):
        failures.append(f"exit codes {(ra, rb)}")
    elif a.read_bytes() != b.read_bytes():
        failures.append("reports differ between runs")
    else:
        json.loads(a.read_text())
    _emit(10, "cli-determinism", failures)
