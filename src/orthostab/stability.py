"""The stability pipeline: from a perturbed quadruple to certified bounds.

Given maps (f, g, h, k) that nearly satisfy

    f(x+y) + g(x-y) = h(x) + k(y)    on orthogonal pairs (x, y),

the pipeline measures the actual violation eps, normalizes the maps to
vanish at the origin, splits them into even and odd parts, extracts an
additive candidate from each odd part (contraction factor 1/2) and a
quadratic candidate from each even part (factor 1/4) by fixed-point
iteration, and assembles the correctors

    T = R + S,    T' = R' + S',    T'' = 2S + 2S' + 2R,

where R, R' come from the odd parts of f, g and S, S' from the even
parts.  T'' is assembled with its even summands first so that its
evaluation order mirrors h + k.  Every distance the underlying theory
controls is measured into one table, which is checked in the order of
``MAIN_BOUND_COEFFS`` against its stated multiple of eps:

    coefficient   distance
        2         residual of the normalized quadruple (and its even
                  and odd projections), f_odd vs mean, even sum vs mean
       18         odd parts of f and of g vs their additive extracts
       20         mean odd part vs R
       42         joint even-doubling defect along split witnesses
       44         even-doubling defect of g's even part
      44/3        even part of g vs S'
      86/3        even part of f vs S
      136/3       mean even part vs S + S'
      140/3       f vs T        98/3  g vs T'      256/3  h + k vs T''

A verdict passes when measured <= coefficient * eps * (1 + 1e-9); the
tolerance is purely multiplicative, so exact-instance runs are expected
to produce exact zeros, and they do: on noiseless instances every one
of the nine deviation checks evaluates to 0.0 in floating point by
construction (parities resolve structurally, the rescaling operators
multiply by powers of two, and sums are laid out so that both sides of
each comparison round identically).

The joint even-doubling bound is left out when no split witness is
found.  Specialized runs cover the additive case (g = 0, with the
sharper coefficients 14, 16, 32 and 72), the purely quadratic case
(f = g even, h = k = 2f, with the additive extract certified to be
small) and the inner-product relation (dimension at least 3); the first
two append one check of their own after the table's.  A decomposition
helper splits any corrector into its odd and even parts and measures
how additive and how quadratic they are, and a necessity check
verifies the doubling identity that any corrector must satisfy.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from .fixedpoint import (IterationResult, ScalingOperator, apriori_bound,
                         iterate)
from .funcspace import (DEFAULT_CAP, EvaluationError, MapHandle, SampleGrid,
                        even_part, make_grid, map_scale, map_sum, odd_part,
                        shift_to_zero, sup_distance, sup_norm, zero_map)
from .orthogonality import (OrthoRelation, inner_product_relation,
                            sample_orthogonal_pairs, symmetrize_relation,
                            relation_descriptor, thalesian_solve)

__all__ = [
    "MAIN_BOUND_COEFFS",
    "ADDITIVE_CASE_COEFFS",
    "PipelineConfig",
    "BoundCheck",
    "DefectReport",
    "StabilityReport",
    "RatzDecomposition",
    "DivergenceError",
    "DoublingIdentityError",
    "pexider_defect",
    "doubling_defect",
    "mixed_parity_defect",
    "derive_normalized_parts",
    "extract_odd",
    "extract_even",
    "closure_pairs",
    "run_main_theorem",
    "run_cauchy_corollary",
    "run_quadratic_corollary",
    "run_inner_product_corollary",
    "ratz_decompose",
    "necessity_check",
    "symmetrize_relation",
]

# distance name -> certified multiple of the measured defect
MAIN_BOUND_COEFFS: dict[str, float] = {
    "shifted_residual": 2.0,
    "odd_part_residual": 2.0,
    "even_part_residual": 2.0,
    "f_odd_vs_mean": 2.0,
    "even_sum_vs_mean": 2.0,
    "f_odd_gap": 18.0,
    "g_odd_gap": 18.0,
    "mean_odd_gap": 20.0,
    "joint_even_doubling": 42.0,
    "g_even_doubling": 44.0,
    "g_even_gap": 44.0 / 3.0,
    "f_even_gap": 86.0 / 3.0,
    "mean_even_gap": 136.0 / 3.0,
    "f_total_gap": 140.0 / 3.0,
    "g_total_gap": 98.0 / 3.0,
    "hk_total_gap": 256.0 / 3.0,
}

# sharper multiples available when g vanishes identically
ADDITIVE_CASE_COEFFS: dict[str, float] = {
    "f_even_gap": 14.0,
    "mean_even_gap": 16.0,
    "f_total_gap": 32.0,
    "hk_total_gap": 72.0,
}


class DivergenceError(RuntimeError):
    """A component extraction failed to converge.

    Carries the offending component name and its IterationResult.
    """

    def __init__(self, component: str, result: IterationResult):
        super().__init__(
            f"extraction of {component!r} ended with verdict "
            f"{result.verdict!r} after {result.n_steps} steps")
        self.component = component
        self.result = result


class DoublingIdentityError(RuntimeError):
    """A corrector violated the doubling identity it must satisfy."""


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs for one pipeline run; defaults match the command line."""

    pair_count: int = 512
    grid_count: int = 256
    radius: float = 8.0
    seed: int = 42
    tol: float = 1e-10
    n_max: int = 40
    cap: float = DEFAULT_CAP
    verdict_rtol: float = 1e-9
    fresh_pair_offset: int = 7919
    split_subsample: int = 32

    def __post_init__(self):
        if self.pair_count < 2 or self.grid_count < 2:
            raise ValueError("pair_count and grid_count must be at least 2")
        if not (self.radius > 0.0 and self.tol > 0.0):
            raise ValueError("radius and tol must be positive")
        if self.n_max < 0:
            raise ValueError("n_max must be nonnegative")


@dataclass
class BoundCheck:
    """One verified inequality: measured distance vs its eps multiple."""

    name: str
    coefficient: float
    measured: float
    bound: float
    ratio: float
    passed: bool
    informational: bool = False

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "coefficient": self.coefficient,
            "measured": self.measured,
            "bound": self.bound,
            "ratio": self.ratio,
            "verdict": "pass" if self.passed else "fail",
            "informational": self.informational,
        }


def _check(name: str, coeff: float, measured: float, eps: float,
           rtol: float, informational: bool = False) -> BoundCheck:
    bound = coeff * eps
    if measured == 0.0:
        ratio = 0.0
    elif bound == 0.0:
        ratio = math.inf
    else:
        ratio = measured / bound
    passed = measured <= bound * (1.0 + rtol)
    return BoundCheck(name, coeff, measured, bound, ratio, passed,
                      informational)


@dataclass
class DefectReport:
    """Measured violations of the input quadruple.

    ``pexider`` is the defect every bound is stated against.  The
    others are diagnostics: ``even_doubling`` is twice the doubling
    defect of f's even part (the quantity the theory consumes), and
    ``literal_mixed_parity`` is the corresponding expression read
    without parity projection, which mixes the odd part at 2x with the
    even part at x.
    """

    pexider: float
    even_doubling: float
    literal_mixed_parity: float

    def to_dict(self) -> dict:
        return asdict(self)


def _max_row_norm(arr: np.ndarray, what: str) -> float:
    # also catches finite rows whose squared norms overflow to inf
    with np.errstate(over="ignore"):
        sup = float(np.max(np.sqrt(np.sum(arr * arr, axis=-1))))
    if not math.isfinite(sup):
        raise EvaluationError(f"non-finite values measuring {what}")
    return sup


def pexider_defect(f: MapHandle, g: MapHandle, h: MapHandle, k: MapHandle,
                   pairs: np.ndarray) -> float:
    """sup over pairs of ||f(x+y) + g(x-y) - h(x) - k(y)||."""
    pairs = np.asarray(pairs, dtype=float)
    xs, ys = pairs[:, 0, :], pairs[:, 1, :]
    res = f(xs + ys) + g(xs - ys) - h(xs) - k(ys)
    return _max_row_norm(res, "the equation residual")


def _doubling_residual(phi: MapHandle, pts: np.ndarray,
                       factor: float) -> float:
    vals = phi(2.0 * pts) - factor * phi(pts)
    return _max_row_norm(vals, f"{phi.label!r} doubling residual")


def doubling_defect(f: MapHandle, grid: SampleGrid) -> float:
    """2 * sup over the grid of ||f_even(2x) - 4 f_even(x)||."""
    return 2.0 * _doubling_residual(even_part(f), grid.points, 4.0)


def mixed_parity_defect(f: MapHandle, grid: SampleGrid) -> float:
    """sup of ||f(2x) - f(-2x) - 4f(x) - 4f(-x)||, no parity projection."""
    pts = grid.points
    vals = f(2.0 * pts) - f(-2.0 * pts) - 4.0 * f(pts) - 4.0 * f(-pts)
    return _max_row_norm(vals, "the mixed-parity defect")


@dataclass
class NormalizedParts:
    """The shifted quadruple, its mean, and all parity projections."""

    F: MapHandle
    G: MapHandle
    H: MapHandle
    K: MapHandle
    L: MapHandle
    Fo: MapHandle
    Fe: MapHandle
    Go: MapHandle
    Ge: MapHandle
    Ho: MapHandle
    He: MapHandle
    Ko: MapHandle
    Ke: MapHandle
    Lo: MapHandle
    Le: MapHandle


def derive_normalized_parts(f: MapHandle, g: MapHandle, h: MapHandle,
                            k: MapHandle) -> NormalizedParts:
    """Shift the quadruple to vanish at 0 and split it by parity.

    The mean L = (H + K)/2 is the map both extracts are later compared
    against.  Shifting only adds constants, so the shifted quadruple's
    residual on any pair set is at most twice the original defect.
    """
    F = shift_to_zero(f, "F")
    G = shift_to_zero(g, "G")
    H = shift_to_zero(h, "H")
    K = shift_to_zero(k, "K")
    L = map_scale(0.5, map_sum(H, K), label="L")
    return NormalizedParts(
        F, G, H, K, L,
        odd_part(F), even_part(F),
        odd_part(G), even_part(G),
        odd_part(H), even_part(H),
        odd_part(K), even_part(K),
        odd_part(L), even_part(L),
    )


def extract_odd(phi: MapHandle, grid: SampleGrid, tol: float = 1e-10,
                n_max: int = 40, cap: float = DEFAULT_CAP):
    """Additive extraction: Picard limit under phi -> phi(2x)/2."""
    res = iterate(ScalingOperator(0.5), phi, grid, tol=tol, n_max=n_max,
                  cap=cap)
    return res.limit, res


def extract_even(phi: MapHandle, grid: SampleGrid, tol: float = 1e-10,
                 n_max: int = 40, cap: float = DEFAULT_CAP):
    """Quadratic extraction: Picard limit under phi -> phi(2x)/4."""
    res = iterate(ScalingOperator(0.25), phi, grid, tol=tol, n_max=n_max,
                  cap=cap)
    return res.limit, res


@dataclass
class RatzDecomposition:
    """A corrector split into odd and even components, with defects.

    ``additive_defect`` measures the odd component against unrestricted
    additivity, ``quadratic_defect`` the even component against the
    parallelogram-type identity, and ``recomposition_defect`` how far
    the two components fall short of re-assembling the input.
    """

    odd_component: MapHandle
    even_component: MapHandle
    additive_defect: float
    quadratic_defect: float
    recomposition_defect: float

    def to_dict(self) -> dict:
        return {
            "additive_defect": self.additive_defect,
            "quadratic_defect": self.quadratic_defect,
            "recomposition_defect": self.recomposition_defect,
        }


def ratz_decompose(t: MapHandle, grid: SampleGrid,
                   pair_limit: int = 32) -> RatzDecomposition:
    """Split t into odd + even parts and measure their identities.

    Pairs for the identity checks are all combinations of the first
    ``pair_limit`` grid points, origin included, with no orthogonality
    restriction.
    """
    a = odd_part(t)
    p = even_part(t)
    pts = grid.points[:min(len(grid), pair_limit)]
    n = len(pts)
    xs = np.repeat(pts, n, axis=0)
    ys = np.tile(pts, (n, 1))
    add_res = a(xs + ys) - a(xs) - a(ys)
    quad_res = p(xs + ys) + p(xs - ys) - 2.0 * p(xs) - 2.0 * p(ys)
    return RatzDecomposition(
        a, p,
        _max_row_norm(add_res, "the additivity defect"),
        _max_row_norm(quad_res, "the quadratic identity defect"),
        sup_distance(map_sum(a, p), t, grid),
    )


def necessity_check(f: MapHandle, t: MapHandle, grid: SampleGrid,
                    doubling_tol: float = 1e-9,
                    slack: float = 1e-9) -> dict:
    """Verify the doubling identity t_even(2x) = 4 t_even(x) and its use.

    Any corrector within uniform distance of f must satisfy the
    identity exactly; a violation beyond ``doubling_tol`` raises.  The
    measured quantity 2 * sup ||f_even(2x) - 4 f_even(x)|| is then
    certified against ten times the even-part gap between f and t,
    taken over the grid and its doubled copy.
    """
    fe = even_part(f)
    te = even_part(t)
    pts = grid.points
    t_residual = _doubling_residual(te, pts, 4.0)
    if t_residual > doubling_tol:
        raise DoublingIdentityError(
            f"corrector violates the doubling identity: residual "
            f"{t_residual:.3e} > {doubling_tol:.1e}")
    measured = 2.0 * _doubling_residual(fe, pts, 4.0)
    both = np.vstack([pts, 2.0 * pts])
    gap = sup_distance(fe, te, both)
    bound = 10.0 * gap
    return {
        "corrector_doubling_residual": t_residual,
        "measured": measured,
        "even_gap": gap,
        "bound": bound,
        "slack": slack,
        "passed": measured <= bound + slack,
    }


@dataclass
class StabilityReport:
    """Everything one pipeline run measured, plus the extracted maps.

    ``bounds`` holds the verified inequalities in a fixed order;
    ``components`` the live map handles (R, R_prime, S, S_prime, T,
    T_prime, T_second and the normalized inputs), which never enter
    the serialized form; ``fingerprints`` hashes of the corrector
    values on the grid, so two runs can be compared byte for byte.
    """

    corollary: str
    relation: dict
    dim: int
    target_dim: int
    config: dict
    defects: DefectReport
    bounds: list
    iterations: dict
    necessity: dict
    diagnostics: dict
    fingerprints: dict
    components: dict = field(repr=False)
    grid: SampleGrid = field(repr=False)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.bounds if not c.informational)

    @property
    def eps_hat(self) -> float:
        return self.defects.pexider

    def bound(self, name: str) -> BoundCheck:
        for c in self.bounds:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "corollary": self.corollary,
            "relation": self.relation,
            "dim": self.dim,
            "target_dim": self.target_dim,
            "config": self.config,
            "defects": self.defects.to_dict(),
            "passed": self.passed,
            "bounds": [c.to_dict() for c in self.bounds],
            "iterations": self.iterations,
            "necessity": self.necessity,
            "diagnostics": self.diagnostics,
            "fingerprints": self.fingerprints,
        }


def _fingerprint(arr: np.ndarray) -> str:
    # a memoryview hands out Python floats one at a time: faster to
    # format than NumPy scalars, with no list of them all held at once
    values = memoryview(np.ascontiguousarray(arr, float).ravel())
    text = ",".join(map("{:.17g}".format, values))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def closure_pairs(pairs: np.ndarray, grid: SampleGrid) -> np.ndarray:
    """Close a pair set under the operations the measurements rely on.

    Adds the mirror (-x, -y) of every pair (orthogonal by scaling
    invariance), the pair (0, 0), and the one-sided pairs (+-u, 0) and
    (0, +-u) for every nonzero grid point (orthogonal since zero is
    orthogonal to everything).  On the closed set the parity-projected
    residuals and both mean-comparison distances are controlled by the
    measured defect pointwise, not just heuristically.
    """
    pts = grid.points[1:]
    zero = np.zeros_like(pts)
    one_sided = np.stack([np.concatenate([pts, -pts, zero, zero]),
                          np.concatenate([zero, zero, pts, -pts])], axis=1)
    zero_pair = np.zeros((1, 2, grid.dim))
    return np.concatenate([pairs, -pairs, zero_pair, one_sided], axis=0)


def _require_compatible(rel: OrthoRelation):
    if not rel.is_symmetric:
        raise ValueError(
            "the pipeline needs a symmetric relation (pairs are used in "
            "both roles); wrap the relation with symmetrize_relation first")


def _require_same_space(maps: Sequence[MapHandle]):
    s = {(m.source_dim, m.target_dim) for m in maps}
    if len(s) != 1:
        raise ValueError("all four maps must share source and target dims")


def _split_witness_points(rel: OrthoRelation, grid: SampleGrid,
                          cfg: PipelineConfig) -> np.ndarray:
    pts = grid.points[1:]
    if rel.kind == "birkhoff_james" and rel.norm.kind in ("l1", "linf"):
        step = max(1, len(pts) // cfg.split_subsample)
        return pts[::step][:cfg.split_subsample]
    return pts


def _joint_even_doubling(rel: OrthoRelation, Fe: MapHandle, Ge: MapHandle,
                         pts: np.ndarray) -> np.ndarray:
    """Rows (Fe(2*y0) - 4 Fe(y0)) + (Ge(2x) - 4 Ge(x)), shaped
    (m, 1, target_dim), one for each of the m points x in pts that have
    a split witness y0 at scaling 1."""
    y0 = thalesian_solve(rel, pts, 1.0)
    split = ~np.isnan(y0).any(axis=1)
    # a stack of (1, dim) rows: each point is evaluated as a batch of its
    # own, so every map rounds it as it would alone
    ys = y0[split][:, None, :]
    xs = pts[split][:, None, :]
    return Fe(2.0 * ys) - 4.0 * Fe(ys) + Ge(2.0 * xs) - 4.0 * Ge(xs)


def _run_pipeline(rel: OrthoRelation, f: MapHandle, g: MapHandle,
                  h: MapHandle, k: MapHandle, cfg: PipelineConfig,
                  coeffs: dict, corollary: str) -> StabilityReport:
    _require_compatible(rel)
    _require_same_space([f, g, h, k])
    dim = f.source_dim

    pairs = sample_orthogonal_pairs(rel, dim, cfg.pair_count,
                                    radius=cfg.radius, seed=cfg.seed)
    grid = make_grid(dim, cfg.grid_count, cfg.radius, cfg.seed + 1)
    closed = closure_pairs(pairs, grid)

    eps = pexider_defect(f, g, h, k, closed)
    defects = DefectReport(
        pexider=eps,
        even_doubling=doubling_defect(f, grid),
        literal_mixed_parity=mixed_parity_defect(f, grid),
    )

    parts = derive_normalized_parts(f, g, h, k)

    def gap(a: MapHandle, b: MapHandle) -> float:
        return sup_distance(a, b, grid, cap=cfg.cap)

    # distance name -> measured value, in the order of MAIN_BOUND_COEFFS
    measured: dict[str, float | None] = {
        "shifted_residual": pexider_defect(
            parts.F, parts.G, parts.H, parts.K, closed),
        "odd_part_residual": pexider_defect(
            parts.Fo, parts.Go, parts.Ho, parts.Ko, closed),
        "even_part_residual": pexider_defect(
            parts.Fe, parts.Ge, parts.He, parts.Ke, closed),
        "f_odd_vs_mean": gap(parts.Fo, parts.Lo),
        "even_sum_vs_mean": gap(map_sum(parts.Fe, parts.Ge), parts.Le),
    }

    iterations: dict[str, dict] = {}
    limits = []
    for name, phi, extractor in (("R", parts.Fo, extract_odd),
                                 ("R_prime", parts.Go, extract_odd),
                                 ("S", parts.Fe, extract_even),
                                 ("S_prime", parts.Ge, extract_even)):
        limit, res = extractor(phi, grid, tol=cfg.tol, n_max=cfg.n_max,
                               cap=cfg.cap)
        if res.verdict != "converged":
            raise DivergenceError(name, res)
        limits.append(limit)
        iterations[name] = {
            "verdict": res.verdict,
            "lam": res.lam,
            "n_steps": res.n_steps,
            "apriori": apriori_bound(phi, ScalingOperator(res.lam), grid),
            "final_distance": gap(phi, limit),
            "per_step_distances": res.per_step_distances,
            "raw_gaps": res.raw_gaps,
        }
    r, r2, s, s2 = limits
    t = map_sum(r, s, label="T")
    t2 = map_sum(r2, s2, label="T_prime")
    # even summands first: mirrors the evaluation order of h + k
    t3 = map_sum(map_scale(2.0, s), map_scale(2.0, s2), map_scale(2.0, r),
                 label="T_second")

    witnesses = _split_witness_points(rel, grid, cfg)
    joint = _joint_even_doubling(rel, parts.Fe, parts.Ge, witnesses)
    measured.update({
        "f_odd_gap": gap(parts.Fo, r),
        "g_odd_gap": gap(parts.Go, r2),
        "mean_odd_gap": gap(parts.Lo, r),
        # left out of the bounds when no witness split
        "joint_even_doubling": (
            _max_row_norm(joint, "the joint doubling defect")
            if len(joint) else None),
        "g_even_doubling": _doubling_residual(parts.Ge, grid.points, 4.0),
        "g_even_gap": gap(parts.Ge, s2),
        "f_even_gap": gap(parts.Fe, s),
        "mean_even_gap": gap(parts.Le, map_sum(s, s2)),
        "f_total_gap": gap(parts.F, t),
        "g_total_gap": gap(parts.G, t2),
        "hk_total_gap": gap(map_sum(parts.H, parts.K), t3),
    })
    bounds = [_check(name, coeff, measured[name], eps, cfg.verdict_rtol)
              for name, coeff in coeffs.items()
              if measured[name] is not None]

    components = {
        "R": r, "R_prime": r2, "S": s, "S_prime": s2,
        "T": t, "T_prime": t2, "T_second": t3,
        "F": parts.F, "G": parts.G, "H": parts.H, "K": parts.K,
        "L": parts.L,
    }

    # diagnostics: never gated, reported for inspection
    fresh = sample_orthogonal_pairs(rel, dim, cfg.pair_count,
                                    radius=cfg.radius,
                                    seed=cfg.seed + cfg.fresh_pair_offset)
    fx, fy = fresh[:, 0, :], fresh[:, 1, :]
    odd_add = _max_row_norm(r(fx + fy) - r(fx) - r(fy),
                            "orthogonal additivity of R")
    even_quad = _max_row_norm(
        s(fx + fy) + s(fx - fy) - 2.0 * s(fx) - 2.0 * s(fy),
        "the orthogonal quadratic identity of S")
    diagnostics = {
        "orthogonal_additivity_of_R": odd_add,
        "orthogonal_quadratic_identity_of_S": even_quad,
        "scaling_residuals": {
            "R": _doubling_residual(r, grid.points, 2.0),
            "R_prime": _doubling_residual(r2, grid.points, 2.0),
            "S": _doubling_residual(s, grid.points, 4.0),
            "S_prime": _doubling_residual(s2, grid.points, 4.0),
        },
        "parity_residuals": {
            "F_odd": _max_row_norm(
                parts.Fo(grid.points) + parts.Fo(-grid.points),
                "oddness of F's odd part"),
            "F_even": _max_row_norm(
                parts.Fe(grid.points) - parts.Fe(-grid.points),
                "evenness of F's even part"),
        },
        "split_witness_attempts": len(witnesses),
        "split_witness_failures": len(witnesses) - len(joint),
        "closure_pair_count": int(closed.shape[0]),
    }

    # T's even part is S's limit lam^n*phi0(2^n x) with lam = 1/4, so its
    # doubling residual is exactly 4 times S's last raw gap (powers of
    # two scale without rounding), and S stopped at a gap of at most
    # cfg.tol; verdict_rtol is the rounding slack the bounds get too
    necessity = necessity_check(
        parts.F, t, grid,
        doubling_tol=4.0 * cfg.tol * (1.0 + cfg.verdict_rtol))
    fingerprints = {
        "grid": _fingerprint(grid.points),
        "T": _fingerprint(t(grid.points)),
        "T_prime": _fingerprint(t2(grid.points)),
        "T_second": _fingerprint(t3(grid.points)),
    }

    return StabilityReport(
        corollary=corollary,
        relation=relation_descriptor(rel),
        dim=dim,
        target_dim=f.target_dim,
        config=asdict(cfg),
        defects=defects,
        bounds=bounds,
        iterations=iterations,
        necessity=necessity,
        diagnostics=diagnostics,
        fingerprints=fingerprints,
        components=components,
        grid=grid,
    )


def run_main_theorem(rel: OrthoRelation, f: MapHandle, g: MapHandle,
                     h: MapHandle, k: MapHandle,
                     config: PipelineConfig | None = None) -> StabilityReport:
    """Run the full pipeline on a quadruple over the given relation."""
    cfg = config if config is not None else PipelineConfig()
    return _run_pipeline(rel, f, g, h, k, cfg, MAIN_BOUND_COEFFS, "main")


def run_cauchy_corollary(rel: OrthoRelation, f: MapHandle, h: MapHandle,
                         k: MapHandle,
                         config: PipelineConfig | None = None
                         ) -> StabilityReport:
    """The additive specialization: g = 0, sharper coefficients.

    Beside the tightened normative bounds (14, 16, 32, 72) the report
    carries an informational check of h + k against 16 eps, which holds
    for the ideal corrector but is not guaranteed for the extracted
    one.
    """
    cfg = config if config is not None else PipelineConfig()
    coeffs = {**MAIN_BOUND_COEFFS, **ADDITIVE_CASE_COEFFS}
    g = zero_map(f.source_dim, f.target_dim)
    report = _run_pipeline(rel, f, g, h, k, cfg, coeffs, "cauchy")
    report.bounds.append(_check(
        "hk_total_gap_statement", 16.0, report.bound("hk_total_gap").measured,
        report.eps_hat, cfg.verdict_rtol, informational=True))
    return report


def run_quadratic_corollary(rel: OrthoRelation, q: MapHandle,
                            config: PipelineConfig | None = None,
                            contaminant: MapHandle | None = None
                            ) -> StabilityReport:
    """The purely quadratic specialization: f = g = q, h = k = 2q.

    Adds a normative check that the additive extract is negligible
    (at most 18 eps), which is what forces the corrector to be a
    single quadratic map.  ``contaminant`` is added to q before the
    run; a fast-growing contaminant drives the even extraction to a
    divergence verdict.
    """
    cfg = config if config is not None else PipelineConfig()
    if contaminant is not None:
        q = map_sum(q, contaminant, label="Q+contaminant")
    h = map_scale(2.0, q, label="2Q")
    report = _run_pipeline(rel, q, q, h, h, cfg, MAIN_BOUND_COEFFS,
                           "quadratic")
    report.bounds.append(_check(
        "additive_component_size", 18.0,
        sup_norm(report.components["R"], report.grid, cap=cfg.cap),
        report.eps_hat, cfg.verdict_rtol))
    return report


def run_inner_product_corollary(f: MapHandle, g: MapHandle, h: MapHandle,
                                k: MapHandle,
                                config: PipelineConfig | None = None
                                ) -> StabilityReport:
    """The pipeline over euclidean orthogonality, dimension >= 3.

    In dimensions 1 and 2 the euclidean relation lacks the splitting
    structure the argument consumes, so those are rejected outright.
    """
    if f.source_dim < 3:
        raise ValueError(
            "the inner-product specialization needs dimension >= 3")
    cfg = config if config is not None else PipelineConfig()
    rel = inner_product_relation()
    return _run_pipeline(rel, f, g, h, k, cfg, MAIN_BOUND_COEFFS,
                         "inner_product")
