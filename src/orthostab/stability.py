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
sharper coefficients 14, 16, 32 and 72) and the purely quadratic case
(f = g even, h = k = 2f, with the additive extract certified to be
small); each appends one check of its own after the table's.  The
inner-product case is ``run_main_theorem`` over
``inner_product_relation()``.  A necessity check verifies the doubling
identity that any corrector must satisfy.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .fixedpoint import (IterationResult, apriori_bound, iterate,
                         iterate_lockstep)
from .funcspace import (DEFAULT_CAP, EvaluationError, MapHandle, SampleGrid,
                        evaluation_scope, even_part, make_grid, map_scale,
                        map_sum, odd_part, scaled_points, shift_to_zero,
                        sup_distance, sup_norm, zero_map)
from .orthogonality import (OrthoRelation, max_row_norm,
                            relation_descriptor, sample_orthogonal_pairs,
                            thalesian_solve)

__all__ = [
    "MAIN_BOUND_COEFFS",
    "ADDITIVE_CASE_COEFFS",
    "PipelineConfig",
    "BoundCheck",
    "DefectReport",
    "StabilityReport",
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
    "necessity_check",
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

VERDICT_RTOL = 1e-9  # relative slack of every bound check
FRESH_PAIR_OFFSET = 7919  # seed offset of the fresh diagnostic pairs
SPLIT_SUBSAMPLE = 32  # split witnesses taken for an l1/linf relation


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
    """Knobs for one pipeline run; defaults match the command line.

    A report's ``config`` echoes these fields, then the fixed settings
    ``cap`` (DEFAULT_CAP), ``verdict_rtol``, ``fresh_pair_offset`` and
    ``split_subsample``.
    """

    pair_count: int = 512
    grid_count: int = 256
    radius: float = 8.0
    seed: int = 42
    tol: float = 1e-10
    n_max: int = 40

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
           informational: bool = False) -> BoundCheck:
    bound = coeff * eps
    if measured == 0.0:
        ratio = 0.0
    elif bound == 0.0:
        ratio = math.inf
    else:
        ratio = measured / bound
    passed = measured <= bound * (1.0 + VERDICT_RTOL)
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
        sup = max_row_norm(arr)
    if not math.isfinite(sup):
        raise EvaluationError(f"non-finite values measuring {what}")
    return sup


def _slot_residuals(quads: list, pairs: np.ndarray) -> list[np.ndarray]:
    """Rows ((f(x+y) + g(x-y)) - h(x)) - k(y) for each (f, g, h, k).

    One pass over the slots x+y, x-y, x, y, each built when reached and
    read in a scope of its own, where the quadruples share their leaf
    evaluations; each value is folded into its running sum in place.
    """
    xs, ys = pairs[:, 0, :], pairs[:, 1, :]
    slots = ((None, lambda: xs + ys), (np.add, lambda: xs - ys),
             (np.subtract, lambda: xs), (np.subtract, lambda: ys))
    sums = []
    for j, (fold, points) in enumerate(slots):
        pts = points()
        with evaluation_scope():
            for i, quad in enumerate(quads):
                if fold is None:
                    # a copy: a leaf hands out the scope's stored value
                    sums.append(np.array(quad[j](pts)))
                else:
                    fold(sums[i], quad[j](pts), out=sums[i])
    return sums


def pexider_defect(f: MapHandle, g: MapHandle, h: MapHandle, k: MapHandle,
                   pairs: np.ndarray) -> float:
    """sup over pairs of ||f(x+y) + g(x-y) - h(x) - k(y)||, as a slot pass."""
    (res,) = _slot_residuals([(f, g, h, k)], np.asarray(pairs, dtype=float))
    return _max_row_norm(res, "the equation residual")


def _doubling_residual(phi: MapHandle, pts: np.ndarray,
                       factor: float) -> float:
    vals = phi(scaled_points(2.0, pts)) - factor * phi(pts)
    return _max_row_norm(vals, f"{phi.label!r} doubling residual")


def doubling_defect(f: MapHandle, grid: SampleGrid) -> float:
    """2 * sup over the grid of ||f_even(2x) - 4 f_even(x)||."""
    return 2.0 * _doubling_residual(even_part(f), grid.points, 4.0)


def mixed_parity_defect(f: MapHandle, grid: SampleGrid) -> float:
    """sup of ||f(2x) - f(-2x) - 4f(x) - 4f(-x)||, no parity projection."""
    pts = grid.points
    vals = (f(scaled_points(2.0, pts)) - f(scaled_points(-2.0, pts))
            - 4.0 * f(pts) - 4.0 * f(scaled_points(-1.0, pts)))
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
                n_max: int = 40):
    """Additive extraction: Picard limit under phi -> phi(2x)/2."""
    res = iterate(0.5, phi, grid, tol=tol, n_max=n_max)
    return res.limit, res


def extract_even(phi: MapHandle, grid: SampleGrid, tol: float = 1e-10,
                 n_max: int = 40):
    """Quadratic extraction: Picard limit under phi -> phi(2x)/4."""
    res = iterate(0.25, phi, grid, tol=tol, n_max=n_max)
    return res.limit, res


def necessity_check(f: MapHandle, t: MapHandle, grid: SampleGrid,
                    doubling_tol: float) -> dict:
    """Verify the doubling identity t_even(2x) = 4 t_even(x) and its use.

    Any corrector within uniform distance of f must satisfy the
    identity exactly; a violation beyond ``doubling_tol`` raises.  The
    measured quantity 2 * sup ||f_even(2x) - 4 f_even(x)|| is then
    certified against ten times the even-part gap between f and t over
    the grid and its doubled copy, plus an absolute slack of 1e-9.
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
    # one batch: a matmul's bits depend on it, so the stack's values are
    # not the grid halves'; read once, it is not stored
    with evaluation_scope(store=False):
        gap = sup_distance(fe, te, np.vstack([pts, 2.0 * pts]))
    bound = 10.0 * gap
    slack = 1e-9
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
    # one %-format call spells every value as "{:.17g}" does, comma-joined
    values = np.ascontiguousarray(arr, float).ravel().tolist()
    text = ("%.17g," * len(values) % tuple(values))[:-1]
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


def _split_witness_points(rel: OrthoRelation, grid: SampleGrid) -> np.ndarray:
    pts = grid.points[1:]
    if rel.polyhedral:
        step = max(1, len(pts) // SPLIT_SUBSAMPLE)
        return pts[::step][:SPLIT_SUBSAMPLE]
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
    """One pipeline run; the main theorem and its corollaries share it.

    eps and the odd, the even and (when the shift moved a map) the
    shifted residual take the closure pairs' slots x+y, x-y, x and y in
    one pass, a scope per slot.  All later measurements share one grid
    scope, from the defect diagnostics (a failure of theirs is reported
    after one of eps, before the residuals') through the necessity
    check; the extractions' ladder hands it their values, so each leaf
    map is read once per grid point set.  A failed extraction is raised
    for the first of R, R', S, S' that fails, with the error one run
    after another would give.  One-shot point sets (the split witnesses,
    the fresh pairs) are read in blocks that store nothing.
    """
    if not rel.is_symmetric:
        raise ValueError(
            "the pipeline needs a symmetric relation (pairs are used in "
            "both roles); wrap the relation with symmetrize_relation first")
    if len({(m.source_dim, m.target_dim) for m in (f, g, h, k)}) != 1:
        raise ValueError("all four maps must share source and target dims")
    dim = f.source_dim

    pairs = sample_orthogonal_pairs(rel, dim, cfg.pair_count,
                                    radius=cfg.radius, seed=cfg.seed)
    grid = make_grid(dim, cfg.grid_count, cfg.radius, cfg.seed + 1)
    closed = closure_pairs(pairs, grid)

    parts = derive_normalized_parts(f, g, h, k)
    shifted = (parts.F, parts.G, parts.H, parts.K)
    # the shifted quadruple is the input itself when every map already
    # vanishes at 0, and then its residual is eps.  The projections go
    # first: a full map reads only leaves they have stored by then
    unshifted = all(a is b for a, b in zip(shifted, (f, g, h, k)))
    quads = [(parts.Fo, parts.Go, parts.Ho, parts.Ko),
             (parts.Fe, parts.Ge, parts.He, parts.Ke), (f, g, h, k), shifted]
    rows = _slot_residuals(quads[:3] if unshifted else quads, closed)
    what = "the equation residual"
    eps = _max_row_norm(rows[2], what)
    with evaluation_scope():
        defects = DefectReport(
            pexider=eps,
            even_doubling=doubling_defect(f, grid),
            literal_mixed_parity=mixed_parity_defect(f, grid),
        )
        # distance name -> measured value, in the order of the bounds
        measured: dict[str, float | None] = {
            "shifted_residual": (eps if unshifted else
                                 _max_row_norm(rows[3], what)),
            "odd_part_residual": _max_row_norm(rows[0], what),
            "even_part_residual": _max_row_norm(rows[1], what),
        }
        del rows

        def gap(a: MapHandle, b: MapHandle) -> float:
            return sup_distance(a, b, grid)

        extractions = (("R", parts.Fo, 0.5), ("R_prime", parts.Go, 0.5),
                       ("S", parts.Fe, 0.25), ("S_prime", parts.Ge, 0.25))
        outcomes = iterate_lockstep(
            [(lam, phi) for _, phi, lam in extractions],
            grid, tol=cfg.tol, n_max=cfg.n_max)
        for (name, _, _), res in zip(extractions, outcomes):
            if isinstance(res, Exception):
                raise res
            if res.verdict != "converged":
                raise DivergenceError(name, res)
        r, r2, s, s2 = (res.limit for res in outcomes)
        t = map_sum(r, s, label="T")
        t2 = map_sum(r2, s2, label="T_prime")
        # even summands first: mirrors the evaluation order of h + k
        t3 = map_sum(map_scale(2.0, s), map_scale(2.0, s2),
                     map_scale(2.0, r), label="T_second")

        witnesses = _split_witness_points(rel, grid)
        with evaluation_scope(store=False):
            joint = _joint_even_doubling(rel, parts.Fe, parts.Ge, witnesses)

        pts = grid.points
        iterations = {
            name: {
                "verdict": res.verdict,
                "lam": res.lam,
                "n_steps": res.n_steps,
                "apriori": apriori_bound(res),
                "final_distance": gap(phi, res.limit),
                "per_step_distances": res.per_step_distances,
                "raw_gaps": res.raw_gaps,
            }
            for (name, phi, _), res in zip(extractions, outcomes)}
        measured.update({
            "f_odd_vs_mean": gap(parts.Fo, parts.Lo),
            "even_sum_vs_mean": gap(map_sum(parts.Fe, parts.Ge), parts.Le),
            # each extract's gap to its input is its final_distance
            "f_odd_gap": iterations["R"]["final_distance"],
            "g_odd_gap": iterations["R_prime"]["final_distance"],
            "mean_odd_gap": gap(parts.Lo, r),
            # left out of the bounds when no witness split
            "joint_even_doubling": (
                _max_row_norm(joint, "the joint doubling defect")
                if len(joint) else None),
            "g_even_doubling": _doubling_residual(parts.Ge, pts, 4.0),
            "g_even_gap": iterations["S_prime"]["final_distance"],
            "f_even_gap": iterations["S"]["final_distance"],
            "mean_even_gap": gap(parts.Le, map_sum(s, s2)),
            "f_total_gap": gap(parts.F, t),
            "g_total_gap": gap(parts.G, t2),
            "hk_total_gap": gap(map_sum(parts.H, parts.K), t3),
            # checked by the quadratic corollary only
            "additive_component_size": sup_norm(r, grid),
        })
        parity_residuals = {
            "F_odd": _max_row_norm(
                parts.Fo(pts) + parts.Fo(scaled_points(-1.0, pts)),
                "oddness of F's odd part"),
            "F_even": _max_row_norm(
                parts.Fe(pts) - parts.Fe(scaled_points(-1.0, pts)),
                "evenness of F's even part"),
        }
        fingerprints = {
            "grid": _fingerprint(pts),
            "T": _fingerprint(t(pts)),
            "T_prime": _fingerprint(t2(pts)),
            "T_second": _fingerprint(t3(pts)),
        }
        bounds = [_check(name, coeff, measured[name], eps)
                  for name, coeff in coeffs.items()
                  if measured[name] is not None]

        # diagnostics: never gated, reported for inspection
        fresh = sample_orthogonal_pairs(rel, dim, cfg.pair_count,
                                        radius=cfg.radius,
                                        seed=cfg.seed + FRESH_PAIR_OFFSET)
        fx, fy = fresh[:, 0, :], fresh[:, 1, :]
        with evaluation_scope(store=False):
            odd_add = _max_row_norm(r(fx + fy) - r(fx) - r(fy),
                                    "orthogonal additivity of R")
            even_quad = _max_row_norm(
                s(fx + fy) + s(fx - fy) - 2.0 * s(fx) - 2.0 * s(fy),
                "the orthogonal quadratic identity of S")
        diagnostics = {
            "orthogonal_additivity_of_R": odd_add,
            "orthogonal_quadratic_identity_of_S": even_quad,
            "scaling_residuals": {
                "R": _doubling_residual(r, pts, 2.0),
                "R_prime": _doubling_residual(r2, pts, 2.0),
                "S": _doubling_residual(s, pts, 4.0),
                "S_prime": _doubling_residual(s2, pts, 4.0),
            },
            "parity_residuals": parity_residuals,
            "split_witness_attempts": len(witnesses),
            "split_witness_failures": len(witnesses) - len(joint),
            "closure_pair_count": int(closed.shape[0]),
        }

        # T's even part is S's limit lam^n*phi0(2^n x) with lam = 1/4, so
        # its doubling residual is exactly 4 times S's last raw gap
        # (powers of two scale without rounding), and S stopped at a gap
        # of at most cfg.tol; VERDICT_RTOL is the slack the bounds get
        necessity = necessity_check(
            parts.F, t, grid,
            doubling_tol=4.0 * cfg.tol * (1.0 + VERDICT_RTOL))

    return StabilityReport(
        corollary=corollary,
        relation=relation_descriptor(rel),
        dim=dim,
        target_dim=f.target_dim,
        config={**asdict(cfg), "cap": DEFAULT_CAP,
                "verdict_rtol": VERDICT_RTOL,
                "fresh_pair_offset": FRESH_PAIR_OFFSET,
                "split_subsample": SPLIT_SUBSAMPLE},
        defects=defects,
        bounds=bounds,
        iterations=iterations,
        necessity=necessity,
        diagnostics=diagnostics,
        fingerprints=fingerprints,
        components={
            "R": r, "R_prime": r2, "S": s, "S_prime": s2,
            "T": t, "T_prime": t2, "T_second": t3,
            "F": parts.F, "G": parts.G, "H": parts.H, "K": parts.K,
            "L": parts.L,
        },
        grid=grid,
    )


def run_main_theorem(rel: OrthoRelation, f: MapHandle, g: MapHandle,
                     h: MapHandle, k: MapHandle,
                     config: PipelineConfig = PipelineConfig()
                     ) -> StabilityReport:
    """Run the full pipeline on a quadruple over the given relation."""
    return _run_pipeline(rel, f, g, h, k, config, MAIN_BOUND_COEFFS, "main")


def run_cauchy_corollary(rel: OrthoRelation, f: MapHandle, h: MapHandle,
                         k: MapHandle,
                         config: PipelineConfig = PipelineConfig()
                         ) -> StabilityReport:
    """The additive specialization: g = 0, sharper coefficients.

    Beside the tightened normative bounds (14, 16, 32, 72) the report
    carries an informational check of h + k against 16 eps, which holds
    for the ideal corrector but is not guaranteed for the extracted
    one.
    """
    coeffs = {**MAIN_BOUND_COEFFS, **ADDITIVE_CASE_COEFFS}
    g = zero_map(f.source_dim, f.target_dim)
    report = _run_pipeline(rel, f, g, h, k, config, coeffs, "cauchy")
    report.bounds.append(_check(
        "hk_total_gap_statement", 16.0, report.bound("hk_total_gap").measured,
        report.eps_hat, informational=True))
    return report


def run_quadratic_corollary(rel: OrthoRelation, q: MapHandle,
                            config: PipelineConfig = PipelineConfig(),
                            contaminant: MapHandle | None = None
                            ) -> StabilityReport:
    """The purely quadratic specialization: f = g = q, h = k = 2q.

    Adds a normative check that the additive extract is negligible
    (at most 18 eps), which is what forces the corrector to be a
    single quadratic map.  ``contaminant`` is added to q before the
    run; a fast-growing contaminant drives the even extraction to a
    divergence verdict.
    """
    if contaminant is not None:
        q = map_sum(q, contaminant, label="Q+contaminant")
    h = map_scale(2.0, q, label="2Q")
    coeffs = {**MAIN_BOUND_COEFFS, "additive_component_size": 18.0}
    return _run_pipeline(rel, q, q, h, h, config, coeffs, "quadratic")
