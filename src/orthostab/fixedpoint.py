"""Contractive rescaling operators and their Picard iteration.

The operators of interest act on maps vanishing at the origin by
(J phi)(x) = lam * phi(2x) with a fixed contraction factor lam in
(0, 1); the values lam = 1/2 and lam = 1/4 extract the additive and
quadratic components of a perturbed map.  Distances between maps are
capped sup distances over a sample grid, extended dyadically: the n-th
Picard iterate J^n phi only ever needs phi's values on 2^n times the
grid, so the iteration walks outward through doubled copies of the
base points instead of ever composing callables n levels deep.

``iterate_lockstep`` advances several (operator, phi0) pairs level by
level over one grid: every run still on the ladder is evaluated on the
same point array 2^n * grid from ``scaled_points``, in the caller's
evaluation scope, so a leaf map that several phi0 share (both parities
of one noise map, the quadratic part of f and of g) is evaluated once
per level.  The scope keeps the leaf values on the grid and the
doubled grid, drops each higher level once climbed, and is handed each
converged run's phi0 values on its stop level 2^n * grid and the level
above, where its limit and the limit's doubling residual read them.  A
run leaves the ladder when it stops or when evaluating its phi0
raises; the others go on.  ``iterate`` is its one-run case.
``apriori_bound`` reads d(phi, J phi) off a run's first gap, which the
ladder has already measured.

A run reports three verdicts.  "converged" means the gap between
consecutive iterates fell below tolerance; "diverged" means the gap
blew past DEFAULT_CAP (the alternative branch of the fixed-point
dichotomy, reached e.g. for cubic-order growth);
"iteration-budget-exhausted" means neither happened within n_max steps.

Since lam is typically a power of two, multiplying by lam is exact in
binary floating point, and the reported per-step distances decay by a
factor of exactly lam or better, step over step, by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# sup_distance stays imported: perfbench/tracing.py patches it here by name
from .funcspace import (DEFAULT_CAP, INFINITE, EvaluationError, MapHandle,
                        SampleGrid, hand_over, release_scaled,
                        scaled_points, sup_distance)
from .orthogonality import max_row_norm

__all__ = [
    "ScalingOperator",
    "IterationResult",
    "iterate",
    "iterate_lockstep",
    "apriori_bound",
]


@dataclass(frozen=True)
class ScalingOperator:
    """(J phi)(x) = lam * phi(2x), contraction factor lam."""

    lam: float

    def __post_init__(self):
        if not (0.0 < self.lam < 1.0):
            raise ValueError("lam must lie in (0, 1)")


@dataclass
class IterationResult:
    """Outcome of a Picard run: verdict, limit handle, and diagnostics.

    ``per_step_distances[n]`` bounds the distance from the n-th iterate
    to the final one over the dyadically extended sample set; it decays
    at least geometrically with ratio lam.  ``raw_gaps[n]`` is the
    plain consecutive-iterate gap lam^n * c_n, which is the quantity
    that exposes divergence (it grows when the input is incompatible
    with the operator's scaling).
    """

    verdict: str
    n_steps: int
    lam: float
    limit: MapHandle | None
    per_step_distances: list
    raw_gaps: list


def iterate(op: ScalingOperator, phi0: MapHandle, grid: SampleGrid,
            tol: float = 1e-10, n_max: int = 40) -> IterationResult:
    """Run the Picard iteration of op from phi0 over the grid.

    The consecutive gap at level n is lam^n * c_n with
    c_n = sup over 2^n-scaled grid of ||phi0(u) - lam * phi0(2u)||;
    no composed callables are built, only phi0 evaluations at doubled
    points.  The returned limit is phi0 itself when convergence occurs
    at level 0, otherwise the handle x -> lam^n * phi0(2^n x) with
    phi0's parity, which is the numerically converged iterate.
    """
    (out,) = iterate_lockstep([(op, phi0)], grid, tol=tol, n_max=n_max)
    if isinstance(out, Exception):
        raise out
    return out


def iterate_lockstep(runs: Sequence[tuple[ScalingOperator, MapHandle]],
                     grid: SampleGrid, tol: float = 1e-10,
                     n_max: int = 40) -> list:
    """Run the Picard iterations of several (op, phi0) pairs in lockstep.

    Each run goes through exactly the steps ``iterate`` describes, with
    the same arithmetic, so its result does not depend on the other
    runs.  Level n evaluates every run still going on one shared array
    2^n * grid, in the open evaluation scope if there is one.  Returns,
    in the order of ``runs``, each run's IterationResult or the
    exception that run raised (an unanchored phi0, non-finite values),
    so that a caller can report the failures in the order it would have
    met them one run at a time.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise ValueError("tol must be positive and finite")
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")

    pts = grid.points
    count = len(runs)
    # per run: its outcome (a verdict or an exception; None while it
    # goes on), its last iterate's values, c_n so far and lam^n
    outcome: list = [None] * count
    cur: list = [None] * count
    raw_c: list = [[] for _ in runs]
    lam_pow = [1.0] * count
    n_stop = [n_max] * count
    above: list = [None] * count
    for i, (_, phi0) in enumerate(runs):
        try:
            if phi0.value_at_zero.any():
                raise ValueError(
                    f"operator domain requires phi(0) = 0, got map "
                    f"{phi0.label!r} with a nonzero value at the origin")
            cur[i] = _finite(phi0(pts), "base grid")
        except Exception as err:
            outcome[i] = err
    for n in range(n_max + 1):
        going = [i for i in range(count) if outcome[i] is None]
        if not going:
            break
        level = scaled_points(2.0 ** (n + 1), pts)
        for i in going:
            op, phi0 = runs[i]
            try:
                nxt = _finite(phi0(level), f"level-{n + 1} grid")
            except Exception as err:
                outcome[i] = err
                continue
            diff = cur[i] - op.lam * nxt
            c_n = max_row_norm(diff)
            raw_c[i].append(c_n)
            gap = lam_pow[i] * c_n
            if gap <= tol:
                outcome[i], n_stop[i], above[i] = "converged", n, nxt
            elif gap > DEFAULT_CAP:
                outcome[i], n_stop[i] = "diverged", n
            else:
                cur[i] = nxt
                lam_pow[i] = lam_pow[i] * op.lam
        if n > 0:
            # past the doubled grid, only this step reads a level's leaves
            release_scaled(2.0 ** (n + 1), pts)
    for i, (_, phi0) in enumerate(runs):
        if outcome[i] == "converged":
            n = n_stop[i]
            hand_over(phi0, scaled_points(2.0 ** n, pts), cur[i])
            hand_over(phi0, scaled_points(2.0 ** (n + 1), pts), above[i])
    results = []
    for (op, phi0), out, c, stop in zip(runs, outcome, raw_c, n_stop):
        if out is None:
            out = "iteration-budget-exhausted"
        results.append(out if isinstance(out, Exception)
                       else _result(op, phi0, c, out, stop, n_max))
    return results


def _finite(vals: np.ndarray, where: str) -> np.ndarray:
    if not np.isfinite(vals).all():
        raise EvaluationError(f"phi0 is non-finite on the {where}")
    return vals


def _result(op: ScalingOperator, phi0: MapHandle, raw_c: list,
            verdict: str, n_stop: int, n_max: int) -> IterationResult:
    lam = op.lam
    # suffix maxima turn consecutive gaps into distances to the final
    # iterate over the doubled sample set; lam^n scaling is exact for
    # power-of-two lam, so the geometric-decay invariant holds exactly
    suffix = list(raw_c)
    for i in range(len(suffix) - 2, -1, -1):
        suffix[i] = max(suffix[i], suffix[i + 1])
    per_step: list[float] = []
    raw_gaps: list[float] = []
    pw = 1.0
    for m, c in zip(suffix, raw_c):
        per_step.append(pw * m)
        raw_gaps.append(pw * c)
        pw = pw * lam

    if verdict == "diverged":
        limit = None
    elif n_stop == 0 and verdict == "converged":
        limit = phi0
    else:
        n_lim = n_stop if verdict == "converged" else n_max
        factor = lam ** n_lim
        scale = 2.0 ** n_lim
        limit = MapHandle(
            lambda p, _f=phi0, _a=factor, _s=scale:
            _a * _f(scaled_points(_s, p)),
            phi0.source_dim, phi0.target_dim,
            label=f"limit[{phi0.label}]", parity=phi0.parity,
            _derived=True)
    return IterationResult(verdict, n_stop, lam, limit, per_step, raw_gaps)


def apriori_bound(res: IterationResult) -> float:
    """A run's a-priori estimate d(phi0, J phi0) / (1 - lam).

    On the grid, d(phi0, J phi0) is the run's first raw gap, so no map
    is evaluated; past DEFAULT_CAP the estimate is INFINITE.  It bounds
    the distance from phi0 to its limit whenever the run converges.
    """
    c0 = res.raw_gaps[0]
    return INFINITE if c0 > DEFAULT_CAP else c0 / (1.0 - res.lam)
