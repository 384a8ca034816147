"""Contractive rescaling operators and their Picard iteration.

The operators of interest act on maps vanishing at the origin by
(J phi)(x) = lam * phi(2x) with a fixed contraction factor lam in
(0, 1); the values lam = 1/2 and lam = 1/4 extract the additive and
quadratic components of a perturbed map.  Distances between maps are
capped sup distances over a sample grid, extended dyadically: the n-th
Picard iterate J^n phi only ever needs phi's values on 2^n times the
grid, so the iteration walks outward through doubled copies of the
base points instead of ever composing callables n levels deep.

``iterate_lockstep`` advances several (operator, phi0) pairs together
over one grid.  Each step evaluates every run still on the ladder once,
on one shared point array, so a leaf map that several phi0 share (both
parities of one noise map, the quadratic part of f and of g) is
evaluated once per step.  Step one reads the doubled grid from
``scaled_points`` in the caller's evaluation scope, which keeps its leaf
values.  Each later step reads a block of K levels 2^m * grid as one
(K, N, dim) stack, in a nested scope dropped with it.  The stack stays
3-D: NumPy multiplies it slice by slice with the bits of each level
alone, where a flattened (K*N, dim) batch rounds some rows otherwise.
A block ends where some run is predicted to stop, its last gap
extrapolated by lam per level (by the ratio of its last two gaps while
they grow).  For gaps that shrink by lam or slower, as a noise map's
do, that stop is exact or early, so the blocks read just the levels a
climb one level at a time reads.  K is 1 where the prediction is not a
finite positive number, on grids of at most two rows (on a stack of
two-row levels NumPy's einsum may add a 2 x 2 form's terms in another
order), and over a block on which some phi0 raised; K*N stays within
ROW_BUDGET rows.  The caller's scope is handed each converged run's phi0
values on its stop level 2^n * grid and the level above (copies where a
block of several held them), where its limit and the limit's doubling
residual read them.  A run leaves the ladder when it stops or when
evaluating its phi0 raises; the others go on.  ``iterate`` is its
one-run case.  ``apriori_bound`` reads d(phi, J phi) off a run's first
gap, which the ladder has already measured.

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
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# sup_distance stays imported: perfbench/tracing.py patches it here by name
from .funcspace import (DEFAULT_CAP, INFINITE, EvaluationError, MapHandle,
                        SampleGrid, evaluation_scope, hand_over,
                        scaled_points, sup_distance)
from .orthogonality import row_sums

__all__ = [
    "ScalingOperator",
    "IterationResult",
    "iterate",
    "iterate_lockstep",
    "apriori_bound",
]

# the most rows a block of ladder levels holds: a level of a larger grid
# is a block of its own
ROW_BUDGET = 4096


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
    the same arithmetic, so its result depends neither on the other
    runs nor on how the module note's blocks group the levels.  Returns,
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
    rows = len(pts)
    budget = ROW_BUDGET // rows if 2 < rows <= ROW_BUDGET else 1
    count = len(runs)
    # per run: its outcome (a verdict or an exception; None while it
    # goes on), its last iterate's values, c_n and lam^n * c_n so far,
    # lam^n, its stop level and its values on the level above it
    outcome: list = [None] * count
    cur: list = [None] * count
    raw_c: list = [[] for _ in runs]
    gaps: list = [[] for _ in runs]
    lam_pow = [1.0] * count
    n_stop = [n_max] * count
    above: list = [None] * count
    for i, (_, phi0) in enumerate(runs):
        try:
            if phi0.value_at_zero.any():
                raise ValueError(
                    f"operator domain requires phi(0) = 0, got map "
                    f"{phi0.label!r} with a nonzero value at the origin")
            cur[i] = phi0(pts)
            if not np.isfinite(cur[i]).all():
                raise EvaluationError("phi0 is non-finite on the base grid")
        except Exception as err:
            outcome[i] = err
    n = single_to = 0
    while n <= n_max:
        going = [i for i in range(count) if outcome[i] is None]
        if not going:
            break
        # a factor 2.0 ** 1024 raises OverflowError: only a block of its
        # own reaches it
        k = 1 if n == 0 or n < single_to else min(
            budget, n_max + 1 - n, max(1, 1023 - n),
            *(_levels_to_stop(gaps[i], runs[i][0].lam, tol) for i in going))
        factors = [2.0 ** m for m in range(n + 1, n + k + 1)]
        vals, errs = {}, {}
        with evaluation_scope() if n else nullcontext():
            level = (scaled_points(2.0, pts) if n == 0
                     else factors[0] * pts if k == 1
                     else np.multiply.outer(factors, pts))
            for i in going:
                try:
                    vals[i] = runs[i][1](level).reshape(k, rows, -1)
                except Exception as err:
                    errs[i] = err
        if errs and k > 1:
            single_to = n + k
            continue
        for i, err in errs.items():
            outcome[i] = err
        for i, v in vals.items():
            lam = runs[i][0].lam
            m = k if np.isfinite(v).all() else int(
                np.isfinite(v).all(axis=(1, 2)).argmin())
            # cur - lam * nxt on each finite level, as the levels come
            d = lam * v[:m]
            np.subtract(cur[i], d[:1], out=d[:1])
            if m > 1:
                np.subtract(v[:m - 1], d[1:], out=d[1:])
            c = np.sqrt(row_sums(d * d).max(axis=1)).tolist()
            for j in range(k):
                if j == m:
                    outcome[i] = EvaluationError(
                        f"phi0 is non-finite on the level-{n + j + 1} grid")
                    break
                raw_c[i].append(c[j])
                gaps[i].append(lam_pow[i] * c[j])
                if gaps[i][-1] <= tol:
                    outcome[i], n_stop[i], above[i] = "converged", n + j, v[j]
                    break
                if gaps[i][-1] > DEFAULT_CAP:
                    outcome[i], n_stop[i] = "diverged", n + j
                    break
                cur[i] = v[j]
                lam_pow[i] = lam_pow[i] * lam
        n += k
    for i, (_, phi0) in enumerate(runs):
        if outcome[i] == "converged":
            # copy a level cut from a block, so the scope keeps no block
            n = n_stop[i]
            for c, a in ((2.0 ** n, cur[i]), (2.0 ** (n + 1), above[i])):
                if a.base is not None and a.base.size > a.size:
                    a = a.copy()
                hand_over(phi0, scaled_points(c, pts), a)
    results = []
    for (op, phi0), out, c, stop in zip(runs, outcome, raw_c, n_stop):
        if out is None:
            out = "iteration-budget-exhausted"
        results.append(out if isinstance(out, Exception)
                       else _result(op, phi0, c, out, stop, n_max))
    return results


def _levels_to_stop(gaps: list, lam: float, tol: float) -> int:
    # levels until the last gap, times lam per level (times the ratio of
    # the last two while the gaps grow), falls to tol or passes the cap
    r = gaps[-1] / gaps[-2] if len(gaps) > 1 else lam
    r = r if r > 1.0 else lam
    far = (math.log(DEFAULT_CAP if r > 1.0 else tol)
           - math.log(gaps[-1])) / math.log(r)
    return math.ceil(far) if 0.0 < far < math.inf else 1


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
