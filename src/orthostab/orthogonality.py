"""Computable orthogonality relations on finite-dimensional real spaces.

Three relation families share one predicate interface:

* ``trivial``: nonzero vectors are orthogonal exactly when they are
  linearly independent; the zero vector is orthogonal to everything.
* ``inner_product``: ordinary Euclidean orthogonality, decided with a
  scale-free tolerance.
* ``birkhoff_james``: x is orthogonal to y when no multiple of y can
  shorten x, i.e. min over t of ||x + t*y|| stays at least ||x||.
  Norm dependent; away from inner-product norms it is not symmetric.

Beyond the predicate, the module provides the margin functional behind
Birkhoff-James decisions, a solver for the right-angle splitting axiom
(given x and lam >= 0, produce y0 with x _|_ y0 and
x + y0 _|_ lam*x - y0, the Thales-circle configuration), deterministic
samplers for orthogonal pairs, and an axiom checker that exercises a
relation on seeded random data and reports witnesses for every
violation it finds.

Nothing is searched.  The margin min_t ||x + t*y|| - ||x|| has an exact
finite formula for every supported norm, evaluated on batches of rows.
For the l1 and linf norms the sampler and the splitter rest on James's
characterization (Trans. AMS 61, 1947): x _|_ y exactly when some
norming functional of x, one of dual norm 1 that attains ||x|| at x,
vanishes on y.  sign(x) is one for l1, sign(x_j)*e_j at an argmax j of
|x| one for linf, and orthogonal partners of x are drawn from its
kernel.  Split vectors lie in that kernel too; their scale is a root
of piecewise linear one-sided slopes, taken from a finite candidate
set on all rows at once.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, replace

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "ThalesianNotFoundError",
    "PairGenerationError",
    "OrthoRelation",
    "AxiomCheck",
    "AxiomReport",
    "as_point",
    "norm_eval",
    "bj_margin",
    "trivial_relation",
    "inner_product_relation",
    "birkhoff_james_relation",
    "symmetrize_relation",
    "is_orthogonal",
    "unit_perp",
    "thalesian_solve",
    "check_axioms",
    "sample_orthogonal_pairs",
    "relation_descriptor",
]

DEFAULT_TOL = 1e-9

# the norm names birkhoff_james_relation reads, by the norm they name;
# OrthoRelation takes the names on the right
_NORM_NAMES = {"l2": "euclidean", "euclidean": "euclidean", "l1": "l1",
               "linf": "linf", "max": "linf"}
_RELATION_KINDS = ("trivial", "inner_product", "birkhoff_james")
# floats per block of a row-batched temporary (2 MB each): the l1/linf
# split's slopes, and the sampler's (rows, dim, dim) minors and margins
_BLOCK = 1 << 18
# rows a sampler batch takes at most: this bounds its temporaries (one
# batch of 4096 pairs at dim 3 peaked at 1 MB, pair by pair at 0.2 MB),
# and a batch's fixed cost stays small next to drawing its rows
_SAMPLE_ROWS = 512

class DimensionMismatchError(ValueError):
    """Vector shapes do not line up with a declared dimension."""


class ThalesianNotFoundError(RuntimeError):
    """The splitting-axiom search exhausted its candidates.

    Carries the best residuals seen in ``residuals`` so a caller can
    distinguish a near miss from a structural failure.
    """

    def __init__(self, message: str, residuals: dict | None = None):
        super().__init__(message)
        self.residuals = dict(residuals or {})


class PairGenerationError(RuntimeError):
    """The orthogonal-pair sampler ran out of retries."""


def as_point(x) -> np.ndarray:
    """Coerce to a 1-D float vector, rejecting non-finite entries."""
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError(
            f"expected a 1-D point, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point has non-finite coordinates")
    return arr


def norm_eval(norm: str, x) -> float | np.ndarray:
    """Evaluate the named norm along the last axis; scalar out for 1-D
    input.  Raises ValueError for a name not in euclidean, l1, linf."""
    arr = np.asarray(x, dtype=float)
    if norm == "euclidean":
        out = np.sqrt(row_sums(arr * arr))
    elif norm == "l1":
        out = row_sums(np.abs(arr))
    elif norm == "linf":
        out = np.max(np.abs(arr), axis=-1)
    else:
        raise ValueError(f"unknown norm {norm!r}")
    if out.ndim == 0:
        return float(out)
    return out


def _bj_margins(norm: str, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Exact min over t of ||x + t*y|| - ||x|| for paired rows of xs, ys.

    Both rows are first scaled to unit norm (the margin is homogeneous
    in x and invariant under rescaling y), so no intermediate can
    overflow or underflow.  Then, by norm:

    * euclidean: the length of the projection of x off y;
    * l1: the minimand is convex and piecewise linear with breakpoints
      t = -x_i/y_i, so its minimum is the least value at a breakpoint
      in [-2, 2] (beyond that ||x + t*y|| >= |t| - 1 > ||x||);
    * linf: the minimand is the upper envelope of the lines
      +-(x_i + t*y_i); by Helly's theorem on the line its minimum is the
      largest, over coordinate pairs i, j, of the value where the two
      V-shapes cross, |x_i*y_j - x_j*y_i| / (|y_i| + |y_j|), and at
      least |x_i| wherever y_i = 0.

    Rows with x = 0 or y = 0 get margin 0 by convention.
    """
    nx = np.atleast_1d(norm_eval(norm, xs))
    ny = np.atleast_1d(norm_eval(norm, ys))
    out = np.zeros(nx.shape)
    live = (nx > 0.0) & (ny > 0.0)
    if not live.any():
        return out
    x = xs[live] / nx[live, None]
    y = ys[live] / ny[live, None]
    if norm == "euclidean":
        c = row_sums(x * y)
        # ||x - c*y|| - 1 = -c^2 / (1 + ||x - c*y||), accurate whether y
        # is nearly orthogonal or nearly parallel to x
        r = np.atleast_1d(norm_eval(norm, x - c[:, None] * y))
        m = -c * c / (1.0 + r)
    elif norm == "l1":
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -x / y
        # y_i = 0 and out-of-bracket breakpoints fall back to t = 0
        t = np.where(np.abs(t) <= 2.0, t, 0.0)
        vals = row_sums(np.abs(x[:, None, :] + t[:, :, None] * y[:, None, :]))
        m = np.min(vals, axis=1) - 1.0
    else:
        ay = np.abs(y)
        num = np.abs(x[:, :, None] * y[:, None, :]
                     - x[:, None, :] * y[:, :, None])
        den = ay[:, :, None] + ay[:, None, :]
        cross = np.divide(num, den, out=np.zeros_like(num), where=den > 0.0)
        fixed = np.where(ay == 0.0, np.abs(x), 0.0)
        m = np.maximum(cross.max(axis=(1, 2)), fixed.max(axis=1)) - 1.0
    out[live] = np.minimum(m, 0.0) * nx[live]
    return out


def bj_margin(norm: str, x, y) -> float:
    """min over t of ||x + t*y|| - ||x|| in the named norm.

    Zero exactly when x is Birkhoff-James orthogonal to y, negative
    otherwise (t = 0 shows the margin can never be positive).  Computed
    in closed form for every supported norm; returns 0 by convention
    when x = 0 or y = 0.
    """
    x = as_point(x)
    y = as_point(y)
    if x.shape != y.shape:
        raise DimensionMismatchError("margin arguments differ in dimension")
    return float(_bj_margins(norm, x[None, :], y[None, :])[0])


@dataclass(frozen=True)
class OrthoRelation:
    """A binary orthogonality relation with a decision tolerance.

    ``norm`` names the norm, ``"euclidean"``, ``"l1"`` or ``"linf"``;
    only the birkhoff_james kind consults it.  When ``symmetrized`` is
    set the predicate is the symmetric closure: x _|_ y holds if either
    order passes the directed test.
    """

    kind: str
    norm: str = "euclidean"
    tol: float = DEFAULT_TOL
    symmetrized: bool = False

    def __post_init__(self):
        if self.kind not in _RELATION_KINDS:
            raise ValueError(f"unknown relation kind {self.kind!r}")
        if self.norm not in _NORM_NAMES.values():
            raise ValueError(f"unknown norm {self.norm!r}")
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")

    @property
    def polyhedral(self) -> bool:
        """Birkhoff-James orthogonality of the l1 or the linf norm."""
        return self.kind == "birkhoff_james" and self.norm != "euclidean"

    @property
    def is_symmetric(self) -> bool:
        """True when symmetry holds by construction, not merely by test."""
        return self.symmetrized or not self.polyhedral


def trivial_relation(tol: float = DEFAULT_TOL) -> OrthoRelation:
    return OrthoRelation("trivial", tol=tol)


def inner_product_relation(tol: float = DEFAULT_TOL) -> OrthoRelation:
    return OrthoRelation("inner_product", tol=tol)


def birkhoff_james_relation(norm: str = "euclidean",
                            tol: float = DEFAULT_TOL) -> OrthoRelation:
    """Directed norm orthogonality; ``norm`` may be a shorthand name."""
    name = _NORM_NAMES.get(norm.lower())
    if name is None:
        raise ValueError(f"unknown norm shorthand {norm!r}")
    return OrthoRelation("birkhoff_james", name, tol)


def symmetrize_relation(rel: OrthoRelation) -> OrthoRelation:
    """The symmetric closure: x _|_' y iff x _|_ y or y _|_ x."""
    return replace(rel, symmetrized=True)


def _as_rows(x) -> tuple[np.ndarray, bool]:
    # a 1-D point becomes a batch of one row; the flag says to unwrap
    arr = np.asarray(x, dtype=float)
    if arr.ndim not in (1, 2):
        raise DimensionMismatchError(
            f"expected a point or a batch of points, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point has non-finite coordinates")
    return np.atleast_2d(arr), arr.ndim == 1


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # row i equals float(a[i] @ b[i]) bit for bit: on a stack of (1, dim)
    # rows NumPy runs its one-row kernel per row, while a 2-D product of
    # the whole block may round some rows differently
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def narrow(shape: tuple, rows: int = 0) -> bool:
    """Whether elementwise work on an array of this shape runs faster one
    column at a time: NumPy runs each row of fewer than 8 columns as a
    short inner loop of its own, and from ``rows`` rows on a few long
    column loops repay their Python calls.  Same operations, same bits."""
    return 0 < shape[-1] < 8 and math.prod(shape[:-1]) >= rows


def row_sums(a: np.ndarray) -> np.ndarray:
    """np.sum(a, axis=-1) bit for bit, by columns where ``narrow``."""
    # below 8 columns NumPy adds each row left to right from 0.0, as
    # adding whole columns in turn does; from 8 on it sums pairwise
    if not narrow(a.shape):
        return np.sum(a, axis=-1)
    out = 0.0 + a[..., 0]
    for j in range(1, a.shape[-1]):
        out += a[..., j]
    return out


def max_row_norm(v: np.ndarray) -> float:
    """float(np.max(np.sqrt(row_sums(v * v)))) bit for bit: a correctly
    rounded square root is monotone, so the largest sum's root will do."""
    return math.sqrt(row_sums(v * v).max())


def _max_minors(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # row-wise largest |x_i y_j - x_j y_i|; zero iff x and y are dependent
    g = xs[:, :, None] * ys[:, None, :]
    return np.abs(g - g.transpose(0, 2, 1)).max(axis=(1, 2))


def _pair_scales(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # 1 + |x| |y| row by row, the scale of the closed-form tolerances
    return 1.0 + np.sqrt(_row_dots(xs, xs)) * np.sqrt(_row_dots(ys, ys))


def _directed(rel: OrthoRelation, xs: np.ndarray,
              ys: np.ndarray) -> np.ndarray:
    # the directed test x _|_ y on paired rows, one verdict per row
    if rel.kind == "birkhoff_james":
        return (_bj_margins(rel.norm, xs, ys)
                >= -rel.tol * (1.0 + norm_eval(rel.norm, xs)))
    if rel.kind == "inner_product":
        return (np.abs(_row_dots(xs, ys))
                <= rel.tol * _pair_scales(xs, ys))
    # trivial: the zero vector is orthogonal to everything
    out = ~(xs.any(axis=1) & ys.any(axis=1))
    live = ~out
    xs, ys = xs[live], ys[live]
    out[live] = _max_minors(xs, ys) > rel.tol * _pair_scales(xs, ys)
    return out


def _orthogonal(rel: OrthoRelation, xs: np.ndarray,
                ys: np.ndarray) -> np.ndarray:
    # the relation's predicate on paired rows of xs and ys
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        raise ValueError("point has non-finite coordinates")
    ok = _directed(rel, xs, ys)
    if rel.symmetrized and not ok.all():
        rest = ~ok
        ok[rest] = _directed(rel, ys[rest], xs[rest])
    return ok


def is_orthogonal(rel: OrthoRelation, x, y) -> bool:
    """Decide the relation's predicate; deterministic for fixed inputs.

    The decision is the row-batched predicate that ``check_axioms``
    runs on whole samples, applied to one row.
    """
    x = as_point(x)
    y = as_point(y)
    if x.shape != y.shape:
        raise DimensionMismatchError("points differ in dimension")
    return bool(_orthogonal(rel, x[None, :], y[None, :])[0])


def unit_perp(x) -> np.ndarray:
    """A deterministic Euclidean unit vector perpendicular to x.

    Projects the coordinate axis least aligned with x off x.  Requires
    dimension >= 2; returns the first axis for x = 0.  x may also be a
    batch of shape (n, dim), giving one perpendicular per row, each
    equal bit for bit to the call on that row alone.
    """
    rows, single = _as_rows(x)
    if rows.shape[1] < 2:
        raise DimensionMismatchError("no perpendicular exists in dimension 1")
    nx2 = _row_dots(rows, rows)
    idx = np.arange(len(rows))
    j = np.argmin(np.abs(rows), axis=1)
    v = np.zeros_like(rows)
    v[idx, j] = 1.0
    # a zero row keeps its axis: x[j] = 0 over a stand-in norm of 1
    v -= (rows[idx, j] / np.where(nx2 == 0.0, 1.0, nx2))[:, None] * rows
    v /= np.sqrt(_row_dots(v, v))[:, None]
    return v[0] if single else v


def _norming_functional(norm: str, xs: np.ndarray) -> np.ndarray:
    # row-wise functionals of dual norm 1 with phi(x) = ||x|| (l1 or linf)
    if norm == "l1":
        return np.sign(xs)
    top = np.argmax(np.abs(xs), axis=1)[:, None]
    return np.where(np.arange(xs.shape[1]) == top, np.sign(xs), 0.0)


def _kernel_part(phi: np.ndarray, us: np.ndarray) -> np.ndarray:
    # row-wise euclidean projection of us onto the kernel of phi
    return us - (_row_dots(us, phi) / _row_dots(phi, phi))[:, None] * phi


def thalesian_solve(rel: OrthoRelation, x, lam) -> np.ndarray:
    """Solve the splitting axiom: y0 with x _|_ y0, x+y0 _|_ lam*x - y0.

    Closed form for the trivial, inner-product and euclidean
    Birkhoff-James relations.  For l1/linf Birkhoff-James,
    y0 = s*y_dir with y_dir in the kernel of a norming functional of x,
    so x _|_ y0 for every s.  The second condition holds where 0 lies
    between the one-sided slopes at t = 0 of
    t -> ||(x + s*y_dir) + t*(lam*x - s*y_dir)||.  They are piecewise
    linear in s, so every root s is a breakpoint of the slopes or the
    zero of one linear piece, and these are written down for all rows
    at once.  The left slope is positive exactly below the least root,
    so its sign at every candidate places that root; the three
    candidates around the place are rechecked on exact margins for
    both conditions, and a row takes the passing one with the largest
    second margin, the smallest s among ties.  Nothing is searched.
    lam = 0 gives y0 = 0 for every relation.

    x is a point of shape (dim,) or a batch of shape (n, dim); a batch
    gives one y0 per row, each equal bit for bit to the call on that
    row alone.  lam is one value for every row or one value per row.

    Where lam*||x|| is below the smallest normal float, no float
    carries the split to the precision the second condition is judged
    at, and the recheck asks x _|_ y0 alone of the candidates.

    Raises ThalesianNotFoundError when no candidate passes the recheck
    for a point, with the largest first and second margins over the
    rechecked candidates and lam attached; in a batch such a row is
    returned as NaN instead.  Raises ValueError when x, or any row of a
    batch, is 0, since the axiom presumes x spans a direction.
    """
    rows, single = _as_rows(x)
    if rows.shape[1] < 2:
        raise DimensionMismatchError("the splitting axiom needs dim >= 2")
    lams = np.asarray(lam, dtype=float)
    if lams.shape not in ((), rows.shape[:1]):
        raise DimensionMismatchError("lam must be a scalar or one per row")
    if not np.all(np.isfinite(lams) & (lams >= 0.0)):
        raise ValueError("lam must be a finite nonnegative real")
    if not rows.any(axis=1).all():
        raise ValueError("x = 0 spans no direction; the axiom presumes x != 0")
    lams = np.broadcast_to(lams, (len(rows),))
    # x _|_ 0 and x + 0 _|_ 0 hold for every relation kind
    out = np.zeros_like(rows)
    live = lams > 0.0
    if not rel.polyhedral:
        # trivial, inner product and euclidean Birkhoff-James, row by
        # row: y0 is a perpendicular scaled so that
        # <x + y0, lam*x - y0> = lam|x|^2 - |y0|^2 = 0
        xs = rows[live]
        scale = np.sqrt(lams[live]) * np.sqrt(_row_dots(xs, xs))
        out[live] = scale[:, None] * unit_perp(xs)
    else:
        out[live], first, second = _bj_splits(rel, rows[live], lams[live])
        if single and np.isnan(out[0]).any():
            raise ThalesianNotFoundError(
                f"no splitting vector found for lam={lams[0]:g}",
                {"first_margin": float(first[0]),
                 "second_margin": float(second[0]), "lam": float(lams[0])})
    return out[0] if single else out


def _split_scales(norm: str, x: np.ndarray, y: np.ndarray,
                  lam: np.ndarray) -> np.ndarray:
    # sorted candidate scales s of the split s*y, one row per row of x.
    # l1: the breakpoints s = -x_i/y_i, and on the piece right of 0 or of
    # a breakpoint, with sign vector sigma, the zero of the slope
    # lam*sigma.x - s*sigma.y.  linf: the crossings |x_i + s*y_i| =
    # |x_j + s*y_j|, and the zeros s = lam*x_j/y_j of the slope of a
    # largest coordinate j.  A root has ||x + s*y|| <= (1 + lam)*||x||,
    # so s*||y|| <= (2 + lam)*||x||; undefined candidates and those past
    # twice that become s = 0, which is no root for lam > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        if norm == "l1":
            r = np.where(y != 0.0, -x / y, np.inf)
            # the sign vector right of 0 and right of each breakpoint
            left = np.concatenate([np.zeros((len(x), 1)), r], axis=1)
            sigma = np.where(r[:, None, :] <= left[:, :, None],
                             np.sign(y)[:, None, :], np.sign(x)[:, None, :])
            zeros = (lam[:, None] * np.sum(sigma * x[:, None, :], axis=2)
                     / np.sum(sigma * y[:, None, :], axis=2))
            s = np.concatenate([r, zeros], axis=1)
        else:
            i, j = np.triu_indices(x.shape[1], 1)
            s = np.concatenate([-(x[:, i] - x[:, j]) / (y[:, i] - y[:, j]),
                                -(x[:, i] + x[:, j]) / (y[:, i] + y[:, j]),
                                lam[:, None] * x / y], axis=1)
        cap = 2.0 * (2.0 + lam) * norm_eval(norm, x) / norm_eval(norm, y)
    return np.sort(np.where((s > 0.0) & (s <= cap[:, None]), s, 0.0), axis=1)


def _bj_splits(rel: OrthoRelation, x: np.ndarray, lam: np.ndarray):
    # thalesian_solve on l1/linf rows with lam > 0: y0, NaN where no
    # candidate passes, and each row's largest first and second margins
    nx = norm_eval(rel.norm, x)
    # scale-free: y_dir has euclidean length ||x||, and unit_perp sees
    # unit vectors
    y_dir = _kernel_part(_norming_functional(rel.norm, x),
                         unit_perp(x / nx[:, None]))
    y_dir *= (nx / np.sqrt(_row_dots(y_dir, y_dir)))[:, None]
    s = _split_scales(rel.norm, x, y_dir, lam)
    # the left slope of t -> ||a + t*b|| at t = 0, a = x + s*y_dir and
    # b = lam*x - s*y_dir, is positive exactly below the least root, so
    # the count of positive ones places that root among the sorted
    # candidates, up to one place of rounding either way.  The slopes
    # take rows * candidates * dim floats, so rows go in blocks
    place = np.empty(len(x), dtype=int)
    step = max(1, _BLOCK // (s.shape[1] * x.shape[1]))
    for r in (slice(i, i + step) for i in range(0, len(x), step)):
        a = x[r, None] + s[r, :, None] * y_dir[r, None]
        b = lam[r, None, None] * x[r, None] - s[r, :, None] * y_dir[r, None]
        if rel.norm == "l1":
            down = np.sum(np.sign(a) * b - np.where(a == 0.0, np.abs(b), 0.0),
                          axis=2)
        else:
            top = np.abs(a) == np.abs(a).max(axis=2, keepdims=True)
            down = np.min(np.where(top, np.sign(a) * b, np.inf), axis=2)
        place[r] = np.sum(down > 0.0, axis=1)
    near = np.clip(place[:, None] + np.arange(-1, 2), 0, s.shape[1] - 1)
    s = np.take_along_axis(s, near, axis=1)
    y0 = s[:, :, None] * y_dir[:, None, :]
    xs = np.broadcast_to(x[:, None, :], y0.shape)
    lhs = xs + y0
    first, second = _bj_margins(
        rel.norm, np.concatenate([xs, lhs]).reshape(-1, x.shape[1]),
        np.concatenate([y0, lam[:, None, None] * xs - y0]).reshape(
            -1, x.shape[1])).reshape((2,) + s.shape)
    blind = lam * nx < sys.float_info.min
    ok = ((first >= -rel.tol * (1.0 + nx[:, None]))
          & ((second >= -rel.tol * (1.0 + norm_eval(rel.norm, lhs)))
             | blind[:, None]))
    best = np.argmax(np.where(ok, second, -np.inf), axis=1)
    out = y0[np.arange(len(x)), best]
    out[~ok.any(axis=1)] = np.nan
    return out, first.max(axis=1), second.max(axis=1)


@dataclass
class AxiomCheck:
    """Outcome of one axiom probe: verdict plus reproducing witnesses."""

    name: str
    passed: bool
    tested: int
    failures: int
    witnesses: list

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class AxiomReport:
    """Per-axiom verdicts for a relation, with seeds and witnesses."""

    relation: dict
    dim: int
    n_samples: int
    seed: int
    checks: dict

    @property
    def passed(self) -> bool:
        # symmetry is informational: non-euclidean Birkhoff-James
        # relations are expected to fail it
        return all(c.passed for name, c in self.checks.items()
                   if name != "symmetry")

    @property
    def symmetric(self) -> bool:
        return self.checks["symmetry"].passed

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "dim": self.dim,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "passed": self.passed,
            "symmetric": self.symmetric,
            "checks": {k: v.to_dict() for k, v in self.checks.items()},
        }


def check_axioms(rel: OrthoRelation, dim: int, n_samples: int = 256,
                 seed: int = 0, radius: float = 8.0) -> AxiomReport:
    """Probe the relation's axioms on seeded samples.

    Verifies that zero is orthogonal to everything on both sides, that
    nonzero orthogonal vectors are linearly independent, that the
    relation survives scalar rescaling of either argument, and that the
    splitting axiom is solvable; symmetry is tested informationally.
    Each axiom is one batch for the predicate of ``is_orthogonal`` (and
    one ``thalesian_solve``).  Failures never raise; they are recorded
    with their first three witnesses, and a NaN minor or split fails.
    """
    if dim < 2:
        raise DimensionMismatchError("orthogonality spaces need dim >= 2")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    rng = np.random.default_rng(seed)
    pts = _random_points(rng, max(n_samples, 4), dim, radius)
    checks: dict[str, AxiomCheck] = {}

    def record(name: str, ok: np.ndarray, witness):
        bad = np.flatnonzero(~ok)
        checks[name] = AxiomCheck(name, bad.size == 0, ok.size, bad.size,
                                  [witness(int(i)) for i in bad[:3]])

    # O1: totality for zero: (v, 0), then (0, v) for each v, then (0, 0)
    sub = pts[:128]
    xs = np.zeros((2 * len(sub) + 1, dim))
    ys = np.zeros_like(xs)
    xs[:-1:2] = sub
    ys[1::2] = sub
    sides = ["right", "left"] * len(sub) + ["both"]
    record("zero_orthogonal", _orthogonal(rel, xs, ys),
           lambda i: {"x": (ys if i % 2 else xs)[i].tolist(),
                      "side": sides[i]})

    n_pairs = min(n_samples, 64)
    pairs = sample_orthogonal_pairs(rel, dim, n_pairs + 2, radius=radius,
                                    seed=seed + 1)[2:]
    px, py = np.ascontiguousarray(pairs.transpose(1, 0, 2))

    def pair(i: int) -> dict:
        return {"x": px[i].tolist(), "y": py[i].tolist()}

    # O2: nonzero orthogonal vectors must be linearly independent; a NaN
    # minor (overflow) fails
    record("independence",
           _max_minors(px, py) > 1e-10 * _pair_scales(px, py), pair)

    # O3: x _|_ y must survive x -> a*x, y -> b*y, zero and sign included
    scalings = [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -1.0)]
    scalings += [tuple(rng.uniform(-3.0, 3.0, size=2)) for _ in range(16)]
    ab, k = np.array(scalings), len(scalings)
    hx = (ab[:, 0, None] * px[:32, None]).reshape(-1, dim)
    hy = (ab[:, 1, None] * py[:32, None]).reshape(-1, dim)
    record("homogeneity", _orthogonal(rel, hx, hy),
           lambda i: {**pair(i // k), "alpha": scalings[i % k][0],
                      "beta": scalings[i % k][1]})

    # O4: the splitting axiom, lam = 0 and 1 forced, the rest uniform
    n_split = min(n_samples, 64)
    lams = np.concatenate([[0.0, 1.0, 4.0],
                           rng.uniform(0.0, 10.0,
                                       size=max(0, n_split - 3))])[:n_split]
    vs = pts[:n_split]
    y0 = thalesian_solve(rel, vs, lams)
    # NaN rows have no split; the second test runs where the first holds
    ok = ~np.isnan(y0).any(axis=1)
    ok[ok] = _orthogonal(rel, vs[ok], y0[ok])
    ok[ok] = _orthogonal(rel, vs[ok] + y0[ok],
                         lams[ok, None] * vs[ok] - y0[ok])

    def split_witness(i: int) -> dict:
        wit = {"x": vs[i].tolist(), "lam": float(lams[i])}
        try:
            # a row without a split gets the residuals of its own solve
            wit["y0"] = thalesian_solve(rel, vs[i], lams[i]).tolist()
        except ThalesianNotFoundError as err:
            wit["residuals"] = err.residuals
        return wit

    record("split_existence", ok, split_witness)

    # symmetry (informational): both orders on sampled orthogonal pairs
    record("symmetry", _orthogonal(rel, py, px), pair)
    return AxiomReport(relation_descriptor(rel), dim, n_samples, seed,
                       checks)


def sample_orthogonal_pairs(rel: OrthoRelation, dim: int, count: int,
                            radius: float = 8.0, seed: int = 0) -> np.ndarray:
    """Deterministic orthogonal pairs, shape (count, 2, dim).

    The first two rows are the degenerate pairs (x, 0) and (0, y);
    every relation must accept them and downstream measurements rely
    on their presence.  Remaining rows are nonzero pairs built per
    relation kind: x is a random point of norm at most radius, and y
    is an independent random point (trivial), the projection of a
    normal vector off x (inner product, euclidean Birkhoff-James), or
    a normal vector's part in the kernel of a norming functional of x,
    kept only with a margin well inside the predicate's tolerance
    (l1/linf Birkhoff-James).

    Rows are drawn one after another, two generator calls a draw
    (``_draws``); a try that fails is redrawn, up to eight times per
    partner, and the arithmetic runs on all rows at once (``_batched``).
    """
    if dim < 2:
        raise DimensionMismatchError("orthogonality spaces need dim >= 2")
    if count < 1:
        raise ValueError("count must be at least 1")
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    out = np.zeros((count, 2, dim))
    ends = _random_points(rng, min(count, 2), dim, radius)
    out[0, 0] = ends[0]
    if count > 1:
        out[1, 1] = ends[1]
    _batched(rng, out[2:], lambda vs, us: _first_pairs(rel, radius, vs, us),
             lambda: _one_pair(rel, rng, dim, radius))
    return out


def _draws(rng: np.random.Generator, n: int, k: int, dim: int):
    # n rows of k draws normal(dim), uniform(0.1, 1.0) each, in the order
    # a row takes them when none is redrawn; part j of every row is
    # vs[j], us[j].  The raw variates are mapped once, as normal and
    # uniform map each: loc + scale*z, low + range*u, the same bits
    fill, uniform = rng.standard_normal, rng.random
    vs = np.empty((n * k, dim))
    us = np.empty(n * k)
    for i in range(n * k):
        fill(out=vs[i])
        us[i] = uniform()
    return (np.ascontiguousarray(
                (0.0 + 1.0 * vs).reshape(n, k, dim).transpose(1, 0, 2)),
            (0.1 + (1.0 - 0.1) * us).reshape(n, k).T)


def _batched(rng: np.random.Generator, out: np.ndarray, first_try,
             one_row) -> None:
    """Fill out's rows, each from its k draws of ``_draws`` or redrawn.

    out has shape (n, dim), one draw a row, or (n, k, dim).  A batch draws
    every row's first tries, and ``first_try(vs, us)`` builds all the
    rows from them at once, with a mask of the rows that keep them.
    The first row that does not ends the batch: the generator goes
    back to the batch's start, the rows before that one are drawn
    again, and ``one_row()`` builds it try by try.  So every row sees
    the values it would see if rows were drawn one at a time, and only
    rows that redraw run one at a time.
    """
    n, dim = len(out), out.shape[-1]
    k = 1 if out.ndim == 2 else out.shape[1]
    step = max(1, min(_SAMPLE_ROWS, _BLOCK // (dim * dim)))
    i = 0
    while i < n:
        m = min(n - i, step)
        start = rng.bit_generator.state
        rows, ok = first_try(*_draws(rng, m, k, dim))
        if not ok.all():
            m = int(np.argmin(ok))
            rng.bit_generator.state = start
            _draws(rng, m, k, dim)
            rows[m] = one_row()[0]
            m += 1
        out[i:i + m] = rows[:m]
        i += m


def _lengths(vs: np.ndarray):
    # euclidean row lengths, and which rows are long enough to scale
    nv = np.sqrt(_row_dots(vs, vs))
    return nv, nv > 1e-12


def _scaled(vs: np.ndarray, nv: np.ndarray, us, radius: float) -> np.ndarray:
    # rows v of lengths nv, rescaled to lengths radius*u
    return (radius * us / nv)[:, None] * vs


def _random_points(rng: np.random.Generator, n: int, dim: int,
                   radius: float) -> np.ndarray:
    # n points in random directions at norms uniform in [0.1, 1]*radius
    def first_try(vs, us):
        nv, ok = _lengths(vs[0])
        return _scaled(vs[0], nv, us[0], radius), ok

    out = np.empty((n, dim))
    _batched(rng, out, first_try, lambda: _one_point(rng, dim, radius))
    return out


def _one_point(rng: np.random.Generator, dim: int,
               radius: float) -> np.ndarray:
    # one random point as a row, its direction redrawn until it scales
    while True:
        v = rng.normal(size=(1, dim))
        nv, ok = _lengths(v)
        if ok[0]:
            return _scaled(v, nv, rng.uniform(0.1, 1.0), radius)


def _inner_like(rel: OrthoRelation) -> bool:
    # partners by projection: an inner product, or a norm from one
    return rel.kind != "trivial" and not rel.polyhedral


def _directions(rel: OrthoRelation, xs: np.ndarray, vs: np.ndarray):
    # the partner direction each row x gets from a normal draw v, its
    # euclidean length, and whether it is long enough to scale
    if rel.kind == "trivial":
        return (vs,) + _lengths(vs)
    if _inner_like(rel):
        ds = vs - (row_sums(vs * xs) / row_sums(xs * xs))[:, None] * xs
        nd = np.sqrt(_row_dots(ds, ds))
        return ds, nd, nd > 1e-8
    # l1/linf Birkhoff-James: x _|_ y exactly when some norming
    # functional of x vanishes on y (James)
    ds = _kernel_part(_norming_functional(rel.norm, xs), vs)
    nd = np.sqrt(_row_dots(ds, ds))
    return ds, nd, ~(nd <= 1e-12 * np.sqrt(_row_dots(vs, vs)))


def _accepts(rel: OrthoRelation, xs: np.ndarray, ys: np.ndarray):
    # which scaled partners the sampler keeps, and the Birkhoff-James
    # margins it weighed them by (None where it weighs none)
    if rel.kind == "trivial":
        return _max_minors(xs, ys) > 1e-6 * _pair_scales(xs, ys), None
    if _inner_like(rel):
        return np.ones(len(xs), dtype=bool), None
    if not (np.isfinite(xs).all() and np.isfinite(ys).all()):
        # as bj_margin, which refuses such points
        raise ValueError("point has non-finite coordinates")
    # a margin well inside the predicate tolerance keeps rescaled
    # copies orthogonal under homogeneity
    m = _bj_margins(rel.norm, xs, ys)
    return m >= -0.05 * rel.tol * (1.0 + norm_eval(rel.norm, xs)), m


def _first_pairs(rel: OrthoRelation, radius: float, vs: np.ndarray,
                 us: np.ndarray):
    # every row's pair from its first tries, and which rows keep them;
    # rows with non-finite coordinates are left to _one_pair, where
    # _accepts may refuse them
    nx, ok = _lengths(vs[0])
    xs = _scaled(vs[0], nx, us[0], radius)
    ds, nd, live = _directions(rel, xs, vs[1])
    ys = _scaled(ds, nd, us[1], radius)
    ok &= live & np.isfinite(xs).all(axis=1) & np.isfinite(ys).all(axis=1)
    ok[ok] = _accepts(rel, xs[ok], ys[ok])[0]
    return np.stack([xs, ys], axis=1), ok


def _one_pair(rel: OrthoRelation, rng: np.random.Generator, dim: int,
              radius: float) -> np.ndarray:
    # one row's pair try by try, as a (1, 2, dim) batch
    x = _one_point(rng, dim, radius)
    best_margin = -math.inf
    for _ in range(8):
        if rel.kind == "trivial":
            y = _one_point(rng, dim, radius)
        else:
            ds, nd, live = _directions(rel, x, rng.normal(size=(1, dim)))
            if not live[0]:
                continue
            y = _scaled(ds, nd, rng.uniform(0.1, 1.0), radius)
        ok, m = _accepts(rel, x, y)
        if m is not None:
            best_margin = max(best_margin, float(m[0]))
        if ok[0]:
            return np.stack([x, y], axis=1)
    if rel.kind == "trivial":
        raise PairGenerationError("could not find an independent partner")
    if _inner_like(rel):
        raise PairGenerationError("projection degenerated repeatedly")
    raise PairGenerationError(
        f"no Birkhoff-James partner found, best margin {best_margin:.3e}")


def relation_descriptor(rel: OrthoRelation) -> dict:
    """JSON-ready description of a relation, sufficient to rebuild it."""
    d: dict = {"kind": rel.kind, "tol": rel.tol,
               "symmetrized": rel.symmetrized}
    if rel.kind == "birkhoff_james":
        d["norm"] = rel.norm
    return d
