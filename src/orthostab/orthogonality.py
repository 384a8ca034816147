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
kernel.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Sequence

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "DimensionMismatchError",
    "ThalesianNotFoundError",
    "PairGenerationError",
    "NormSpec",
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

_NORM_KINDS = ("euclidean", "l1", "linf", "weighted")
_RELATION_KINDS = ("trivial", "inner_product", "birkhoff_james")

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


@dataclass(frozen=True)
class NormSpec:
    """A norm on R^n: euclidean, l1, linf, or weighted euclidean."""

    kind: str = "euclidean"
    weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _NORM_KINDS:
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "weighted":
            if not self.weights:
                raise ValueError("weighted norm requires a weight sequence")
            ws = tuple(float(w) for w in self.weights)
            if any(not math.isfinite(w) or w <= 0.0 for w in ws):
                raise ValueError("weights must be positive and finite")
            object.__setattr__(self, "weights", ws)
        elif self.weights is not None:
            raise ValueError("weights are only meaningful for kind='weighted'")

    @classmethod
    def euclidean(cls) -> "NormSpec":
        return cls("euclidean")

    @classmethod
    def l1(cls) -> "NormSpec":
        return cls("l1")

    @classmethod
    def linf(cls) -> "NormSpec":
        return cls("linf")

    @classmethod
    def weighted(cls, weights: Sequence[float]) -> "NormSpec":
        return cls("weighted", tuple(float(w) for w in weights))


def norm_eval(spec: NormSpec, x) -> float | np.ndarray:
    """Evaluate the norm along the last axis; scalar out for 1-D input."""
    arr = np.asarray(x, dtype=float)
    if spec.kind == "euclidean":
        out = np.sqrt(np.sum(arr * arr, axis=-1))
    elif spec.kind == "l1":
        out = np.sum(np.abs(arr), axis=-1)
    elif spec.kind == "linf":
        out = np.max(np.abs(arr), axis=-1)
    else:
        w = np.asarray(spec.weights, dtype=float)
        if w.shape[0] != arr.shape[-1]:
            raise DimensionMismatchError(
                f"weighted norm has {w.shape[0]} weights, point has "
                f"dimension {arr.shape[-1]}")
        out = np.sqrt(np.sum(w * arr * arr, axis=-1))
    if out.ndim == 0:
        return float(out)
    return out


def _bj_margins(spec: NormSpec, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Exact min over t of ||x + t*y|| - ||x|| for paired rows of xs, ys.

    Both rows are first scaled to unit norm (the margin is homogeneous
    in x and invariant under rescaling y), so no intermediate can
    overflow or underflow.  Then, by norm:

    * euclidean/weighted: the length of the projection of x off y;
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
    nx = np.atleast_1d(norm_eval(spec, xs))
    ny = np.atleast_1d(norm_eval(spec, ys))
    out = np.zeros(nx.shape)
    live = (nx > 0.0) & (ny > 0.0)
    if not live.any():
        return out
    x = xs[live] / nx[live, None]
    y = ys[live] / ny[live, None]
    if spec.kind in ("euclidean", "weighted"):
        w = 1.0 if spec.kind == "euclidean" else np.asarray(spec.weights)
        c = np.sum(w * x * y, axis=1)
        # ||x - c*y|| - 1 = -c^2 / (1 + ||x - c*y||), accurate whether y
        # is nearly orthogonal or nearly parallel to x
        r = np.atleast_1d(norm_eval(spec, x - c[:, None] * y))
        m = -c * c / (1.0 + r)
    elif spec.kind == "l1":
        with np.errstate(divide="ignore", invalid="ignore"):
            t = -x / y
        # y_i = 0 and out-of-bracket breakpoints fall back to t = 0
        t = np.where(np.abs(t) <= 2.0, t, 0.0)
        vals = np.sum(np.abs(x[:, None, :] + t[:, :, None] * y[:, None, :]),
                      axis=2)
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


def bj_margin(spec: NormSpec, x, y) -> float:
    """min over t of ||x + t*y|| - ||x|| in the given norm.

    Zero exactly when x is Birkhoff-James orthogonal to y, negative
    otherwise (t = 0 shows the margin can never be positive).  Computed
    in closed form for every supported norm; returns 0 by convention
    when x = 0 or y = 0.
    """
    x = as_point(x)
    y = as_point(y)
    if x.shape != y.shape:
        raise DimensionMismatchError("margin arguments differ in dimension")
    return float(_bj_margins(spec, x[None, :], y[None, :])[0])


@dataclass(frozen=True)
class OrthoRelation:
    """A binary orthogonality relation with a decision tolerance.

    ``norm`` is consulted only by the birkhoff_james kind.  When
    ``symmetrized`` is set the predicate is the symmetric closure:
    x _|_ y holds if either order passes the directed test.
    """

    kind: str
    norm: NormSpec = NormSpec()
    tol: float = DEFAULT_TOL
    symmetrized: bool = False

    def __post_init__(self):
        if self.kind not in _RELATION_KINDS:
            raise ValueError(f"unknown relation kind {self.kind!r}")
        if not (self.tol > 0.0 and math.isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")

    @property
    def is_symmetric(self) -> bool:
        """True when symmetry holds by construction, not merely by test."""
        if self.symmetrized or self.kind in ("trivial", "inner_product"):
            return True
        return self.norm.kind in ("euclidean", "weighted")


def trivial_relation(tol: float = DEFAULT_TOL) -> OrthoRelation:
    return OrthoRelation("trivial", NormSpec.euclidean(), tol)


def inner_product_relation(tol: float = DEFAULT_TOL) -> OrthoRelation:
    return OrthoRelation("inner_product", NormSpec.euclidean(), tol)


def birkhoff_james_relation(norm: NormSpec | str | None = None,
                            tol: float = DEFAULT_TOL,
                            symmetrized: bool = False) -> OrthoRelation:
    """Directed norm orthogonality; ``norm`` may be a shorthand string."""
    if isinstance(norm, str):
        name = norm.lower()
        if name in ("l2", "euclidean"):
            norm = NormSpec.euclidean()
        elif name == "l1":
            norm = NormSpec.l1()
        elif name in ("linf", "max"):
            norm = NormSpec.linf()
        else:
            raise ValueError(f"unknown norm shorthand {norm!r}")
    return OrthoRelation("birkhoff_james", norm or NormSpec.euclidean(),
                         tol, symmetrized)


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


def _weighted_perp(x: np.ndarray, weights) -> np.ndarray:
    # row-wise perpendicular in the weighted inner product <u, v> = sum w u v
    w = np.asarray(weights, dtype=float)
    idx = np.arange(len(x))
    j = np.argmin(np.abs(x), axis=1)
    v = np.zeros_like(x)
    v[idx, j] = 1.0
    denom = np.sum(w * x * x, axis=1)
    v -= (w[j] * x[idx, j] / denom)[:, None] * x
    return v / np.sqrt(np.sum(w * v * v, axis=1))[:, None]


def _norming_functional(spec: NormSpec, x: np.ndarray) -> np.ndarray:
    # a functional of dual norm 1 with phi(x) = ||x|| (l1 or linf)
    if spec.kind == "l1":
        return np.sign(x)
    j = int(np.argmax(np.abs(x)))
    phi = np.zeros_like(x)
    phi[j] = np.sign(x[j])
    return phi


def _kernel_part(phi: np.ndarray, u: np.ndarray) -> np.ndarray:
    # euclidean projection of u onto the kernel of phi
    return u - (float(u @ phi) / float(phi @ phi)) * phi


def _one_sided_slopes(spec: NormSpec, a: np.ndarray, b: np.ndarray):
    """Left and right derivatives at t = 0 of t -> ||a + t*b|| (l1/linf)."""
    if spec.kind == "l1":
        base = float(np.sign(a) @ b)
        free = float(np.sum(np.abs(b[a == 0.0])))
        return base - free, base + free
    aa = np.abs(a)
    top = aa == aa.max()
    vals = np.sign(a[top]) * b[top]
    return float(vals.min()), float(vals.max())


def _closed_form_split(rel: OrthoRelation, x: np.ndarray,
                       lam: np.ndarray) -> np.ndarray:
    # trivial, inner product, and inner-product-like BJ norms, row by row:
    # y0 is a perpendicular scaled so that
    # <x + y0, lam*x - y0> = lam|x|^2 - |y0|^2 = 0
    if rel.kind == "birkhoff_james" and rel.norm.kind == "weighted":
        u = _weighted_perp(x, rel.norm.weights)
        nx = norm_eval(rel.norm, x)
    else:
        u = unit_perp(x)
        nx = np.sqrt(_row_dots(x, x))
    return (np.sqrt(lam) * nx)[:, None] * u


def thalesian_solve(rel: OrthoRelation, x, lam) -> np.ndarray:
    """Solve the splitting axiom: y0 with x _|_ y0, x+y0 _|_ lam*x - y0.

    Closed form for the trivial, inner-product, and euclidean or
    weighted Birkhoff-James relations.  For l1/linf Birkhoff-James,
    y0 = s*y_dir with y_dir in the kernel of a norming functional of x,
    so x _|_ y0 for every s.  The scale s >= 0 is found by bisection on
    the signs of the one-sided derivatives at t = 0 of
    t -> ||(x + s*y_dir) + t*(lam*x - s*y_dir)||: at s = 0 that norm is
    shortest at t = -1/lam, for large s near t = 1, and the pair is
    orthogonal where a shortest point sits at t = 0.  Both conditions
    are rechecked on exact margins.  lam = 0 gives y0 = 0 for every
    relation.

    x is a point of shape (dim,) or a batch of shape (n, dim); a batch
    gives one y0 per row, each equal bit for bit to the call on that
    row alone.  lam is one value for every row or one value per row.
    The closed forms run on all rows at once, the l1/linf search row by
    row.

    Raises ThalesianNotFoundError (with the best residuals attached)
    when the recheck fails for a point; in a batch such a row is
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
    if rel.kind != "birkhoff_james" or rel.norm.kind in ("euclidean",
                                                         "weighted"):
        out[live] = _closed_form_split(rel, rows[live], lams[live])
    else:
        for i in np.flatnonzero(live):
            try:
                out[i] = _bj_split_search(rel, rows[i], float(lams[i]))
            except ThalesianNotFoundError:
                if single:
                    raise
                out[i] = np.nan
    return out[0] if single else out


def _bj_split_search(rel: OrthoRelation, x: np.ndarray,
                     lam: float) -> np.ndarray:
    # scale-free: y_dir has euclidean length ||x||, and unit_perp sees a
    # unit vector
    nrm = norm_eval(rel.norm, x)
    y_dir = _kernel_part(_norming_functional(rel.norm, x),
                         unit_perp(x / nrm))
    y_dir *= nrm / math.sqrt(float(y_dir @ y_dir))

    def side(s: float) -> int:
        # +1: every minimizer of t -> ||a + t*b|| lies below 0 (s too
        # small), -1: every minimizer lies above 0 (s too large), 0: a _|_ b
        down, up = _one_sided_slopes(rel.norm, x + s * y_dir,
                                     lam * x - s * y_dir)
        if down > 0.0:
            return 1
        if up < 0.0:
            return -1
        return 0

    # side(0) = +1 and side(s) = -1 for large s, so doubling finds a bracket
    lo, hi = 0.0, 1.0 + math.sqrt(lam)
    for _ in range(200):
        if side(hi) <= 0:
            break
        lo, hi = hi, 2.0 * hi
    # the bracket ends keep their sides, so its limit is a root
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        c = side(mid)
        if c == 0:
            lo = hi = mid
        elif c > 0:
            lo = mid
        else:
            hi = mid

    cands = np.array([hi, lo])[:, None] * y_dir[None, :]
    lhs = x[None, :] + cands
    first = _bj_margins(rel.norm, np.array([x, x]), cands)
    second = _bj_margins(rel.norm, lhs, lam * x[None, :] - cands)
    first_ok = first >= -rel.tol * (1.0 + nrm)
    second_ok = second >= -rel.tol * (1.0 + norm_eval(rel.norm, lhs))
    for y0, ok1, ok2 in zip(cands, first_ok, second_ok):
        if ok1 and ok2:
            return y0
    raise ThalesianNotFoundError(
        f"no splitting vector found for lam={lam:g}",
        {"first_margin": float(first.max()),
         "second_margin": float(second.max()), "lam": lam})


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


def _random_point(rng: np.random.Generator, dim: int,
                  radius: float) -> np.ndarray:
    while True:
        v = rng.normal(size=dim)
        nv = math.sqrt(float(v @ v))
        if nv > 1e-12:
            return (radius * rng.uniform(0.1, 1.0) / nv) * v


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
    pts = np.array([_random_point(rng, dim, radius)
                    for _ in range(max(n_samples, 4))])
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
    relation kind and rechecked against the predicate.
    """
    if dim < 2:
        raise DimensionMismatchError("orthogonality spaces need dim >= 2")
    if count < 1:
        raise ValueError("count must be at least 1")
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    out = np.zeros((count, 2, dim))
    out[0, 0] = _random_point(rng, dim, radius)
    if count > 1:
        out[1, 1] = _random_point(rng, dim, radius)
    for i in range(2, count):
        out[i, 0], out[i, 1] = _generate_pair(rel, rng, dim, radius)
    return out


def _generate_pair(rel: OrthoRelation, rng: np.random.Generator, dim: int,
                   radius: float):
    x = _random_point(rng, dim, radius)
    if rel.kind == "trivial":
        for _ in range(8):
            y = _random_point(rng, dim, radius)
            if (_max_minors(x[None], y[None])
                    > 1e-6 * _pair_scales(x[None], y[None]))[0]:
                return x, y
        raise PairGenerationError("could not find an independent partner")
    if rel.kind == "inner_product" or (
            rel.kind == "birkhoff_james"
            and rel.norm.kind in ("euclidean", "weighted")):
        w = (np.asarray(rel.norm.weights)
             if rel.kind == "birkhoff_james" and rel.norm.kind == "weighted"
             else np.ones(dim))
        for _ in range(8):
            v = rng.normal(size=dim)
            v -= (float(np.sum(w * v * x)) / float(np.sum(w * x * x))) * x
            nv = math.sqrt(float(v @ v))
            if nv > 1e-8:
                return x, (radius * rng.uniform(0.1, 1.0) / nv) * v
        raise PairGenerationError("projection degenerated repeatedly")

    # l1/linf Birkhoff-James: x _|_ y exactly when some norming
    # functional of x vanishes on y (James), so y is drawn from the
    # kernel of one; accept only with a margin well inside the predicate
    # tolerance so that rescaled copies stay orthogonal under homogeneity
    phi = _norming_functional(rel.norm, x)
    best_margin = -math.inf
    accept = -0.05 * rel.tol * (1.0 + norm_eval(rel.norm, x))
    for _ in range(8):
        u = rng.normal(size=dim)
        y = _kernel_part(phi, u)
        ny = math.sqrt(float(y @ y))
        if ny <= 1e-12 * math.sqrt(float(u @ u)):
            continue
        y *= radius * rng.uniform(0.1, 1.0) / ny
        m = bj_margin(rel.norm, x, y)
        best_margin = max(best_margin, m)
        if m >= accept:
            return x, y
    raise PairGenerationError(
        f"no Birkhoff-James partner found, best margin {best_margin:.3e}")


def relation_descriptor(rel: OrthoRelation) -> dict:
    """JSON-ready description of a relation, sufficient to rebuild it."""
    d: dict = {"kind": rel.kind, "tol": rel.tol,
               "symmetrized": rel.symmetrized}
    if rel.kind == "birkhoff_james":
        d["norm"] = rel.norm.kind
        if rel.norm.weights is not None:
            d["weights"] = list(rel.norm.weights)
    return d
