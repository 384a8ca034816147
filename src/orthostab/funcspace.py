"""Vector-valued maps on R^n as first-class, algebraically-aware handles.

A ``MapHandle`` wraps a vectorized callable together with structural
metadata: a declared parity (even, odd, or unknown) and, for maps built
as sums, the list of summands.  Sums and scalar multiples keep that
structure, so parity projections can be taken symbolically whenever the
tags allow it: the even part of a sum of tagged terms is the sum of its
even-tagged terms, at zero floating-point cost and zero rounding noise.
Untagged maps fall back to the pointwise formulas
even(f)(x) = (f(x) + f(-x))/2 and odd(f)(x) = (f(x) - f(-x))/2.

A handle built from a callable of its own (a noise map, an additive or
a quadratic map) is a *leaf*; the handles that scaling, parity
projections and the fixed-point layer build around other handles are
derived, and only combine their values.  Inside an
``evaluation_scope`` block each leaf is evaluated at most once per
point array object, and its value is stored read-only.  Maps read at
scaled points (a parity projection at -x, a Picard limit at 2^n x)
take them from ``scaled_points``, which builds each scaled copy of an
array once per total factor, so 2^n * (2x) is 2^(n+1) x and -(-x) is x,
with the bits a fresh evaluation gives.  A leaf's value on a row may
depend on the batch it comes in, as a matmul's does, but not on whether
its elementwise work runs by rows or by columns, nor on whether a batch
of three or more rows comes alone or as one slice of a (K, N, dim)
stack.  The Picard ladder reads K levels at once as such a stack, each
in a nested block of its own; a flattened (K*N, dim) batch would round
some rows otherwise.  It stores the values it keeps with
``hand_over``.  Stored arrays are dropped when the block exits; point
arrays must not change while it is open.  Outside a block every call
evaluates afresh.

The module also provides the sample grids that stand in for the domain
and the capped sup distance that stands in for the uniform norm.  A
distance exceeding ``DEFAULT_CAP`` is reported as ``math.inf`` (the
generalized metric used by the fixed-point machinery allows infinite
values).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .orthogonality import DimensionMismatchError, max_row_norm

__all__ = [
    "INFINITE",
    "DEFAULT_CAP",
    "EvaluationError",
    "MapHandle",
    "evaluation_scope",
    "scaled_points",
    "hand_over",
    "zero_map",
    "map_sum",
    "map_scale",
    "shift_to_zero",
    "even_part",
    "odd_part",
    "SampleGrid",
    "make_grid",
    "sup_distance",
    "sup_norm",
]

INFINITE = math.inf
DEFAULT_CAP = 1e12

_PARITIES = (None, "even", "odd")

# the open evaluation scope, None outside one.  It maps (handle,
# id(points)) -> (points, value), (c, id(base)) -> (base, c * base) and
# id(c * base) -> (c, base) for an unscaled base; holding the arrays
# keeps their ids from being reused while the entry lives, and the key
# holds the handle itself
_SCOPE: ContextVar[dict | None] = ContextVar("orthostab_evaluation_scope",
                                             default=None)


@contextmanager
def evaluation_scope(store: bool = True):
    """Evaluate each leaf map at most once per point array in the block.

    Values are stored per handle and point array object, and handed out
    read-only, as are the arrays of ``scaled_points``.  Each block, a
    nested one too, starts empty (with ``store=False`` it stores
    nothing, for the one-shot point sets of a longer block) and drops
    what it stored when it exits.
    """
    token = _SCOPE.set({} if store else None)
    try:
        yield
    finally:
        _SCOPE.reset(token)


def _readonly(arr: np.ndarray) -> np.ndarray:
    # a view, so that a caller's own array keeps its flags
    view = arr.view()
    view.flags.writeable = False
    return view


def scaled_points(c: float, pts: np.ndarray) -> np.ndarray:
    """c * pts, computed once per total factor and base array in a scope.

    For an exact c = +-2^k, k >= 0, c * (c0 * base) is (c * c0) * base
    bit for bit, and a scope keys it so: one read-only array per key,
    base itself for a total factor of 1.  Otherwise this is ``c * pts``.
    """
    scope = _SCOPE.get()
    if scope is None or not (abs(c) >= 1.0 and abs(math.frexp(c)[0]) == 0.5):
        return c * pts
    c0, base = scope.get(id(pts), (1.0, pts))
    if c0 * c == 1.0:
        return base
    hit = scope.get((c0 * c, id(base)))
    if hit is None:
        hit = scope[c0 * c, id(base)] = (base, _readonly(c * pts))
        scope[id(hit[1])] = (c0 * c, base)
    return hit[1]


def hand_over(m: "MapHandle", pts: np.ndarray, value: np.ndarray) -> None:
    """Store value, which m gave at pts, as m's value there in the scope."""
    scope = _SCOPE.get()
    if scope is not None:
        scope[(m, id(pts))] = (pts, _readonly(value))


class EvaluationError(RuntimeError):
    """A map produced non-finite values or a wrongly shaped array."""


@dataclass(eq=False)
class MapHandle:
    """A map R^source_dim -> R^target_dim with structural metadata.

    Exactly one of ``fn`` (a vectorized callable taking arrays shaped
    (..., source_dim) to (..., target_dim)) or ``terms`` (a tuple of
    summand handles, evaluated left to right) is set; the all-zero map
    carries neither.  Handles are immutable by convention: combining
    them makes new handles.  ``_derived`` marks a handle whose ``fn``
    only combines the values of other handles (a scaled map, a parity
    projection, a rescaled iterate); every other handle with ``fn`` is
    a leaf, whose values an evaluation scope stores; a scope returns a
    value handed over for any handle.
    """

    fn: Callable[[np.ndarray], np.ndarray] | None
    source_dim: int
    target_dim: int
    label: str = ""
    parity: str | None = None
    terms: tuple = None
    _is_zero: bool = field(default=False, repr=False)
    _v0: np.ndarray | None = field(default=None, repr=False)
    _derived: bool = field(default=False, repr=False)

    def __post_init__(self):
        if self.parity not in _PARITIES:
            raise ValueError(f"parity must be one of {_PARITIES}")
        if self.source_dim < 1 or self.target_dim < 1:
            raise ValueError("dimensions must be positive")
        if not self._is_zero and (self.fn is None) == (self.terms is None):
            raise ValueError("exactly one of fn and terms must be given")

    def __call__(self, pts) -> np.ndarray:
        arr = np.asarray(pts, dtype=float)
        if arr.ndim < 1 or arr.shape[-1] != self.source_dim:
            raise DimensionMismatchError(
                f"map {self.label!r} expects points of dimension "
                f"{self.source_dim}, got shape {arr.shape}")
        if self._is_zero:
            return np.zeros(arr.shape[:-1] + (self.target_dim,))
        scope = _SCOPE.get()
        key = (self, id(arr))
        if scope is not None and key in scope:
            return scope[key][1]
        if self.terms is not None:
            out = self.terms[0](arr)
            for t in self.terms[1:]:
                out = out + t(arr)
            return out
        if scope is None or self._derived:
            return self._evaluate(arr)
        scope[key] = (arr, _readonly(self._evaluate(arr)))
        return scope[key][1]

    def _evaluate(self, arr: np.ndarray) -> np.ndarray:
        out = np.asarray(self.fn(arr), dtype=float)
        want = arr.shape[:-1] + (self.target_dim,)
        if out.shape != want:
            raise EvaluationError(
                f"map {self.label!r} returned shape {out.shape}, "
                f"expected {want}")
        return out

    @property
    def value_at_zero(self) -> np.ndarray:
        if self._v0 is None:
            # a copy: the handle outlives any evaluation scope, and in
            # one a leaf hands out the scope's stored value
            self._v0 = np.array(self(np.zeros(self.source_dim)))
        return self._v0

    @property
    def is_zero_map(self) -> bool:
        return self._is_zero


def zero_map(source_dim: int, target_dim: int) -> MapHandle:
    """The map that is identically zero (even and odd at once)."""
    return MapHandle(None, source_dim, target_dim, label="0",
                     parity=None, _is_zero=True)


def _check_same_dims(maps) -> tuple[int, int]:
    s, t = maps[0].source_dim, maps[0].target_dim
    for m in maps[1:]:
        if m.source_dim != s or m.target_dim != t:
            raise DimensionMismatchError("summands live on different spaces")
    return s, t


def map_sum(*maps: MapHandle, label: str = "") -> MapHandle:
    """Sum of maps, flattening nested sums and dropping zero summands.

    A sum that collapses to a single summand returns that summand
    itself, so structural identities (same-object checks) survive
    adding zero.  Summands are evaluated and added left to right.
    """
    if not maps:
        raise ValueError("map_sum needs at least one map")
    s, t = _check_same_dims(maps)
    parts: list[MapHandle] = []
    for m in maps:
        if m._is_zero:
            continue
        if m.terms is not None:
            parts.extend(m.terms)
        else:
            parts.append(m)
    if not parts:
        return zero_map(s, t)
    if len(parts) == 1:
        return parts[0]
    parities = {p.parity for p in parts}
    parity = parities.pop() if len(parities) == 1 else None
    return MapHandle(None, s, t, label=label, parity=parity,
                     terms=tuple(parts))


def map_scale(c: float, m: MapHandle, label: str = "") -> MapHandle:
    """Scalar multiple c*m; distributes over stored summands."""
    c = float(c)
    if not math.isfinite(c):
        raise ValueError("scale factor must be finite")
    if m._is_zero or c == 0.0:
        return zero_map(m.source_dim, m.target_dim)
    if c == 1.0:
        return m
    if m.terms is not None:
        return MapHandle(None, m.source_dim, m.target_dim, label=label,
                         parity=m.parity,
                         terms=tuple(map_scale(c, t) for t in m.terms))
    return MapHandle(lambda pts, _f=m, _c=c: _c * _f(pts),
                     m.source_dim, m.target_dim,
                     label=label or f"{c:g}*{m.label}", parity=m.parity,
                     _derived=True)


def shift_to_zero(f: MapHandle, label: str = "") -> MapHandle:
    """f - f(0), as a map.  Returns f itself when f(0) is exactly zero.

    The correction term is constant, hence even, so parity projections
    of the shifted map stay structural whenever f's were.
    """
    v0 = f.value_at_zero
    if not v0.any():
        return f
    neg = -np.array(v0)
    const = MapHandle(
        lambda pts, _v=neg: np.broadcast_to(
            _v, pts.shape[:-1] + (len(_v),)).copy(),
        f.source_dim, f.target_dim, label="-f(0)", parity="even")
    return map_sum(f, const, label=label or f"{f.label}-f(0)")


def even_part(f: MapHandle) -> MapHandle:
    """The even projection x -> (f(x) + f(-x))/2.

    Resolved structurally when parity tags or summand tags allow;
    an even map is returned unchanged (same object), an odd map
    collapses to the zero map.
    """
    if f._is_zero or f.parity == "even":
        return f
    if f.parity == "odd":
        return zero_map(f.source_dim, f.target_dim)
    if f.terms is not None:
        return map_sum(*[even_part(t) for t in f.terms],
                       label=f"even({f.label})")
    return MapHandle(lambda pts, _f=f:
                     0.5 * (_f(pts) + _f(scaled_points(-1.0, pts))),
                     f.source_dim, f.target_dim,
                     label=f"even({f.label})", parity="even", _derived=True)


def odd_part(f: MapHandle) -> MapHandle:
    """The odd projection x -> (f(x) - f(-x))/2; structural when possible."""
    if f._is_zero or f.parity == "odd":
        return f
    if f.parity == "even":
        return zero_map(f.source_dim, f.target_dim)
    if f.terms is not None:
        return map_sum(*[odd_part(t) for t in f.terms],
                       label=f"odd({f.label})")
    return MapHandle(lambda pts, _f=f:
                     0.5 * (_f(pts) - _f(scaled_points(-1.0, pts))),
                     f.source_dim, f.target_dim,
                     label=f"odd({f.label})", parity="odd", _derived=True)


@dataclass(frozen=True)
class SampleGrid:
    """A finite stand-in for the domain: sample points plus provenance.

    Row 0 is always the origin; measurement code relies on that.  The
    points are a read-only copy: evaluation scopes key on the array
    object, so values must not change under a measurement.
    """

    points: np.ndarray
    seed: int
    radius: float

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise DimensionMismatchError("grid points must be 2-D")
        if pts.shape[0] < 1 or pts[0].any():
            raise ValueError("grid row 0 must be the origin")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


def make_grid(dim: int, count: int = 256, radius: float = 8.0,
              seed: int = 0) -> SampleGrid:
    """Seeded grid: origin, then points on shells from 0.1r out to r."""
    if dim < 1:
        raise DimensionMismatchError("dim must be positive")
    if count < 1:
        raise ValueError("count must be at least 1")
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(seed)
    dirs = rng.normal(size=(count, dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    radii = radius * (0.1 + 0.9 * np.linspace(0.0, 1.0, count))
    return SampleGrid(np.vstack([np.zeros((1, dim)), dirs * radii[:, None]]),
                      seed, radius)


def _resolve_points(grid) -> np.ndarray:
    if isinstance(grid, SampleGrid):
        return grid.points
    return np.asarray(grid, dtype=float)


def _capped_sup(vals: np.ndarray, what: str) -> float:
    # the largest row length, or INFINITE past DEFAULT_CAP
    if not np.isfinite(vals).all():
        raise EvaluationError(f"non-finite values {what}")
    sup = max_row_norm(vals)
    return INFINITE if sup > DEFAULT_CAP else sup


def sup_distance(f: MapHandle, g: MapHandle, grid) -> float:
    """max over grid of the euclidean length of f - g, capped.

    Identical handles short-circuit to an exact 0.0.  Values past
    DEFAULT_CAP collapse to INFINITE; non-finite evaluations raise
    instead of silently polluting a supremum.
    """
    if f is g:
        return 0.0
    pts = _resolve_points(grid)
    return _capped_sup(f(pts) - g(pts),
                       f"comparing {f.label!r} and {g.label!r}")


def sup_norm(f: MapHandle, grid) -> float:
    """max over grid of the euclidean length of f, capped like sup_distance."""
    if f._is_zero:
        return 0.0
    return _capped_sup(f(_resolve_points(grid)), f"evaluating {f.label!r}")
