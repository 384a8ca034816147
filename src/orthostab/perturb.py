"""Exact solution families and controlled perturbations of them.

The unperturbed instances are built from an additive map A(x) = Mx and
a quadratic map P(x) = (x^T B_k x)_k with symmetric forms B_k.  The
quadruple

    f = P + A,   g = P - A,   h = 2P,   k = 2P + 2A

satisfies f(x+y) + g(x-y) = h(x) + k(y) for every pair (x, y), not
just orthogonal ones, so it is a valid exact instance for any
orthogonality relation.  Perturbed instances add an independent,
uniformly bounded noise map to each of the four components: each noise
map has sup norm at most delta and vanishes at the origin, so the
resulting quadruple violates the equation by at most 4*delta.

Noise is deterministic in its seed (a fixed random frequency matrix
and phase fed through a cosine, under a saturating radial envelope),
and can optionally be symmetrized to a definite parity when an
experiment needs the perturbation confined to one parity class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .funcspace import (MapHandle, even_part, map_scale, map_sum, odd_part,
                        zero_map)

__all__ = [
    "GroundTruth",
    "make_additive",
    "make_quadratic",
    "make_bounded_noise",
    "make_cubic_growth",
    "compose_pexider_instance",
    "compose_cauchy_instance",
    "compose_quadratic_instance",
    "random_ground_truth",
]

_FORM_SYMMETRY_TOL = 1e-14


def make_additive(matrix, label: str = "A") -> MapHandle:
    """The linear (hence additive and odd) map x -> Mx."""
    m = np.array(matrix, dtype=float)
    if m.ndim != 2:
        raise ValueError("additive maps need a 2-D coefficient matrix")
    if not np.all(np.isfinite(m)):
        raise ValueError("coefficient matrix has non-finite entries")
    return MapHandle(lambda pts, _m=m: pts @ _m.T,
                     m.shape[1], m.shape[0], label=label, parity="odd")


def make_quadratic(forms, label: str = "P") -> MapHandle:
    """The quadratic (even) map x -> (x^T B_k x)_k for symmetric B_k."""
    b = np.array(forms, dtype=float)
    if b.ndim != 3 or b.shape[1] != b.shape[2]:
        raise ValueError("quadratic maps need a stack of square forms")
    if not np.all(np.isfinite(b)):
        raise ValueError("forms have non-finite entries")
    skew = np.max(np.abs(b - np.transpose(b, (0, 2, 1))))
    if skew > _FORM_SYMMETRY_TOL * (1.0 + np.max(np.abs(b))):
        raise ValueError("forms must be symmetric; symmetrize before use")
    return MapHandle(
        lambda pts, _b=b: np.einsum("...i,kij,...j->...k", pts, _b, pts),
        b.shape[1], b.shape[0], label=label, parity="even")


def make_bounded_noise(delta: float, seed: int, source_dim: int,
                       target_dim: int, parity: str | None = None,
                       label: str = "noise") -> MapHandle:
    """A seeded perturbation with sup norm <= delta, zero at the origin.

    Component-wise delta/sqrt(m) times a cosine of a random linear
    functional, under the envelope ||x|| / (1 + ||x||): bounded
    everywhere, exactly zero at zero, and non-polynomial so it carries
    no accidental additive or quadratic structure.  ``parity`` of
    "even" or "odd" projects the noise onto that class (the projection
    keeps the sup bound).
    """
    if delta < 0.0 or not math.isfinite(delta):
        raise ValueError("delta must be finite and nonnegative")
    if delta == 0.0:
        return zero_map(source_dim, target_dim)
    rng = np.random.default_rng(seed)
    freq = rng.normal(size=(target_dim, source_dim))
    phase = rng.uniform(0.0, 2.0 * math.pi, size=target_dim)
    amp = delta / math.sqrt(target_dim)

    def fn(pts, _w=freq, _p=phase, _a=amp):
        r = np.sqrt(np.sum(pts * pts, axis=-1, keepdims=True))
        env = r / (1.0 + r)
        return _a * env * np.cos(pts @ _w.T + _p)

    base = MapHandle(fn, source_dim, target_dim, label=label)
    if parity == "even":
        return even_part(base)
    if parity == "odd":
        return odd_part(base)
    if parity is not None:
        raise ValueError("parity must be None, 'even', or 'odd'")
    return base


def make_cubic_growth(amp: float, source_dim: int,
                      target_dim: int = 1) -> MapHandle:
    """amp * ||x||^3 in the first output coordinate.

    Grows too fast for either rescaling operator to contract, so it
    drives the fixed-point iteration into its divergent branch; used as
    a deliberate contaminant.  Even as a function of x.
    """
    if not math.isfinite(amp):
        raise ValueError("amp must be finite")

    def fn(pts, _a=amp):
        r = np.sqrt(np.sum(pts * pts, axis=-1))
        out = np.zeros(pts.shape[:-1] + (target_dim,))
        out[..., 0] = _a * r ** 3
        return out

    return MapHandle(fn, source_dim, target_dim, label="cubic",
                     parity="even")


@dataclass(frozen=True)
class GroundTruth:
    """Generator data for one instance: A-matrix, P-forms, noise level.

    ``noise_seeds`` feeds the four independent perturbations in the
    order (f, g, h, k).
    """

    additive: np.ndarray
    forms: np.ndarray
    delta: float = 0.0
    noise_seeds: tuple = (101, 102, 103, 104)

    def __post_init__(self):
        a = np.array(self.additive, dtype=float)
        b = np.array(self.forms, dtype=float)
        if a.ndim != 2 or b.ndim != 3 or b.shape[1:] != (a.shape[1],) * 2:
            raise ValueError("additive matrix and forms disagree in shape")
        if b.shape[0] != a.shape[0]:
            raise ValueError("additive and quadratic target dims differ")
        if self.delta < 0.0 or not math.isfinite(self.delta):
            raise ValueError("delta must be finite and nonnegative")
        if len(self.noise_seeds) != 4:
            raise ValueError("noise_seeds must have exactly 4 entries")
        object.__setattr__(self, "additive", a)
        object.__setattr__(self, "forms", b)
        object.__setattr__(self, "noise_seeds",
                           tuple(int(s) for s in self.noise_seeds))

    @property
    def source_dim(self) -> int:
        return self.additive.shape[1]

    @property
    def target_dim(self) -> int:
        return self.additive.shape[0]

    def additive_map(self) -> MapHandle:
        return make_additive(self.additive)

    def quadratic_map(self) -> MapHandle:
        return make_quadratic(self.forms)


def _noise(gt: GroundTruth, idx: int, label: str,
           parity: str | None = None) -> MapHandle:
    return make_bounded_noise(gt.delta, gt.noise_seeds[idx], gt.source_dim,
                              gt.target_dim, parity=parity, label=label)


def compose_pexider_instance(gt: GroundTruth):
    """(f, g, h, k) = (P+A, P-A, 2P, 2P+2A), each plus bounded noise."""
    a = gt.additive_map()
    p = gt.quadratic_map()
    f = map_sum(p, a, _noise(gt, 0, "n_f"), label="f")
    g = map_sum(p, map_scale(-1.0, a), _noise(gt, 1, "n_g"), label="g")
    h = map_sum(map_scale(2.0, p), _noise(gt, 2, "n_h"), label="h")
    k = map_sum(map_scale(2.0, p), map_scale(2.0, a),
                _noise(gt, 3, "n_k"), label="k")
    return f, g, h, k


def compose_cauchy_instance(gt: GroundTruth):
    """(f, h, k) all equal to the additive map plus independent noise.

    The instance for the additive specialization (the g-component is
    identically zero there and is supplied by the caller).  The forms
    in ``gt`` are ignored.
    """
    a = gt.additive_map()
    f = map_sum(a, _noise(gt, 0, "n_f"), label="f")
    h = map_sum(a, _noise(gt, 2, "n_h"), label="h")
    k = map_sum(a, _noise(gt, 3, "n_k"), label="k")
    return f, h, k


def compose_quadratic_instance(gt: GroundTruth) -> MapHandle:
    """Q = P plus even-parity noise, for the purely quadratic case.

    Even noise keeps Q an even map, which is the standing assumption
    of that specialization; the additive part of ``gt`` is ignored.
    """
    p = gt.quadratic_map()
    return map_sum(p, _noise(gt, 0, "n_q", parity="even"), label="Q")


def random_ground_truth(dim: int, delta: float = 0.0,
                        seed: int = 0) -> GroundTruth:
    """Seeded generator data on R^dim -> R^dim with O(1) coefficients.

    The forms are multiples of the identity, which keep the quadratic
    part orthogonally additive for the inner-product relation; general
    symmetric forms do not have that property.
    """
    rng = np.random.default_rng(seed)
    additive = rng.uniform(-0.6, 0.6, size=(dim, dim))
    coeffs = rng.uniform(0.2, 0.8, size=dim)
    forms = coeffs[:, None, None] * np.eye(dim)[None, :, :]
    seeds = tuple(int(s) for s in rng.integers(100, 2 ** 31, size=4))
    return GroundTruth(additive, forms, delta, seeds)
