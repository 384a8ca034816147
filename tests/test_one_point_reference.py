"""The row-batched predicate and sampler against one-point references,
bit for bit.

``is_orthogonal`` and ``check_axioms`` decide the relation's predicate
on batches of rows, and ``sample_orthogonal_pairs`` builds its pairs on
batches of rows.  The references below work one point at a time, with
the scalar arithmetic (``math.sqrt``, ``float(x @ y)``, ``np.outer``)
that the pinned reports were made with; every verdict, count, witness
and sampled coordinate has to agree exactly.
"""

import math

import numpy as np
import pytest

import orthostab.orthogonality as orth
from orthostab.cli import dump_json_17g
from orthostab.orthogonality import (AxiomCheck, AxiomReport,
                                     OrthoRelation, PairGenerationError,
                                     ThalesianNotFoundError,
                                     as_point, birkhoff_james_relation,
                                     bj_margin, check_axioms,
                                     inner_product_relation, is_orthogonal,
                                     norm_eval, relation_descriptor,
                                     sample_orthogonal_pairs,
                                     symmetrize_relation, thalesian_solve,
                                     trivial_relation)


def ref_max_minor(x, y):
    g = np.outer(x, y)
    return float(np.max(np.abs(g - g.T)))


def ref_random_point(rng, dim, radius):
    while True:
        v = rng.normal(size=dim)
        nv = math.sqrt(float(v @ v))
        if nv > 1e-12:
            return (radius * rng.uniform(0.1, 1.0) / nv) * v


def ref_generate_pair(rel, rng, dim, radius):
    x = ref_random_point(rng, dim, radius)
    if rel.kind == "trivial":
        for _ in range(8):
            y = ref_random_point(rng, dim, radius)
            scale = 1.0 + math.sqrt(float(x @ x)) * math.sqrt(float(y @ y))
            if ref_max_minor(x, y) > 1e-6 * scale:
                return x, y
        raise PairGenerationError("could not find an independent partner")
    if rel.kind == "inner_product" or rel.norm == "euclidean":
        for _ in range(8):
            v = rng.normal(size=dim)
            v -= (float(np.sum(v * x)) / float(np.sum(x * x))) * x
            nv = math.sqrt(float(v @ v))
            if nv > 1e-8:
                return x, (radius * rng.uniform(0.1, 1.0) / nv) * v
        raise PairGenerationError("projection degenerated repeatedly")
    if rel.norm == "l1":
        phi = np.sign(x)
    else:
        j = int(np.argmax(np.abs(x)))
        phi = np.zeros_like(x)
        phi[j] = np.sign(x[j])
    best_margin = -math.inf
    accept = -0.05 * rel.tol * (1.0 + norm_eval(rel.norm, x))
    for _ in range(8):
        u = rng.normal(size=dim)
        y = u - (float(u @ phi) / float(phi @ phi)) * phi
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


def ref_sample_orthogonal_pairs(rel, dim, count, radius=8.0, seed=0):
    """The sampler one pair at a time, each try drawn as it is needed."""
    rng = np.random.default_rng(seed)
    out = np.zeros((count, 2, dim))
    out[0, 0] = ref_random_point(rng, dim, radius)
    if count > 1:
        out[1, 1] = ref_random_point(rng, dim, radius)
    for i in range(2, count):
        out[i, 0], out[i, 1] = ref_generate_pair(rel, rng, dim, radius)
    return out


def ref_directed(rel, x, y):
    if rel.kind == "trivial":
        if not x.any() or not y.any():
            return True
        nx = math.sqrt(float(x @ x))
        ny = math.sqrt(float(y @ y))
        return ref_max_minor(x, y) > rel.tol * (1.0 + nx * ny)
    if rel.kind == "inner_product":
        nx = math.sqrt(float(x @ x))
        ny = math.sqrt(float(y @ y))
        return abs(float(x @ y)) <= rel.tol * (1.0 + nx * ny)
    margin = bj_margin(rel.norm, x, y)
    return margin >= -rel.tol * (1.0 + norm_eval(rel.norm, x))


def ref_is_orthogonal(rel, x, y, directed=ref_directed):
    x = as_point(x)
    y = as_point(y)
    if directed(rel, x, y):
        return True
    if rel.symmetrized:
        return directed(rel, y, x)
    return False


def ref_check_axioms(rel, dim, n_samples=256, seed=0, radius=8.0,
                     directed=ref_directed):
    """check_axioms one point at a time, drawing the same random values."""
    def orth_(x, y):
        return ref_is_orthogonal(rel, x, y, directed)

    rng = np.random.default_rng(seed)
    pts = np.array([ref_random_point(rng, dim, radius)
                    for _ in range(max(n_samples, 4))])
    zero = np.zeros(dim)
    checks = {}

    wit, fails = [], 0
    sub = pts[:min(len(pts), 128)]
    for v in sub:
        if not orth_(v, zero):
            fails += 1
            if len(wit) < 3:
                wit.append({"x": v.tolist(), "side": "right"})
        if not orth_(zero, v):
            fails += 1
            if len(wit) < 3:
                wit.append({"x": v.tolist(), "side": "left"})
    if not orth_(zero, zero):
        fails += 1
        wit.append({"x": zero.tolist(), "side": "both"})
    checks["zero_orthogonal"] = AxiomCheck(
        "zero_orthogonal", fails == 0, 2 * len(sub) + 1, fails, wit)

    n_pairs = min(n_samples, 64)
    pairs = ref_sample_orthogonal_pairs(rel, dim, n_pairs + 2, radius=radius,
                                        seed=seed + 1)[2:]

    wit, fails = [], 0
    for xp, yp in pairs:
        scale = 1.0 + math.sqrt(float(xp @ xp)) * math.sqrt(float(yp @ yp))
        # a NaN minor fails, so the test is "not above", not "at most"
        if not ref_max_minor(xp, yp) > 1e-10 * scale:
            fails += 1
            if len(wit) < 3:
                wit.append({"x": xp.tolist(), "y": yp.tolist()})
    checks["independence"] = AxiomCheck(
        "independence", fails == 0, len(pairs), fails, wit)

    scalings = [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0), (1.0, -1.0)]
    scalings += [tuple(rng.uniform(-3.0, 3.0, size=2)) for _ in range(16)]
    wit, fails, tested = [], 0, 0
    for xp, yp in pairs[:min(len(pairs), 32)]:
        for a, b in scalings:
            tested += 1
            if not orth_(a * xp, b * yp):
                fails += 1
                if len(wit) < 3:
                    wit.append({"x": xp.tolist(), "y": yp.tolist(),
                                "alpha": a, "beta": b})
    checks["homogeneity"] = AxiomCheck(
        "homogeneity", fails == 0, tested, fails, wit)

    n_split = min(n_samples, 64)
    lams = np.concatenate([[0.0, 1.0, 4.0],
                           rng.uniform(0.0, 10.0,
                                       size=max(0, n_split - 3))])[:n_split]
    wit, fails = [], 0
    for v, lam in zip(pts[:n_split], lams):
        try:
            y0 = thalesian_solve(rel, v, float(lam))
        except ThalesianNotFoundError as err:
            fails += 1
            if len(wit) < 3:
                wit.append({"x": v.tolist(), "lam": float(lam),
                            "residuals": err.residuals})
            continue
        ok = (orth_(v, y0) and orth_(v + y0, float(lam) * v - y0))
        if not ok:
            fails += 1
            if len(wit) < 3:
                wit.append({"x": v.tolist(), "lam": float(lam),
                            "y0": y0.tolist()})
    checks["split_existence"] = AxiomCheck(
        "split_existence", fails == 0, n_split, fails, wit)

    wit, fails = [], 0
    for xp, yp in pairs:
        if not orth_(yp, xp):
            fails += 1
            if len(wit) < 3:
                wit.append({"x": xp.tolist(), "y": yp.tolist()})
    checks["symmetry"] = AxiomCheck(
        "symmetry", fails == 0, len(pairs), fails, wit)
    return AxiomReport(relation_descriptor(rel), dim, n_samples, seed,
                       checks)


def _relations():
    base = [trivial_relation(), inner_product_relation(),
            birkhoff_james_relation("l2"),
            birkhoff_james_relation("l1"), birkhoff_james_relation("linf")]
    return base + [symmetrize_relation(r) for r in base]


def _probe_rows(dim, seed, scale):
    """Pairs that land on both sides of every predicate: generic,
    projected off x (orthogonal up to rounding), nudged off orthogonal
    by about the tolerance, parallel, and with zero rows or zero
    coordinates."""
    rng = np.random.default_rng(seed)
    n = 24
    xs = rng.normal(size=(n, dim))
    ys = rng.normal(size=(n, dim))
    perp = ys - (np.sum(xs * ys, axis=1)
                 / np.sum(xs * xs, axis=1))[:, None] * xs
    nudge = perp + rng.choice([1e-11, 1e-9, 1e-7], size=(n, 1)) * xs
    par = rng.uniform(-2.0, 2.0, size=(n, 1)) * xs
    xs = np.vstack([xs, xs, xs, xs, xs])
    ys = np.vstack([ys, perp, nudge, par, ys])
    xs[::9] = 0.0
    ys[::7] = 0.0
    xs[3::5, 0] = 0.0
    ys[4::6, -1] = 0.0
    # partners from the kernel of sign(x), the l1 norming functional
    for i in range(6):
        phi = np.sign(xs[n + i])
        ys[n + i] = rng.normal(size=dim)
        ys[n + i] -= (ys[n + i] @ phi) / max(phi @ phi, 1.0) * phi
    return scale * xs, ys * rng.choice([scale, 1.0], size=(len(ys), 1))


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
def test_predicate_matches_one_point_reference(dim, scale):
    xs, ys = _probe_rows(dim, seed=dim, scale=scale)
    for rel in _relations():
        want = [ref_is_orthogonal(rel, x, y) for x, y in zip(xs, ys)]
        assert orth._orthogonal(rel, xs, ys).tolist() == want
        assert [is_orthogonal(rel, x, y) for x, y in zip(xs, ys)] == want
    # the probe rows reach both verdicts for every relation at unit scale
    if scale == 1.0:
        for rel in _relations():
            assert len({ref_is_orthogonal(rel, x, y)
                        for x, y in zip(xs, ys)}) == 2


def test_max_minors_match_outer_products():
    rng = np.random.default_rng(3)
    xs = rng.normal(size=(50, 5)) * 10.0 ** rng.integers(-150, 150,
                                                         size=(50, 1))
    ys = rng.normal(size=(50, 5))
    ys[::4] = 0.0
    got = orth._max_minors(xs, ys)
    assert got.tolist() == [ref_max_minor(x, y) for x, y in zip(xs, ys)]


def _assert_same_report(got, want):
    assert got.to_dict() == want.to_dict()
    assert dump_json_17g(got.to_dict()) == dump_json_17g(want.to_dict())


@pytest.mark.parametrize("name, rel, dim, n, seed, radius", [
    ("inner", inner_product_relation(), 3, 64, 0, 8.0),
    ("trivial", trivial_relation(), 5, 12, 1, 8.0),
    ("bj:l2", birkhoff_james_relation(), 2, 256, 7, 1e-6),
    # independence fails: its tolerance is absolute
    ("inner tiny", inner_product_relation(), 3, 32, 0, 1e-100),
    # symmetry fails
    ("bj:l1", birkhoff_james_relation("l1"), 3, 32, 42, 8.0),
    ("bj:linf", birkhoff_james_relation("linf"), 8, 4, 1, 1e100),
    ("bj:l1 sym", symmetrize_relation(birkhoff_james_relation("l1")),
     3, 40, 2, 8.0),
    ("bj:linf sym", symmetrize_relation(birkhoff_james_relation("linf")),
     3, 20, 3, 8.0),
    # homogeneity fails: pairs sampled at 1e-6 miss a tolerance of 0.05
    ("trivial tol", OrthoRelation("trivial", tol=0.05), 3, 64, 5, 8.0),
    # some sampled pairs redraw their partner
    ("trivial small", trivial_relation(), 3, 64, 7, 0.01),
])
def test_check_axioms_matches_one_point_reference(name, rel, dim, n, seed,
                                                  radius):
    _assert_same_report(check_axioms(rel, dim, n, seed, radius),
                        ref_check_axioms(rel, dim, n, seed, radius))


def test_witness_order_under_an_arbitrary_predicate(monkeypatch):
    """Every check fails on about half its probes, so the first three
    failures, their order and the counts are all compared."""
    def rows_rule(rel, xs, ys):
        return xs.sum(axis=1) <= ys.sum(axis=1)

    def point_rule(rel, x, y):
        return bool(x.sum() <= y.sum())

    monkeypatch.setattr(orth, "_directed", rows_rule)
    for rel in (inner_product_relation(),
                symmetrize_relation(birkhoff_james_relation("linf"))):
        got = check_axioms(rel, 3, 48, seed=4)
        want = ref_check_axioms(rel, 3, 48, seed=4, directed=point_rule)
        _assert_same_report(got, want)
        if not rel.symmetrized:
            for chk in got.checks.values():
                if chk.name != "independence":
                    assert chk.failures > 3


@pytest.mark.parametrize("norm", ["l1", "linf"])
def test_split_failures_carry_one_point_residuals(norm, monkeypatch):
    solve = orth._bj_splits

    def fails_on_negative_lead(rel, xs, lams):
        y0, first, second = solve(rel, xs, lams)
        y0[xs[:, 0] < 0.0] = np.nan
        return y0, first, second

    monkeypatch.setattr(orth, "_bj_splits", fails_on_negative_lead)
    rel = birkhoff_james_relation(norm)
    got = check_axioms(rel, 3, 24, seed=6)
    _assert_same_report(got, ref_check_axioms(rel, 3, 24, seed=6))
    split = got.checks["split_existence"]
    assert split.failures > 3
    assert all("residuals" in w for w in split.witnesses)


@pytest.mark.parametrize("norm", ["l1", "linf"])
def test_overflowed_minor_fails_independence(norm):
    # at this radius |x|^2 overflows and every minor is inf - inf = NaN;
    # a NaN minor is no evidence of independence
    with np.errstate(all="ignore"):
        report = check_axioms(birkhoff_james_relation(norm), 3,
                              radius=1e200)
    indep = report.checks["independence"]
    assert not indep.passed
    assert indep.failures == indep.tested
    assert not report.passed


def ref_one_sided_slopes(norm, a, b):
    """Left and right derivatives at t = 0 of t -> ||a + t*b|| (l1/linf)."""
    if norm == "l1":
        base = float(np.sign(a) @ b)
        free = float(np.sum(np.abs(b[a == 0.0])))
        return base - free, base + free
    aa = np.abs(a)
    top = aa == aa.max()
    vals = np.sign(a[top]) * b[top]
    return float(vals.min()), float(vals.max())


def ref_bisection_split(rel, x, lam):
    """The l1/linf split found one point at a time by bracket doubling
    and bisection on the signs of the one-sided slopes, as before the
    solver wrote the roots down in closed form."""
    nrm = norm_eval(rel.norm, x)
    if rel.norm == "l1":
        phi = np.sign(x)
    else:
        j = int(np.argmax(np.abs(x)))
        phi = np.zeros_like(x)
        phi[j] = np.sign(x[j])
    u = orth.unit_perp(x / nrm)
    y_dir = u - (float(u @ phi) / float(phi @ phi)) * phi
    y_dir *= nrm / math.sqrt(float(y_dir @ y_dir))

    def side(s):
        down, up = ref_one_sided_slopes(rel.norm, x + s * y_dir,
                                        lam * x - s * y_dir)
        if down > 0.0:
            return 1
        if up < 0.0:
            return -1
        return 0

    lo, hi = 0.0, 1.0 + math.sqrt(lam)
    for _ in range(200):
        if side(hi) <= 0:
            break
        lo, hi = hi, 2.0 * hi
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        c = side(mid)
        if c == 0:
            lo = hi = mid
        elif c > 0:
            lo = mid
        else:
            hi = mid
    for s in (hi, lo):
        y0 = s * y_dir
        if (bj_margin(rel.norm, x, y0) >= -rel.tol * (1.0 + nrm)
                and bj_margin(rel.norm, x + y0, lam * x - y0)
                >= -rel.tol * (1.0 + norm_eval(rel.norm, x + y0))):
            return y0
    raise ThalesianNotFoundError(f"no splitting vector found for lam={lam:g}")


@pytest.mark.parametrize("norm", ["l1", "linf"])
@pytest.mark.parametrize("dim", [2, 3, 5, 8])
@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
def test_exact_split_fails_no_row_the_bisection_splits(norm, dim, scale):
    rel = birkhoff_james_relation(norm)
    rng = np.random.default_rng(dim)
    # generic rows, and lattice rows with zero coordinates and ties in |x|
    lattice = rng.integers(-2, 3, size=(12, dim)).astype(float)
    lattice[:, 0] = np.where(lattice[:, 0] == 0.0, 1.0, lattice[:, 0])
    xs = np.vstack([rng.normal(size=(12, dim)), lattice]) * scale
    lams = rng.uniform(0.0, 10.0, size=len(xs))
    lams[::4] = 1.0
    got = thalesian_solve(rel, xs, lams)
    split = 0
    for x, lam, y0 in zip(xs, lams, got):
        try:
            ref_bisection_split(rel, x, float(lam))
        except ThalesianNotFoundError:
            continue
        split += 1
        assert not np.isnan(y0).any()
    assert split > 0


def _sampled(sample, rel, dim, count, radius, seed):
    """The pairs' bytes, or the type and message of what was raised."""
    try:
        with np.errstate(all="ignore"):
            return sample(rel, dim, count, radius, seed).tobytes()
    except (PairGenerationError, ValueError) as err:
        return type(err).__name__, str(err)


@pytest.mark.parametrize("dim", [2, 3, 4, 8, 17, 64])
@pytest.mark.parametrize("name", ["trivial", "inner", "bj:l2", "bj:l1",
                                  "bj:linf"])
def test_sampler_matches_one_pair_reference(name, dim):
    rel = {"trivial": trivial_relation(), "inner": inner_product_relation(),
           "bj:l2": birkhoff_james_relation(),
           "bj:l1": birkhoff_james_relation("l1"),
           "bj:linf": birkhoff_james_relation("linf")}[name]
    count = 40 if dim <= 8 else 12
    # trivial partners in high dims at radius 0.01 have minors near 1e-6
    # and may run out of retries; the message has to match then
    for radius in (8.0, 0.01, 3e100):
        for seed in range(10):
            assert (_sampled(sample_orthogonal_pairs, rel, dim, count, radius,
                             seed)
                    == _sampled(ref_sample_orthogonal_pairs, rel, dim, count,
                                radius, seed)), (radius, seed)


@pytest.mark.parametrize("block", [None, 9 * 5])
def test_redrawn_rows_rewind_the_batch(block, monkeypatch):
    # at radius 0.01 a trivial pair's minor falls below 1e-6*(1 + |x||y|)
    # now and then, and its partner is redrawn
    one_pair = orth._one_pair
    redrawn = []

    def counting(*args):
        redrawn.append(args)
        return one_pair(*args)

    monkeypatch.setattr(orth, "_one_pair", counting)
    if block is not None:
        # batches of five rows at dim 3
        monkeypatch.setattr(orth, "_BLOCK", block)
    rel = trivial_relation()
    for seed in range(25):
        want = ref_sample_orthogonal_pairs(rel, 3, 200, 0.01, seed)
        got = sample_orthogonal_pairs(rel, 3, 200, 0.01, seed)
        assert got.tobytes() == want.tobytes(), seed
    assert len(redrawn) == 28


@pytest.mark.parametrize("rel, dim, radius", [
    # no independent partner: every minor is below 1e-6
    (trivial_relation(), 3, 1e-100),
    # no margin passes -0.05*tol*(1 + ||x||) at this tolerance
    (OrthoRelation("birkhoff_james", "l1", 1e-300), 3, 8.0),
    # points overflow: bj_margin refuses them
    (birkhoff_james_relation("l1"), 2, 1.7e308),
    (birkhoff_james_relation("linf"), 2, 1e308),
])
def test_sampler_fails_as_the_reference_does(rel, dim, radius):
    outcomes = [_sampled(sample_orthogonal_pairs, rel, dim, 12, radius, s)
                for s in range(4)]
    assert outcomes == [_sampled(ref_sample_orthogonal_pairs, rel, dim, 12,
                                 radius, s) for s in range(4)]
    assert any(isinstance(out, tuple) for out in outcomes)


def ref_draws(rng, n, k, dim):
    """n rows of k draws, each normal(size=dim) then uniform(0.1, 1.0)."""
    vs = np.empty((n * k, dim))
    us = np.empty(n * k)
    for i in range(n * k):
        vs[i] = rng.normal(size=dim)
        us[i] = rng.uniform(0.1, 1.0)
    return (np.ascontiguousarray(vs.reshape(n, k, dim).transpose(1, 0, 2)),
            us.reshape(n, k).T)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("dim", [2, 3, 8, 64])
def test_draws_match_the_per_row_calls(dim, k):
    # _draws maps raw variates through loc + scale*z and low + range*u
    # itself; where the generator's C code rounds these differently
    # (say, low + range*u fused into one multiply-add), this fails
    for seed in range(50):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = orth._draws(rng, 37, k, dim), ref_draws(ref, 37, k, dim)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes(), seed
        assert rng.bit_generator.state == ref.bit_generator.state, seed
