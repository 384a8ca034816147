"""Metamorphic relations: the pipeline checked against itself.

Relation 1, scaling the range scales the report, bit for bit.
Multiply all four maps of a quadruple by c = 2^k with ``map_scale``, and
the ladder's tol by c too.  A power of two commutes with every rounding
while no value overflows or turns subnormal, and the pairs, the grid and
the relation's own tol are domain-side, so the report of the scaled run
is the report of the unscaled one with every range-side float times c:
defects, gaps, bounds, a-priori bounds, per-step distances and residuals.
Coefficients, ratios and lam are dimensionless and stay; so do verdicts,
step counts and labels.  ``config`` echoes the scaled tol and
``fingerprints`` hash the correctors' values, so neither is compared.

Relation 2, adding an exact solution moves the extracts by it.  Append
the terms of a second, noise-free quadruple (P' + A', P' - A', 2P',
2P' + 2A') to the four maps with ``map_sum``.  The equation is linear,
so eps and every verdict stay, up to rounding, and R, R', S and S' move
by A', -A', P' and P'.  Those moves are exact: each extract is
2^-n m(2^n x) or 4^-n m(2^n x), and powers of two scale the solution's
values without rounding.

Neither relation needs a second implementation of the pipeline: each
checks the pipeline against itself (Chen, Cheung and Yiu, "Metamorphic testing:
a new approach for generating next test cases", HKUST-CS98-01, 1998).
"""

import functools

import numpy as np
import pytest

from orthostab import cli
from orthostab.funcspace import map_scale, map_sum, sup_distance
from orthostab.orthogonality import (sample_orthogonal_pairs,
                                     symmetrize_relation)
from orthostab.perturb import compose_pexider_instance, random_ground_truth
from orthostab.stability import (PipelineConfig, StabilityReport,
                                 closure_pairs, run_main_theorem)

EXPONENTS = (-40, -20, 7, 40)
# floats that keep their value when the range scales
DIMENSIONLESS = ("coefficient", "ratio", "lam")
# the exact solution relation 2 adds: delta 0 leaves its maps noise-free
SOLUTION = random_ground_truth(3, seed=5)
# relation 2's bound on |eps' - eps|.  On the pair set every value the
# residual adds is below 2^9 (350 at most), where an ulp is 2^-44.  A
# residual coordinate takes some 30 roundings, each of at most half an
# ulp: five-term sums for four maps, their leaves' products and three
# differences.  A row's euclidean norm moves by at most sqrt(3) times
# its largest coordinate's move.  So 32 ulps; the largest move seen on
# these cases is 6.8e-14, 1.2 ulps
EPS_MOVE = 32 * 2.0 ** -44


def relation(name: str):
    """A command's relation, polyhedral ones symmetrized as ``report``
    symmetrizes them."""
    rel = cli._build_relation(name)
    return symmetrize_relation(rel) if rel.polyhedral else rel


@functools.lru_cache(maxsize=None)
def pipeline(name: str, delta: float, k: int = 0,
             plus_solution: bool = False) -> StabilityReport:
    """The report of a command's relation on a dim-3 quadruple whose maps
    and tol are scaled by 2^k, with the terms of ``SOLUTION``'s maps
    appended to its own when ``plus_solution`` is set."""
    c = 2.0 ** k
    maps = compose_pexider_instance(random_ground_truth(3, delta=delta,
                                                        seed=0))
    if plus_solution:
        maps = [map_sum(m, s, label=m.label)
                for m, s in zip(maps, compose_pexider_instance(SOLUTION))]
    maps = [map_scale(c, m) for m in maps]
    cfg = PipelineConfig(pair_count=64, grid_count=64, tol=c * 1e-10)
    return run_main_theorem(relation(name), *maps, config=cfg)


def leaves(tree, path=()):
    """(path, value) for every leaf of a report tree, in order."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from leaves(value, path + (key,))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from leaves(value, path + (i,))
    elif path[0] not in ("config", "fingerprints"):
        yield path, tree


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("delta", [0.0, 0.01])
@pytest.mark.parametrize("name", cli._RELATIONS)
def test_range_scaling_scales_every_range_float(name, delta, k):
    base = list(leaves(pipeline(name, delta).to_dict()))
    scaled = list(leaves(pipeline(name, delta, k).to_dict()))
    assert [path for path, _ in scaled] == [path for path, _ in base]
    scaled_floats = 0
    for (path, a), (_, b) in zip(base, scaled):
        assert type(b) is type(a), path
        # the necessity slack is absolute: test_necessity_slack_scales
        if path == ("necessity", "slack"):
            continue
        if (isinstance(a, float) and path[-1] not in DIMENSIONLESS
                and path != ("relation", "tol")):
            # hex tells -0.0 from 0.0 and takes NaN as equal to itself
            assert b.hex() == (2.0 ** k * a).hex(), path
            scaled_floats += a != 0.0
        else:
            assert b == a, path
    # defects, gaps, bounds and ladder distances, not zeros alone
    assert scaled_floats > 20


@pytest.mark.xfail(strict=True, reason=(
    "necessity_check's slack is an absolute 1e-9, the one report value "
    "that does not scale with the maps (ROADMAP item 5)"))
def test_necessity_slack_scales():
    base = pipeline("inner", 0.01).to_dict()
    scaled = pipeline("inner", 0.01, -20).to_dict()
    assert (scaled["necessity"]["slack"]
            == 2.0 ** -20 * base["necessity"]["slack"])


@pytest.mark.parametrize("delta", [0.0, 0.01])
@pytest.mark.parametrize("name", cli._RELATIONS)
def test_adding_an_exact_solution_moves_the_extracts_by_it(name, delta):
    base = pipeline(name, delta)
    moved = pipeline(name, delta, plus_solution=True)
    assert [c.passed for c in moved.bounds] == [c.passed
                                                 for c in base.bounds]
    assert moved.passed == base.passed
    assert ({n: (it["verdict"], it["n_steps"])
             for n, it in moved.iterations.items()}
            == {n: (it["verdict"], it["n_steps"])
                for n, it in base.iterations.items()})
    a, p = SOLUTION.additive_map(), SOLUTION.quadratic_map()
    for part, move in (("R", a), ("R_prime", map_scale(-1.0, a)),
                       ("S", p), ("S_prime", p)):
        assert sup_distance(moved.components[part],
                            map_sum(base.components[part], move),
                            base.grid) == 0.0, part
    # EPS_MOVE's premise: the values the residual adds stay below 2^9
    cfg = PipelineConfig(pair_count=64, grid_count=64)
    pairs = closure_pairs(sample_orthogonal_pairs(
        relation(name), 3, cfg.pair_count, radius=cfg.radius,
        seed=cfg.seed), base.grid)
    x, y = pairs[:, 0], pairs[:, 1]
    f, g, h, k = (moved.components[m] for m in ("F", "G", "H", "K"))
    assert max(np.abs(v).max() for v in (f(x + y), g(x - y), h(x), k(y))) \
        < 2.0 ** 9
    assert abs(moved.eps_hat - base.eps_hat) <= EPS_MOVE
