"""Instance generators: exact identities, noise envelopes, composition."""

import numpy as np
import pytest

from orthostab.funcspace import even_part, odd_part, sup_norm, make_grid
from orthostab.perturb import (GroundTruth, compose_cauchy_instance,
                               compose_pexider_instance,
                               compose_quadratic_instance, make_additive,
                               make_bounded_noise, make_cubic_growth,
                               make_quadratic, random_ground_truth)


class TestAdditive:
    def test_values_and_parity(self):
        m = np.array([[1.0, 2.0], [0.0, -1.0]])
        a = make_additive(m)
        assert a.parity == "odd"
        assert np.array_equal(a(np.array([1.0, 1.0])), np.array([3.0, -1.0]))

    def test_additivity_all_pairs(self):
        a = make_additive(np.random.default_rng(0).normal(size=(3, 3)))
        rng = np.random.default_rng(1)
        x, y = rng.normal(size=(2, 50, 3)) * 5.0
        res = a(x + y) - a(x) - a(y)
        assert np.max(np.abs(res)) < 1e-12

    def test_exact_doubling(self):
        """A(2x) = 2 A(x) must hold bitwise, not just approximately."""
        a = make_additive(np.random.default_rng(2).normal(size=(4, 3)))
        pts = np.random.default_rng(3).normal(size=(64, 3)) * 7.0
        assert np.array_equal(a(2.0 * pts), 2.0 * a(pts))


class TestQuadratic:
    def test_values_and_parity(self):
        p = make_quadratic(np.eye(2)[None, :, :])
        assert p.parity == "even"
        assert p(np.array([3.0, 4.0]))[0] == 25.0

    def test_parallelogram_all_pairs(self):
        forms = np.random.default_rng(4).normal(size=(2, 3, 3))
        forms = 0.5 * (forms + np.transpose(forms, (0, 2, 1)))
        p = make_quadratic(forms)
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, 50, 3)) * 5.0
        res = p(x + y) + p(x - y) - 2.0 * p(x) - 2.0 * p(y)
        assert np.max(np.abs(res)) < 1e-10

    def test_exact_doubling(self):
        forms = np.stack([np.diag([1.0, 2.0, 0.5]), 0.3 * np.eye(3)])
        p = make_quadratic(forms)
        pts = np.random.default_rng(6).normal(size=(64, 3)) * 7.0
        assert np.array_equal(p(2.0 * pts), 4.0 * p(pts))

    def test_asymmetric_rejected(self):
        bad = np.zeros((1, 2, 2))
        bad[0, 0, 1] = 1.0
        with pytest.raises(ValueError):
            make_quadratic(bad)


class TestNoise:
    def test_bounded_by_delta(self):
        n = make_bounded_noise(0.05, 9, 3, 4)
        pts = np.random.default_rng(7).normal(size=(500, 3)) * 50.0
        norms = np.linalg.norm(n(pts), axis=-1)
        assert np.max(norms) <= 0.05

    def test_exactly_zero_at_origin(self):
        n = make_bounded_noise(0.1, 9, 3, 3)
        assert not n.value_at_zero.any()

    def test_zero_delta_is_zero_map(self):
        assert make_bounded_noise(0.0, 1, 3, 3).is_zero_map

    def test_seed_determinism(self):
        a = make_bounded_noise(0.1, 42, 3, 3)
        b = make_bounded_noise(0.1, 42, 3, 3)
        pts = np.random.default_rng(8).normal(size=(10, 3))
        assert np.array_equal(a(pts), b(pts))
        c = make_bounded_noise(0.1, 43, 3, 3)
        assert not np.array_equal(a(pts), c(pts))

    @pytest.mark.parametrize("parity", ["even", "odd"])
    def test_parity_projection(self, parity):
        n = make_bounded_noise(0.1, 11, 3, 3, parity=parity)
        assert n.parity == parity
        pts = np.random.default_rng(9).normal(size=(20, 3)) * 3.0
        sign = 1.0 if parity == "even" else -1.0
        assert np.allclose(n(-pts), sign * n(pts), atol=1e-16)
        norms = np.linalg.norm(n(pts), axis=-1)
        assert np.max(norms) <= 0.1

    def test_bad_parity(self):
        with pytest.raises(ValueError):
            make_bounded_noise(0.1, 0, 2, 2, parity="mixed")

    def test_negative_delta(self):
        with pytest.raises(ValueError):
            make_bounded_noise(-0.1, 0, 2, 2)


class TestCubic:
    def test_values(self):
        c = make_cubic_growth(2.0, 3, 3)
        v = c(np.array([3.0, 0.0, 4.0]))
        assert v[0] == 2.0 * 125.0
        assert np.all(v[1:] == 0.0)
        assert c.parity == "even"


class TestGroundTruth:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroundTruth(np.zeros((2, 3)), np.zeros((2, 2, 2)))
        with pytest.raises(ValueError):
            GroundTruth(np.zeros((2, 3)), np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            GroundTruth(np.zeros((2, 2)), np.zeros((2, 2, 2)), delta=-1.0)

    def test_random_determinism(self):
        a = random_ground_truth(3, delta=0.1, seed=5)
        b = random_ground_truth(3, delta=0.1, seed=5)
        assert np.array_equal(a.additive, b.additive)
        assert np.array_equal(a.forms, b.forms)
        assert a.noise_seeds == b.noise_seeds

    def test_radial_forms(self):
        gt = random_ground_truth(4, seed=1)
        for form in gt.forms:
            off = form - np.diag(np.diag(form))
            assert np.all(off == 0.0)
            assert np.allclose(np.diag(form), form[0, 0])


class TestComposition:
    def test_exact_instance_solves_equation_everywhere(self):
        gt = random_ground_truth(3, delta=0.0, seed=7)
        f, g, h, k = compose_pexider_instance(gt)
        rng = np.random.default_rng(10)
        x, y = rng.normal(size=(2, 200, 3)) * 8.0
        res = f(x + y) + g(x - y) - h(x) - k(y)
        assert np.max(np.linalg.norm(res, axis=-1)) < 1e-10

    def test_noisy_instance_defect_at_most_4_delta(self):
        delta = 1e-2
        gt = random_ground_truth(3, delta=delta, seed=8)
        f, g, h, k = compose_pexider_instance(gt)
        rng = np.random.default_rng(11)
        x, y = rng.normal(size=(2, 200, 3)) * 8.0
        res = f(x + y) + g(x - y) - h(x) - k(y)
        assert np.max(np.linalg.norm(res, axis=-1)) <= 4.0 * delta + 1e-10

    def test_component_structure(self):
        gt = random_ground_truth(3, delta=0.0, seed=9)
        f, g, h, k = compose_pexider_instance(gt)
        a = gt.additive_map()
        p = gt.quadratic_map()
        pts = np.random.default_rng(12).normal(size=(20, 3)) * 4.0
        assert np.array_equal(f(pts), p(pts) + a(pts))
        assert np.array_equal(h(pts), 2.0 * p(pts))
        # parity projections resolve structurally on exact instances
        assert odd_part(f).parity == "odd"
        assert even_part(f).parity == "even"
        assert np.array_equal(odd_part(f)(pts), a(pts))
        assert np.array_equal(even_part(f)(pts), p(pts))

    def test_cauchy_instance(self):
        gt = random_ground_truth(3, delta=1e-3, seed=10)
        f, h, k = compose_cauchy_instance(gt)
        rng = np.random.default_rng(13)
        x, y = rng.normal(size=(2, 100, 3)) * 6.0
        res = f(x + y) - h(x) - k(y)
        assert np.max(np.linalg.norm(res, axis=-1)) <= 3e-3 + 1e-9

    def test_quadratic_instance_even(self):
        gt = random_ground_truth(3, delta=1e-3, seed=11)
        q = compose_quadratic_instance(gt)
        grid = make_grid(3, 32, 8.0, seed=0)
        assert sup_norm(odd_part(q), grid) == 0.0
        pts = grid.points
        assert np.allclose(q(-pts), q(pts), atol=1e-16)
