import numpy as np
import pytest

from uniprobe.cli import _grid_min_norm as grid_min_norm
from uniprobe.hullgeom import min_hull_norm, origin_in_hull


class TestMinHullNorm:
    def test_single_point(self):
        res = min_hull_norm([1.0 + 0j])
        assert res.min_norm == pytest.approx(1.0)
        np.testing.assert_allclose(res.weights, [1.0])

    def test_antipodal_pair(self):
        res = min_hull_norm([1.0, -1.0])
        assert res.min_norm == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-12)

    def test_quarter_turn_pair(self):
        # frozen from the 1e-4 grid oracle, which lands on sqrt(2)/2 exactly
        assert grid_min_norm([1.0, 1j], step=1e-4) == pytest.approx(np.sqrt(2) / 2, abs=1e-7)
        res = min_hull_norm([1.0, 1j])
        assert res.min_norm == pytest.approx(0.7071067811865476, abs=1e-12)
        np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-12)

    def test_cube_roots_of_unity(self):
        pts = np.exp(2j * np.pi * np.arange(3) / 3)
        res = min_hull_norm(pts)
        assert res.min_norm == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(res.weights, np.full(3, 1 / 3), atol=1e-9)

    def test_weights_are_convex_and_witness_consistent(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 7))
            pts = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            res = min_hull_norm(pts)
            assert np.all(res.weights >= 0)
            assert res.weights.sum() == pytest.approx(1.0, abs=1e-10)
            assert abs(np.dot(res.weights, pts)) == pytest.approx(res.min_norm, abs=1e-9)

    def test_duplicate_points_pick_lowest_index(self):
        res = min_hull_norm([1.0, 1.0])
        np.testing.assert_allclose(res.weights, [1.0, 0.0])

    def test_antipodal_tie_prefers_fewest_points_lowest_indices(self):
        # phases {1, -1, 1}: two antipodal pairs achieve zero; (0, 1) wins
        res = min_hull_norm([1.0, -1.0, 1.0])
        np.testing.assert_allclose(res.weights, [0.5, 0.5, 0.0], atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            min_hull_norm([])
        with pytest.raises(ValueError):
            min_hull_norm([0.5 + 0j])


class TestOriginInHull:
    def test_examples(self):
        assert not origin_in_hull([1.0, 1.0])
        assert origin_in_hull([1.0, -1.0])

    def test_open_half_plane_case(self):
        pts = np.exp(1j * np.array([0.1, 1.0, 2.0]))
        # all angles fit in an arc shorter than pi, so the hull misses the origin
        assert not origin_in_hull(pts)
        assert min_hull_norm(pts).min_norm > 1e-3


class TestProperties:
    def test_rotation_invariance(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            pts = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            gamma = rng.uniform(0, 2 * np.pi)
            a = min_hull_norm(pts).min_norm
            b = min_hull_norm(pts * np.exp(1j * gamma)).min_norm
            assert a == pytest.approx(b, abs=1e-9)

    def test_uniform_weight_upper_bound(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            pts = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            assert min_hull_norm(pts).min_norm <= abs(pts.mean()) + 1e-12

    def test_grid_oracle_matches_loop_reference(self, rng):
        # the four-point oracle is vectorized over j; the scalar loop it
        # replaced, on a coarse grid, must give the same minimum
        m = 100
        for _ in range(3):
            pts = np.exp(1j * rng.uniform(0, 2 * np.pi, 4))
            direction = (pts[2] - pts[3]) / m
            best = np.inf
            for i in range(m + 1):
                for j in range(m + 1 - i):
                    rem = m - i - j
                    base = pts[0] * (i / m) + pts[1] * (j / m) + pts[3] * (rem / m)
                    k = -((base.conjugate() * direction).real) / abs(direction) ** 2
                    for kk in {int(np.floor(k)), int(np.ceil(k))}:
                        best = min(best, abs(base + min(max(kk, 0), rem) * direction))
            assert grid_min_norm(pts, step=1.0 / m) == pytest.approx(best, abs=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_grid_oracle_agreement(self, n, rng):
        for _ in range(6):
            pts = np.exp(1j * rng.uniform(0, 2 * np.pi, n))
            exact = min_hull_norm(pts).min_norm
            grid = grid_min_norm(pts, step=1e-3)
            assert abs(exact - grid) <= 2e-3
            assert exact <= grid + 1e-12  # the grid is a restriction
