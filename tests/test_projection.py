import numpy as np
import numpy.testing as npt
import pytest

from budgetmax import is_feasible, project_onto_feasible
from budgetmax.oracles import grid_projection, projection_certificate
from budgetmax.projection import _clamp, _project_from
from conftest import random_energies


def test_feasible_point_unchanged():
    z = np.array([0.3, 0.2, 0.0])
    y = np.array([0.5, 0.1, 1.0])
    assert float(y @ z) <= 1.0
    npt.assert_array_equal(project_onto_feasible(y, z), y)


def test_zero_energy_reduces_to_box_clamp():
    npt.assert_array_equal(project_onto_feasible([2.0, -1.0], [0.0, 0.0]), [1.0, 0.0])


def test_symmetric_active_budget():
    # both coordinates clamp to 5/6 where the budget is exactly active
    z = np.array([0.6, 0.6])
    x = project_onto_feasible([1.0, 1.0], z)
    npt.assert_allclose(x, [5.0 / 6.0, 5.0 / 6.0], atol=1e-9)
    assert float(x @ z) <= 1.0 + 1e-12
    # KKT: x = clamp(y - lam*z) with lam = 5/18 reproduces the same point
    lam = 5.0 / 18.0
    npt.assert_allclose(x, np.clip(np.array([1.0, 1.0]) - lam * z, 0.0, 1.0), atol=1e-9)


def test_is_feasible_examples():
    assert is_feasible([0.0, 0.0], [0.6, 0.6])
    assert is_feasible([5.0 / 6.0, 5.0 / 6.0], [0.6, 0.6])
    assert not is_feasible([1.0, 1.0], [0.6, 0.6])
    assert not is_feasible([-0.1], [0.0])
    assert not is_feasible([1.1], [0.0])


def test_non_finite_input_rejected():
    with pytest.raises(ValueError):
        project_onto_feasible([np.nan, 0.0], [0.1, 0.1])
    with pytest.raises(ValueError):
        project_onto_feasible([np.inf, 0.0], [0.1, 0.1])


@pytest.mark.parametrize("y, z", [([1.0, 0.5], [0.1]), ([[1.0, 0.5]], [0.1, 0.1])])
def test_bad_shapes_rejected(y, z):
    with pytest.raises(ValueError, match="y and z must be 1-d vectors of equal length"):
        project_onto_feasible(y, z)


@pytest.mark.parametrize("y, z", [([2.0], [np.nan]), ([2.0], [np.inf]),
                                  ([2.0, 2.0], [-1.0, 3.0])])
def test_bad_energies_rejected(y, z):
    # unchecked, these end in an IndexError, a nan point, and [1, 1/3] for the
    # last, whose KKT point is [1, 2/3] (lam = 4/9)
    with pytest.raises(ValueError, match="energies must be finite and non-negative"):
        project_onto_feasible(y, z)


def test_output_always_feasible():
    rng = np.random.default_rng(31)
    for _ in range(10_000):
        n = int(rng.integers(1, 51))
        z = random_energies(rng, n, beta_max=1.0)
        y = rng.uniform(-2.0, 3.0, n)
        x = project_onto_feasible(y, z)
        assert is_feasible(x, z)


def test_idempotence():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        z = random_energies(rng, n, beta_max=1.0)
        x = project_onto_feasible(rng.uniform(-2.0, 3.0, n), z)
        again = project_onto_feasible(x, z)
        npt.assert_allclose(again, x, atol=1e-10)


def test_non_expansive():
    rng = np.random.default_rng(41)
    for _ in range(500):
        n = int(rng.integers(1, 20))
        z = random_energies(rng, n, beta_max=1.0)
        a = rng.uniform(-2.0, 3.0, n)
        b = rng.uniform(-2.0, 3.0, n)
        pa = project_onto_feasible(a, z)
        pb = project_onto_feasible(b, z)
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) + 1e-10


def test_matches_grid_oracle_small():
    rng = np.random.default_rng(43)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        z = random_energies(rng, n, beta_max=1.0)
        y = rng.uniform(-0.5, 2.0, n)
        x = project_onto_feasible(y, z)
        res = 1e-3 if n <= 3 else 4e-3
        g = grid_projection(y, z, res)
        # solver must not lose to the (feasible) grid point, and the grid
        # point can beat the solver by at most the grid's own resolution
        assert np.linalg.norm(x - y) <= np.linalg.norm(g - y) + 1e-9
        assert np.linalg.norm(g - y) <= np.linalg.norm(x - y) + n * res


def assert_certified(y, z, tol=1e-9):
    """Project ``y`` and check every KKT residual of the result."""
    x = project_onto_feasible(y, z)
    cert = projection_certificate(y, z, x)
    assert cert.lam >= 0.0
    assert max(cert.stationarity, cert.complementarity, cert.feasibility) <= tol, cert
    return x, cert


def test_certificate_fuzz_up_to_n_1000():
    rng = np.random.default_rng(53)
    bound = 0
    for k in range(400):
        n = int(rng.integers(1, 1001))
        z = random_energies(rng, n, beta_max=1.0)
        y = rng.uniform(-2.0, 3.0, n) * [0.1, 1.0, 10.0][k % 3]
        x, cert = assert_certified(y, z)
        assert float(x @ z) <= 1.0 + 1e-12
        bound += cert.lam > 0.0
    assert bound > 300  # the budget binds on most instances, so lam is exercised


def test_certificate_rejects_non_projections():
    z = np.array([0.6, 0.6])
    y = np.array([1.0, 1.0])
    # feasible but not nearest: complementarity or stationarity must show it
    cert = projection_certificate(y, z, [0.5, 0.5])
    assert max(cert.stationarity, cert.complementarity) > 0.1
    # the box clamp is nearest to the box alone but breaks the budget
    assert projection_certificate(y, z, [1.0, 1.0]).feasibility == pytest.approx(0.2)
    # an optimum recovers the multiplier lam = 5/18 of test_symmetric_active_budget
    cert = projection_certificate(y, z, [5.0 / 6.0, 5.0 / 6.0])
    assert cert.lam == pytest.approx(5.0 / 18.0)
    # a point of another length is no projection of y
    with pytest.raises(ValueError, match="y, z and x must be 1-d vectors of equal length"):
        projection_certificate(y, z, [1.0])


def test_duplicate_breakpoints():
    # every coordinate identical: all 2n breakpoints coincide in two values
    x, _ = assert_certified(np.full(50, 1.5), np.full(50, 0.1))
    npt.assert_allclose(x, np.full(50, 0.2), atol=1e-12)
    # the three free coordinates reach 0 together at lam = 0.7, exactly where
    # the two saturated ones fill the budget: u stays at 1 on a flat piece
    y = [1.525, 5.0, 0.42, 0.42, 0.63]
    z = [0.25, 0.75, 0.6, 0.6, 0.9]
    x, _ = assert_certified(y, z)
    npt.assert_allclose(x, [1.0, 1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_zero_energies_left_to_box_clamp():
    y = np.array([2.0, -1.0, 0.8, 1.2, 0.9])
    z = np.array([0.0, 0.0, 0.7, 0.0, 0.8])
    x, cert = assert_certified(y, z)
    npt.assert_array_equal(x[z == 0.0], [1.0, 0.0, 1.0])
    assert cert.lam > 0.0


def test_single_unit_energy():
    x, cert = assert_certified([1.0, 1.0, 1.0], [1.0, 0.3, 0.3])
    # all free: (1 - lam) + 0.3 * 2 * (1 - 0.3 * lam) = 1
    lam = 0.6 / 1.18
    npt.assert_allclose(x, 1.0 - lam * np.array([1.0, 0.3, 0.3]), atol=1e-12)
    assert cert.lam == pytest.approx(lam)
    # alone, a unit energy never binds: the box clamp uses at most 1
    npt.assert_array_equal(project_onto_feasible([7.0, 3.0], [1.0, 0.0]), [1.0, 1.0])


def test_input_on_the_budget_is_unchanged():
    for y, z in (([0.5, 0.5], [1.0, 1.0]), ([2.0, 0.5, -3.0], [0.5, 1.0, 0.4])):
        x = project_onto_feasible(y, z)
        npt.assert_array_equal(x, np.clip(y, 0.0, 1.0))
        assert float(x @ np.asarray(z)) == 1.0
        assert projection_certificate(y, z, x).lam == 0.0


def test_large_magnitudes():
    # y - lam*z loses digits in proportion to |y|, so residuals scale with it
    rng = np.random.default_rng(59)
    for k in range(200):
        n = int(rng.integers(1, 300))
        z = random_energies(rng, n, beta_max=1.0)
        y = rng.uniform(-1.0, 1.0, n) * 10.0 ** (k % 7)
        x = project_onto_feasible(y, z)
        cert = projection_certificate(y, z, x)
        tol = 1e-13 * max(1.0, float(np.max(np.abs(y))))
        assert cert.stationarity <= tol and cert.feasibility <= tol, cert
        assert cert.complementarity <= tol * max(1.0, cert.lam), cert


def test_single_live_coordinate():
    # coordinate 1 has y <= 0 and coordinate 2 has z = 0, so only 0 moves
    x, cert = assert_certified([1.0, -2.0, 4.0], [1.5, 0.5, 0.0])
    npt.assert_allclose(x, [2.0 / 3.0, 0.0, 1.0], atol=1e-12)
    assert cert.lam == pytest.approx(2.0 / 9.0)


def breakpoints(y, z):
    """The distinct positive values of lam where a live coordinate leaves 1 or reaches 0."""
    live = (z > 0.0) & (y > 0.0)
    points = np.concatenate(((y[live] - 1.0) / z[live], y[live] / z[live]))
    return np.unique(points[points > 0.0])


def assert_same_from_every_start(y, z, inside=()):
    """Project from lam0 = 0, the answer, its adjacent breakpoints, 10x the answer and
    lam_max (plus ``inside``); every start must give the same bits."""
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    x, lam = _project_from(y, z, 0.0)
    assert x.tobytes() == project_onto_feasible(y, z).tobytes()
    points = breakpoints(y, z)
    k = int(np.searchsorted(points, lam))
    adjacent = [float(points[j]) for j in (k - 1, k, k + 1) if 0 <= j < len(points)]
    lam_max = float(points[-1]) if len(points) else 0.0
    for lam0 in (lam, *adjacent, 10.0 * lam, lam_max, *inside):
        again, lam_again = _project_from(y, z, lam0)
        assert again.tobytes() == x.tobytes(), lam0
        assert lam_again == lam, lam0
    return x, lam


def test_warm_starts_give_the_same_bits():
    rng = np.random.default_rng(61)
    for k in range(300):
        n = int(rng.integers(1, 1001)) if k % 10 == 0 else int(rng.integers(1, 30))
        z = random_energies(rng, n, beta_max=1.0)
        y = rng.uniform(-2.0, 3.0, n) * [0.1, 1.0, 10.0][k % 3]
        x, lam = assert_same_from_every_start(y, z)
        cert = projection_certificate(y, z, x)
        assert max(cert.stationarity, cert.complementarity, cert.feasibility) <= 1e-9, cert


def test_warm_starts_on_grid_points():
    # y and z on grid points put roots on breakpoints and make flat pieces
    rng = np.random.default_rng(67)
    for k in range(3000):
        n = int(rng.integers(1, 9))
        res = (1.0 / 3.0, 0.1, 0.25, 0.05, 0.125)[k % 5]
        z = np.minimum(rng.integers(0, round(1.0 / res) + 1, n) * res, 1.0)
        y = rng.integers(-3, round(3.0 / res), n) * res
        x, _ = assert_same_from_every_start(y, z)
        cert = projection_certificate(y, z, x)
        assert max(cert.stationarity, cert.complementarity, cert.feasibility) <= 1e-9, cert


def test_root_on_a_breakpoint():
    # coordinate 1 reaches 0 at lam = 0.5 just as coordinate 0 leaves 1
    x, lam = assert_same_from_every_start([1.5, 0.5], [1.0, 1.0])
    npt.assert_array_equal(x, [1.0, 0.0])
    assert lam == 0.5


def test_flat_piece_on_grid_points():
    # u = 1.125 - 0.25 lam reaches 1 at lam = 0.5, where coordinate 1 hits 0;
    # u then stays at 1 (coordinate 0 alone fills the budget) until lam = 1.
    # The root taken is the smallest, whichever piece the search starts on.
    x, lam = assert_same_from_every_start([2.0, 0.25], [1.0, 0.5], inside=(0.75, 1.0))
    npt.assert_array_equal(x, [1.0, 0.0])
    assert lam == 0.5
    x, _ = assert_same_from_every_start([1.525, 5.0, 0.42, 0.42, 0.63],
                                        [0.25, 0.75, 0.6, 0.6, 0.9], inside=(1.0, 2.0))
    npt.assert_allclose(x, [1.0, 1.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_duplicate_breakpoints_from_every_start():
    x, lam = assert_same_from_every_start(np.full(50, 1.5), np.full(50, 0.1))
    npt.assert_allclose(x, np.full(50, 0.2), atol=1e-12)
    assert lam == pytest.approx(13.0)
    # two groups whose breakpoints coincide pairwise
    y = np.array([1.2, 1.2, 2.4, 2.4, 0.6, 0.6])
    z = np.array([0.2, 0.2, 0.4, 0.4, 0.1, 0.1])
    x, _ = assert_same_from_every_start(y, z)
    assert_certified(y, z)


def test_clamp_keeps_the_bits_of_np_clip():
    edge = np.array([-0.0, 0.0, 5e-324, -5e-324, 1.0, np.nextafter(1.0, 2.0), -1e300, 1e300, 0.5])
    assert _clamp(edge).tobytes() == np.clip(edge, 0.0, 1.0).tobytes()


def test_warm_start_against_grid_oracle():
    rng = np.random.default_rng(71)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        z = random_energies(rng, n, beta_max=1.0)
        y = rng.uniform(-0.5, 2.0, n)
        _, lam = _project_from(y, z, 0.0)
        x, _ = _project_from(y, z, 10.0 * lam + 1.0)
        g = grid_projection(y, z, 1e-3)
        assert np.linalg.norm(x - y) <= np.linalg.norm(g - y) + 1e-9
        assert np.linalg.norm(g - y) <= np.linalg.norm(x - y) + n * 1e-3
