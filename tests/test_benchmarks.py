"""Oracle tests for the seven benchmark functions and problem construction."""

import functools
import math
import operator
import pickle
import re

import numpy as np
import pytest

from codoa import benchmarks
from codoa.benchmarks import (
    REGISTRY,
    beale,
    booth,
    check_entry,
    goldstein_price,
    make_problem,
    mccormick,
    rosenbrock,
    sphere,
    three_hump_camel,
)
from codoa.engine import AlgorithmParams, ConfigurationError, ObjectiveProblem, run

from support import rosenbrock_loop, sphere_loop


class TestKnownMinima:
    def test_booth_minimum(self):
        assert booth(1.0, 3.0) == pytest.approx(0.0, abs=1e-9)

    def test_beale_minimum(self):
        assert beale(3.0, 0.5) == pytest.approx(0.0, abs=1e-9)

    def test_goldstein_price_minimum(self):
        assert goldstein_price(0.0, -1.0) == pytest.approx(3.0, abs=1e-9)

    def test_mccormick_minimum(self):
        # published minimizer/minimum are rounded, hence the looser tolerance
        assert mccormick(-0.54719, -1.54719) == pytest.approx(-1.9133, abs=1e-4)

    def test_three_hump_camel_minimum(self):
        assert three_hump_camel(0.0, 0.0) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 5, 30])
    def test_sphere_minimum(self, n):
        assert sphere(np.zeros(n)) == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 5, 30])
    def test_rosenbrock_minimum(self, n):
        assert rosenbrock(np.ones(n)) == pytest.approx(0.0, abs=1e-9)

    def test_registry_specs_reproduce_their_minima(self):
        for spec in REGISTRY.values():
            dim = min(spec.dimensions[1], 2)
            problem = make_problem(spec.name, dim)
            value = problem.evaluator(problem.known_minimizer)
            tol = 1e-4 if spec.name == "mccormick" else 1e-9
            assert value == pytest.approx(spec.known_minimum_value, abs=tol), spec.name


class TestHandComputedValues:
    def test_booth_away_from_minimum(self):
        assert booth(0.0, 0.0) == pytest.approx(74.0)  # 49 + 25
        assert booth(-10.0, -10.0) == pytest.approx(2594.0)  # 37^2 + 35^2

    def test_beale_x_zero_kills_cross_terms(self):
        expected = 1.5**2 + 2.25**2 + 2.625**2
        assert beale(0.0, 0.0) == pytest.approx(expected)
        assert beale(0.0, 1.0) == pytest.approx(expected)

    def test_goldstein_price_values(self):
        assert goldstein_price(0.0, 0.0) == pytest.approx(600.0)  # (1+19)*(30+0)
        assert goldstein_price(1.0, 1.0) == pytest.approx(1876.0)  # symbolic cross-check

    def test_mccormick_values(self):
        assert mccormick(0.0, 0.0) == pytest.approx(1.0)
        assert mccormick(1.0, 1.0) == pytest.approx(math.sin(2.0) + 2.0)

    def test_three_hump_camel_values(self):
        assert three_hump_camel(1.0, 1.0) == pytest.approx(2 - 1.05 + 1 / 6 + 1 + 1)

    @pytest.mark.parametrize("y", [-3.0, -0.5, 0.0, 2.5])
    def test_three_hump_camel_x_zero_is_parabola(self, y):
        assert three_hump_camel(0.0, y) == pytest.approx(y * y)

    def test_sphere_values(self):
        assert sphere([1.0, 2.0, 3.0]) == pytest.approx(14.0)
        for a in (0.25, 1.0, 7.5):
            assert sphere([-a, a]) == pytest.approx(2 * a * a)

    def test_rosenbrock_values(self):
        assert rosenbrock([0.0, 0.0]) == pytest.approx(1.0)
        assert rosenbrock([1.0, 2.0]) == pytest.approx(100.0)

    def test_sphere_rejects_empty(self):
        with pytest.raises(ValueError):
            sphere([])

    def test_rosenbrock_rejects_scalar(self):
        with pytest.raises(ValueError):
            rosenbrock([1.0])


class TestAgainstIndependentOracles:
    @pytest.mark.parametrize("n", [2, 5, 10, 20, 30])
    def test_sphere_matches_loop(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(100):
            x = rng.uniform(-100, 100, n)
            assert sphere(x) == pytest.approx(sphere_loop(x), rel=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 10, 20, 30])
    def test_rosenbrock_matches_loop(self, n):
        rng = np.random.default_rng(200 + n)
        for _ in range(100):
            x = rng.uniform(-30, 30, n)
            assert rosenbrock(x) == pytest.approx(rosenbrock_loop(x), rel=1e-12)

    @pytest.mark.parametrize("name", [
        "booth", "beale", "goldstein_price", "mccormick", "three_hump_camel",
    ])
    def test_no_domain_point_beats_known_minimum(self, name):
        problem = make_problem(name, 2)
        rng = np.random.default_rng(hash(name) % 2**32)
        span = problem.upper_bounds - problem.lower_bounds
        floor = problem.known_minimum_value - 1e-9
        for _ in range(1000):
            x = problem.lower_bounds + rng.uniform(size=2) * span
            assert problem.evaluator(x) >= floor


class TestMakeProblem:
    def test_booth_problem(self):
        problem = make_problem("booth", 2)
        assert problem.dimension == 2
        np.testing.assert_array_equal(problem.lower_bounds, [-10.0, -10.0])
        np.testing.assert_array_equal(problem.upper_bounds, [10.0, 10.0])
        assert problem.known_minimum_value == 0.0
        np.testing.assert_array_equal(problem.known_minimizer, [1.0, 3.0])

    def test_mccormick_has_asymmetric_bounds(self):
        problem = make_problem("mccormick", 2)
        np.testing.assert_array_equal(problem.lower_bounds, [-1.5, -3.0])
        np.testing.assert_array_equal(problem.upper_bounds, [4.0, 4.0])

    def test_sphere_replicates_bounds_to_dimension(self):
        problem = make_problem("sphere", 30)
        assert problem.dimension == 30
        assert np.all(problem.lower_bounds == -100.0)
        assert np.all(problem.upper_bounds == 100.0)
        np.testing.assert_array_equal(problem.known_minimizer, np.zeros(30))

    def test_rosenbrock_minimizer_is_all_ones(self):
        problem = make_problem("rosenbrock", 5)
        np.testing.assert_array_equal(problem.known_minimizer, np.ones(5))
        assert np.all(problem.lower_bounds == -30.0)

    def test_fixed_dimension_function_rejects_other_dims(self):
        with pytest.raises(ConfigurationError, match="dimension"):
            make_problem("booth", 3)

    def test_unknown_name_is_rejected_by_name(self):
        with pytest.raises(ConfigurationError, match="nonesuch"):
            make_problem("nonesuch", 2)

    @pytest.mark.parametrize("name", ["sphere", "rosenbrock"])
    def test_polymorphic_functions_need_two_dims(self, name):
        with pytest.raises(ConfigurationError, match="dimension"):
            make_problem(name, 1)

    @pytest.mark.parametrize("name", ["sphere", "rosenbrock"])
    @pytest.mark.parametrize("dimension", [2**62, 2**63, 2**64, 10**400],
                             ids=["2**62", "2**63", "2**64", "10**400"])
    def test_dimension_beyond_an_array_length_is_rejected(self, name, dimension):
        most = benchmarks.MAX_DIMENSION
        message = f"dimension of {name!r} must be at most {most}, got {dimension}"
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            make_problem(name, dimension)

    @pytest.mark.parametrize("name", list(REGISTRY))
    def test_check_entry_takes_a_specs_dimension_range_and_nothing_past_it(self, name):
        spec = REGISTRY[name]
        least, most = spec.dimensions
        for dimension in (least, most):
            assert check_entry(name, dimension) == (spec, dimension)
        for side, bound, dimension in (("least", least, least - 1), ("most", most, most + 1)):
            message = f"dimension of {name!r} must be at {side} {bound}, got {dimension}"
            with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
                check_entry(name, dimension)

    @pytest.mark.parametrize("name", ["booth", "sphere"])
    @pytest.mark.parametrize("dimension", [2.7, 2.0, "3", None, True])
    def test_dimension_that_is_not_an_integer_is_rejected_naming_it(self, name, dimension):
        with pytest.raises(ConfigurationError, match="dimension"):
            make_problem(name, dimension)

    @pytest.mark.parametrize("name, dimension", [
        ("booth", 3), ("nonesuch", 2), ("sphere", 1), ("rosenbrock", 2**64), ("sphere", 2.7),
        ("booth", None),
    ])
    def test_check_entry_rejects_what_make_problem_rejects_with_its_message(self, name,
                                                                          dimension):
        with pytest.raises(ConfigurationError) as rejected:
            make_problem(name, dimension)
        with pytest.raises(ConfigurationError, match=re.escape(str(rejected.value))):
            check_entry(name, dimension)

    @pytest.mark.parametrize("name, dimension", [("booth", 2), ("sphere", np.int64(30))])
    def test_check_entry_gives_the_spec_and_an_int_dimension(self, name, dimension):
        spec, checked_dimension = check_entry(name, dimension)
        assert spec is REGISTRY[name]
        assert checked_dimension == dimension and type(checked_dimension) is int

    @pytest.mark.parametrize("name", [n for n, s in REGISTRY.items() if s.dimensions == (2, 2)])
    def test_a_2d_function_rejects_points_of_another_dimension_naming_itself(self, name):
        func = REGISTRY[name].func
        with pytest.raises(ValueError, match=f"^{name} takes"):
            func(np.zeros(1))
        with pytest.raises(ValueError, match=f"^{name} takes"):
            func.batch(np.zeros((4, 3)))
        problem = ObjectiveProblem([-10.0] * 3, [10.0] * 3, func)
        with pytest.raises(ValueError, match=f"^{name} takes"):
            run(AlgorithmParams(max_iterations=50), problem, 1)

    def test_registry_lists_all_seven(self):
        assert list(REGISTRY) == [
            "booth",
            "beale",
            "goldstein_price",
            "mccormick",
            "three_hump_camel",
            "sphere",
            "rosenbrock",
        ]


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


TWO_D = ["booth", "beale", "goldstein_price", "mccormick", "three_hump_camel"]

# ways to write ``x ** e`` over arrays that miss the C library's ``pow`` in the last bit
WRONG_POWERS = {
    "np.square": lambda x, e: np.square(x) if e == 2 else np.float_power(x, e),
    "np.power": lambda x, e: np.power(x, np.full_like(x, e)),
    "x*x": lambda x, e: functools.reduce(operator.mul, [x] * e),
}
# three_hump_camel squares by products, so np.square would change none of its powers
WRONG_CASES = [(name, wrong) for name in TWO_D for wrong in WRONG_POWERS
               if (name, wrong) != ("three_hump_camel", "np.square")]


class TestBatchForms:
    """Each registered evaluator's ``batch`` form equals its per-row calls bit for bit."""

    DIMENSIONS = {"sphere": (2, 3, 10, 30, 37), "rosenbrock": (2, 3, 10, 30, 37)}

    @staticmethod
    def _check(problem, points):
        points = np.asarray(points, dtype=float)
        batch = problem.evaluator.batch(points)
        assert batch.shape == (len(points),)
        assert _bits(batch) == _bits([problem.evaluator(x) for x in points])

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_batch_equals_rows_on_seeded_random_points(self, name):
        rng = np.random.default_rng(sorted(REGISTRY).index(name))
        for dim in self.DIMENSIONS.get(name, (2,)):
            problem = make_problem(name, dim)
            span = problem.upper_bounds - problem.lower_bounds
            self._check(problem, problem.lower_bounds + rng.random((2000, dim)) * span)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_batch_equals_rows_on_box_corners(self, name):
        for dim in self.DIMENSIONS.get(name, (2,))[:2]:
            problem = make_problem(name, dim)
            corners = np.array([
                [problem.upper_bounds[j] if (c >> j) & 1 else problem.lower_bounds[j]
                 for j in range(dim)]
                for c in range(2**dim)
            ])
            self._check(problem, corners)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_one_row_batch(self, name):
        problem = make_problem(name, min(REGISTRY[name].dimensions[1], 3))
        self._check(problem, [problem.known_minimizer])

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_problem_survives_a_pickle_round_trip(self, name):
        # a pooled run sends each worker the problem built for its entry
        dim = min(REGISTRY[name].dimensions[1], 3)
        problem = make_problem(name, dim)
        copy = pickle.loads(pickle.dumps(problem))
        rng = np.random.default_rng(sorted(REGISTRY).index(name))
        span = problem.upper_bounds - problem.lower_bounds
        points = problem.lower_bounds + rng.random((500, dim)) * span
        self._check(copy, points)
        assert _bits(copy.evaluator.batch(points)) == _bits(problem.evaluator.batch(points))
        for field in ("lower_bounds", "upper_bounds", "known_minimizer"):
            assert _bits(getattr(copy, field)) == _bits(getattr(problem, field))
        assert copy.known_minimum_value == problem.known_minimum_value
        assert copy.dimension == dim

    @pytest.mark.parametrize("name, wrong", WRONG_CASES)
    def test_batch_is_bit_equal_on_points_where_a_wrong_power_is_not(self, name, wrong,
                                                                     monkeypatch):
        problem = make_problem(name)
        rng = np.random.default_rng(TWO_D.index(name))
        span = problem.upper_bounds - problem.lower_bounds
        points = problem.lower_bounds + rng.random((20_000, 2)) * span
        rows = _bits([problem.evaluator(x) for x in points])
        assert _bits(problem.evaluator.batch(points)) == rows
        monkeypatch.setattr(benchmarks, "_pow", WRONG_POWERS[wrong])
        missed = np.not_equal(_bits(problem.evaluator.batch(points)), rows)
        assert missed.any(), f"no point of the sample tells {wrong} from pow"


@pytest.mark.parametrize("scale", [1e-3, 1.0, 10.0, 40.0])
def test_float_power_and_sin_are_the_c_library_calls_that_python_floats_make(scale):
    """The platform assumption of the 2-D batch forms: numpy's ``float_power`` and
    ``sin`` give Python's float ``**`` and ``math.sin``, bit for bit."""
    a = np.random.default_rng(int(math.log10(scale)) + 3).uniform(-scale, scale, 50_000)
    for exponent in (2, 3, 4, 6):
        assert _bits(np.float_power(a, exponent)) == _bits([v**exponent for v in a.tolist()])
    assert _bits(np.sin(a)) == _bits([math.sin(v) for v in a.tolist()])
