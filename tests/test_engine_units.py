"""Unit tests for params validation, the ir clamps, evaluation, initialize, and run."""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codoa import engine
from codoa.benchmarks import MAX_DIMENSION, REGISTRY, make_problem
from codoa.engine import (
    IR_FLOOR,
    MAX_DRAW,
    MAX_IR,
    AlgorithmParams,
    ConfigurationError,
    ObjectiveProblem,
    evaluate_swarm,
    initialize,
    maturation,
    rationalizing,
    reward_best,
    run,
    socialization,
)
from codoa.harness import ExperimentConfig, run_experiment, write_report
from codoa.rng import _BLOCK, RandomStream

from support import PinnedStream, box_problem, make_state


class TestAlgorithmParams:
    def test_defaults_are_reference_settings(self):
        p = AlgorithmParams()
        assert (p.num_particles, p.max_iterations) == (50, 5000)
        assert (p.initial_ir, p.max_ir) == (0.5, 10.0)
        assert (p.maturity_limit, p.rationality_rate) == (3, 2)
        assert IR_FLOOR == 1e-6

    def test_needs_at_least_two_particles(self):
        with pytest.raises(ConfigurationError, match="num_particles"):
            AlgorithmParams(num_particles=1)

    def test_rejects_negative_iteration_budget(self):
        with pytest.raises(ConfigurationError, match="max_iterations"):
            AlgorithmParams(max_iterations=-1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"initial_ir": 0.0},  # below IR_FLOOR
            {"initial_ir": -0.1},
            {"initial_ir": 20.0},  # above max_ir
            {"initial_ir": 5e-7, "max_ir": 5e-7},
            {"initial_ir": math.nextafter(IR_FLOOR, 0.0)},  # one step below IR_FLOOR
            {"initial_ir": math.nextafter(10.0, math.inf)},  # one step above max_ir
        ],
    )
    def test_rejects_bad_interactivity_ordering(self, kwargs):
        with pytest.raises(ConfigurationError, match="ir"):
            AlgorithmParams(**kwargs)

    @pytest.mark.parametrize("initial_ir, max_ir", [(IR_FLOOR, 10.0), (0.5, 0.5),
                                                    (IR_FLOOR, IR_FLOOR)])
    def test_initial_ir_may_sit_at_either_end(self, initial_ir, max_ir):
        params = AlgorithmParams(initial_ir=initial_ir, max_ir=max_ir)
        assert (params.initial_ir, params.max_ir) == (initial_ir, max_ir)

    def test_rejects_negative_rationality(self):
        with pytest.raises(ConfigurationError, match="rationality"):
            AlgorithmParams(rationality_rate=-1)

    @pytest.mark.parametrize("field, at, past, kwargs", [
        ("num_particles", 2, 1, {}),
        ("num_particles", MAX_DRAW, MAX_DRAW + 1, {"rationality_rate": 1}),
        ("max_iterations", 0, -1, {}),
        ("max_iterations", MAX_DRAW, MAX_DRAW + 1, {}),
        ("initial_ir", IR_FLOOR, math.nextafter(IR_FLOOR, 0.0), {}),
        ("max_ir", MAX_IR, math.nextafter(MAX_IR, math.inf), {}),
        ("rationality_rate", 0, -1, {}),
        # 50 particles: the product with num_particles is at MAX_DRAW, then past it
        ("rationality_rate", MAX_DRAW // 50, MAX_DRAW // 50 + 1, {}),
    ])
    def test_a_bounded_field_is_accepted_at_its_bound_and_rejected_one_step_past(
            self, field, at, past, kwargs):
        assert getattr(AlgorithmParams(**kwargs, **{field: at}), field) == at
        with pytest.raises(ConfigurationError, match=f"^{field}"):
            AlgorithmParams(**kwargs, **{field: past})

    def test_maturity_limit_may_be_negative(self):
        assert AlgorithmParams(maturity_limit=-5).maturity_limit == -5

    @pytest.mark.parametrize("field", [
        "num_particles", "max_iterations", "maturity_limit", "rationality_rate",
    ])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, "3", None])
    def test_count_fields_require_real_integers(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            AlgorithmParams(**{field: value})

    def test_numpy_integers_are_accepted_as_plain_ints(self):
        params = AlgorithmParams(num_particles=np.int64(7), maturity_limit=np.int32(-2))
        assert params.num_particles == 7 and type(params.num_particles) is int
        assert params.maturity_limit == -2 and type(params.maturity_limit) is int

    @pytest.mark.parametrize("field", ["initial_ir", "max_ir"])
    @pytest.mark.parametrize("value", [
        math.inf, -math.inf, math.nan, 1e309, pytest.param(10**400, id="10**400"), "0.5", None,
        True, pytest.param(Fraction(10**400), id="Fraction(10**400)"),
    ])
    def test_interactivity_fields_must_be_finite_numbers(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            AlgorithmParams(**{field: value})

    @pytest.mark.parametrize("value", [np.float32(10), np.float16(4), Fraction(10), 10],
                             ids=["float32", "float16", "Fraction", "int"])
    def test_a_float_setting_is_stored_and_reported_as_a_float(self, value, tmp_path):
        # with every RuntimeWarning an error, as the test configuration sets
        params = AlgorithmParams(max_iterations=3, max_ir=value)
        assert params.max_ir == float(value) and type(params.max_ir) is float
        config = ExperimentConfig(entries=(("booth", 2),), runs_per_entry=1, params=params)
        write_report(run_experiment(config), "json", tmp_path / "report.json")
        text = (tmp_path / "report.json").read_text()
        assert f'"max_ir": {float(value)!r},' in text
        assert json.loads(text)["params"]["max_ir"] == float(value)


def _bits(value):
    return np.asarray(value, dtype=float).view(np.int64).tolist()


@st.composite
def _clamp_cases(draw):
    """A valid ``max_ir``, ``ir`` and ``b`` within [IR_FLOOR, max_ir] (ends included),
    ``u`` in [0, 1)."""
    top = draw(st.floats(min_value=IR_FLOOR, max_value=MAX_IR))
    within = st.one_of(st.just(IR_FLOOR), st.just(top),
                       st.floats(min_value=IR_FLOOR, max_value=top))
    u = draw(st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    return AlgorithmParams(initial_ir=IR_FLOOR, max_ir=top), draw(within), u, draw(within)


class TestInteractivityClamps:
    """A boost never lowers ``ir`` and a decay never raises it, so the phases
    clamp only the side an update moves toward.  The floor on a decay is
    pinned in ``test_engine_phases.py`` (``test_zero_rand_engages_the_floor``)."""

    @settings(max_examples=500)
    @given(_clamp_cases())
    def test_one_sided_forms_equal_the_two_sided_clamp(self, case):
        params, ir, u, b = case
        lo, hi = IR_FLOOR, params.max_ir
        ir_a, u_a = np.array([ir]), np.array([u])
        boost, rational, decay = ir_a + u_a * ir_a, ir_a + u_a * (b / ir_a), u_a * ir_a
        for capped in (boost, rational):
            assert _bits(np.minimum(capped, hi)) == _bits(np.minimum(np.maximum(capped, lo), hi))
        assert _bits(np.maximum(decay, lo)) == _bits(np.minimum(np.maximum(decay, lo), hi))
        reward = ir + u * ir  # reward_best's Python-float form
        assert _bits(min(reward, hi)) == _bits(min(max(reward, lo), hi))

    def test_a_boost_is_capped_at_max_ir(self):
        params = AlgorithmParams(rationality_rate=1)
        phases = {
            "socialization": lambda state: socialization(state, params),
            "maturation": lambda state: maturation(state, params),
            "reward_best": lambda state: reward_best(state, params),
            "rationalizing": lambda state: rationalizing(state, params),
        }
        for name, phase in phases.items():
            # particle 0 is the fittest, below the mean, and takes rationalizing's repeated
            # boost; each of its boosts would pass 10 (9.5 + 0.9 * 9.5, 9.5 + 0.9 * 9.5 / 9.5)
            state = make_state(fitness=[1.0, 8.0], ir=[9.5, 9.5], ex=[0, -1],
                               positions=[[0.0, 1.0], [2.0, 2.0]], rng=PinnedStream(0.9))
            phase(state)
            assert state.ir[0] == params.max_ir, name


def _with_batch(batch):
    """An evaluator whose ``batch`` attribute is ``batch``."""
    def evaluator(x):
        return 0.0
    evaluator.batch = batch
    return evaluator


class TestObjectiveProblem:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ConfigurationError, match="bounds"):
            ObjectiveProblem([1.0, 0.0], [0.0, 1.0], lambda x: 0.0)

    @pytest.mark.parametrize("lower", [[], [[0.0, 0.0]], 0.0])
    def test_rejects_lower_bounds_that_are_not_a_non_empty_vector(self, lower):
        with pytest.raises(ConfigurationError, match="lower_bounds must be a non-empty 1-D"):
            ObjectiveProblem(lower, [1.0, 1.0], lambda x: 0.0)

    @pytest.mark.parametrize("upper", [[1.0], [1.0, 1.0, 1.0]])
    def test_rejects_upper_bounds_of_another_length(self, upper):
        with pytest.raises(ConfigurationError, match=r"upper_bounds must have shape \(2,\)"):
            ObjectiveProblem([0.0, 0.0], upper, lambda x: 0.0)

    @pytest.mark.parametrize("field", ["lower_bounds", "upper_bounds"])
    @pytest.mark.parametrize("value", ["x", [[0.0], [0.0, 1.0]], ["a", 1.0]])
    def test_rejects_bounds_that_are_not_numbers_naming_them(self, field, value):
        bounds = {"lower_bounds": [0.0, 0.0], "upper_bounds": [1.0, 1.0], field: value}
        with pytest.raises(ConfigurationError, match=f"{field} must be an array of numbers"):
            ObjectiveProblem(evaluator=lambda x: 0.0, **bounds)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_bounds(self, bad):
        with pytest.raises(ConfigurationError, match="lower_bounds"):
            ObjectiveProblem([bad, 0.0], [1.0, 1.0], lambda x: 0.0)
        with pytest.raises(ConfigurationError, match="upper_bounds"):
            ObjectiveProblem([0.0, 0.0], [1.0, bad], lambda x: 0.0)

    def test_rejects_bounds_whose_width_overflows(self):
        with pytest.raises(ConfigurationError, match="upper_bounds - lower_bounds"):
            ObjectiveProblem([-1e308] * 2, [1e308] * 2, lambda x: 0.0)

    def test_dimension_is_the_length_of_the_bounds_and_survives_replace(self):
        problem = ObjectiveProblem([0.0, 0.0, 0.0], [1.0, 1.0, 1.0], lambda x: 0.0)
        assert problem.dimension == 3 and type(problem.dimension) is int
        copy = dataclasses.replace(problem, evaluator=lambda x: 1.0)
        assert copy.dimension == 3 and copy.evaluator(None) == 1.0

    @pytest.mark.parametrize("field, value", [
        ("known_minimum_value", "x"),
        ("known_minimum_value", math.nan),
        ("known_minimum_value", True),
        ("known_minimizer", [0.0, 0.0, 0.0]),
        ("known_minimizer", [0.0, math.inf]),
        ("known_minimizer", "x"),
    ])
    def test_rejects_a_bad_known_minimum_naming_the_field(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ObjectiveProblem([0.0, 0.0], [1.0, 1.0], lambda x: 0.0, **{field: value})

    @pytest.mark.parametrize("value", [
        None, 0, -1.5, np.float64(2.0), np.int64(3), np.float32(3), Fraction(3),
    ])
    def test_accepts_a_finite_real_known_minimum_value_or_none(self, value):
        problem = ObjectiveProblem([0.0, 0.0], [1.0, 1.0], lambda x: 0.0,
                                   known_minimum_value=value)
        assert problem.known_minimum_value == value
        assert value is None or type(problem.known_minimum_value) is float

    @pytest.mark.parametrize("evaluator, name", [
        (None, "evaluator"), (5, "evaluator"), ("sphere", "evaluator"),
        (_with_batch("nope"), "evaluator.batch"),
    ], ids=["None", "int", "str", "batch"])
    def test_rejects_an_evaluator_or_batch_that_is_not_callable_naming_it(self, evaluator,
                                                                         name):
        with pytest.raises(ConfigurationError, match=f"^{name} must be callable"):
            ObjectiveProblem(np.zeros(2), np.ones(2), evaluator)

    def test_known_minimizer_is_stored_as_a_float_array(self):
        problem = ObjectiveProblem([0.0, 0.0], [1.0, 1.0], lambda x: 0.0,
                                   known_minimizer=[1, 0])
        assert problem.known_minimizer.dtype == np.float64
        assert problem.known_minimizer.tolist() == [1.0, 0.0]


class TestRewardBest:
    def test_boosts_the_fittest_and_credits_experience(self):
        state = make_state(fitness=[3.0, 1.0, 5.0], ir=[0.4, 0.4, 0.4],
                           rng=PinnedStream(0.5))
        reward_best(state, AlgorithmParams())
        assert state.ir[1] == pytest.approx(0.6)
        assert state.ex[1] == 1
        assert state.ir[0] == 0.4 and state.ir[2] == 0.4

    def test_tie_breaks_to_lowest_index_and_zero_rand_keeps_ir(self):
        state = make_state(fitness=[2.0, 2.0], ir=[0.4, 0.4], rng=PinnedStream(0.0))
        reward_best(state, AlgorithmParams())
        assert state.ex[0] == 1 and state.ex[1] == 0
        assert state.ir[0] == 0.4

    def test_archive_updates_only_on_strict_improvement(self):
        state = make_state(fitness=[0.7, 1.2], ir=[0.4, 0.4], rng=PinnedStream(0.5),
                           gbest_pos=[9.0, 9.0], gbest_fit=0.5, holder=1)
        reward_best(state, AlgorithmParams())
        assert state.global_best_fitness == 0.5
        assert state.best_holder_index == 1
        np.testing.assert_array_equal(state.global_best_position, [9.0, 9.0])
        assert state.ir[0] == pytest.approx(0.6)
        assert state.ex[0] == 1

    def test_archive_improves_when_beaten(self):
        state = make_state(fitness=[0.3, 1.2], positions=[[1.0, 1.0], [2.0, 2.0]],
                           rng=PinnedStream(0.5), gbest_pos=[9.0, 9.0], gbest_fit=0.5,
                           holder=1)
        reward_best(state, AlgorithmParams())
        assert state.global_best_fitness == 0.3
        assert state.best_holder_index == 0
        np.testing.assert_array_equal(state.global_best_position, [1.0, 1.0])


class TestEvaluateSwarm:
    def test_sphere_origin_has_zero_fitness(self):
        state = make_state(fitness=[math.inf], positions=[[0.0, 0.0]],
                           problem=make_problem("sphere", 2))
        rows = np.array([0])
        evaluate_swarm(state, rows, state.pos[rows])
        assert state.fit[0] == 0.0
        assert state.eval_count == 1

    def test_only_the_given_rows_are_evaluated(self):
        state = make_state(fitness=[1.0, 2.0, 3.0],
                           positions=[[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]],
                           problem=make_problem("sphere", 2))
        rows = np.array([1])
        evaluate_swarm(state, rows, state.pos[rows])
        assert state.eval_count == 1
        assert state.fit.tolist() == [1.0, 4.0, 3.0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_become_plus_infinity(self, bad):
        problem = box_problem([-1.0], [1.0], evaluator=lambda x: bad)
        state = make_state(fitness=[0.0], positions=[[0.0]], problem=problem)
        rows = np.array([0])
        evaluate_swarm(state, rows, state.pos[rows])
        assert state.fit[0] == math.inf


class TestEvaluationPaths:
    @staticmethod
    def _unevaluated_state(positions, problem):
        return make_state(fitness=[math.inf] * len(positions), positions=positions,
                          problem=problem)

    def test_batch_form_gets_all_given_rows_in_one_call(self):
        calls = []

        def objective(x):
            raise AssertionError("per-row path taken")

        def batch(points):
            calls.append(points.copy())
            return np.square(points).sum(axis=1)

        objective.batch = batch
        problem = box_problem([-5.0, -5.0], [5.0, 5.0], objective)
        state = self._unevaluated_state([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]], problem)
        rows = np.array([0, 2])
        evaluate_swarm(state, rows, state.pos[rows])
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], [[1.0, 0.0], [3.0, 0.0]])
        assert state.fit.tolist() == [1.0, math.inf, 9.0]
        assert state.eval_count == 2

    def test_plain_user_evaluator_is_called_row_by_row_in_order(self):
        seen = []

        def objective(x):
            seen.append(float(x[0]))
            return float(x[0])

        state = self._unevaluated_state([[3.0], [1.0], [2.0]],
                                        box_problem([-5.0], [5.0], objective))
        rows = np.arange(3)
        evaluate_swarm(state, rows, state.pos[rows])
        assert seen == [3.0, 1.0, 2.0]
        assert state.fit.tolist() == [3.0, 1.0, 2.0]
        assert state.eval_count == 3

    def test_wrapped_evaluators_drop_the_inner_batch_form(self):
        def objective(x):
            return float(np.square(x).sum())

        objective.batch = lambda points: np.zeros(len(points))  # deliberately wrong
        plain = box_problem([-5.0, -5.0], [5.0, 5.0], objective)
        swapped = dataclasses.replace(plain, evaluator=lambda x: objective(x) + 1.0)
        state = self._unevaluated_state([[1.0, 0.0], [2.0, 0.0]], swapped)
        rows = np.arange(2)
        evaluate_swarm(state, rows, state.pos[rows])
        assert state.fit.tolist() == [2.0, 5.0]

    @pytest.mark.parametrize("path, result", [
        pytest.param("batch", lambda points: 5.0, id="scalar"),
        pytest.param("batch", lambda points: np.square(points).sum(axis=1)[:1], id="first value"),
        pytest.param("batch", lambda points: ["1"] * len(points), id="numeric strings"),
        pytest.param("batch", lambda points: np.square(points).sum(axis=1, keepdims=True),
                     id="column"),
        pytest.param("batch", lambda points: np.square(points).sum(axis=1)[:-1], id="one short"),
        pytest.param("batch", lambda points: np.ones(len(points), dtype=bool), id="bools"),
        pytest.param("batch", lambda points: [None] * len(points), id="nones"),
        pytest.param("batch", lambda points: [1.5, True, True], id="bools among floats"),
        pytest.param("rows", lambda x: "7", id="row numeric string"),
        pytest.param("rows", lambda x: True, id="row bool"),
        pytest.param("rows", lambda x: np.True_, id="row numpy bool"),
        pytest.param("rows", lambda x: True if x[0] > 1 else float(x[0] + 2),
                     id="row bools among floats"),
        pytest.param("rows", lambda x: np.True_ if x[0] > 1 else float(x[0]),
                     id="row numpy bools among floats"),
        pytest.param("rows", lambda x: None, id="row none"),
        pytest.param("rows", lambda x: np.array([3.0]), id="row one-element array"),
        pytest.param("rows", lambda x: x, id="row point"),
    ])
    def test_batch_result_that_is_not_one_real_per_row_is_rejected(self, path, result):
        if path == "batch":
            def objective(x):
                return float(np.square(x).sum())

            objective.batch = result
        else:
            objective = result
        state = self._unevaluated_state([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]],
                                        box_problem([-5.0, -5.0], [5.0, 5.0], objective))
        rows = np.arange(3)
        source = r"evaluator\.batch" if path == "batch" else "evaluator"
        with pytest.raises(ConfigurationError, match=rf"{source} .*\(3,\)"):
            evaluate_swarm(state, rows, state.pos[rows])

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float32])
    def test_batch_result_of_integers_or_narrow_floats_is_stored_as_float(self, dtype):
        def objective(x):
            return float(np.square(x).sum())

        objective.batch = lambda points: np.square(points).sum(axis=1).astype(dtype)
        state = self._unevaluated_state([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]],
                                        box_problem([-5.0, -5.0], [5.0, 5.0], objective))
        rows = np.arange(3)
        evaluate_swarm(state, rows, state.pos[rows])
        assert state.fit.dtype == np.float64
        assert state.fit.tolist() == [1.0, 4.0, 9.0]

    def test_batch_result_as_a_list_of_floats_is_accepted(self):
        def objective(x):
            return float(np.square(x).sum())

        objective.batch = lambda points: np.square(points).sum(axis=1).tolist()
        state = self._unevaluated_state([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]],
                                        box_problem([-5.0, -5.0], [5.0, 5.0], objective))
        rows = np.arange(3)
        evaluate_swarm(state, rows, state.pos[rows])
        assert state.fit.tolist() == [1.0, 4.0, 9.0]

    @pytest.mark.parametrize("path", ["batch", "rows"])
    def test_non_finite_values_become_plus_infinity_on_both_paths(self, path):
        values = [math.nan, math.inf, -math.inf, 1.5]

        def objective(x):
            return values[int(x[0])]

        if path == "batch":
            objective.batch = lambda points: np.array([values[int(r[0])] for r in points])
        state = self._unevaluated_state([[0.0], [1.0], [2.0], [3.0]],
                                        box_problem([-5.0], [5.0], objective))
        rows = np.arange(4)
        evaluate_swarm(state, rows, state.pos[rows])
        assert state.fit.tolist() == [math.inf, math.inf, math.inf, 1.5]
        assert state.eval_count == 4

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_row_path_matches_batch_path_end_to_end(self, name):
        problem = make_problem(name, min(REGISTRY[name].dimensions[1], 5))
        assert hasattr(problem.evaluator, "batch")
        rows_only = dataclasses.replace(problem, evaluator=lambda x: problem.evaluator(x))
        params = AlgorithmParams(num_particles=20, max_iterations=30)
        assert run(params, rows_only, seed=3) == run(params, problem, seed=3)


class TestInitialize:
    def test_scatters_into_the_box_and_counts_evaluations(self):
        params = AlgorithmParams()
        problem = make_problem("booth", 2)
        state = initialize(params, problem, seed=11)
        assert state.problem is problem
        assert state.pos.shape == (50, 2)
        assert np.all(state.pos >= -10.0) and np.all(state.pos <= 10.0)
        assert state.fit.tolist() == [problem.evaluator(x) for x in state.pos]
        assert state.eval_count == 50

    def test_a_swarm_past_max_draw_coordinates_is_rejected_before_anything_is_drawn(
            self, monkeypatch):
        # the reference swarm at MAX_DIMENSION is the largest drawn
        state = initialize(AlgorithmParams(), make_problem("sphere", MAX_DIMENSION), seed=0)
        assert state.pos.shape == (50, MAX_DIMENSION) and state.pos.size == MAX_DRAW
        monkeypatch.setattr(engine, "RandomStream", lambda seed: pytest.fail("a stream began"))
        for params, problem in [
            (AlgorithmParams(num_particles=51), make_problem("sphere", MAX_DIMENSION)),
            (AlgorithmParams(num_particles=MAX_DRAW, rationality_rate=0), make_problem("booth")),
        ]:
            with pytest.raises(ConfigurationError, match=r"^num_particles \* dimension"):
                initialize(params, problem, seed=0)

    def test_a_box_a_step_could_overflow_in_is_rejected_before_anything_is_drawn(
            self, monkeypatch):
        # at max_ir = 10, a step in [-h, h]^2 reaches 10 x 2h + h = 21h at most
        state = initialize(AlgorithmParams(), box_problem([-8e306] * 2, [8e306] * 2,
                                                          lambda x: 0.0), seed=0)
        assert np.isfinite(state.pos).all()
        monkeypatch.setattr(engine, "RandomStream", lambda seed: pytest.fail("a stream began"))
        with pytest.raises(ConfigurationError, match=r"^max_ir \* span \+ largest \|bound\|"):
            initialize(AlgorithmParams(), box_problem([-8e307] * 2, [8e307] * 2, lambda x: 0.0),
                       seed=0)

    def test_initial_archive_is_swarm_minimum(self):
        state = initialize(AlgorithmParams(num_particles=20, max_iterations=1),
                           make_problem("sphere", 3), seed=4)
        assert state.global_best_fitness == min(state.fit)
        assert state.best_holder_index is not None

    def test_best_particle_gets_the_initial_reward(self):
        params = AlgorithmParams(num_particles=10)
        state = initialize(params, make_problem("booth", 2), seed=9)
        holder = state.best_holder_index
        for i, (ex, ir) in enumerate(zip(state.ex, state.ir)):
            if i == holder:
                assert ex == 1
                assert ir >= params.initial_ir
            else:
                assert ex == 0
                assert ir == params.initial_ir

    def test_same_seed_reproduces_the_state_exactly(self):
        params = AlgorithmParams(num_particles=12)
        problem = make_problem("beale", 2)
        a = initialize(params, problem, seed=77)
        b = initialize(params, problem, seed=77)
        for name in ("pos", "fit", "ir", "ex"):
            np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        assert a.global_best_fitness == b.global_best_fitness


class TestRun:
    def test_same_inputs_give_identical_results(self):
        params = AlgorithmParams(num_particles=8, max_iterations=30)
        problem = make_problem("booth", 2)
        assert run(params, problem, seed=3) == run(params, problem, seed=3)

    def test_zero_budget_returns_initial_archive(self):
        params = AlgorithmParams(num_particles=8, max_iterations=0)
        problem = make_problem("booth", 2)
        result = run(params, problem, seed=3)
        state = initialize(params, problem, seed=3)
        assert result.best_fitness == state.global_best_fitness
        assert result.best_per_iteration == ()
        assert result.eval_count == 8

    def test_history_is_non_increasing_and_ends_at_best(self):
        params = AlgorithmParams(num_particles=8, max_iterations=40)
        result = run(params, make_problem("rosenbrock", 2), seed=6)
        history = result.best_per_iteration
        assert len(history) == 40
        assert all(a >= b for a, b in zip(history, history[1:]))
        assert result.best_fitness == history[-1]

    def test_result_echoes_the_seed(self):
        params = AlgorithmParams(num_particles=8, max_iterations=5)
        result = run(params, make_problem("sphere", 2), seed=123)
        assert result.seed == 123

    @pytest.mark.parametrize("seed", [2.5, "2", True, None, -1])
    def test_rejects_a_seed_that_is_not_a_non_negative_integer(self, seed):
        params = AlgorithmParams(num_particles=4, max_iterations=2)
        with pytest.raises(ConfigurationError, match="seed"):
            run(params, make_problem("booth", 2), seed)

    def test_numpy_integer_seed_is_reported_as_int(self):
        params = AlgorithmParams(num_particles=4, max_iterations=5)
        problem = make_problem("booth", 2)
        result = run(params, problem, np.int64(3))
        assert type(result.seed) is int
        assert result == run(params, problem, 3)


class TestRandomStream:
    def test_draws_live_in_unit_interval(self):
        rng = RandomStream(5)
        values = [rng.next() for _ in range(500)] + list(rng.draw(500))
        assert all(0.0 <= v < 1.0 for v in values)

    def test_same_seed_same_sequence(self):
        a, b = RandomStream(99), RandomStream(99)
        assert [a.next() for _ in range(20)] == [b.next() for _ in range(20)]

    def test_negative_seed_is_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(-7)

    @pytest.mark.parametrize("seed", [2.5, True, "2", None])
    def test_a_seed_that_is_not_an_integer_is_rejected(self, seed):
        with pytest.raises(TypeError, match="seed"):
            RandomStream(seed)

    def test_numpy_integer_seed_is_used_as_int(self):
        stream = RandomStream(np.uint64(5))
        assert stream.seed == 5 and type(stream.seed) is int
        assert stream.draw(3).tolist() == RandomStream(5).draw(3).tolist()

    def test_seeds_are_used_whole(self):
        wide = RandomStream(5 + 2**64)
        assert wide.seed == 5 + 2**64
        assert wide.next() != RandomStream(5).next()

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        calls=st.lists(
            st.one_of(
                st.none(),  # next()
                st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3]),
                st.integers(min_value=0, max_value=3 * _BLOCK),
            ),
            max_size=12,
        ),
    )
    def test_any_interleaving_yields_the_generator_sequence(self, seed, calls):
        stream = RandomStream(seed)
        got = []
        for n in calls:
            if n is None:
                value = stream.next()
                assert type(value) is float
                got.append(value)
            else:
                values = stream.draw(n)
                assert values.shape == (n,)
                got.extend(values.tolist())
        expected = np.random.default_rng(seed).random(len(got))
        assert np.array_equal(np.array(got), expected)

    def test_next_does_not_go_through_draw(self, monkeypatch):
        stream = RandomStream(4)
        monkeypatch.setattr(RandomStream, "draw", lambda self, n: pytest.fail("next() drew"))
        values = [stream.next() for _ in range(_BLOCK + 2)]  # crosses a block boundary
        assert values == np.random.default_rng(4).random(_BLOCK + 2).tolist()

    def test_drawn_arrays_keep_their_values(self):
        stream = RandomStream(8)
        first = stream.draw(_BLOCK - 1)
        kept = first.copy()
        stream.draw(2 * _BLOCK)
        assert np.array_equal(first, kept)

    @pytest.mark.parametrize("seed, expected", [
        (0, ["0x1.461fd79fb3850p-1", "0x1.1442f7e20b674p-2",
             "0x1.4fa7b529d9bd0p-5", "0x1.0ec9ed84d0bc0p-6", "0x1.a064f4f059bcap-1"]),
        (1, ["0x1.060d7be6f245cp-1", "0x1.e6a32d7782a55p-1",
             "0x1.273d27b04760cp-3", "0x1.e5b5615da558dp-1", "0x1.3f50be80ff35cp-2"]),
    ])
    def test_random_stream_values_are_pinned(self, seed, expected):
        # every golden digest rests on numpy's Generator.random stream; this names a change in it
        stream = RandomStream(seed)
        values = [stream.next(), stream.next(), *stream.draw(3).tolist()]
        assert [v.hex() for v in values] == expected

    def test_negative_draw_is_rejected(self):
        with pytest.raises(ValueError):
            RandomStream(1).draw(-1)
