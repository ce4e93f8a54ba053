"""Acceptance suite: grid reproduction targets plus unconditional guarantees.

Each test prints one ``[acceptance N] PASS/FAIL`` line (visible with
``pytest -s`` or ``-rA``).  Criteria 1-5 are stochastic reproduction targets
checked as best-of-10 seeded runs at the reference settings; criteria 6-9
must pass unconditionally.
"""

import copy
import math

import numpy as np
import pytest

from codoa.benchmarks import (
    beale,
    booth,
    goldstein_price,
    make_problem,
    mccormick,
    rosenbrock,
    sphere,
    three_hump_camel,
)
from codoa.cli import main
from codoa.engine import (
    AlgorithmParams,
    decay_all_ir,
    initialize,
    iterate,
    maturation,
    move_toward_best,
    rationalizing,
    reward_best,
    run,
    socialization,
)
from codoa.harness import run_experiment, table2_grid

from support import (
    PinnedStream,
    assert_iteration_boundary,
    box_problem,
    make_state,
    mask,
)


def _report(num: int, passed: bool, detail: str) -> None:
    print(f"[acceptance {num}] {'PASS' if passed else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def grid():
    """Best-of-10 results for all fifteen grid entries at reference settings."""
    report = run_experiment(table2_grid(), workers=2)
    return {(e.function, e.dimension): e for e in report.entries}


class TestGridReproduction:
    def test_1_booth_beale_camel_reach_zero(self, grid):
        bests = {
            name: grid[(name, 2)].stats.best
            for name in ("booth", "beale", "three_hump_camel")
        }
        ok = all(abs(b) <= 1e-3 for b in bests.values())
        _report(1, ok, f"booth/beale/three_hump_camel best-of-10 vs 0 (tol 1e-3): "
                       f"{ {k: f'{v:.2e}' for k, v in bests.items()} }")
        for name, best in bests.items():
            assert abs(best) <= 1e-3, name

    def test_2_goldstein_price_reaches_three(self, grid):
        best = grid[("goldstein_price", 2)].stats.best
        error = abs(best - 3.0)
        _report(2, error <= 1e-3,
                f"goldstein_price best-of-10 {best:.6f} vs 3 (tol 1e-3)")
        assert error <= 1e-3

    def test_3_mccormick_reaches_published_minimum(self, grid):
        best = grid[("mccormick", 2)].stats.best
        error = abs(best - (-1.9133))
        _report(3, error <= 1e-3,
                f"mccormick best-of-10 {best:.6f} vs -1.9133 (tol 1e-3)")
        assert error <= 1e-3

    def test_4_sphere_reaches_zero_at_every_dimension(self, grid):
        bests = {d: grid[("sphere", d)].stats.best for d in (2, 5, 10, 20, 30)}
        ok = all(b <= 1e-3 for b in bests.values())
        _report(4, ok, "sphere best-of-10 vs 0 (tol 1e-3): "
                       + ", ".join(f"d={d}: {b:.2e}" for d, b in bests.items()))
        for d, best in bests.items():
            assert best <= 1e-3, f"sphere d={d}"

    def test_5_rosenbrock_tracks_reference_quality(self, grid):
        tolerances = {2: 1e-2, 5: 1e-2, 10: 1e-2, 20: 1.0, 30: 30.0}
        bests = {d: grid[("rosenbrock", d)].stats.best for d in tolerances}
        ok = all(bests[d] <= tol for d, tol in tolerances.items())
        _report(5, ok, "rosenbrock best-of-10: "
                       + ", ".join(f"d={d}: {bests[d]:.4g} (tol {tolerances[d]:g})"
                                   for d in tolerances))
        for d, tol in tolerances.items():
            assert bests[d] <= tol, f"rosenbrock d={d}"


class TestBenchmarkOracles:
    def test_6_table_minima_and_hand_values(self):
        checks = [
            abs(booth(1.0, 3.0)) <= 1e-9,
            abs(beale(3.0, 0.5)) <= 1e-9,
            abs(goldstein_price(0.0, -1.0) - 3.0) <= 1e-9,
            abs(mccormick(-0.54719, -1.54719) - (-1.9133)) <= 1e-4,
            abs(three_hump_camel(0.0, 0.0)) <= 1e-9,
            abs(sphere(np.zeros(30))) <= 1e-9,
            abs(rosenbrock(np.ones(30))) <= 1e-9,
            # hand-substituted off-minimum values
            booth(0.0, 0.0) == 74.0,
            booth(-10.0, -10.0) == 2594.0,
            beale(0.0, 0.0) == 1.5**2 + 2.25**2 + 2.625**2,
            beale(0.0, 1.0) == 1.5**2 + 2.25**2 + 2.625**2,
            goldstein_price(0.0, 0.0) == 600.0,
            goldstein_price(1.0, 1.0) == 1876.0,
            mccormick(0.0, 0.0) == 1.0,
            abs(mccormick(1.0, 1.0) - (math.sin(2.0) + 2.0)) <= 1e-12,
            abs(three_hump_camel(1.0, 1.0) - (2 - 1.05 + 1 / 6 + 2)) <= 1e-12,
            sphere([1.0, 2.0, 3.0]) == 14.0,
            rosenbrock([0.0, 0.0]) == 1.0,
            rosenbrock([1.0, 2.0]) == 100.0,
        ]
        ok = all(checks)
        _report(6, ok, f"benchmark oracle suite: {sum(checks)}/{len(checks)} "
                       f"values reproduced")
        assert ok


class TestInvariantSuite:
    def test_7_invariants_over_randomized_short_runs(self):
        rng = np.random.default_rng(7)
        functions = ["booth", "beale", "goldstein_price", "mccormick",
                     "three_hump_camel", "sphere", "rosenbrock"]
        runs_checked = 0
        for trial in range(100):
            name = functions[rng.integers(0, len(functions))]
            dim = 2 if name not in ("sphere", "rosenbrock") else int(rng.integers(2, 7))
            params = AlgorithmParams(
                num_particles=int(rng.integers(2, 11)),
                max_iterations=int(rng.integers(1, 12)),
                maturity_limit=int(rng.integers(-2, 6)),
                rationality_rate=int(rng.integers(0, 4)),
            )
            problem = make_problem(name, dim)
            state = initialize(params, problem, seed=trial)
            assert state.eval_count == params.num_particles
            previous = state.global_best_fitness
            for _ in range(params.max_iterations):
                before = state.eval_count
                iterate(state, params, problem)
                assert state.eval_count - before <= 2 * params.num_particles
                assert state.global_best_fitness <= previous
                previous = state.global_best_fitness
                assert_iteration_boundary(state, params, problem)

            # op-level conservation laws on the final state
            snapshot = copy.deepcopy(state)
            mean = math.fsum(snapshot.fit.tolist()) / len(snapshot.fit)
            expected_gain = sum(1 for f in snapshot.fit if f < mean)
            before_ex = snapshot.ex.tolist()
            socialization(snapshot, params)
            deltas = [e - b for e, b in zip(snapshot.ex.tolist(), before_ex)]
            assert deltas.count(1) == expected_gain
            assert deltas.count(-1) == len(deltas) - expected_gain

            snapshot = copy.deepcopy(state)
            before_ex = snapshot.ex.tolist()
            reward_best(snapshot, params)
            deltas = [e - b for e, b in zip(snapshot.ex.tolist(), before_ex)]
            assert sorted(deltas) == [0] * (len(deltas) - 1) + [1]
            runs_checked += 1
        _report(7, True, f"invariant suite over {runs_checked} randomized short "
                         f"runs: zero violations")


class TestDeterminism:
    def test_8_repeated_runs_and_grid_output_are_identical(self, tmp_path):
        params = AlgorithmParams(num_particles=50, max_iterations=500)
        problem = make_problem("booth", 2)
        results = [run(params, problem, seed=123) for _ in range(20)]
        runs_identical = all(r == results[0] for r in results)

        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code = main(["table2", "--runs", "1", "--seed", "42",
                         "--out", str(path)])
            assert code == 0
        csv_identical = a.read_bytes() == b.read_bytes()

        _report(8, runs_identical and csv_identical,
                f"20 repeated runs bit-identical: {runs_identical}; "
                f"grid CSV byte-identical: {csv_identical}")
        assert runs_identical
        assert csv_identical


class TestPinnedEquationChecks:
    def test_9_pinned_random_equations_match_hand_values(self):
        params = AlgorithmParams()
        checks = []

        # reward: best-fitness particle gains half its interactivity
        state = make_state(fitness=[3.0, 1.0, 5.0], ir=[0.4] * 3,
                           rng=PinnedStream(0.5))
        reward_best(state, params)
        checks.append(math.isclose(state.ir[1], 0.6))
        checks.append(state.ex[1] == 1)

        # socialization: below-mean gains experience and interactivity
        state = make_state(fitness=[1.0, 3.0], ir=[0.5, 0.5],
                           rng=PinnedStream(0.5))
        socialization(state, params)
        checks.append(state.ex.tolist() == [1, -1])
        checks.append(math.isclose(state.ir[0], 0.75))
        checks.append(state.ir[1] == 0.5)

        # decay: halve, and a zero draw pins to the floor
        state = make_state(fitness=[1.0, 2.0], ir=[0.4, 0.4],
                           rng=PinnedStream(0.5))
        decay_all_ir(state, params)
        checks.append(math.isclose(state.ir[0], 0.2))
        state = make_state(fitness=[1.0, 2.0], ir=[0.4, 0.4],
                           rng=PinnedStream(0.0))
        decay_all_ir(state, params)
        checks.append(state.ir[0] == params.ir_floor)

        # move: half a scaled gap of 2 with ir 0.5 advances 0.5
        problem = box_problem([-10.0], [10.0])
        state = make_state(fitness=[5.0, 0.0], ir=[0.5, 0.5],
                           positions=[[1.0], [3.0]], rng=PinnedStream(0.5))
        move_toward_best(state, problem, mask(2, 0))
        checks.append(math.isclose(state.pos[0, 0], 1.5))

        # maturation: only experience <= limit is boosted before the reward
        state = make_state(fitness=[5.0, 4.0, 3.0], ir=[1.0] * 3, ex=[4, 3, -1],
                           rng=PinnedStream(0.5))
        maturation(state, AlgorithmParams(maturity_limit=3))
        checks.append(state.ir[0] == 1.0)
        checks.append(math.isclose(state.ir[1], 1.5))
        checks.append(math.isclose(state.ir[2], 2.25))

        # rationalizing: ratio boost, and repeats keep the phase-start reference
        problem = box_problem([-10.0, -10.0], [10.0, 10.0])
        state = make_state(fitness=[2.0, 1.0], ir=[0.5, 2.0], ex=[-1, 0],
                           positions=[[4.0, 4.0], [0.0, 0.0]],
                           gbest_pos=[0.0, 0.0], gbest_fit=1.0, holder=1,
                           rng=PinnedStream(0.5))
        rationalizing(state, AlgorithmParams(rationality_rate=0), problem)
        checks.append(math.isclose(state.ir[0], 2.5))
        state = make_state(fitness=[1.0, 2.0], ir=[1.0, 1.0], ex=[0, 0],
                           gbest_pos=[0.0, 0.0], gbest_fit=1.0, holder=0,
                           rng=PinnedStream(1.0))
        rationalizing(state, AlgorithmParams(rationality_rate=2), problem)
        checks.append(math.isclose(state.ir[0], 2.5))

        # zero draws: growth rules hold interactivity, moves hold positions
        state = make_state(fitness=[1.0, 3.0], ir=[0.7, 0.7], ex=[0, 0],
                           positions=[[1.0, 1.0], [2.0, 2.0]],
                           rng=PinnedStream(0.0))
        reward_best(state, params)
        socialization(state, params)
        maturation(state, params)
        checks.append(all(v == 0.7 for v in state.ir))
        rationalizing(state, params, problem)
        checks.append(all(v == 0.7 for v in state.ir))
        checks.append(state.pos[1, 0] == 2.0)

        ok = all(checks)
        _report(9, ok, f"pinned-random equation checks: {sum(checks)}/{len(checks)}")
        assert ok
