"""Benchmark objectives with their search domains and known minima.

Seven classic single-objective test functions: five fixed two-dimensional
surfaces plus the dimension-polymorphic sphere and rosenbrock.  The raw
functions are pure math; box-domain enforcement is the engine's job.  Each
registered evaluator carries a ``batch`` form for (k, d) points, equal bit
for bit to evaluating each row.

Each 2-D function is one expression over two floats or two arrays: its row
form is Python-float arithmetic, its batch form numpy's, and both reach the
C library's ``pow`` and ``sin`` (see :func:`_pow`), so the two agree on every
point of every box.  Far outside a box, a power can overflow: there the row
form raises ``OverflowError``, while the batch form gives ``inf`` with a
RuntimeWarning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from codoa.engine import MAX_DRAW, AlgorithmParams, ConfigurationError, ObjectiveProblem, checked


# as 0-d arrays, which numpy takes faster than a Python number it must convert
_ARRAYS = {x: np.array(float(x)) for x in (1, 2, 3, 4, 6, 100)}


def _pow(x, e: int):
    """``x ** e`` through the C library's ``pow``: Python's ``**`` on a float,
    ``np.float_power`` (which calls it on each element) on an array."""
    return np.float_power(x, _ARRAYS[e]) if isinstance(x, np.ndarray) else x**e


def _sin(x):
    """``sin`` through the C library: ``math.sin`` on a float, ``np.sin`` on an array."""
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def booth(x, y):
    """Quadratic plate-shaped valley; minimum 0 at (1, 3)."""
    return _pow(x + 2.0 * y - 7.0, 2) + _pow(2.0 * x + y - 5.0, 2)


def beale(x, y):
    """Sharp multimodal surface; minimum 0 at (3, 0.5)."""
    return (
        _pow(1.5 - x + x * y, 2)
        + _pow(2.25 - x + x * y * y, 2)
        + _pow(2.625 - x + x * _pow(y, 3), 2)
    )


def goldstein_price(x, y):
    """Product of two quartic factors; minimum 3 at (0, -1)."""
    a = 1.0 + _pow(x + y + 1.0, 2) * (
        19.0 - 14.0 * x + 3.0 * x * x - 14.0 * y + 6.0 * x * y + 3.0 * y * y
    )
    b = 30.0 + _pow(2.0 * x - 3.0 * y, 2) * (
        18.0 - 32.0 * x + 12.0 * x * x + 48.0 * y - 36.0 * x * y + 27.0 * y * y
    )
    return a * b


def mccormick(x, y):
    """Sinusoidal valley; minimum -1.9133 at (-0.54719, -1.54719)."""
    return _sin(x + y) + _pow(x - y, 2) - 1.5 * x + 2.5 * y + 1.0


def three_hump_camel(x, y):
    """Three local minima; global minimum 0 at the origin."""
    return 2.0 * x * x - 1.05 * _pow(x, 4) + _pow(x, 6) / 6.0 + x * y + y * y


def _sphere_rows(x: np.ndarray) -> np.ndarray:
    if x.shape[-1] < 1:
        raise ValueError("sphere needs at least one coordinate")
    return np.square(x).sum(axis=-1)


def _rosenbrock_rows(x: np.ndarray) -> np.ndarray:
    """``(100.0 * (tail - head**2) ** 2 + (head - 1.0) ** 2).sum(axis=-1)``, bit for bit, in two
    new buffers, writing no input, with 0-d constants: a ufunc call took 0.45 us, not 0.65."""
    if x.shape[-1] < 2:
        raise ValueError("rosenbrock needs at least two coordinates")
    head, tail = x[..., :-1], x[..., 1:]
    valley = np.square(head, dtype=float)  # float64 whatever the input, as the row form
    np.square(np.subtract(tail, valley, out=valley), out=valley)
    valley *= _ARRAYS[100]
    slope = head - _ARRAYS[1]
    valley += np.square(slope, out=slope)
    return valley.sum(axis=-1)


def sphere(x) -> float:
    """Sum of squares; minimum 0 at the origin, any dimension >= 1."""
    return float(_sphere_rows(np.asarray(x, dtype=float).ravel()))


def rosenbrock(x) -> float:
    """Banana-shaped valley; minimum 0 at all-ones, any dimension >= 2."""
    return float(_rosenbrock_rows(np.asarray(x, dtype=float).ravel()))


sphere.batch = _sphere_rows
rosenbrock.batch = _rosenbrock_rows


class _Pair:
    """A 2-D function ``f(x, y)`` as an evaluator: called on one point, or on
    (k, 2) points through ``batch``; points of another shape are a ValueError.

    A class, not a closure, so that it pickles (``f`` by reference): a pooled
    run sends each worker the problem built for its entry, evaluator and all.
    """

    def __init__(self, f: Callable) -> None:
        self.f = f

    def __call__(self, pos: np.ndarray) -> float:
        if np.shape(pos) != (2,):
            raise ValueError(f"{self.f.__name__} takes 2 coordinates, got shape {np.shape(pos)}")
        return float(self.f(float(pos[0]), float(pos[1])))

    def batch(self, points: np.ndarray) -> np.ndarray:
        if points.shape[1:] != (2,):
            raise ValueError(f"{self.f.__name__} takes 2 coordinates, got shape {points.shape}")
        return self.f(points[:, 0], points[:, 1])


@dataclass(frozen=True)
class BenchmarkSpec:
    """Domain card for one objective: bounds, optimum, and dimension range.

    ``dimensions`` is the least and the most dimension the function takes.
    ``bounds`` and ``minimizer`` hold one entry per coordinate; a single
    entry is replicated across all requested dimensions.
    """

    name: str
    dimensions: tuple[int, int]
    bounds: tuple[tuple[float, float], ...]
    known_minimum_value: float
    minimizer: tuple[float, ...]
    func: Callable[[np.ndarray], float]


# the most coordinates of sphere and rosenbrock: a reference swarm of this dimension
# draws MAX_DRAW uniforms in one step (40 MB)
MAX_DIMENSION = MAX_DRAW // AlgorithmParams.num_particles

REGISTRY: dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in (
        BenchmarkSpec("booth", (2, 2), ((-10.0, 10.0),), 0.0, (1.0, 3.0), _Pair(booth)),
        BenchmarkSpec("beale", (2, 2), ((-4.5, 4.5),), 0.0, (3.0, 0.5), _Pair(beale)),
        BenchmarkSpec(
            "goldstein_price", (2, 2), ((-2.0, 2.0),), 3.0, (0.0, -1.0), _Pair(goldstein_price)
        ),
        BenchmarkSpec(
            "mccormick",
            (2, 2),
            ((-1.5, 4.0), (-3.0, 4.0)),
            -1.9133,
            (-0.54719, -1.54719),
            _Pair(mccormick),
        ),
        BenchmarkSpec(
            "three_hump_camel", (2, 2), ((-5.0, 5.0),), 0.0, (0.0, 0.0), _Pair(three_hump_camel)
        ),
        BenchmarkSpec("sphere", (2, MAX_DIMENSION), ((-100.0, 100.0),), 0.0, (0.0,), sphere),
        BenchmarkSpec("rosenbrock", (2, MAX_DIMENSION), ((-30.0, 30.0),), 0.0, (1.0,), rosenbrock),
    )
}


def check_entry(name: str, dimension: int) -> tuple[BenchmarkSpec, int]:
    """The spec of the named benchmark and ``dimension`` as an ``int``, if the
    benchmark takes that dimension (see :func:`make_problem`); else ConfigurationError."""
    spec = REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown function {name!r}; choose from: {', '.join(REGISTRY)}"
        )
    return spec, checked(f"dimension of {name!r}", dimension, "int", *spec.dimensions)


def make_problem(name: str, dimension: int = 2) -> ObjectiveProblem:
    """Build the named benchmark as a box-constrained problem.

    ``dimension`` is an integer in the spec's ``dimensions`` range: 2 for the
    five two-dimensional functions, 2 to ``MAX_DIMENSION`` for sphere and rosenbrock.
    """
    spec, dimension = check_entry(name, dimension)
    bounds = spec.bounds * dimension if len(spec.bounds) == 1 else spec.bounds
    minimizer = spec.minimizer * dimension if len(spec.minimizer) == 1 else spec.minimizer
    return ObjectiveProblem(
        lower_bounds=np.array([b[0] for b in bounds]),
        upper_bounds=np.array([b[1] for b in bounds]),
        evaluator=spec.func,
        known_minimum_value=spec.known_minimum_value,
        known_minimizer=np.array(minimizer),
    )
