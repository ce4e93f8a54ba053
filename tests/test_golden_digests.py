"""Golden digests: the engine's exact output, pinned run by run.

Every ``table2_grid()`` entry is run at seeds 1 and 2 for 200 iterations at
the reference swarm size, and the exact bits of ``best_fitness``,
``best_position``, ``best_per_iteration`` and ``eval_count`` are hashed with
SHA-256.  A refactor of the engine or the benchmarks must leave every digest
unchanged; a change that moves the numbers on purpose re-pins them and says
so.

The digests are platform-pinned.  booth and the other 2-D functions reach
the C library's ``pow`` through Python's float ``**`` (one point) and
``np.float_power`` (a batch), and mccormick its ``sin`` through ``math.sin``
and ``np.sin``; numpy's reductions depend on its build.  So another libm or
numpy build may differ in the last bit.  They were pinned on x86-64 Linux,
CPython 3.11, numpy 2.4.
"""

import hashlib

import pytest

from codoa import AlgorithmParams, make_problem, run, table2_grid

ITERATIONS = 200

GOLDEN = {
    ("booth", 2, 1): "d160df666e05b201755f0acb2f9ee1dcb2f3807d6e70db40350415c7256c4e70",
    ("booth", 2, 2): "179ccfacd6ada66e95d3c27bfff177e344396fc50561132c7ba4c93bd14fbc65",
    ("beale", 2, 1): "a2db0e4d1b56a9ee2bbd9be2a450803ee66efef318aceb4f64803cd4f28358b6",
    ("beale", 2, 2): "1f89bacaa172605dac01acfe8aac50b54fd697d0dc8e7d042b96a2d1c2f2d055",
    ("goldstein_price", 2, 1): "c28e172055d49f7228e93114e7a06d106b007bc4c0ac08af4e23b93eb3af48ac",
    ("goldstein_price", 2, 2): "912690efbdc3ee04a3b968464f1923ba6d21172659c3873b2ad3052cb35b4d58",
    ("mccormick", 2, 1): "46b399915d0dc22e7530693fe04c9c28e77d8fbba7f535b7631502244a09dfdc",
    ("mccormick", 2, 2): "7d199fb37e53824610a3326b8273fadeb3257646ad68eaa5f182c817db87e233",
    ("three_hump_camel", 2, 1): "7077c1cf8a7a74735e7bb1398e8b55388e117c3cb3be4aa935582cc90f9979f9",
    ("three_hump_camel", 2, 2): "ec97bb93541db27f1f216037e8a2e464ab0d44506b98d854357cee2dfbdf6678",
    ("sphere", 2, 1): "4455c512da9a8439b4dbea8074cc5d1309b7fb966b97022da4f40a08ef219ca5",
    ("sphere", 2, 2): "5d2bdd5725682a8add5de8dd681b304daf3f82b1e96520c469f806b6209df75e",
    ("sphere", 5, 1): "c4d5f73834b067e5cecbb7befc728fd02b71387df3274abab12818fad71aa579",
    ("sphere", 5, 2): "130a95f8897ec10dde1bacfe18a3c6bde25bcbeb466bcdbf0fdda588432dbeb7",
    ("sphere", 10, 1): "9ef1fc11bda7d21ac4d1108999136ae9215cf231c247bf700457200dac88e189",
    ("sphere", 10, 2): "7b04ca576be40f2153d2b982e7b53979b130f028cac550d1ada49348027eaab2",
    ("sphere", 20, 1): "867340cdbbb97849dab5bcf6bf5feb8b22cc88d5d8e784218c9896e9ee43b451",
    ("sphere", 20, 2): "7e178b8c60e6eb53c1eb6f70b573a46aa0c6fd7c1cb95d4c335e1d4491801119",
    ("sphere", 30, 1): "e2da0c432f7f0edd81b6d73a8a3099dbfe6602aaf051eb939b9b5a01b7e6605e",
    ("sphere", 30, 2): "83ebc2058e17748f32be28123115d247de140936ec3414d4ec0f5e1e056eab43",
    ("rosenbrock", 2, 1): "6d4e8be7f92e7528ba40b71893afcf3de6f15ab3eb86629af7b8bba9c7f68432",
    ("rosenbrock", 2, 2): "4e2193c6adbcf70f5b71c03fc561255da6ea213024ecf006e81c8f1af3d289e5",
    ("rosenbrock", 5, 1): "2150d88d2ec0c9056c9dc89613f009492e13c81eff36c18350ca9652b9407719",
    ("rosenbrock", 5, 2): "3d09a21b75c06638c258fc2a6892e147fbdcef43b75dc40591da8ebd13d70725",
    ("rosenbrock", 10, 1): "2e03427487b9f632e78dba6ca3174ca18e23a4797c885f6b7521eba6af78b500",
    ("rosenbrock", 10, 2): "891cdd157aafba05b193d8ed8372e5f37a909237f98413c43a36835c8fe8c550",
    ("rosenbrock", 20, 1): "a023e0792ffe970e5587c591e15758869f24b1a0e7efda14162f7c8cd8ae08f1",
    ("rosenbrock", 20, 2): "310359c27e157bf8edb8335b656d986503deff85458b7587fd6c2e6b6f8f9ec8",
    ("rosenbrock", 30, 1): "9b170df046ee906db72b1d2da692d84ddcdde87f21cf76bd6c63b2c2ff486460",
    ("rosenbrock", 30, 2): "6bd41cacbaf147f14b2184cd9e8a25c6cffe3c143490d20ed1b0903e3166e28b",
}


def digest(result) -> str:
    """SHA-256 over the exact bits of a run's best, position, history and evals."""
    payload = "|".join((
        result.best_fitness.hex(),
        ",".join(v.hex() for v in result.best_position),
        ",".join(v.hex() for v in result.best_per_iteration),
        str(result.eval_count),
    ))
    return hashlib.sha256(payload.encode()).hexdigest()


def test_golden_table_covers_the_grid_at_two_seeds():
    expected = {(name, dim, seed) for name, dim in table2_grid().entries for seed in (1, 2)}
    assert set(GOLDEN) == expected


@pytest.mark.parametrize("name, dim, seed", sorted(GOLDEN), ids=lambda v: str(v))
def test_run_matches_golden_digest(name, dim, seed):
    result = run(AlgorithmParams(max_iterations=ITERATIONS), make_problem(name, dim), seed)
    assert digest(result) == GOLDEN[(name, dim, seed)]
