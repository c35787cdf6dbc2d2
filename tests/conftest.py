import numpy as np
import pytest

from amaflow import (
    SolveConfig,
    example_problem,
    example_reference,
    example_schedule,
    example_start,
)


@pytest.fixture(scope="session")
def ex_problem():
    return example_problem()


@pytest.fixture(scope="session")
def ex_reference():
    return example_reference()


@pytest.fixture(scope="session")
def ex_start():
    return example_start()


@pytest.fixture(scope="session")
def ex_sched_c025():
    return example_schedule("c025", 0.99)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def quick_cfg():
    return SolveConfig(max_iters=20000, tol_kkt=1e-6, tol_feas=1e-6, record_every=100)


# numpy's implementation module: np.linalg.norm(M, 2), which operator_norm
# uses, calls the svd found there rather than np.linalg.svd
_LINALG_IMPL = getattr(np.linalg, "_linalg", None) or np.linalg.linalg


@pytest.fixture
def decompositions(monkeypatch):
    """Counts of numpy's eigvalsh, eigh and svd calls, direct or from inside np.linalg."""
    counts = {"eigvalsh": 0, "eigh": 0, "svd": 0}
    for name in counts:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
        monkeypatch.setattr(_LINALG_IMPL, name, counted)
    return counts


@pytest.fixture
def updates(monkeypatch):
    """A list that gains one entry per update a run or a helper makes: every
    update goes through a kernel of ``dynamics._kernel``."""
    from amaflow import dynamics

    made = []
    build = dynamics._kernel

    def counting(*args, **kwargs):
        update = build(*args, **kwargs)
        return lambda *a: made.append(1) or update(*a)

    monkeypatch.setattr(dynamics, "_kernel", counting)
    return made
