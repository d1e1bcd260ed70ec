import pytest

from roughlub import solver


@pytest.fixture(autouse=True)
def empty_baseline_slot():
    """Each test starts with no smooth `compare` solution held, so that what
    a test counts or compares does not depend on the tests before it."""
    solver._baseline.cache_clear()


@pytest.fixture
def baseline_builds(monkeypatch):
    """The smooth configs that `solver._baseline` solves, in order: the slot
    is replaced by an empty one whose build records its config."""
    built = []
    build = solver._baseline.__wrapped__

    def spy(config):
        built.append(config)
        return build(config)

    monkeypatch.setattr(solver, "_baseline", solver._last_key_cache(spy))
    return built
