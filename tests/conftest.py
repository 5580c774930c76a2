import functools

import pytest
from hypothesis import settings

from ietskew.instances import build_instance, load_instance, packaged_names

# the same examples on every run, no example database, no per-example deadline
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None, max_examples=100)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def packaged():
    """The packaged instance of a name, built once per session.  A test that
    changes one works on a ``dataclasses.replace`` copy."""
    return functools.cache(lambda name: build_instance(load_instance(name)))


@pytest.fixture(scope="session", params=packaged_names())
def built(request, packaged):
    return packaged(request.param)


@pytest.fixture(scope="session")
def golden(packaged):
    return packaged("golden_triple")


@pytest.fixture(scope="session")
def rank2(packaged):
    return packaged("genus2_rank2")
