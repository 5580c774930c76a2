import pytest
from hypothesis import settings

from ietskew.instances import build_instance, load_instance, packaged_names

# the same examples on every run, no example database, no per-example deadline
settings.register_profile("derandomized", derandomize=True, database=None, deadline=None, max_examples=100)
settings.load_profile("derandomized")


@pytest.fixture(scope="session", params=packaged_names())
def built(request):
    return build_instance(load_instance(request.param))


@pytest.fixture(scope="session")
def golden():
    return build_instance(load_instance("golden_triple"))


@pytest.fixture(scope="session")
def rank2():
    return build_instance(load_instance("genus2_rank2"))
