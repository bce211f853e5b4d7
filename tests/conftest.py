import pytest

from stautcheck.quantale import build_rel_quantale
from stautcheck.thin import ThinModel
from stautcheck.linear import build_vec_model, GradedLineModel
from stautcheck.drinfeld import build_drinfeld_z2


@pytest.fixture(scope="session")
def vec():
    return build_vec_model(2)


@pytest.fixture(scope="session")
def thin_rel2():
    return ThinModel(build_rel_quantale(2), probe_cap=6)


@pytest.fixture(scope="session")
def graded():
    return GradedLineModel()


@pytest.fixture(scope="session")
def dz2():
    return build_drinfeld_z2()
