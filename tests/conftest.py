import json
from pathlib import Path

import numpy as np
import pytest

from goldstone.analysis import SystemContext
from goldstone.lattice import Lattice

GOLDEN_PATH = Path(__file__).parent / "golden.json"


@pytest.fixture(scope="session")
def golden():
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def pair():
    """Two sites, one bond (the smallest test-mode system)."""
    return Lattice((2,))


@pytest.fixture(scope="session")
def ring4():
    return Lattice((4,))


@pytest.fixture(scope="session")
def lat22():
    return Lattice((2, 2))


@pytest.fixture(scope="session")
def lat24():
    return Lattice((2, 4))


@pytest.fixture(scope="session")
def ctx22(lat22):
    return SystemContext(lat22, 0.1)


@pytest.fixture(scope="session")
def ctx24(lat24):
    return SystemContext(lat24, 0.1)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
