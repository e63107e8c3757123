from dataclasses import replace

import numpy as np
import pytest

from fractal_tiling_lab.pipeline import get_bundle
from fractal_tiling_lab.presets import get_preset


@pytest.fixture(scope="session")
def cantor_bundle():
    return get_bundle("cantor")


@pytest.fixture(scope="session")
def carpet_bundle():
    return get_bundle("carpet")


@pytest.fixture(scope="session")
def carpet_coarse_bundle():
    return get_bundle(replace(get_preset("carpet").scene, delta=2.0**-10))


@pytest.fixture(scope="session")
def koch_bundle():
    return get_bundle("koch")


@pytest.fixture(scope="session")
def gasket_bundle():
    return get_bundle("gasket")


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
