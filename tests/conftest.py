import random

import pytest

from heatchern.suites import _random_curvature as random_curvature  # noqa: F401


@pytest.fixture
def rng():
    return random.Random(20260823)
