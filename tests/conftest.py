import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Acceptance demands >= 200 cases per property; deadline off because single
# examples legitimately spend tens of ms inside the dual solver.
settings.register_profile(
    "sdsvm",
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    derandomize=True,
)
settings.load_profile("sdsvm")


@pytest.fixture
def linear_spec():
    from sdsvm import KernelSpec

    return KernelSpec(kind="linear")


def make_vectors(rows):
    """Vector samples as one (n, d) float64 array."""
    return np.asarray(rows, dtype=np.float64)
