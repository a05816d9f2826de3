import os

import pytest
from hypothesis import HealthCheck, settings, strategies as st

settings.register_profile(
    "suite",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
settings.load_profile("suite")

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST_DIR = os.path.join(REPO_ROOT, "manifests")


@pytest.fixture(scope="session")
def manifest_dir():
    return MANIFEST_DIR


@st.composite
def mutated_periodic(draw, min_size=96, max_size=700):
    """A random base of 1-9 letters repeated, then 0-4 point changes."""
    alphabet = draw(st.sampled_from(["01", "012"]))
    base = draw(st.text(alphabet=alphabet, min_size=1, max_size=9))
    n = draw(st.integers(min_size, max_size))
    w = list((base * (n // len(base) + 1))[:n])
    for _ in range(draw(st.integers(0, 4))):
        w[draw(st.integers(0, n - 1))] = draw(st.sampled_from(alphabet))
    return "".join(w)
