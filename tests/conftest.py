import json

import numpy as np
import pytest

from hologate.compiler import MaterialSpec
from hologate.modes import ConeGeometry, make_cone_basis


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def strict_json(path):
    """Parse a JSON file, failing on the non-standard NaN/Infinity tokens."""

    def reject(token):
        raise AssertionError(f"{path} holds the non-standard JSON token {token}")

    return json.loads(path.read_text(), parse_constant=reject)


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.normal(size=n) + 1j * rng.normal(size=n)
    return z / np.linalg.norm(z)


def geometry(dimension: int) -> ConeGeometry:
    return ConeGeometry(
        dimension=dimension,
        signal_half_angle=0.08,
        reference_half_angle=0.16,
        wavelength=6.33e-7,
        aperture_breadth=5e-3,
    )


@pytest.fixture(scope="session")
def geom8():
    return geometry(8)


@pytest.fixture(scope="session")
def modes8(geom8):
    return make_cone_basis(geom8)


@pytest.fixture(scope="session")
def geom4():
    return geometry(4)


@pytest.fixture(scope="session")
def modes4(geom4):
    return make_cone_basis(geom4)


@pytest.fixture(scope="session")
def modes2():
    return make_cone_basis(geometry(2))


@pytest.fixture(scope="session")
def material():
    return MaterialSpec(
        max_total_thickness=2.5e-2,
        max_index_modulation=1e-3,
        meters_per_recording=1e-3,
        name="test-material",
    )
