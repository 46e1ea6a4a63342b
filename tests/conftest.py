import sys
from pathlib import Path

import pytest

# the oracles beside the tests, and the helpers of the scripts they check
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "scripts"))

from flotilla.curve import Ellipse, FourierRadial


@pytest.fixture(scope="session")
def unit_circle():
    return Ellipse(1.0, 1.0)


@pytest.fixture(scope="session")
def ellipse21():
    return Ellipse(2.0, 1.0)


@pytest.fixture(scope="session")
def bump3():
    """Perturbed circle r = 1 + 0.1 cos(3s); critically convex at three points."""
    return FourierRadial(1.0, (0.0, 0.0, 0.1))


@pytest.fixture(scope="session")
def bump3_small():
    return FourierRadial(1.0, (0.0, 0.0, 0.05))


@pytest.fixture(scope="session")
def sym_cos2():
    """Origin-symmetric convex Fourier curve (even harmonic only)."""
    return FourierRadial(1.0, (0.0, 0.05))


@pytest.fixture(scope="session")
def sym_cos4():
    """Origin-symmetric convex non-Radon Fourier curve."""
    return FourierRadial(1.0, (0.0, 0.0, 0.0, 0.05))
