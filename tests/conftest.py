import tracemalloc
from pathlib import Path

import pytest

from dqdsim import DeformationBath, OhmicBath, PiezoelectricBath, QubitParams, diagonalize

REPO_ROOT = Path(__file__).resolve().parents[1]

# The seven (bath, temperature, T_c) combinations behind the coupling-family
# figures: both omega_l values for each phonon bath, three Ohmic dampings.
FIGURE_SETS = [
    ("pcpb_wl0.5", PiezoelectricBath(omega_l=0.5), 0.030, 0.05),
    ("pcpb_wl0.7", PiezoelectricBath(omega_l=0.7), 0.030, 0.07),
    ("dcpb_wl0.5", DeformationBath(omega_l=0.5), 0.030, 0.05),
    ("dcpb_wl0.7", DeformationBath(omega_l=0.7), 0.030, 0.07),
    ("ohmic_0.04", OhmicBath(eta=0.04), 0.030, 0.05),
    ("ohmic_0.08", OhmicBath(eta=0.08), 0.030, 0.05),
    ("ohmic_0.12", OhmicBath(eta=0.12), 0.030, 0.05),
]


MiB = 1 << 20


def allocation_peak(call):
    """call()'s result and the peak bytes it allocated beyond what was live before.

    tracemalloc sees numpy's buffers as well as Python objects.
    """
    result, peak, _ = allocations(call)
    return result, peak


def allocations(call):
    """call()'s result, its peak allocation and what it left live, both beyond what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        live, peak = tracemalloc.get_traced_memory()
        return result, peak - before, live - before
    finally:
        tracemalloc.stop()


@pytest.fixture
def eig_default():
    """Eigensystem for the standard T_c = 0.05 ps^-1 binding (omega_21 = 0.1)."""
    return diagonalize(QubitParams(tunneling_Tc=0.05))


@pytest.fixture(scope="session")
def configs_dir():
    return REPO_ROOT / "configs"
