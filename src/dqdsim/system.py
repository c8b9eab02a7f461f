"""The two-level charge qubit: Hamiltonian eigensystem and density matrix.

The qubit Hamiltonian is H = hbar*T_c*sigma_x in the localized (left/right
dot) basis.  All density-matrix elements in this library live in the energy
eigenbasis, with level 1 the lower level, level splitting omega_21 = 2*T_c,
and the bath coupling operator sigma_z purely off-diagonal there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QubitParams:
    """Interdot tunneling T_c in ps^-1; level splitting is 2*T_c."""

    tunneling_Tc: float

    def __post_init__(self) -> None:
        if not self.tunneling_Tc > 0:
            raise ValueError(f"tunneling_Tc must be positive, got {self.tunneling_Tc}")
        if not math.isfinite(2.0 * self.tunneling_Tc):
            raise ValueError(f"tunneling_Tc={self.tunneling_Tc!r} overflows the splitting 2*T_c")


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Level splitting and coupling-operator matrix elements in the eigenbasis."""

    omega_21: float
    sz_elements: np.ndarray  # <mu|sigma_z|nu>, 2x2 real, 0-based storage

    def sz(self, mu: int, nu: int) -> float:
        """Matrix element <mu|sigma_z|nu> with 1-based level labels."""
        return float(self.sz_elements[mu - 1, nu - 1])

    def omega(self, mu: int, nu: int) -> float:
        """Transition frequency (E_mu - E_nu)/hbar with 1-based labels."""
        if mu == nu:
            return 0.0
        return self.omega_21 if mu > nu else -self.omega_21


def diagonalize(params: QubitParams) -> EigenSystem:
    """Eigensystem of H = hbar*T_c*sigma_x.

    Eigenvalues are -hbar*T_c (level 1) and +hbar*T_c (level 2), so the
    splitting is 2*T_c; sigma_z maps between the two sigma_x eigenstates,
    hence its eigenbasis matrix is exactly [[0, 1], [1, 0]].
    """
    sz = np.array([[0.0, 1.0], [1.0, 0.0]])
    sz.setflags(write=False)
    return EigenSystem(omega_21=2.0 * params.tunneling_Tc, sz_elements=sz)


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 reduced density matrix, elements indexed by eigenbasis levels."""

    rho11: complex
    rho12: complex
    rho21: complex
    rho22: complex

    def trace(self) -> complex:
        return self.rho11 + self.rho22

    def purity(self) -> float:
        arr = self.as_array()
        return float(np.trace(arr @ arr).real)

    def as_array(self) -> np.ndarray:
        return np.array([[self.rho11, self.rho12], [self.rho21, self.rho22]], dtype=complex)

    def as_vector(self) -> np.ndarray:
        """Flat order (rho11, rho12, rho21, rho22) used by the propagator."""
        return np.array([self.rho11, self.rho12, self.rho21, self.rho22], dtype=complex)

    @classmethod
    def from_vector(cls, vec) -> "DensityMatrix":
        return cls(complex(vec[0]), complex(vec[1]), complex(vec[2]), complex(vec[3]))


def initial_state() -> DensityMatrix:
    """Fully coherent pure state: every element exactly 1/2.

    This is the t = 0 state of the closed-form solution (maximal coherence in
    the working eigenbasis) and the starting point of every run here.
    """
    return DensityMatrix(0.5, 0.5, 0.5, 0.5)
