"""Phonon bath models: spectral densities and thermal occupation.

Three spectral-density families describe the environment of the charge qubit:

* piezoelectric phonons   J(w) = g * w   * [1 - sinc(w/w_d)] * exp(-w^2 / 2 w_l^2)
* deformation phonons     J(w) = g * w^3 * [1 - sinc(w/w_d)] * exp(-w^2 / 2 w_l^2)
* Ohmic                   J(w) = eta * w^s * exp(-w / w_c)

with sinc(x) = sin(x)/x.  w_d = s/d and w_l = s/l are set by the sound
velocity, the dot separation d and the dot size l.  All J values are rates in
ps^-1 when the prefactors g are given in ps^-2 and frequencies in ps^-1; the
w^3 family is used with the same numerical convention (its prefactor absorbs
the remaining dimensions).
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass
from typing import Union

from .units import thermal_ratio

# Switch points of the numerically protected branches.
_SINC_SERIES_THRESHOLD = 1e-4
_BOSE_UNDERFLOW_X = 700.0
_BOSE_SERIES_X = 1e-8
_BOSE_OVERFLOW_X = sys.float_info.min  # below it, 1/x is within 4x of the largest float


@dataclass(frozen=True)
class PiezoelectricBath:
    """Piezoelectric-coupling phonon bath (prefactor g in ps^-2)."""

    g: float = 0.035
    omega_d: float = 0.02
    omega_l: float = 0.5

    def __post_init__(self) -> None:
        _check_phonon_params(self.g, self.omega_d, self.omega_l)


@dataclass(frozen=True)
class DeformationBath:
    """Deformation-coupling phonon bath (prefactor g in ps^-2)."""

    g: float = 0.029
    omega_d: float = 0.02
    omega_l: float = 0.5

    def __post_init__(self) -> None:
        _check_phonon_params(self.g, self.omega_d, self.omega_l)


@dataclass(frozen=True)
class OhmicBath:
    """Power-law bath with exponential cutoff; s_exponent = 1 is Ohmic."""

    eta: float = 0.04
    omega_c: float = 0.05
    s_exponent: float = 1.0

    def __post_init__(self) -> None:
        if not self.eta >= 0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if not self.omega_c > 0:
            raise ValueError(f"omega_c must be positive, got {self.omega_c}")
        if not self.s_exponent > 0:
            raise ValueError(f"s_exponent must be positive, got {self.s_exponent}")


BathModel = Union[PiezoelectricBath, DeformationBath, OhmicBath]


def _check_phonon_params(g: float, omega_d: float, omega_l: float) -> None:
    if not g >= 0:
        raise ValueError(f"coupling prefactor must be >= 0, got {g}")
    if not omega_d > 0:
        raise ValueError(f"omega_d must be positive, got {omega_d}")
    if not omega_l > 0:
        raise ValueError(f"omega_l must be positive, got {omega_l}")


def _sinc(x: float) -> float:
    # series branch avoids 0/0; at |x| = 1e-4 the dropped x^4/120 term is ~1e-17
    if abs(x) < _SINC_SERIES_THRESHOLD:
        return 1.0 - x * x / 6.0
    if math.isinf(x):  # omega/omega_d beyond the float range; sin is bounded
        return 0.0
    return math.sin(x) / x


def spectral_density(model: BathModel, omega: float) -> float:
    """Bath spectral density J(omega) in ps^-1, for omega >= 0.

    Returns exactly 0 at omega = 0 (the analytic limit of all three families)
    and wherever the exponential cutoff underflows to 0, however large the
    prefactor times the power of omega would be.  Raises OverflowError when J
    or an intermediate leaves the float range.
    """
    if math.isnan(omega) or omega < 0:
        raise ValueError(f"omega must be >= 0, got {omega}")
    if omega == 0.0:
        return 0.0
    try:
        if isinstance(model, (PiezoelectricBath, DeformationBath)):
            cutoff = math.exp(-(omega * omega) / (2.0 * model.omega_l**2))
            if cutoff == 0.0:  # g * omega**p could overflow, and inf * 0 is NaN
                return 0.0
            power = omega if isinstance(model, PiezoelectricBath) else omega**3
            bracket = 1.0 - _sinc(omega / model.omega_d)
            j = model.g * power * bracket * cutoff
        elif isinstance(model, OhmicBath):
            cutoff = math.exp(-omega / model.omega_c)
            if cutoff == 0.0:
                return 0.0
            j = model.eta * omega**model.s_exponent * cutoff
        else:
            raise TypeError(f"unknown bath model {model!r}")
    except ArithmeticError:  # a power overflowed, or omega_l**2 underflowed to 0
        j = math.nan
    if not math.isfinite(j):
        raise OverflowError(f"J(omega={omega!r}) is outside the float range for {model!r}")
    return j


def bose_occupation(omega: float, temperature: float) -> float:
    """Bose-Einstein occupation n(w) = 1/(e^x - 1), x = hbar*w/(k_B*T).

    Diverges at omega = 0, so omega must be strictly positive.  Protected
    branches: e^-x for x > 700 (overflow), 1/x - 1/2 for x < 1e-8 (Laurent).
    """
    if not omega > 0:
        raise ValueError(f"Bose occupation needs omega > 0, got {omega}")
    x = thermal_ratio(omega, temperature)
    if x < _BOSE_OVERFLOW_X:  # n = 1/x - 1/2 would reach the end of the float range
        raise OverflowError(f"Bose occupation at omega={omega!r}, T={temperature!r} overflows")
    if x > _BOSE_UNDERFLOW_X:
        return math.exp(-x)
    if x < _BOSE_SERIES_X:
        return 1.0 / x - 0.5
    return 1.0 / math.expm1(x)


@dataclass(frozen=True)
class MaterialConstants:
    """Crystal constants feeding the coupling-prefactor helper formulas.

    Units are whatever the caller works in; the helpers evaluate the printed
    algebra literally and leave unit bookkeeping to the caller.
    """

    piezoconstant_M: float
    density_rho: float
    sound_velocity_s: float
    velocity_ratio_x: float
    deformation_potential_Xi: float

    def __post_init__(self) -> None:
        if not self.density_rho > 0:
            raise ValueError(f"density must be positive, got {self.density_rho}")
        if not self.sound_velocity_s > 0:
            raise ValueError(f"sound velocity must be positive, got {self.sound_velocity_s}")
        if not self.velocity_ratio_x > 0:
            raise ValueError(f"velocity ratio must be positive, got {self.velocity_ratio_x}")


def g_pz_from_material(mat: MaterialConstants) -> float:
    """Piezoelectric prefactor g = M/(pi^2 rho s^3) * (6/35 + (1/x)(8/35))."""
    return (mat.piezoconstant_M / (math.pi**2 * mat.density_rho * mat.sound_velocity_s**3)) * (
        6.0 / 35.0 + (1.0 / mat.velocity_ratio_x) * 8.0 / 35.0
    )


def g_df_from_material(mat: MaterialConstants) -> float:
    """Deformation prefactor g = Xi^2 / (8 pi^2 rho s^5)."""
    return mat.deformation_potential_Xi**2 / (
        8.0 * math.pi**2 * mat.density_rho * mat.sound_velocity_s**5
    )


BATH_KINDS = {"pcpb": PiezoelectricBath, "dcpb": DeformationBath, "ohmic": OhmicBath}


def finite_number(value, name: str) -> float:
    """A config number as a float; bools, non-numbers, NaN and infinities are rejected."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ValueError(f"{name} must be a finite number, got {value!r}")


def bath_to_dict(model: BathModel) -> dict:
    """Tagged-object form used in config files, e.g. {"kind": "pcpb", ...}."""
    for kind, cls in BATH_KINDS.items():
        if type(model) is cls:
            return {"kind": kind, **dataclasses.asdict(model)}
    raise TypeError(f"unknown bath model {model!r}")


def bath_from_dict(data: dict) -> BathModel:
    """Parse the tagged-object form; unknown keys are an error."""
    if not isinstance(data, dict):
        raise ValueError(f"bath must be an object, got {type(data).__name__}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in BATH_KINDS:  # a list or an object is unhashable
        raise ValueError(f"bath kind must be one of {sorted(BATH_KINDS)}, got {kind!r}")
    allowed = {f.name for f in dataclasses.fields(BATH_KINDS[kind])}
    unknown = set(data) - allowed - {"kind"}
    if unknown:
        raise ValueError(f"unknown bath keys for {kind}: {sorted(unknown)}")
    params = {k: finite_number(v, f"bath.{k}") for k, v in data.items() if k != "kind"}
    return BATH_KINDS[kind](**params)
