"""Unit conventions and physical constants.

The whole library works in a single unit system: frequencies and rates in
ps^-1, times in ps, temperatures in kelvin, with hbar = 1 in all dynamical
equations.  The only dimensional constant that ever enters is hbar/k_B,
needed to form the thermal exponent hbar*omega/(k_B*T).
"""

from __future__ import annotations

import math

# hbar / k_B in ps*K (CODATA 2018: hbar = 1.054572e-34 J*s, k_B = 1.380649e-23 J/K).
HBAR_OVER_KB = 7.638233


def thermal_ratio(omega: float, temperature: float) -> float:
    """Dimensionless thermal exponent hbar*omega/(k_B*T).

    omega in ps^-1, temperature in kelvin.  Exact, no clamping.
    """
    if math.isnan(omega) or math.isinf(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    if math.isnan(temperature) or not temperature > 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    return HBAR_OVER_KB * omega / temperature


def temperature_from_millikelvin(t_mk: float) -> float:
    """Convert mK to K."""
    if math.isnan(t_mk) or not t_mk > 0:
        raise ValueError(f"temperature must be positive, got {t_mk} mK")
    return t_mk / 1000.0
