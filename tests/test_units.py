import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from dqdsim import HBAR_OVER_KB, temperature_from_millikelvin, thermal_ratio

omega_st = st.floats(min_value=1e-6, max_value=10.0, allow_nan=False)
temp_st = st.floats(min_value=1e-3, max_value=10.0, allow_nan=False)


def test_constant_value():
    assert HBAR_OVER_KB == 7.638233


def test_thermal_ratio_reference_values():
    for omega, temp in [(0.1, 0.030), (0.1, 1.0), (0.14, 0.030), (0.2, 0.5)]:
        expected = float(oracle.thermal_ratio(omega, temp))
        got = thermal_ratio(omega, temp)
        assert got == pytest.approx(expected, rel=1e-14)


def test_thermal_ratio_zero_frequency():
    assert thermal_ratio(0.0, 0.030) == 0.0


@pytest.mark.parametrize(
    "omega,temp",
    [(0.1, 0.0), (0.1, -1.0), (0.1, math.nan), (math.nan, 1.0), (math.inf, 1.0)],
)
def test_thermal_ratio_domain_errors(omega, temp):
    with pytest.raises(ValueError):
        thermal_ratio(omega, temp)


@given(omega=omega_st, temp=temp_st)
def test_thermal_ratio_linear_in_omega(omega, temp):
    # doubling is exact in binary floating point
    assert thermal_ratio(2.0 * omega, temp) == 2.0 * thermal_ratio(omega, temp)


@given(omega=omega_st, temp=temp_st)
def test_thermal_ratio_inverse_linear_in_temperature(omega, temp):
    assert thermal_ratio(omega, 2.0 * temp) == thermal_ratio(omega, temp) / 2.0


@pytest.mark.parametrize("mk,kelvin", [(30, 0.030), (1000, 1.0), (20, 0.020)])
def test_temperature_from_millikelvin(mk, kelvin):
    assert temperature_from_millikelvin(mk) == kelvin


@pytest.mark.parametrize("mk", [0.0, -30.0, math.nan])
def test_temperature_from_millikelvin_rejects(mk):
    with pytest.raises(ValueError):
        temperature_from_millikelvin(mk)
