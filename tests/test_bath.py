import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracle
from dqdsim import (
    DeformationBath,
    MaterialConstants,
    OhmicBath,
    PiezoelectricBath,
    bath_from_dict,
    bath_to_dict,
    bose_occupation,
    g_df_from_material,
    g_pz_from_material,
    spectral_density,
)
from dqdsim.units import HBAR_OVER_KB

prefactor_st = st.floats(min_value=1e-4, max_value=1.0)
omega_d_st = st.floats(min_value=0.005, max_value=0.1)
omega_l_st = st.floats(min_value=0.1, max_value=2.0)
omega_c_st = st.floats(min_value=0.01, max_value=0.5)
s_exp_st = st.floats(min_value=0.5, max_value=2.0)
omega_st = st.floats(min_value=0.0, max_value=3.0)

pcpb_st = st.builds(PiezoelectricBath, g=prefactor_st, omega_d=omega_d_st, omega_l=omega_l_st)
dcpb_st = st.builds(DeformationBath, g=prefactor_st, omega_d=omega_d_st, omega_l=omega_l_st)
ohmic_st = st.builds(OhmicBath, eta=prefactor_st, omega_c=omega_c_st, s_exponent=s_exp_st)
bath_st = st.one_of(pcpb_st, dcpb_st, ohmic_st)


class TestSpectralDensity:
    def test_pcpb_reference_values(self):
        assert spectral_density(PiezoelectricBath(), 0.1) == pytest.approx(
            float(oracle.j_pcpb(0.1)), rel=1e-13
        )
        assert spectral_density(PiezoelectricBath(omega_l=0.7), 0.14) == pytest.approx(
            float(oracle.j_pcpb(0.14, omega_l=0.7)), rel=1e-13
        )

    def test_dcpb_reference_values(self):
        assert spectral_density(DeformationBath(), 0.1) == pytest.approx(
            float(oracle.j_dcpb(0.1)), rel=1e-13
        )
        assert spectral_density(DeformationBath(omega_l=0.7), 0.14) == pytest.approx(
            float(oracle.j_dcpb(0.14, omega_l=0.7)), rel=1e-13
        )

    def test_ohmic_reference_values(self):
        assert spectral_density(OhmicBath(eta=0.04), 0.1) == pytest.approx(
            float(oracle.j_ohmic(0.1)), rel=1e-13
        )
        assert spectral_density(OhmicBath(eta=0.04), 0.05) == pytest.approx(
            float(oracle.j_ohmic(0.05)), rel=1e-13
        )

    @given(model=bath_st)
    def test_zero_frequency_is_exactly_zero(self, model):
        assert spectral_density(model, 0.0) == 0.0

    @given(model=bath_st, omega=omega_st)
    def test_nonnegative(self, model, omega):
        assert spectral_density(model, omega) >= 0.0

    def test_negative_omega_rejected(self):
        with pytest.raises(ValueError):
            spectral_density(PiezoelectricBath(), -0.1)

    def test_sinc_branch_continuity(self):
        # omega/omega_d crossing the 1e-4 series switch
        bath = PiezoelectricBath()
        for factor in (1.0 - 1e-6, 1.0, 1.0 + 1e-6):
            w = bath.omega_d * 1e-4 * factor
            expected = float(oracle.j_pcpb(w))
            assert spectral_density(bath, w) == pytest.approx(expected, rel=1e-12)

    def test_ohmic_exactly_linear_in_eta(self):
        lo = OhmicBath(eta=0.04)
        hi = OhmicBath(eta=0.08)
        for w in (0.01, 0.05, 0.1, 0.3):
            assert spectral_density(hi, w) == 2.0 * spectral_density(lo, w)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PiezoelectricBath(g=-0.01),
            lambda: PiezoelectricBath(omega_d=0.0),
            lambda: DeformationBath(omega_l=-0.5),
            lambda: OhmicBath(eta=-0.04),
            lambda: OhmicBath(omega_c=0.0),
            lambda: OhmicBath(s_exponent=0.0),
        ],
    )
    def test_invalid_parameters_rejected(self, build):
        with pytest.raises(ValueError):
            build()


class TestBoseOccupation:
    def test_reference_values(self):
        for omega, temp in [(0.1, 0.030), (0.1, 1.0), (0.14, 0.030), (0.1, 0.2), (0.1, 0.3)]:
            expected = float(oracle.bose(omega, temp))
            assert bose_occupation(omega, temp) == pytest.approx(expected, rel=1e-12)

    def test_unit_occupation_at_ln2(self):
        temp = 0.1
        omega = math.log(2.0) * temp / HBAR_OVER_KB
        assert bose_occupation(omega, temp) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [699.999, 700.0, 700.001, 0.99e-8, 1e-8, 1.01e-8, 1e-12, 720.0])
    def test_branch_agreement_near_switch_points(self, x):
        temp = 0.1
        omega = x * temp / HBAR_OVER_KB
        expected = float(oracle.bose(omega, temp))
        assert bose_occupation(omega, temp) == pytest.approx(expected, rel=1e-10)

    def test_branch_formulas_agree_at_switch(self):
        # the three evaluation branches pairwise at their thresholds
        assert math.exp(-700.0) == pytest.approx(1.0 / math.expm1(700.0), rel=1e-10)
        assert (1.0 / 1e-8 - 0.5) == pytest.approx(1.0 / math.expm1(1e-8), rel=1e-10)

    @pytest.mark.parametrize("omega,temp", [(0.0, 1.0), (-0.1, 1.0), (0.1, 0.0), (0.1, -1.0)])
    def test_domain_errors(self, omega, temp):
        with pytest.raises(ValueError):
            bose_occupation(omega, temp)

    @given(
        omega=st.floats(min_value=1e-3, max_value=0.3),
        factor=st.floats(min_value=1.001, max_value=1.5),
        temp=st.floats(min_value=0.01, max_value=2.0),
    )
    def test_strictly_decreasing_in_omega(self, omega, factor, temp):
        assert bose_occupation(omega * factor, temp) < bose_occupation(omega, temp)

    @given(
        omega=st.floats(min_value=1e-3, max_value=0.3),
        factor=st.floats(min_value=1.001, max_value=1.5),
        temp=st.floats(min_value=0.01, max_value=2.0),
    )
    def test_strictly_increasing_in_temperature(self, omega, factor, temp):
        assert bose_occupation(omega, temp * factor) > bose_occupation(omega, temp)


class TestMaterialHelpers:
    def test_g_pz_large_velocity_ratio_limit(self):
        mat = MaterialConstants(2.0, 3.0, 1.5, 1e15, 7.0)
        limit = 2.0 * 6.0 / (35.0 * math.pi**2 * 3.0 * 1.5**3)
        assert g_pz_from_material(mat) == pytest.approx(limit, rel=1e-10)

    def test_g_pz_inverse_linear_in_density(self):
        mat = MaterialConstants(2.0, 3.0, 1.5, 0.6, 7.0)
        doubled = MaterialConstants(2.0, 6.0, 1.5, 0.6, 7.0)
        assert g_pz_from_material(doubled) == pytest.approx(
            g_pz_from_material(mat) / 2.0, rel=1e-15
        )

    def test_g_pz_reproduces_gaas_scale(self):
        # inputs solved so the printed algebra lands on the 0.035 ps^-2 value
        rho, s, x = 1.0, 1.0, 2.0 / 3.0
        factor = 6.0 / 35.0 + (1.0 / x) * 8.0 / 35.0
        m = 0.035 * math.pi**2 * rho * s**3 / factor
        mat = MaterialConstants(m, rho, s, x, 0.0)
        assert g_pz_from_material(mat) == pytest.approx(0.035, rel=1e-12)

    def test_g_df_quadratic_in_potential(self):
        mat = MaterialConstants(0.0, 3.0, 1.5, 0.6, 7.0)
        doubled = MaterialConstants(0.0, 3.0, 1.5, 0.6, 14.0)
        assert g_df_from_material(doubled) == pytest.approx(
            4.0 * g_df_from_material(mat), rel=1e-15
        )

    def test_g_df_velocity_power(self):
        mat = MaterialConstants(0.0, 3.0, 1.5, 0.6, 7.0)
        faster = MaterialConstants(0.0, 3.0, 3.0, 0.6, 7.0)
        assert g_df_from_material(faster) == pytest.approx(
            g_df_from_material(mat) / 32.0, rel=1e-15
        )

    def test_g_df_reproduces_gaas_scale(self):
        rho, s = 1.0, 1.0
        xi = math.sqrt(0.029 * 8.0 * math.pi**2 * rho * s**5)
        mat = MaterialConstants(0.0, rho, s, 1.0, xi)
        assert g_df_from_material(mat) == pytest.approx(0.029, rel=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(piezoconstant_M=1, density_rho=0, sound_velocity_s=1, velocity_ratio_x=1, deformation_potential_Xi=1),
            dict(piezoconstant_M=1, density_rho=1, sound_velocity_s=0, velocity_ratio_x=1, deformation_potential_Xi=1),
            dict(piezoconstant_M=1, density_rho=1, sound_velocity_s=1, velocity_ratio_x=0, deformation_potential_Xi=1),
        ],
    )
    def test_invalid_material_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MaterialConstants(**kwargs)


class TestSerialization:
    @pytest.mark.parametrize(
        "model",
        [
            PiezoelectricBath(g=0.035, omega_d=0.02, omega_l=0.5),
            DeformationBath(g=0.029, omega_d=0.02, omega_l=0.7),
            OhmicBath(eta=0.08, omega_c=0.05, s_exponent=1.0),
        ],
    )
    def test_round_trip(self, model):
        assert bath_from_dict(bath_to_dict(model)) == model

    def test_tagged_form(self):
        d = bath_to_dict(PiezoelectricBath())
        assert d == {"kind": "pcpb", "g": 0.035, "omega_d": 0.02, "omega_l": 0.5}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            bath_from_dict({"kind": "lorentzian", "g": 1.0})

    @pytest.mark.parametrize("kind", [["pcpb"], {"a": 1}, None, 1, True], ids=repr)
    def test_kind_that_is_not_a_string_is_refused_by_name(self, kind):
        # a list or an object as kind once failed the dict lookup with "unhashable type"
        with pytest.raises(ValueError, match="bath kind must be one of"):
            bath_from_dict({"kind": kind, "g": 0.035})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            bath_from_dict({"kind": "pcpb", "g": 0.035, "cutoff": 1.0})

    def test_ohmic_key_on_phonon_bath_rejected(self):
        with pytest.raises(ValueError):
            bath_from_dict({"kind": "dcpb", "eta": 0.04})
