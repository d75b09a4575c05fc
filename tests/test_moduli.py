import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ellipticlab import moduli
from ellipticlab.errors import (
    ConfigError,
    DivergentIntegralError,
    DomainError,
)


class TestEvaluation:
    def test_zero_at_zero(self):
        for mod in (moduli.power(0.5), moduli.power_log(0.3, 1.0),
                    moduli.power_ln_z(0.3, 1.0), moduli.inverse_log(2.0)):
            assert mod.evaluate(0.0) == 0.0

    def test_power_closed_form(self):
        mod = moduli.power(0.5)
        rs = np.array([1e-8, 1e-4, 0.1, 1.0])
        np.testing.assert_allclose(mod.evaluate(rs), np.sqrt(rs), rtol=1e-14)

    def test_inverse_log_value(self):
        mod = moduli.inverse_log(2.0)
        assert mod.evaluate(0.5) == pytest.approx(math.log(2.0) ** -2, rel=1e-14)

    def test_domain_errors(self):
        mod = moduli.power_log(0.3, 1.0)
        with pytest.raises(DomainError):
            mod.evaluate(-0.1)
        with pytest.raises(DomainError):
            mod.evaluate(0.9)  # above the monotonicity cap

    def test_tiny_radii_no_underflow_garbage(self):
        # closed forms in t = -log r stay finite far below float range of r^alpha
        mod = moduli.power_log(0.3, 1.0)
        v = mod.evaluate(1e-300)
        assert 0.0 < v < 1.0

    @given(st.floats(min_value=0.05, max_value=1.0),
           st.floats(min_value=1e-6, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_power_monotone(self, alpha, r):
        mod = moduli.power(alpha)
        assert mod.evaluate(r) >= mod.evaluate(r / 2.0)

    def test_table_round_trip(self):
        mod = moduli.from_table([0.1, 0.2, 0.5], [0.01, 0.03, 0.2])
        assert mod.evaluate(0.2) == pytest.approx(0.03)
        # linear extension through zero below the first knot
        assert mod.evaluate(0.05) == pytest.approx(0.005)

    def test_from_dict_round_trip(self):
        for mod in (moduli.power(0.25), moduli.power_log(0.3, 1.0),
                    moduli.power_ln_z(0.4, 2.0), moduli.inverse_log(1.5)):
            clone = moduli.from_dict(mod.describe())
            assert clone.family == mod.family
            assert clone.evaluate(mod.domain_cap / 3) == pytest.approx(
                mod.evaluate(mod.domain_cap / 3), rel=1e-14)

    def test_bad_params(self):
        with pytest.raises(ConfigError):
            moduli.power(0.0)
        with pytest.raises(ConfigError):
            moduli.inverse_log(-1.0)
        with pytest.raises(ConfigError):
            moduli.from_table([0.2, 0.1], [0.1, 0.2])


class TestDiniIntegral:
    def test_power_family_exact(self):
        # int_0^1 r^{alpha-1} dr = 1/alpha
        for alpha in (0.25, 0.5, 0.75, 1.0):
            res = moduli.dini_integral(moduli.power(alpha))
            assert res.converged
            assert res.value == pytest.approx(1.0 / alpha, abs=1e-6)

    def test_inverse_log_convergent(self):
        # int_0^{1/2} |ln r|^{-2} / r dr = 1/ln 2
        res = moduli.dini_integral(moduli.inverse_log(2.0))
        assert res.converged
        assert res.value == pytest.approx(1.0 / math.log(2.0), abs=1e-4)

    def test_inverse_log_divergent(self):
        res = moduli.dini_integral(moduli.inverse_log(1.0))
        assert not res.converged

    def test_power_log_vs_quad_oracle(self):
        # independent route: scipy quad on tau(e^{-t}) over [t0, inf)
        mod = moduli.power_log(0.3, 1.0)
        t0 = -math.log(mod.domain_cap)
        oracle, err = quad(lambda t: math.exp(-0.3 * t) / t, t0, np.inf)
        res = moduli.dini_integral(mod)
        assert res.converged
        assert res.value == pytest.approx(oracle, abs=max(1e-8, 10 * err))

    def test_respects_domain_cap(self):
        # int_0^c alpha-power: c^alpha / alpha
        res = moduli.dini_integral(moduli.power(0.5, domain_cap=0.25))
        assert res.value == pytest.approx(2.0 * 0.5, abs=1e-6)


class TestPsiTransform:
    def test_power_closed_form(self):
        # psi(t) = t^a + t^a/a = t^a (1 + 1/a)
        for alpha in (0.25, 0.5, 1.0):
            mod = moduli.power(alpha)
            for t in (0.125, 0.25, 0.5):
                want = t**alpha * (1.0 + 1.0 / alpha)
                assert moduli.psi_transform(mod, t) == pytest.approx(want, abs=1e-6)

    def test_divergent_modulus_raises(self):
        with pytest.raises(DivergentIntegralError):
            moduli.psi_transform(moduli.inverse_log(1.0), 0.25)

    def test_domain(self):
        with pytest.raises(DomainError):
            moduli.psi_transform(moduli.power(0.5), 0.0)

    def test_monotone_in_t(self):
        mod = moduli.power_log(0.3, 1.0)
        ts = [mod.domain_cap * 2.0**-k for k in range(6)]
        vals = [moduli.psi_transform(mod, t) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestA4:
    def test_power_log_passes(self):
        cert = moduli.check_A4(moduli.power_log(0.3, 1.0), 0.5)
        assert cert.verdict_i == "pass"
        assert cert.verdict_ii == "pass"

    def test_power_log_fails_above_alpha0(self):
        cert = moduli.check_A4(moduli.power_log(0.7, 1.0), 0.5)
        assert cert.verdict_ii == "fail"

    def test_inverse_log_fails_condition_i(self):
        cert = moduli.check_A4(moduli.inverse_log(2.0), 0.5)
        assert cert.verdict_i == "fail"

    def test_profiles_recorded(self):
        cert = moduli.check_A4(moduli.power(0.25), 0.5)
        assert len(cert.cond_i_profile) > 10
        # condition (i) profile for a power modulus is s^alpha, decreasing
        vals = [v for _, v in cert.cond_i_profile]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_table_profiles_finite_past_underflow(self):
        # tau(e^{-t}) underflows at deep radii; below the first knot the
        # table is linear, so every ratio stays finite
        mod = moduli.from_table([0.1, 0.5, 1.0], [0.2, 0.6, 1.0])
        cert = moduli.check_A4(mod, 0.5)
        for _, v in cert.cond_i_profile + cert.cond_ii_profile:
            assert np.isfinite(v)
        assert mod.log_eval_neglog(800.0) == pytest.approx(np.log(2.0) - 800.0, rel=1e-15)

    def test_numeric_verdict_never_contradicts_override(self):
        # a numeric "pass" is kept; overrides only resolve inconclusives
        cert = moduli.check_A4(moduli.power_log(0.3, 1.0), 0.5)
        assert cert.numeric_verdict_i in ("pass", "inconclusive")
        if cert.numeric_verdict_ii == "pass":
            assert cert.verdict_ii == "pass"


class TestRatioChecks:
    def test_lcc(self):
        assert moduli.check_LCC(moduli.power(0.5)).passed
        assert moduli.check_LCC(moduli.inverse_log(2.0)).passed
        assert not moduli.check_LCC(moduli.power(1.0)).passed  # tau(t)/t = 1

    def test_s_over_tau(self):
        assert moduli.check_s_over_tau(moduli.power(0.5)).passed
        assert not moduli.check_s_over_tau(moduli.power(1.0)).passed

    def test_holder_witness_threshold(self):
        mod = moduli.power_log(0.3, 1.0)
        assert moduli.holder_witness(mod, 0.2).is_gamma_holder_near_0 == "pass"
        rep = moduli.holder_witness(mod, 0.4)
        assert rep.is_gamma_holder_near_0 == "fail"
        assert rep.witness is not None and len(rep.witness) > 0

    def test_inverse_log_never_holder(self):
        mod = moduli.inverse_log(2.0)
        assert moduli.holder_witness(mod, 0.1).is_gamma_holder_near_0 == "fail"
