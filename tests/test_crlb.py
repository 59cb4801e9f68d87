"""Tests for measurement Jacobians, covariance bounds, and row identities.

Analytic Jacobians are checked against central finite differences of the
forward model; azimuth entries are compared on the circle so the oracle
stays valid near the wrap line.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

import crlb_oracle as oracle
import ray_oracle
from hybridloc import crlb as crlb_module
from hybridloc import ue_wls
from hybridloc.crlb import (
    IdentityReport,
    crlb_scatterer,
    crlb_ue,
    crlb_ue_position,
    crlb_ue_traces,
    jacobian_scatterer,
    jacobian_ue,
    position_trace,
    velocity_trace,
    verify_identities,
)
from hybridloc.errors import DegenerateGeometryError, GimbalLockError, SingularProblemError
from hybridloc.geometry import scatterer_measurement, ue_measurement
from hybridloc.noise import NoiseConfig, build_q, build_qs
from hybridloc.scenario import (
    DEFAULT_RRHS,
    DEFAULT_SCATTERER_STATE,
    DEFAULT_UE_STATE,
    Scenario,
    sample_scatterer_state,
    sample_ue_state,
)

RRHS6 = DEFAULT_RRHS[:6]
X_TRUE = DEFAULT_UE_STATE
XS_TRUE = DEFAULT_SCATTERER_STATE


def wrap_angle_rows(delta: np.ndarray, n: int) -> np.ndarray:
    """Wrap azimuth-entry differences into (-pi, pi] for finite differencing."""
    delta = delta.copy()
    az = slice(2 * n - 2, None, 2)
    delta[az] = (delta[az] + np.pi) % (2 * np.pi) - np.pi
    return delta


def fd_jacobian_ue(x, rrhs, step=1e-6):
    n = rrhs.shape[0]
    jac = np.zeros((4 * n - 2, 6))
    for k in range(6):
        dx = np.zeros(6)
        dx[k] = step
        plus = ue_measurement(x + dx, rrhs)
        minus = ue_measurement(x - dx, rrhs)
        jac[:, k] = wrap_angle_rows(plus - minus, n) / (2 * step)
    return jac


def fd_jacobian_scatterer(xs, ue, b_n, b_1, step=1e-6):
    jac = np.zeros((4, 4))
    for k in range(4):
        dx = np.zeros(4)
        dx[k] = step
        plus = scatterer_measurement(xs + dx, ue, b_n, b_1)
        minus = scatterer_measurement(xs - dx, ue, b_n, b_1)
        delta = plus - minus
        delta[2] = (delta[2] + np.pi) % (2 * np.pi) - np.pi
        jac[:, k] = delta / (2 * step)
    return jac


def random_states(count, seed):
    sc = Scenario()
    rng = default_rng(seed)
    return [sample_ue_state(sc, rng) for _ in range(count)]


class TestJacobianUe:
    def test_matches_finite_differences_at_default_state(self):
        jac = jacobian_ue(X_TRUE, RRHS6)
        fd = fd_jacobian_ue(X_TRUE, RRHS6)
        scale = np.abs(fd).max()
        assert np.abs(jac - fd).max() / scale < 1e-5

    def test_matches_finite_differences_at_random_states(self):
        for x in random_states(10, seed=101):
            jac = jacobian_ue(x, RRHS6)
            fd = fd_jacobian_ue(x, RRHS6)
            assert np.abs(jac - fd).max() / max(np.abs(fd).max(), 1.0) < 1e-5

    def test_tdoa_rows_have_zero_velocity_block(self):
        jac = jacobian_ue(X_TRUE, RRHS6)
        np.testing.assert_array_equal(jac[0:10:2, 3:], 0.0)

    def test_aoa_rows_have_zero_velocity_block(self):
        jac = jacobian_ue(X_TRUE, RRHS6)
        np.testing.assert_array_equal(jac[10:, 3:], 0.0)

    def test_fdoa_velocity_block_equals_tdoa_position_block(self):
        jac = jacobian_ue(X_TRUE, RRHS6)
        np.testing.assert_allclose(jac[1:10:2, 3:], jac[0:10:2, :3], atol=1e-15)

    def test_degenerate_state_raises(self):
        x = np.concatenate([RRHS6[2], [1.0, 0.0, 0.0]])
        with pytest.raises(DegenerateGeometryError):
            jacobian_ue(x, RRHS6)

    def test_zenith_raises_gimbal_error(self):
        x = np.concatenate([RRHS6[3] + [0.0, 0.0, 40.0], [1.0, 0.0, 0.0]])
        with pytest.raises(GimbalLockError, match="receiver 3"):
            jacobian_ue(x, RRHS6)


class TestCrlbUe:
    def test_symmetric_positive_definite(self):
        cov = crlb_ue(X_TRUE, RRHS6, build_q(6, NoiseConfig()))
        np.testing.assert_allclose(cov, cov.T, atol=1e-18)
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_scaling_linearity(self):
        q = build_q(6, NoiseConfig())
        cov1 = crlb_ue(X_TRUE, RRHS6, q)
        cov4 = crlb_ue(X_TRUE, RRHS6, 4.0 * q)
        np.testing.assert_allclose(cov4, 4.0 * cov1, rtol=1e-9)

    def test_more_receivers_never_increase_bound(self):
        q6 = build_q(6, NoiseConfig())
        q9 = build_q(9, NoiseConfig())
        cov6 = crlb_ue(X_TRUE, DEFAULT_RRHS[:6], q6)
        cov9 = crlb_ue(X_TRUE, DEFAULT_RRHS[:9], q9)
        assert position_trace(cov9) <= position_trace(cov6)
        assert velocity_trace(cov9) <= velocity_trace(cov6)

    def test_velocity_unidentifiable_below_four_receivers(self):
        for n_a in (2, 3):
            q = build_q(n_a, NoiseConfig())
            with pytest.raises(SingularProblemError):
                crlb_ue(X_TRUE, DEFAULT_RRHS[:n_a], q)

    def test_position_only_bound_defined_for_two_receivers(self):
        q = build_q(2, NoiseConfig())
        cov = crlb_ue_position(X_TRUE, DEFAULT_RRHS[:2], q)
        assert cov.shape == (3, 3)
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_trace_helpers_split_blocks(self):
        cov = crlb_ue(X_TRUE, RRHS6, build_q(6, NoiseConfig()))
        assert position_trace(cov) + velocity_trace(cov) == pytest.approx(np.trace(cov))

    def test_traces_of_joint_bound_when_velocity_observable(self):
        q = build_q(6, NoiseConfig())
        cov = crlb_ue(X_TRUE, RRHS6, q)
        assert crlb_ue_traces(X_TRUE, RRHS6, q) == (position_trace(cov), velocity_trace(cov))

    def test_traces_fall_back_to_position_bound_below_four_receivers(self):
        q = build_q(3, NoiseConfig())
        pos, vel = crlb_ue_traces(X_TRUE, DEFAULT_RRHS[:3], q)
        assert pos == float(np.trace(crlb_ue_position(X_TRUE, DEFAULT_RRHS[:3], q)))
        assert vel is None

    @pytest.mark.parametrize("n_a", [3, 6])
    def test_traces_build_one_jacobian(self, n_a, monkeypatch):
        calls = []

        def counted(x, rrhs):
            calls.append(len(rrhs))
            return jacobian_ue(x, rrhs)

        monkeypatch.setattr(crlb_module, "jacobian_ue", counted)
        crlb_ue_traces(X_TRUE, DEFAULT_RRHS[:n_a], build_q(n_a, NoiseConfig()))
        assert calls == [n_a]


class TestJacobianScatterer:
    def test_matches_finite_differences_at_default_state(self):
        jac = jacobian_scatterer(XS_TRUE, RRHS6[0], X_TRUE)
        fd = fd_jacobian_scatterer(XS_TRUE, X_TRUE, RRHS6[0], RRHS6[0])
        assert np.abs(jac - fd).max() / max(np.abs(fd).max(), 1.0) < 1e-5

    def test_matches_finite_differences_at_random_states(self):
        sc = Scenario()
        rng = default_rng(202)
        for _ in range(10):
            xs = sample_scatterer_state(sc, rng)
            jac = jacobian_scatterer(xs, RRHS6[1], X_TRUE)
            fd = fd_jacobian_scatterer(xs, X_TRUE, RRHS6[1], RRHS6[0])
            assert np.abs(jac - fd).max() / max(np.abs(fd).max(), 1.0) < 1e-5

    def test_range_row_has_no_speed_entry(self):
        jac = jacobian_scatterer(XS_TRUE, RRHS6[0], X_TRUE)
        assert jac[0, 3] == 0.0
        assert jac[2, 3] == 0.0 and jac[3, 3] == 0.0

    def test_static_user_raises(self):
        static = np.array([250.0, 450.0, 0.0, 0.0, 0.0, 0.0])
        with pytest.raises(DegenerateGeometryError):
            jacobian_scatterer(XS_TRUE, RRHS6[0], static)


class TestCrlbScatterer:
    def test_scaling_linearity(self):
        qs = build_qs(NoiseConfig())
        cov1 = crlb_scatterer(XS_TRUE, RRHS6[0], X_TRUE, qs)
        cov9 = crlb_scatterer(XS_TRUE, RRHS6[0], X_TRUE, 9.0 * qs)
        np.testing.assert_allclose(cov9, 9.0 * cov1, rtol=1e-9)

    def test_scatterer_bound_above_ue_bound(self):
        # One four-entry observation identifies the scatterer far more loosely
        # than 22 entries identify the user.
        cfg = NoiseConfig()
        cov_s = crlb_scatterer(XS_TRUE, RRHS6[0], X_TRUE, build_qs(cfg))
        cov_u = crlb_ue(X_TRUE, RRHS6, build_q(6, cfg))
        assert position_trace(cov_s) > position_trace(cov_u)

    def test_symmetric_positive_definite(self):
        cov = crlb_scatterer(XS_TRUE, RRHS6[0], X_TRUE, build_qs(NoiseConfig()))
        np.testing.assert_allclose(cov, cov.T, atol=1e-18)
        assert np.all(np.linalg.eigvalsh(cov) > 0)


class TestSingularCovariance:
    def test_every_bound_raises_singular_problem(self):
        # A noise-free range row makes the covariance singular; the joint,
        # position-only and scatterer bounds all keep that row.
        q = build_q(6, NoiseConfig())
        qs = build_qs(NoiseConfig())
        q[0, 0] = qs[0, 0] = 0.0
        with pytest.raises(SingularProblemError, match="covariance is singular"):
            crlb_ue(X_TRUE, RRHS6, q)
        with pytest.raises(SingularProblemError, match="covariance is singular"):
            crlb_ue_position(X_TRUE, RRHS6, q)
        with pytest.raises(SingularProblemError, match="covariance is singular"):
            crlb_scatterer(XS_TRUE, RRHS6[0], X_TRUE, qs)

    @pytest.mark.parametrize("n_a", [3, 6])
    def test_traces_raise_on_a_singular_fdoa_variance(self, n_a):
        # The position rows keep no FDOA entry, so a position-only bound
        # exists; the singular covariance must still raise, not pass for
        # unobservable velocity.
        q = build_q(n_a, NoiseConfig())
        q[1, 1] = 0.0
        with pytest.raises(SingularProblemError, match="measurement covariance is singular"):
            crlb_ue_traces(X_TRUE, DEFAULT_RRHS[:n_a], q)


def _outcome(run):
    """What ``run()`` returns, or the class and message of what it raised."""
    try:
        return run()
    except Exception as exc:
        return type(exc), str(exc)


def _bits(value):
    """A bound's outcome with every array as its bytes, for bitwise equality."""
    if isinstance(value, np.ndarray):
        return value.shape, value.tobytes()
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return repr(value)


STACK_NOISES = [NoiseConfig(), NoiseConfig(mode="structured", ratio=0.1)]


class TestStackedCovariances:
    """A stack of covariances gives, member by member and bit for bit, what
    one call per covariance gives, and what the retired one-covariance
    forms (``crlb_oracle``) gave."""

    @settings(max_examples=80)
    @given(
        st.integers(2, 9),
        st.lists(st.sampled_from([0.01, 0.1, 0.3, 1.0, 3.0, 10.0, 100.0]),
                 min_size=1, max_size=4),
        st.sampled_from(STACK_NOISES),
        st.integers(0, 2**32 - 1),
    )
    def test_stack_equals_per_covariance_calls(self, n_a, rhos, noise, seed):
        rng = default_rng(seed)
        sc = Scenario()
        x, xs = sample_ue_state(sc, rng), sample_scatterer_state(sc, rng)
        rrhs = DEFAULT_RRHS[rng.permutation(len(DEFAULT_RRHS))[:n_a]]
        qs = np.stack([build_q(n_a, noise.scaled(rho)) for rho in rhos])
        stacked = _outcome(lambda: crlb_ue_traces(x, rrhs, qs))
        assert _bits(stacked) == _bits(_outcome(lambda: [crlb_ue_traces(x, rrhs, q) for q in qs]))
        assert _bits(stacked) == _bits(_outcome(
            lambda: [oracle.crlb_ue_traces(x, rrhs, q) for q in qs]))
        qss = np.stack([build_qs(noise.scaled(rho)) for rho in rhos])
        stacked = _outcome(lambda: list(crlb_scatterer(xs, rrhs[0], x, qss)))
        assert _bits(stacked) == _bits(_outcome(
            lambda: [crlb_scatterer(xs, rrhs[0], x, q) for q in qss]))
        assert _bits(stacked) == _bits(_outcome(
            lambda: [oracle.crlb_scatterer(xs, rrhs[0], x, q) for q in qss]))

    def test_members_decided_one_by_one(self):
        # A 1e30 FDOA variance leaves velocity unidentified by the WLS rule,
        # and a 1e-310 scale overflows the information matrix: each member
        # falls back to the position bound alone, as it does when alone.
        q = build_q(4, NoiseConfig())
        blind = q.copy()
        blind[1:6:2, 1:6:2] *= 1e30
        stack = np.stack([q, blind, 2.0 * q])
        traces = crlb_ue_traces(X_TRUE, DEFAULT_RRHS[:4], stack)
        assert [vel is None for _, vel in traces] == [False, True, False]
        assert traces == [oracle.crlb_ue_traces(X_TRUE, DEFAULT_RRHS[:4], m) for m in stack]
        tiny = np.stack([q, 1e-310 * q])
        expected = _outcome(lambda: [crlb_ue(X_TRUE, DEFAULT_RRHS[:4], m) for m in tiny])
        assert expected == (SingularProblemError, "information matrix has non-finite entries")
        assert _outcome(lambda: crlb_ue(X_TRUE, DEFAULT_RRHS[:4], tiny)) == expected

    @pytest.mark.parametrize("singular_at", [0, 1, 2])
    def test_one_singular_covariance_raises_its_message(self, singular_at):
        q, qs = build_q(6, NoiseConfig()), build_qs(NoiseConfig())
        stack, stack_s = np.stack([q, 4.0 * q, 9.0 * q]), np.stack([qs, 4.0 * qs, 9.0 * qs])
        stack[singular_at, 0, 0] = stack_s[singular_at, 0, 0] = 0.0
        for bound in (
            lambda: crlb_ue_traces(X_TRUE, RRHS6, stack),
            lambda: crlb_ue(X_TRUE, RRHS6, stack),
            lambda: crlb_ue_position(X_TRUE, RRHS6, stack),
            lambda: crlb_scatterer(XS_TRUE, RRHS6[0], X_TRUE, stack_s),
        ):
            assert _outcome(bound) == (SingularProblemError, "measurement covariance is singular")

    def test_one_covariance_keeps_its_return_types(self):
        q = build_q(6, NoiseConfig())
        pair = crlb_ue_traces(X_TRUE, RRHS6, q)
        assert isinstance(pair, tuple) and all(type(t) is float for t in pair)
        assert crlb_ue_traces(X_TRUE, RRHS6, q[None]) == [pair]
        assert crlb_ue(X_TRUE, RRHS6, q).shape == (6, 6)
        assert crlb_ue_position(X_TRUE, RRHS6, q[None]).shape == (1, 3, 3)
        qs = build_qs(NoiseConfig())
        assert crlb_scatterer(XS_TRUE, RRHS6[0], X_TRUE, qs).shape == (4, 4)


class TestRowIdentities:
    def test_default_state(self):
        report = verify_identities(X_TRUE, RRHS6)
        assert isinstance(report, IdentityReport)
        assert report.max_deviation < 1e-9

    def test_random_states(self):
        for x in random_states(25, seed=303):
            assert verify_identities(x, RRHS6).max_deviation < 1e-9

    def test_static_user_special_case(self):
        x = np.array([250.0, 450.0, 0.0, 0.0, 0.0, 0.0])
        assert verify_identities(x, RRHS6).max_deviation < 1e-9

    def test_all_eighteen_receivers(self):
        assert verify_identities(X_TRUE, DEFAULT_RRHS).max_deviation < 1e-9

    @pytest.mark.parametrize("column", [1, 2])
    def test_a_fault_in_the_solver_bands_shows(self, monkeypatch, column):
        """The check reads the solver's ``b_bands``: one reference-angle
        coupling scaled by 1 + 1e-6 moves the deviation far past 1e-9."""
        b_bands = ue_wls.b_bands

        def scaled(*args, **kwargs):
            diag, low = b_bands(*args, **kwargs)
            low[..., column] *= 1.0 + 1e-6
            return diag, low

        monkeypatch.setattr(ue_wls, "b_bands", scaled)
        assert verify_identities(X_TRUE, RRHS6).max_dev_rate > 1e-9


class TestStackedMatchLoops:
    """The stacked Jacobians equal their per-receiver loops, and the identity
    check holds on the same cases."""

    @staticmethod
    def cases(count, seed):
        rng = default_rng(seed)
        sc = Scenario()
        for k in range(count):
            n = 2 + k % 17
            rrhs = DEFAULT_RRHS[rng.permutation(len(DEFAULT_RRHS))[:n]]
            x = sample_ue_state(sc, rng)
            if k % 5 == 0:
                x[3:] = 0.0
            yield x, rrhs

    def test_jacobian_ue(self):
        for x, rrhs in self.cases(300, seed=404):
            assert np.array_equal(jacobian_ue(x, rrhs), oracle.jacobian_ue(x, rrhs))

    def test_verify_identities_on_the_solver_rows(self):
        """``B J = G`` holds on the solver's own matrices to rounding."""
        for x, rrhs in self.cases(300, seed=505):
            assert verify_identities(x, rrhs).max_deviation < 1e-12

    def test_jacobian_scatterer(self):
        sc = Scenario()
        rng = default_rng(606)
        for k in range(300):
            xs = sample_scatterer_state(sc, rng)
            ue = sample_ue_state(sc, rng)
            b_n = DEFAULT_RRHS[k % len(DEFAULT_RRHS)]
            assert np.array_equal(
                jacobian_scatterer(xs, b_n, ue), ray_oracle.jacobian_scatterer(xs, b_n, ue)
            )


def _per_covariance(x, rrhs, q):
    """``crlb_oracle.crlb_ue_traces`` under ``q`` or each member of a stack
    ``q``; as in the package, a singular member of a stack raises before
    any member's bound is taken."""
    if q.ndim == 2:
        return oracle.crlb_ue_traces(x, rrhs, q)
    jac = oracle.jacobian_ue(x, rrhs)
    for m in q:
        oracle.information(jac, m)
    return [oracle.crlb_ue_traces(x, rrhs, m) for m in q]


class TestBelowFourReceivers:
    """Below four receivers ``crlb_ue_traces`` takes the position bound
    without a joint one; its outcome is, bit for bit, the retired
    one-covariance form's (``crlb_oracle.crlb_ue_traces``) member by
    member."""

    @settings(max_examples=150)
    @given(
        st.sampled_from([2, 3]),
        st.lists(st.sampled_from([0.01, 0.1, 1.0, 10.0, 100.0]), min_size=1, max_size=4),
        st.booleans(),
        st.lists(st.sampled_from([np.nan, np.inf, 1e200, 1e-200]), max_size=2),
        st.booleans(),
        st.sampled_from(STACK_NOISES),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_joint_first_form(self, n_a, rhos, stacked, fdoa_variances,
                                          zero_fdoa_variance, noise, seed):
        rng = default_rng(seed)
        x = sample_ue_state(Scenario(), rng)
        rrhs = DEFAULT_RRHS[rng.permutation(len(DEFAULT_RRHS))[:n_a]]
        qs = np.stack([build_q(n_a, noise.scaled(rho)) for rho in rhos])
        for variance in fdoa_variances + [0.0] * zero_fdoa_variance:
            f = 2 * int(rng.integers(n_a - 1)) + 1
            qs[rng.integers(len(qs)) if stacked else 0, f, f] = variance
        q = qs if stacked else qs[0]
        with np.errstate(all="ignore"):
            new = _outcome(lambda: crlb_ue_traces(x, rrhs, q))
            old = _outcome(lambda: _per_covariance(x, rrhs, q))
        assert _bits(new) == _bits(old)
        if zero_fdoa_variance:
            assert new == (SingularProblemError, "measurement covariance is singular")
