"""The stacked UE and scatterer solvers against the per-trial loop oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wls_oracle as oracle
from hybridloc.errors import (
    DimensionMismatchError,
    HybridlocError,
    NumericalError,
    SingularProblemError,
)
from hybridloc.crlb import crlb_ue_traces, jacobian_ue
from hybridloc.geometry import angular_vectors, scatterer_measurement, ue_measurement
from hybridloc.noise import NoiseConfig, build_q, build_qs, sample_gaussian
from hybridloc.scatterer_wls import bs_bands, build_bs, scatterer_wls_solve_batch
from hybridloc.scenario import (
    DEFAULT_RRHS,
    Scenario,
    sample_scatterer_state,
    sample_ue_state,
)
from hybridloc.ue_wls import (
    WlsBatch,
    WlsResult,
    _invert_normal,
    _iterated_solve,
    _whiten,
    b_bands,
    build_b,
    build_system,
    _COND_LIMIT,
    solve_linear,
    solve_normal,
    wls_solve,
    wls_solve_batch,
)

RTOL = 1e-9


def _ue_state(kind: str, rrhs, rng) -> np.ndarray:
    """A random state, or one near (or straight above) a receiver's zenith."""
    if kind == "random":
        return sample_ue_state(Scenario(), rng)
    j = int(rng.integers(rrhs.shape[0]))
    offset = 0.0 if kind == "zenith" else rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-9, 0)
    position = np.array([*(rrhs[j, :2] + offset), rrhs[j, 2] + rng.uniform(5.0, 80.0)])
    return np.concatenate([position, rng.uniform(-5.0, 5.0, 3)])


def _oracle(solve, *args):
    """The oracle's result, or the error it raised."""
    try:
        return solve(*args)
    except HybridlocError as exc:
        return exc


def _assert_trial_matches(expected, failure):
    """One stacked trial's failure against the oracle's outcome."""
    if isinstance(expected, HybridlocError):
        assert type(failure) is type(expected)
        assert str(failure) == str(expected)
        return False
    assert failure is None
    return True


def _assert_close(actual, expected):
    np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=0.0)


class TestUeBatchMatchesOracle:
    @given(
        st.integers(2, 9),
        st.sampled_from([0.1, 0.3, 1.0, 3.0, 10.0, 30.0]),
        st.integers(1, 3),
        st.lists(st.sampled_from(["random", "random", "near_zenith", "zenith"]),
                 min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150)
    def test_every_trial_matches(self, n_a, rho, iters, kinds, seed):
        rng = np.random.default_rng(seed)
        rrhs = DEFAULT_RRHS[:n_a]
        q = build_q(n_a, NoiseConfig().scaled(rho))
        ms = np.array([
            sample_gaussian(ue_measurement(_ue_state(kind, rrhs, rng), rrhs), q, rng)
            for kind in kinds
        ])
        batch = wls_solve_batch(ms, rrhs, q, iters)
        for t, m in enumerate(ms):
            expected = _oracle(oracle.wls_solve, m, rrhs, q, iters)
            if not _assert_trial_matches(expected, batch.failures[t]):
                assert np.all(np.isnan(batch.x[t]))
                continue
            x, cov, velocity_valid = expected
            assert batch.velocity_valid[t] == velocity_valid
            _assert_close(batch.x[t], x)
            _assert_close(batch.cov[t], cov)

    @given(st.integers(2, 9), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=60)
    def test_system_and_b_match_on_stacks(self, n_a, size, seed):
        rng = np.random.default_rng(seed)
        rrhs = DEFAULT_RRHS[:n_a]
        xs = np.array([sample_ue_state(Scenario(), rng) for _ in range(size)])
        ms = np.array([ue_measurement(x, rrhs) for x in xs])
        h, g = build_system(ms, rrhs)
        b = build_b(xs, rrhs)
        w = np.linalg.inv(b @ build_q(n_a, NoiseConfig()) @ np.swapaxes(b, 1, 2))
        errors = np.full(size, None, dtype=object)
        x, cov = solve_linear(h, g, w, errors)
        for t in range(size):
            h_o, g_o = oracle.build_system(ms[t], rrhs)
            _assert_close(h[t], h_o)
            _assert_close(g[t], g_o)
            _assert_close(b[t], oracle.build_b(xs[t], rrhs))
            expected = _oracle(oracle.solve_linear, h_o, g_o, w[t])
            if _assert_trial_matches(expected, errors[t]):
                _assert_close(x[t], expected[0])
                _assert_close(cov[t], expected[1])


class TestScattererStackMatchesOracle:
    @given(
        st.sampled_from([0.1, 0.3, 1.0, 3.0, 10.0, 30.0]),
        st.integers(0, DEFAULT_RRHS.shape[0] - 1),
        st.lists(st.sampled_from(["random", "random", "zenith"]), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150)
    def test_every_trial_matches(self, rho, obs, kinds, seed):
        rng = np.random.default_rng(seed)
        sc = Scenario()
        b_n, b_1 = DEFAULT_RRHS[obs], DEFAULT_RRHS[0]
        ue = sample_ue_state(sc, rng)
        qs = build_qs(NoiseConfig().scaled(rho))
        ms = []
        for kind in kinds:
            xs = sample_scatterer_state(sc, rng)
            if kind == "zenith":
                xs[:3] = [b_n[0], b_n[1], b_n[2] + rng.uniform(5.0, 80.0)]
            ms.append(sample_gaussian(scatterer_measurement(xs, ue, b_n, b_1), qs, rng))
        ms = np.array(ms)
        batch = scatterer_wls_solve_batch(ms, b_n, b_1, ue, qs)
        for t, m in enumerate(ms):
            expected = _oracle(oracle.scatterer_wls_solve, m, b_n, b_1, ue, qs)
            if not _assert_trial_matches(expected, batch.failures[t]):
                assert np.all(np.isnan(batch.x[t]))
                continue
            _assert_close(batch.x[t], expected[0])
            _assert_close(batch.cov[t], expected[1])


class TestOneResultType:
    """``WlsBatch``, the result of every stack estimator: a failed trial's
    rows are NaN, and ``velocity_valid`` defaults to the successes."""

    FAILURES = np.array([None, NumericalError("bad"), None], dtype=object)

    def test_failed_rows_are_nan(self):
        x, cov = np.arange(12.0).reshape(3, 4), np.ones((3, 4, 4))
        batch = WlsBatch(x=x.copy(), failures=self.FAILURES.copy(), cov=cov.copy())
        assert np.isnan(batch.x[1]).all() and np.isnan(batch.cov[1]).all()
        assert np.array_equal(batch.x[[0, 2]], x[[0, 2]])
        assert np.array_equal(batch.cov[[0, 2]], cov[[0, 2]])
        assert batch.velocity_valid.tolist() == [True, False, True]
        assert WlsBatch(x=x.copy(), failures=self.FAILURES.copy()).cov is None

    def test_a_given_velocity_mask_is_kept(self):
        valid = np.array([False, False, True])
        batch = WlsBatch(x=np.ones((3, 6)), failures=self.FAILURES.copy(), velocity_valid=valid)
        assert batch.velocity_valid is valid

    def test_first_takes_row_zero_or_raises_its_failure(self):
        x, cov = np.arange(12.0).reshape(2, 6), np.ones((2, 6, 6))
        first = WlsBatch(x=x, failures=self.FAILURES[:2].copy(), cov=cov).first()
        assert type(first) is WlsResult and first.velocity_valid is True
        assert np.array_equal(first.x, x[0]) and np.array_equal(first.cov, cov[0])
        assert WlsBatch(x=x, failures=self.FAILURES[:1].copy()).first().cov is None
        with pytest.raises(NumericalError, match="bad"):
            WlsBatch(x=x, failures=self.FAILURES[1:].copy()).first()

    @given(
        st.lists(st.sampled_from(["random", "zenith", "nan"]), min_size=1, max_size=6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30)
    def test_scatterer_stack_is_a_wls_batch(self, kinds, seed):
        rng = np.random.default_rng(seed)
        sc = Scenario()
        b_n, b_1 = DEFAULT_RRHS[3], DEFAULT_RRHS[0]
        qs = build_qs(NoiseConfig())
        ms = []
        for kind in kinds:
            xs = sample_scatterer_state(sc, rng)
            if kind == "zenith":
                xs[:3] = [b_n[0], b_n[1], b_n[2] + rng.uniform(5.0, 80.0)]
            m = sample_gaussian(scatterer_measurement(xs, sc.ue_true, b_n, b_1), qs, rng)
            ms.append(np.full(4, np.nan) if kind == "nan" else m)
        batch = scatterer_wls_solve_batch(np.array(ms), b_n, b_1, sc.ue_true, qs)
        assert type(batch) is WlsBatch
        ok = np.equal(batch.failures, None)
        assert np.array_equal(batch.velocity_valid, ok)
        assert np.isnan(batch.x[~ok]).all() and np.isnan(batch.cov[~ok]).all()
        assert np.isfinite(batch.x[ok]).all()


def _ue_stack(n_a=6, trials=5, seed=3):
    rng = np.random.default_rng(seed)
    rrhs = DEFAULT_RRHS[:n_a]
    q = build_q(n_a, NoiseConfig())
    states = np.array([sample_ue_state(Scenario(), rng) for _ in range(trials)])
    ms = np.array([sample_gaussian(ue_measurement(x, rrhs), q, rng) for x in states])
    return ms, rrhs, q


class TestPoisonedTrialFailsAlone:
    def _check(self, ms, poisoned, rrhs, q, error_type):
        clean = wls_solve_batch(np.delete(ms, poisoned, axis=0), rrhs, q)
        batch = wls_solve_batch(ms, rrhs, q)
        assert isinstance(batch.failures[poisoned], error_type)
        assert np.all(np.isnan(batch.x[poisoned]))
        keep = np.arange(len(ms)) != poisoned
        assert all(f is None for f in batch.failures[keep])
        assert np.array_equal(batch.x[keep], clean.x, equal_nan=True)
        assert np.array_equal(batch.cov[keep], clean.cov, equal_nan=True)
        assert np.array_equal(batch.velocity_valid[keep], clean.velocity_valid)

    def test_nan_measurement(self):
        ms, rrhs, q = _ue_stack()
        ms[2, 7] = np.nan
        self._check(ms, 2, rrhs, q, NumericalError)

    @pytest.mark.parametrize("n_a, receiver", [(6, 0), (6, 3), (3, 1)])
    def test_state_straight_above_a_receiver(self, n_a, receiver):
        ms, rrhs, q = _ue_stack(n_a=n_a)
        x = np.array([*rrhs[receiver, :2], rrhs[receiver, 2] + 40.0, 3.0, -2.0, 0.5])
        ms[1] = ue_measurement(x, rrhs)
        self._check(ms, 1, rrhs, q, HybridlocError)

    def test_scalar_solver_raises_the_trials_error(self):
        ms, rrhs, q = _ue_stack()
        ms[0, 3] = np.nan
        with pytest.raises(NumericalError, match="non-finite"):
            wls_solve(ms[0], rrhs, q)

    def test_singular_member_of_a_solve_stack_fails_alone(self):
        ms, rrhs, q = _ue_stack(trials=4)
        h, g = build_system(ms, rrhs)
        w = np.linalg.inv(q)
        g[1, :, 3:] = 0.0  # velocity columns vanish: singular normal matrix
        h[2, 0] = np.nan
        errors = np.full(4, None, dtype=object)
        x, cov = solve_linear(h, g, w, errors)
        assert isinstance(errors[1], SingularProblemError)
        assert isinstance(errors[2], NumericalError)
        assert np.all(np.isnan(x[[1, 2]])) and np.all(np.isnan(cov[[1, 2]]))
        for t in (0, 3):
            assert errors[t] is None
            x_o, cov_o = oracle.solve_linear(h[t], g[t], w)
            assert np.array_equal(x[t], x_o) and np.array_equal(cov[t], cov_o)

    def test_singular_member_of_an_inverse_stack_fails_alone(self):
        # A zero or non-finite pivot of one member's B fails that member
        # alone, as an exactly singular weighting B Q B' does.
        ms, rrhs, q = _ue_stack(trials=4)
        h, g = build_system(ms, rrhs)

        def solve(pivot):
            def bands(x, errors):
                diag, low = b_bands(x, rrhs, errors)
                if pivot is not None:
                    diag[2, 5] = pivot
                return diag, low

            errors = np.full(4, None, dtype=object)
            return (*_iterated_solve(h, g, q, bands, 2, True, errors), errors)

        x_clean, cov_clean, _ = solve(None)
        for pivot in (0.0, np.inf, np.nan):
            x, cov, errors = solve(pivot)
            assert type(errors[2]) is SingularProblemError
            assert str(errors[2]) == "weighting matrix is singular"
            assert np.all(np.isnan(x[2])) and np.all(np.isnan(cov[2]))
            for t in (0, 1, 3):
                assert errors[t] is None
                assert np.array_equal(x[t], x_clean[t])
                assert np.array_equal(cov[t], cov_clean[t])

    def test_singular_covariance_raises_singular_problem(self):
        ms, rrhs, q = _ue_stack(trials=3)
        q = q.copy()
        q[0, 0] = 0.0
        with pytest.raises(SingularProblemError):
            wls_solve_batch(ms, rrhs, q)

    def test_scatterer_nan_measurement(self):
        sc = Scenario()
        b_n, b_1 = DEFAULT_RRHS[3], DEFAULT_RRHS[0]
        qs = build_qs(NoiseConfig())
        rng = np.random.default_rng(5)
        ms = np.array([
            sample_gaussian(scatterer_measurement(sample_scatterer_state(sc, rng),
                                                  sc.ue_true, b_n, b_1), qs, rng)
            for _ in range(4)
        ])
        clean = scatterer_wls_solve_batch(np.delete(ms, 1, axis=0), b_n, b_1, sc.ue_true, qs)
        ms[1, 0] = np.nan
        batch = scatterer_wls_solve_batch(ms, b_n, b_1, sc.ue_true, qs)
        assert isinstance(batch.failures[1], NumericalError)
        keep = [0, 2, 3]
        assert np.array_equal(batch.x[keep], clean.x, equal_nan=True)
        assert np.array_equal(batch.cov[keep], clean.cov, equal_nan=True)


class TestDeadStackStopsEarly:
    """Once every member has failed, the iterated solve stops rebuilding."""

    def test_no_build_after_every_first_solve_failed(self):
        # Three receivers: every joint normal matrix is singular.
        ms, rrhs, q = _ue_stack(n_a=3, trials=6)
        h, g = build_system(ms, rrhs)
        calls = []

        def build(x, errors):
            calls.append(len(x))
            return b_bands(x, rrhs, errors)

        errors = np.full(len(ms), None, dtype=object)
        x, cov = _iterated_solve(h, g, q, build, 2, True, errors)
        assert calls == []
        assert all(isinstance(e, SingularProblemError) for e in errors)
        assert x.shape == (6, 6) and np.all(np.isnan(x))
        assert cov.shape == (6, 6, 6) and np.all(np.isnan(cov))

    def test_live_member_keeps_every_build(self):
        ms, rrhs, q = _ue_stack(n_a=6, trials=3)
        ms[0, 0] = ms[1, 0] = np.nan  # two dead members, one live
        h, g = build_system(ms, rrhs)
        calls = []

        def build(x, errors):
            calls.append(len(x))
            return b_bands(x, rrhs, errors)

        errors = np.full(len(ms), None, dtype=object)
        _iterated_solve(h, g, q, build, 2, True, errors)
        assert calls == [3, 3]
        assert errors[2] is None

    @pytest.mark.parametrize("iters", [1, 2, 3])
    def test_position_only_stack_matches_oracle(self, iters):
        ms, rrhs, q = _ue_stack(n_a=3, trials=8, seed=11)
        batch = wls_solve_batch(ms, rrhs, q, iters)
        for t, m in enumerate(ms):
            expected = _oracle(oracle.wls_solve, m, rrhs, q, iters)
            assert _assert_trial_matches(expected, batch.failures[t])
            x, cov, velocity_valid = expected
            assert not velocity_valid and not batch.velocity_valid[t]
            _assert_close(batch.x[t, :3], x[:3])
            _assert_close(batch.cov[t, :3, :3], cov[:3, :3])
            assert np.all(np.isnan(batch.x[t, 3:]))


class TestWhitening:
    """``_whiten`` applies ``inv(B)`` through B's bands."""

    @staticmethod
    def _assert_inverts(b, bands, rng):
        # Each row of B y = v holds at most four products, so the
        # computed y satisfies it to a few roundings of |B| |y|.
        v = rng.standard_normal(b.shape[:-1] + (3,)) * 10.0 ** rng.uniform(-3, 3)
        y = _whiten(bands, v)
        bound = 16 * np.finfo(float).eps * (np.abs(b) @ np.abs(y))
        assert np.all(np.abs(b @ y - v) <= bound)

    @given(
        st.integers(2, 9),
        st.lists(st.sampled_from(["random", "near_zenith"]), min_size=1, max_size=4),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=80)
    def test_b_times_whitened_v_is_v(self, n_a, kinds, seed):
        rng = np.random.default_rng(seed)
        rrhs = DEFAULT_RRHS[:n_a]
        x = np.array([_ue_state(kind, rrhs, rng) for kind in kinds])
        # Straight above the reference receiver B is undefined.
        errors = np.full(len(x), None, dtype=object)
        diag, low = b_bands(x, rrhs, errors)
        ok = np.equal(errors, None)
        self._assert_inverts(build_b(x[ok], rrhs), (diag[ok], low[ok]), rng)

    @given(st.integers(0, DEFAULT_RRHS.shape[0] - 1), st.integers(0, 2**32 - 1))
    @settings(max_examples=40)
    def test_bs_times_whitened_v_is_v(self, obs, seed):
        rng = np.random.default_rng(seed)
        ue = sample_ue_state(Scenario(), rng)
        xs = np.array([sample_scatterer_state(Scenario(), rng) for _ in range(3)])
        b_n = DEFAULT_RRHS[obs]
        self._assert_inverts(build_bs(xs, b_n, ue), bs_bands(xs, b_n, ue), rng)

    def test_dense_matrices_are_assembled_from_the_bands(self):
        rng = np.random.default_rng(4)
        rrhs = DEFAULT_RRHS[:5]
        x = sample_ue_state(Scenario(), rng)
        b = build_b(x, rrhs)
        diag, low = b_bands(x, rrhs)
        assert np.array_equal(np.diag(b), diag)
        assert np.count_nonzero(b) == np.count_nonzero(diag) + np.count_nonzero(low)


class TestWhitenedCovarianceAccuracy:
    """The whitened covariance against ``inv(G' inv(B Q B') G)`` in 40 digits.

    Over 200 random draws, scaled by the standard deviations, the largest
    error was 8.1e-12 for the whitened form and 6.9e-12 for the dense
    float64 one.
    """

    @given(st.integers(4, 9), st.sampled_from([0.1, 1.0, 10.0]), st.integers(0, 2**32 - 1))
    @settings(max_examples=12)
    def test_matches_the_dense_form_in_40_digits(self, n_a, rho, seed):
        mp = pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        rrhs = DEFAULT_RRHS[:n_a]
        q = build_q(n_a, NoiseConfig().scaled(rho))
        x = sample_ue_state(Scenario(), rng)
        h, g = build_system(sample_gaussian(ue_measurement(x, rrhs), q, rng), rrhs)
        _, cov = solve_linear(h, _whiten(b_bands(x, rrhs), g), np.linalg.inv(q))

        with mp.workdps(40):
            b, q_mp, g_mp = (mp.matrix(a.tolist()) for a in (build_b(x, rrhs), q, g))
            exact = (g_mp.T * (b * q_mp * b.T) ** -1 * g_mp) ** -1
            exact = np.array([[float(exact[i, j]) for j in range(6)] for i in range(6)])
        sd = np.sqrt(np.diag(exact))
        assert np.max(np.abs(cov - exact) / np.outer(sd, sd)) <= 1e-10


def _normal_member(kind: str, n: int, rng) -> np.ndarray:
    """One normal matrix of the kind a solve can meet; "scaled" and
    "rank_deficient" ones have columns scaled by 1e-8 to 1e8."""
    if kind.startswith("near_limit"):
        # 2-norm condition number within 1e-3 of the limit.  A symmetric
        # matrix's 1-norm condition number is never below it.  The skewed
        # one's is below it: its largest singular pair is (e_1, spread) and
        # its smallest (spread, (e_1 - e_2) / sqrt(2)).
        u = v = np.linalg.qr(rng.standard_normal((n, n)))[0]
        if kind.endswith("skewed"):
            e = np.eye(n)
            u = np.linalg.qr(np.column_stack([e[0], rng.standard_normal((n, n - 1))]))[0]
            q = np.linalg.qr(np.column_stack(
                [np.ones(n), e[0] - e[1], rng.standard_normal((n, n - 2))]))[0]
            v = np.column_stack([q[:, :1], q[:, 2:], q[:, 1:2]])
        top = 10.0 ** rng.uniform(-4, 4)
        s = np.geomspace(top, top / (_COND_LIMIT * (1.0 + rng.uniform(-1e-3, 1e-3))), n)
        return (u * s) @ v.T
    rows = {"regular": n + 3, "scaled": n + 3, "rank_deficient": n - 1}.get(kind, n)
    a = rng.standard_normal((rows, n))
    if kind == "zero_column":
        a[:, rng.integers(n)] = 0.0
    normal = a.T @ a
    if kind in ("scaled", "rank_deficient"):
        d = 10.0 ** rng.uniform(-8, 8, n)
        normal = normal * np.outer(d, d)
    if kind == "non_finite":
        normal[rng.integers(n), rng.integers(n)] = rng.choice([np.nan, np.inf])
    return normal


class TestSolveNormalScreen:
    """``solve_normal`` inverts once and screens the condition number from
    that inverse; its decisions, solutions and inverses are those of the
    retired form that took every member's SVD first."""

    KINDS = ["regular", "regular", "scaled", "rank_deficient", "zero_column",
             "near_limit", "near_limit_skewed", "non_finite", "failed"]

    @settings(max_examples=300)
    @given(
        st.sampled_from([3, 4, 6]),
        st.lists(st.sampled_from(KINDS), min_size=1, max_size=10),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_cond_first_form(self, n, kinds, seed):
        rng = np.random.default_rng(seed)
        normal = np.array([_normal_member(kind, n, rng) for kind in kinds])
        rhs = rng.standard_normal((len(kinds), n, 1)) * 10.0 ** rng.uniform(-3, 3)
        outcomes = []
        for solve in (solve_normal, oracle.solve_normal_cond_first):
            errors = np.array([NumericalError("earlier") if kind == "failed" else None
                               for kind in kinds], dtype=object)
            x, inv = solve(normal, rhs, errors)
            outcomes.append((x, inv, [repr(e) for e in errors]))
        (x, inv, errors), (x_o, inv_o, errors_o) = outcomes
        assert errors == errors_o
        assert np.array_equal(x, x_o, equal_nan=True)
        assert np.array_equal(inv, inv_o, equal_nan=True)

    @settings(max_examples=100)
    @given(
        st.sampled_from([3, 4, 6]),
        st.sampled_from(["regular", "scaled", "rank_deficient", "zero_column", "near_limit",
                         "near_limit_skewed"]),
        st.integers(0, 2**32 - 1),
    )
    def test_a_single_matrix_raises_as_the_cond_first_form(self, n, kind, seed):
        rng = np.random.default_rng(seed)
        normal, rhs = _normal_member(kind, n, rng), rng.standard_normal((n, 1))
        outcomes = [_oracle(solve, normal, rhs)
                    for solve in (solve_normal, oracle.solve_normal_cond_first)]
        if isinstance(outcomes[1], HybridlocError):
            assert repr(outcomes[0]) == repr(outcomes[1])
        else:
            for new, old in zip(*outcomes):
                assert np.array_equal(new, old)

    def test_only_unsure_members_take_an_svd(self, monkeypatch):
        rng = np.random.default_rng(8)
        kinds = ["regular"] * 5 + ["near_limit", "rank_deficient"]
        normal = np.array([_normal_member(kind, 6, rng) for kind in kinds])
        cond = np.linalg.cond
        seen = []

        def counting_cond(a, *args, **kwargs):
            seen.append(len(a))
            return cond(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cond", counting_cond)
        errors = np.full(len(kinds), None, dtype=object)
        solve_normal(normal, np.ones((len(kinds), 6, 1)), errors)
        assert seen == [1]
        assert [type(e).__name__ for e in errors[5:]] == ["SingularProblemError"] * 2
        assert all(e is None for e in errors[:5])

    def test_an_exactly_singular_member_takes_no_svd(self, monkeypatch):
        # Member 7's row and column 2 are zero: its LU pivot is exactly
        # zero, so the stacked inv raises.  It is flagged from that pivot,
        # and the other 39 members are inverted and screened as one stack.
        rng = np.random.default_rng(3)
        a = rng.standard_normal((40, 9, 6))
        normal = np.swapaxes(a, 1, 2) @ a
        normal[7, 2, :] = normal[7, :, 2] = 0.0
        rhs = rng.standard_normal((40, 6, 1))
        cond = np.linalg.cond
        seen = []

        def counting_cond(m, *args, **kwargs):
            seen.extend(np.reshape(m, (-1, 6, 6)))
            return cond(m, *args, **kwargs)

        outcomes = []
        for solve in (solve_normal, oracle.solve_normal_cond_first):
            errors = np.full(40, None, dtype=object)
            with monkeypatch.context() as patch:
                if solve is solve_normal:
                    patch.setattr(np.linalg, "cond", counting_cond)
                x, inv = solve(normal, rhs, errors)
            outcomes.append((x, inv, [repr(e) for e in errors]))
        assert not any(np.array_equal(m, normal[7]) for m in seen)
        (x, inv, errors), (x_o, inv_o, errors_o) = outcomes
        assert errors == errors_o
        assert [i for i, e in enumerate(errors) if e != "None"] == [7]
        assert np.array_equal(x, x_o, equal_nan=True)
        assert np.array_equal(inv, inv_o, equal_nan=True)


def _velocity_blind(m, rrhs):
    """``m`` (n_a = 4) with its last TDOA entry ``r_41`` moved so that the
    FDOA rows' velocity blocks ``(b_1 - b_i) - r_i1 a_1`` lose rank: the
    velocity is then unidentifiable and the joint normal matrix singular."""
    m = m.copy()
    a_1 = angular_vectors(m[6], m[7])[0]
    lever = (rrhs[0] - rrhs[1:3]) - m[[0, 2], None] * a_1
    # The determinant is linear in the last row's r_41.
    m[4] = np.linalg.det([*lever, rrhs[0] - rrhs[3]]) / np.linalg.det([*lever, a_1])
    return m


class TestStackedCovariances:
    """Measurements with several batch axes and a covariance per leading
    index solve each member as its own (T,) stack does."""

    @pytest.mark.parametrize("n_a", [3, 4, 6])
    def test_one_covariance_per_noise_scale(self, n_a):
        ms, rrhs, _ = _ue_stack(n_a=n_a, trials=7, seed=n_a)
        rhos = (0.1, 1.0, 30.0)
        qs = np.array([build_q(n_a, NoiseConfig().scaled(rho)) for rho in rhos])
        grid = wls_solve_batch(np.array([ms * rho for rho in rhos]), rrhs, qs[:, None])
        for r, rho in enumerate(rhos):
            alone = wls_solve_batch(ms * rho, rrhs, qs[r])
            assert np.array_equal(grid.x[r], alone.x, equal_nan=True)
            assert np.array_equal(grid.cov[r], alone.cov, equal_nan=True)
            assert np.array_equal(grid.velocity_valid[r], alone.velocity_valid)
            assert [repr(e) for e in grid.failures[r]] == [repr(e) for e in alone.failures]

    @pytest.mark.parametrize("n_a", [3, 6])
    def test_one_covariance_per_trial(self, n_a):
        # The position-only fallback picks each trial's own sub-covariance;
        # the failed trial 2 takes no part in it.
        ms, rrhs, q = _ue_stack(n_a=n_a, trials=5, seed=12)
        ms[2, 0] = np.nan
        qs = np.array([q * 4.0**t for t in range(5)])
        batch = wls_solve_batch(ms, rrhs, qs)
        for t in range(5):
            alone = wls_solve_batch(ms[t : t + 1], rrhs, qs[t])
            assert np.array_equal(batch.x[t], alone.x[0], equal_nan=True)
            assert np.array_equal(batch.cov[t], alone.cov[0], equal_nan=True)
            assert repr(batch.failures[t]) == repr(alone.failures[0])

    def _assert_members_solve_alone(self, ms, rrhs, qs, batch):
        """Each member of ``batch`` equals its own stack of one, bit for bit."""
        for idx in np.ndindex(ms.shape[:-1]):
            alone = wls_solve_batch(ms[idx][None], rrhs, qs[idx[:-1]])
            assert np.array_equal(batch.x[idx], alone.x[0], equal_nan=True)
            assert np.array_equal(batch.cov[idx], alone.cov[0], equal_nan=True)
            assert batch.velocity_valid[idx] == alone.velocity_valid[0]
            assert repr(batch.failures[idx]) == repr(alone.failures[0])

    def test_stack_mixing_fallback_and_joint_members(self):
        # Trials (r, r) and (r, r + 3) of scale r lose their velocity and
        # fall back; the others keep it.
        rhos = (0.1, 1.0, 10.0)
        qs = np.array([build_q(4, NoiseConfig().scaled(rho)) for rho in rhos])
        ms = np.array([_ue_stack(n_a=4, trials=6, seed=20 + r)[0] for r in range(3)])
        rrhs = DEFAULT_RRHS[:4]
        for r in range(3):
            for t in (r, r + 3):
                ms[r, t] = _velocity_blind(ms[r, t], rrhs)
        grid = wls_solve_batch(ms, rrhs, qs[:, None])
        fell_back = np.equal(grid.failures, None) & ~grid.velocity_valid
        assert fell_back[[0, 1, 2, 0, 1, 2], [0, 1, 2, 3, 4, 5]].all()
        assert fell_back.sum() == 6 and grid.velocity_valid.sum() == 12
        self._assert_members_solve_alone(ms, rrhs, qs, grid)
        flat = wls_solve_batch(ms[1], rrhs, qs[1])
        self._assert_members_solve_alone(ms[1], rrhs, qs[1], flat)

    def test_scatterer_covariance_per_noise_scale(self):
        sc = Scenario()
        b_n, b_1 = DEFAULT_RRHS[3], DEFAULT_RRHS[0]
        rng = np.random.default_rng(6)
        m = scatterer_measurement(sample_scatterer_state(sc, rng), sc.ue_true, b_n, b_1)
        z = rng.standard_normal((9, 4))
        rhos = (0.1, 3.0)
        qss = np.array([build_qs(NoiseConfig().scaled(rho)) for rho in rhos])
        ms = m + np.sqrt(np.diagonal(qss, axis1=-2, axis2=-1))[:, None, :] * z
        grid = scatterer_wls_solve_batch(ms, b_n, b_1, sc.ue_true, qss[:, None])
        for r in range(len(rhos)):
            alone = scatterer_wls_solve_batch(ms[r], b_n, b_1, sc.ue_true, qss[r])
            assert np.array_equal(grid.x[r], alone.x, equal_nan=True)
            assert np.array_equal(grid.cov[r], alone.cov, equal_nan=True)

    @pytest.mark.parametrize("shape", [(2, 1), (3, 4), (1, 1, 1)])
    def test_covariance_that_does_not_broadcast_is_rejected(self, shape):
        ms, rrhs, q = _ue_stack(trials=5)
        with pytest.raises(DimensionMismatchError, match="covariance"):
            wls_solve_batch(np.array([ms] * 3), rrhs, np.broadcast_to(q, shape + q.shape))
        qs = build_qs(NoiseConfig())
        with pytest.raises(DimensionMismatchError, match="covariance"):
            scatterer_wls_solve_batch(np.zeros((3, 5, 4)), DEFAULT_RRHS[3], DEFAULT_RRHS[0],
                                      Scenario().ue_true, np.broadcast_to(qs, shape + (4, 4)))


POISONS = [np.nan, np.inf, -np.inf, 1e200, -1e200]


def _below_four_stack(n_a, lead, trials, rng):
    """Noisy measurements ``lead + (trials, dim)`` at ``n_a`` random receivers,
    and one covariance per leading index, ``lead + (dim, dim)``."""
    rrhs = DEFAULT_RRHS[rng.permutation(len(DEFAULT_RRHS))[:n_a]]
    rhos = 10.0 ** rng.uniform(-1, 1, lead)
    qs = np.array([build_q(n_a, NoiseConfig().scaled(rho)) for rho in rhos.flat])
    qs = qs.reshape(lead + qs.shape[-2:])
    kinds = ["random", "random", "random", "near_zenith", "zenith"]
    ms = np.array([
        sample_gaussian(ue_measurement(_ue_state(rng.choice(kinds), rrhs, rng), rrhs),
                        qs[idx], rng)
        for idx in np.ndindex(lead) for _ in range(trials)
    ]).reshape(lead + (trials, -1))
    return ms, rrhs, qs


def _poison(ms, qs, where, value, rng):
    """Put ``value`` into one FDOA-only entry (``where`` "m_fdoa" or
    "q_fdoa"), or into one other measurement entry ("m_other")."""
    k = ms.shape[-1] // 2 - 1  # 2 n_a - 2 TDOA/FDOA entries
    if where == "q_fdoa":
        idx = tuple(int(rng.integers(s)) for s in qs.shape[:-2])
        f = 2 * int(rng.integers(k // 2)) + 1
        qs[idx + (f, f)] = value
        return
    idx = tuple(int(rng.integers(s)) for s in ms.shape[:-1])
    if where == "m_fdoa":
        ms[idx + (2 * int(rng.integers(k // 2)) + 1,)] = value
    else:
        others = np.setdiff1d(np.arange(ms.shape[-1]), np.arange(1, k, 2))
        ms[idx + (int(rng.choice(others)),)] = value


def _batch_outcome(ms, rrhs, q, iters, solve):
    """Every bit of a stacked solve's result, or the repr of what it raised."""
    try:
        b = solve(ms, rrhs, q, iters)
    except HybridlocError as exc:
        return repr(exc)
    return (b.x.shape, b.x.tobytes(), b.cov.shape, b.cov.tobytes(),
            b.velocity_valid.ravel().tolist(), [repr(e) for e in b.failures.flat])


class TestBelowFourReceivers:
    """Below four receivers ``wls_solve_batch`` skips the joint solve; each
    outcome is the retired joint-first form's, bit for bit, failure classes
    and messages included."""

    @settings(max_examples=250)
    @given(
        st.sampled_from([2, 3]),
        st.sampled_from([(), (1,), (3,)]),
        st.integers(1, 6),
        st.integers(1, 3),
        st.lists(st.tuples(st.sampled_from(["m_fdoa", "m_fdoa", "q_fdoa", "m_other"]),
                           st.sampled_from(POISONS)), max_size=3),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_matches_the_joint_first_form(self, n_a, lead, trials, iters, poisons,
                                          zero_fdoa_variance, seed):
        rng = np.random.default_rng(seed)
        ms, rrhs, qs = _below_four_stack(n_a, lead, trials, rng)
        for where, value in poisons:
            _poison(ms, qs, where, value, rng)
        if zero_fdoa_variance:
            _poison(ms, qs, "q_fdoa", 0.0, rng)
        q = qs[..., None, :, :] if lead else qs
        with np.errstate(all="ignore"):
            new, old = (_batch_outcome(ms, rrhs, q, iters, solve)
                        for solve in (wls_solve_batch, oracle.wls_solve_batch_joint_first))
        assert new == old
        if zero_fdoa_variance:
            assert new == repr(SingularProblemError("weighting matrix is singular"))
        elif isinstance(new, tuple):
            assert not any(new[4])

    @pytest.mark.parametrize("n_a", [2, 3])
    @pytest.mark.parametrize("value", POISONS)
    def test_non_finite_joint_normal_fails_the_trial(self, n_a, value):
        # The poisoned FDOA entry leaves the position-only rows clean, yet
        # the trial fails as its joint attempt did.
        ms, rrhs, q = _ue_stack(n_a=n_a, trials=4, seed=30)
        clean = wls_solve_batch(ms, rrhs, q)
        ms[2, 1] = value
        with np.errstate(all="ignore"):
            batch = wls_solve_batch(ms, rrhs, q)
            assert (_batch_outcome(ms, rrhs, q, 2, wls_solve_batch)
                    == _batch_outcome(ms, rrhs, q, 2, oracle.wls_solve_batch_joint_first))
        assert repr(batch.failures[2]) == repr(
            NumericalError("normal equations contain non-finite entries"))
        assert np.all(np.isnan(batch.x[2])) and np.all(np.isnan(batch.cov[2]))
        keep = [0, 1, 3]
        assert all(e is None for e in batch.failures[keep])
        assert np.array_equal(batch.x[keep], clean.x[keep], equal_nan=True)
        assert not batch.velocity_valid.any()

    @settings(max_examples=100)
    @given(st.sampled_from([2, 3]), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_every_joint_matrix_is_singular(self, n_a, trials, seed):
        # The premise of the shortcut: at random finite geometries the joint
        # normal and information matrices are singular by the rule of
        # ``_invert_normal``, so the joint attempt never keeps a trial.
        rng = np.random.default_rng(seed)
        ms, rrhs, qs = _below_four_stack(n_a, (1,), trials, rng)
        h, g = build_system(ms[0], rrhs)
        gtw = np.swapaxes(g, -1, -2) @ np.linalg.inv(qs[0])
        assert _invert_normal(gtw @ g)[1].all()
        x = sample_ue_state(Scenario(), rng)
        jac = jacobian_ue(x, rrhs)
        assert _invert_normal(jac.T @ np.linalg.solve(qs[0], jac)[None])[1].all()

    @pytest.mark.parametrize("n_a", [2, 3])
    def test_no_joint_inverse_and_no_svd(self, n_a, monkeypatch):
        ms, rrhs, q = _ue_stack(n_a=n_a, trials=6, seed=4)
        qs = np.array([q * rho for rho in (0.01, 1.0, 100.0)])
        inv, cond = np.linalg.inv, np.linalg.cond
        inverted, conds = [], []

        def counting_inv(a, *args, **kwargs):
            inverted.append(np.array(a))
            return inv(a, *args, **kwargs)

        def counting_cond(a, *args, **kwargs):
            conds.append(np.shape(a))
            return cond(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", counting_inv)
        monkeypatch.setattr(np.linalg, "cond", counting_cond)
        flat = wls_solve_batch(ms, rrhs, q)
        grid = wls_solve_batch(np.array([ms] * 3), rrhs, qs[:, None])
        traces = crlb_ue_traces(Scenario().ue_true, rrhs, qs)
        assert conds == []
        assert inverted
        # At n_a 2 the covariance itself is 6 x 6; no other 6 x 6 matrix is
        # inverted.
        six = [a for a in inverted if a.shape[-2:] == (6, 6)]
        assert all(np.array_equal(a, q) or np.array_equal(a, qs[:, None]) for a in six)
        assert len(six) == (2 if n_a == 2 else 0)
        assert all(f is None for f in flat.failures) and not flat.velocity_valid.any()
        assert all(f is None for f in grid.failures.flat) and not grid.velocity_valid.any()
        assert all(v is None for _, v in traces)
