"""The shared ray kernels ``geometry.user_rays`` and ``geometry.scatterer_legs``.

Every kernel that reads them is bit for bit its retired form, which derived
its own ranges, rates and legs (``ray_oracle``; the user Jacobian's is
``crlb_oracle.jacobian_ue``), and fails with the same error: random,
near-zenith, zenith and receiver-coincident states, singly and in ``(T,)``
and ``(R, T)`` stacks.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import crlb_oracle
import ray_oracle as oracle
from hybridloc.crlb import jacobian_scatterer, jacobian_ue
from hybridloc.errors import HybridlocError
from hybridloc.geometry import (
    angular_vectors,
    scatterer_legs,
    scatterer_measurement,
    ue_measurement,
    user_rays,
)
from hybridloc.scatterer_wls import bs_bands
from hybridloc.scenario import (
    DEFAULT_RRHS,
    Scenario,
    sample_scatterer_state,
    sample_ue_state,
)
from hybridloc.ue_wls import _b_diagonal, b_bands

KINDS = ["random", "random", "near_zenith", "zenith", "coincident"]
SHAPES = ["single", "T", "RT"]


def _outcome(fn, *args):
    """``fn(*args)``, or the ``repr`` of the error it raised."""
    try:
        return fn(*args)
    except HybridlocError as exc:
        return repr(exc)


def _assert_same(new, old):
    if isinstance(old, str) or isinstance(new, str):
        assert new == old
        return
    for a, b in zip(new, old) if isinstance(old, tuple) else [(new, old)]:
        assert a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=True)


def _place(kind, point, anchor, rng):
    """``point`` moved by ``kind``: kept, straight above or below ``anchor``,
    nearly so (|cos(elevation)| around ``MIN_COS_ELEVATION``), or on it."""
    height = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 300.0)
    if kind == "zenith":
        return anchor + [0.0, 0.0, height]
    if kind == "near_zenith":
        offset = abs(height) * 10.0 ** rng.uniform(-14.0, -10.0, size=2)
        return anchor + [offset[0], offset[1], height]
    if kind == "coincident":
        return anchor.copy()
    return point


def _stack(shape, rows):
    """``rows`` as one row, a (T,) stack or an (R, T) stack of reversed copies."""
    rows = np.array(rows)
    if shape == "single":
        return rows[0]
    return rows if shape == "T" else np.stack([rows, rows[::-1]])


def _user_states(kinds, rrhs, static, rng):
    sc = Scenario()
    states = []
    for kind in kinds:
        x = sample_ue_state(sc, rng)
        j = 0 if rng.random() < 0.5 else int(rng.integers(len(rrhs)))  # often the reference
        x[:3] = _place(kind, x[:3], rrhs[j], rng)
        if static:
            x[3:] = 0.0
        states.append(x)
    return states


@settings(max_examples=250)
@given(
    st.integers(2, 9),
    st.sampled_from(SHAPES),
    st.lists(st.sampled_from(KINDS), min_size=1, max_size=8),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_user_kernels_match_their_retired_forms(n_a, shape, kinds, static, seed):
    rng = np.random.default_rng(seed)
    rrhs = DEFAULT_RRHS[rng.permutation(len(DEFAULT_RRHS))[:n_a]]
    states = _user_states(kinds, rrhs, static, rng)
    x = _stack(shape, states)
    _assert_same(_outcome(ue_measurement, x, rrhs), _outcome(oracle.ue_measurement, x, rrhs))
    _assert_same(_outcome(b_bands, x, rrhs), _outcome(oracle.b_bands, x, rrhs))
    recorded = []
    for bands in (b_bands, oracle.b_bands):
        errors = np.full(x.shape[:-1], None, dtype=object)
        recorded.append((bands(x, rrhs, errors), [repr(e) for e in errors.flat]))
    (new, new_errors), (old, old_errors) = recorded
    assert new_errors == old_errors
    _assert_same(new, old)
    for state in states:
        _assert_same(_outcome(jacobian_ue, state, rrhs),
                     _outcome(crlb_oracle.jacobian_ue, state, rrhs))


SCATTERER_KINDS = ["random", "random", "near_zenith", "zenith", "coincident", "on_user"]


@settings(max_examples=250)
@given(
    st.sampled_from(SHAPES),
    st.lists(st.sampled_from(SCATTERER_KINDS), min_size=1, max_size=8),
    st.booleans(),
    st.sampled_from(["moving", "static", "on_reference"]),
    st.integers(0, 2**32 - 1),
)
def test_scatterer_kernels_match_their_retired_forms(shape, kinds, shared, user, seed):
    rng = np.random.default_rng(seed)
    sc = Scenario()
    rrhs = DEFAULT_RRHS[rng.permutation(len(DEFAULT_RRHS))[:4]]
    ue = sample_ue_state(sc, rng)
    if user == "static":
        ue[3:] = 0.0
    elif user == "on_reference":
        ue[:3] = rrhs[0]
    receivers = rng.integers(1, len(rrhs), size=len(kinds))
    if shared:
        receivers[:] = receivers[0]
    rows = []
    for kind, j in zip(kinds, receivers):
        xs = sample_scatterer_state(sc, rng)
        xs[:3] = ue[:3] if kind == "on_user" else _place(kind, xs[:3], rrhs[j], rng)
        rows.append(xs)
    xs = _stack(shape, rows)
    b_n = rrhs[receivers[0]] if shared else _stack(shape, rrhs[receivers])
    _assert_same(_outcome(scatterer_measurement, xs, ue, b_n, rrhs[0]),
                 _outcome(oracle.scatterer_measurement, xs, ue, b_n, rrhs[0]))
    _assert_same(_outcome(bs_bands, xs, b_n, ue), _outcome(oracle.bs_bands, xs, b_n, ue))
    if user != "static":
        recorded = []
        for bands in (bs_bands, oracle.bs_bands):
            errors = np.full(xs.shape[:-1], None, dtype=object)
            recorded.append((bands(xs, b_n, ue, errors), [repr(e) for e in errors.flat]))
        (new, new_errors), (old, old_errors) = recorded
        assert new_errors == old_errors
        _assert_same(new, old)
    for row, j in zip(rows, receivers):
        _assert_same(_outcome(jacobian_scatterer, row, rrhs[j], ue),
                     _outcome(oracle.jacobian_scatterer, row, rrhs[j], ue))


def test_user_rays_are_the_per_state_rays():
    rng = np.random.default_rng(11)
    rrhs = DEFAULT_RRHS[:5]
    x = np.array([sample_ue_state(Scenario(), rng) for _ in range(6)]).reshape(2, 3, 6)
    diffs, r, rdot = user_rays(x, rrhs)
    assert diffs.shape == (2, 3, 5, 3) and r.shape == rdot.shape == (2, 3, 5)
    for idx in np.ndindex(2, 3):
        one = user_rays(x[idx], rrhs)
        for stacked, single in zip((diffs, r, rdot), one):
            assert np.array_equal(stacked[idx], single)
        assert np.array_equal(one[1], np.linalg.norm(x[idx][:3] - rrhs, axis=-1))
        assert np.allclose(one[2] * one[1], (x[idx][:3] - rrhs) @ x[idx][3:])


def test_scatterer_legs_reconstruct_the_path():
    rng = np.random.default_rng(12)
    sc = Scenario()
    ue = sample_ue_state(sc, rng)
    xs = np.array([sample_scatterer_state(sc, rng) for _ in range(64)])
    b_n = DEFAULT_RRHS[2]
    n_v, sdot, leg1, d1, phi, theta, leg2, d2, ddot1, ddot2 = scatterer_legs(xs, ue, b_n)
    assert np.allclose(n_v, ue[3:] / np.linalg.norm(ue[3:]))
    assert np.array_equal(sdot, xs[:, 3:] * n_v)
    assert np.allclose(b_n + leg1, xs[:, :3]) and np.allclose(xs[:, :3] + leg2, ue[:3])
    assert np.allclose(d1[:, None] * angular_vectors(phi, theta)[0], leg1)
    assert np.allclose(d2, np.linalg.norm(leg2, axis=-1))
    # The rates are bit for bit the retired forms' expressions: the stacked
    # ones of the path measurement and bs_bands, and the Jacobian's 1-D @.
    s, udot = xs[:, :3], ue[3:]
    assert np.array_equal(ddot1, np.vecdot(sdot, s - b_n) / d1)
    assert np.array_equal(ddot2, np.vecdot(udot - sdot, ue[:3] - s) / d2)
    for i in range(len(xs)):
        assert ddot1[i] == sdot[i] @ leg1[i] / d1[i]
        assert ddot2[i] == (udot - sdot[i]) @ leg2[i] / d2[i]


@settings(max_examples=100)
@given(
    st.integers(2, 9),
    st.sampled_from(SHAPES),
    st.lists(st.sampled_from(KINDS), min_size=1, max_size=8),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_b_diagonal_is_the_diagonal_of_b_bands(n_a, shape, kinds, static, seed):
    """The position-only solve's diagonal is ``b_bands``' own and its retired
    form's, and fails the same way: a state on a receiver or straight above
    the reference one gets the same error class and message, raised or
    recorded."""
    rng = np.random.default_rng(seed)
    rrhs = DEFAULT_RRHS[rng.permutation(len(DEFAULT_RRHS))[:n_a]]
    states = _user_states(kinds, rrhs, static, rng)
    on_receiver, above_reference = states[0].copy(), states[0].copy()
    on_receiver[:3] = rrhs[-1]
    above_reference[:3] = rrhs[0] + [0.0, 0.0, 50.0]

    def diagonal(x, e=None):
        return _b_diagonal(x, rrhs, e)[0]

    for x in (_stack(shape, states), on_receiver, above_reference,
              np.array(states + [on_receiver, above_reference])):
        for bands in (b_bands, oracle.b_bands):
            _assert_same(_outcome(diagonal, x), _outcome(lambda x: bands(x, rrhs)[0], x))
            recorded = []
            for fn in (diagonal, lambda x, e: bands(x, rrhs, e)[0]):
                errors = np.full(x.shape[:-1], None, dtype=object)
                recorded.append((fn(x, errors), [repr(e) for e in errors.flat]))
            (new, new_errors), (old, old_errors) = recorded
            assert new_errors == old_errors
            _assert_same(new, old)
    assert _outcome(diagonal, on_receiver) == (
        "DegenerateGeometryError('state coincides with a receiver')")
    assert _outcome(diagonal, above_reference) == (
        "GimbalLockError('azimuth rate undefined at +/-90 degrees elevation')")
