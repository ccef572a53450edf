"""Tests for optimizers."""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn.module import Parameter
from tests.oracles import reference_optimizers


def quadratic_step(opt, p, target=0.0):
    """One optimization step on f(p) = 0.5 * (p - target)^2."""
    p.zero_grad()
    p.grad += p.data - target
    opt.step()


class TestSGD:
    def test_plain_sgd_update(self):
        p = Parameter(np.array([1.0]))
        opt = nn.SGD([p], lr=0.1)
        quadratic_step(opt, p)
        assert p.data[0] == pytest.approx(0.9)

    def test_momentum_accelerates(self):
        p1 = Parameter(np.array([1.0]))
        p2 = Parameter(np.array([1.0]))
        plain = nn.SGD([p1], lr=0.05)
        heavy = nn.SGD([p2], lr=0.05, momentum=0.9)
        for _ in range(10):
            quadratic_step(plain, p1)
            quadratic_step(heavy, p2)
        assert abs(p2.data[0]) != pytest.approx(abs(p1.data[0]), abs=1e-6)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = nn.SGD([p], lr=0.2, momentum=0.5)
        for _ in range(100):
            quadratic_step(opt, p, target=2.0)
        assert p.data[0] == pytest.approx(2.0, abs=1e-3)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.array([1.0]))
        opt = nn.SGD([p], lr=0.1, weight_decay=1.0)
        p.zero_grad()  # zero task gradient; only decay acts
        opt.step()
        assert p.data[0] == pytest.approx(0.9)

    def test_invalid_lr(self):
        with pytest.raises(ValueError):
            nn.SGD([Parameter(np.zeros(1))], lr=0.0)

    def test_empty_params(self):
        with pytest.raises(ValueError, match="no parameters"):
            nn.SGD([], lr=0.1)


class TestAdam:
    def test_first_step_size_is_lr(self):
        # With bias correction the first Adam step is ~lr * sign(grad).
        p = Parameter(np.array([1.0]))
        opt = nn.Adam([p], lr=0.01)
        quadratic_step(opt, p)
        assert p.data[0] == pytest.approx(1.0 - 0.01, abs=1e-5)

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([5.0]))
        opt = nn.Adam([p], lr=0.3)
        for _ in range(200):
            quadratic_step(opt, p, target=-1.0)
        assert p.data[0] == pytest.approx(-1.0, abs=1e-2)

    def test_invalid_betas(self):
        with pytest.raises(ValueError, match="betas"):
            nn.Adam([Parameter(np.zeros(1))], betas=(1.0, 0.999))

    def test_trains_small_network(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(64, 4)).astype(np.float32)
        y = (x.sum(axis=1) > 0).astype(np.int64)
        net = nn.Sequential(nn.Linear(4, 16, rng=1), nn.ReLU(),
                            nn.Linear(16, 2, rng=2))
        crit = nn.CrossEntropyLoss()
        opt = nn.Adam(net.parameters(), lr=5e-3)
        first = crit(net(x), y)
        for _ in range(60):
            crit(net(x), y)
            opt.zero_grad()
            net.backward(crit.backward())
            opt.step()
        assert crit(net(x), y) < first * 0.3


def _random_params(rng, num_params, max_dim=6):
    params = []
    for _ in range(num_params):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(ndim))
        params.append(Parameter(rng.normal(size=shape)))
    return params


def _clone_params(params):
    return [Parameter(p.data.copy()) for p in params]


def _drive(opt, params, rng_seed, num_steps):
    """Apply ``num_steps`` updates with a deterministic gradient stream."""
    rng = np.random.default_rng(rng_seed)
    for _ in range(num_steps):
        opt.zero_grad()
        for p in opt.params:
            p.grad += rng.normal(size=p.data.shape).astype(np.float32)
        opt.step()
    return [p.data.copy() for p in params]


def _path(fused):
    """The library's in-place steps, or the textbook references."""
    return contextlib.nullcontext() if fused else reference_optimizers()


class TestFusedBitIdentity:
    """The in-place steps replay the reference update stream bit for bit."""

    @given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(1, 12),
           st.sampled_from([0.0, 0.9]), st.sampled_from([0.0, 1e-2]))
    @settings(max_examples=25, deadline=None)
    def test_sgd(self, seed, num_params, num_steps, momentum, weight_decay):
        rng = np.random.default_rng(seed)
        ref_params = _random_params(rng, num_params)
        fast_params = _clone_params(ref_params)
        kwargs = dict(lr=0.05, momentum=momentum,
                      weight_decay=weight_decay)
        with reference_optimizers():
            ref = _drive(nn.SGD(ref_params, **kwargs), ref_params, seed,
                         num_steps)
        fast = _drive(nn.SGD(fast_params, **kwargs),
                      fast_params, seed, num_steps)
        for a, b in zip(ref, fast):
            assert a.tobytes() == b.tobytes()

    @given(st.integers(0, 2**31 - 1), st.integers(1, 4), st.integers(1, 12),
           st.sampled_from([0.0, 1e-2]))
    @settings(max_examples=25, deadline=None)
    def test_adam(self, seed, num_params, num_steps, weight_decay):
        rng = np.random.default_rng(seed)
        ref_params = _random_params(rng, num_params)
        fast_params = _clone_params(ref_params)
        kwargs = dict(lr=3e-3, weight_decay=weight_decay)
        with reference_optimizers():
            ref = _drive(nn.Adam(ref_params, **kwargs), ref_params, seed,
                         num_steps)
        fast = _drive(nn.Adam(fast_params, **kwargs),
                      fast_params, seed, num_steps)
        for a, b in zip(ref, fast):
            assert a.tobytes() == b.tobytes()


class TestOptimizerState:
    """Index-keyed, serializable optimizer state (checkpoint contract)."""

    @pytest.mark.parametrize("fused", [False, True])
    @pytest.mark.parametrize("make", [
        lambda params: nn.SGD(params, lr=0.05, momentum=0.9),
        lambda params: nn.Adam(params, lr=3e-3),
    ])
    def test_round_trip_resumes_bitwise(self, make, fused):
        rng = np.random.default_rng(42)
        params_a = _random_params(rng, 3)
        params_b = _clone_params(params_a)
        opt_a = make(params_a)
        with _path(fused):
            _drive(opt_a, params_a, 7, 5)
        state = opt_a.state_dict()
        # Serialized arrays are copies, not views of live buffers.
        for value in state.values():
            value.flags.writeable = False
        with _path(fused):
            continued_a = _drive(opt_a, params_a, 8, 5)

        # Bring the clone to the same 5-step point, then resume it from
        # the serialized state on the *other* execution path.
        throwaway = make(params_b)
        with _path(fused):
            _drive(throwaway, params_b, 7, 5)
        resumed = make(params_b)
        resumed.load_state_dict(state)
        with _path(not fused):
            continued_b = _drive(resumed, params_b, 8, 5)
        for a, b in zip(continued_a, continued_b):
            assert a.tobytes() == b.tobytes()

    def test_state_keys_are_index_based(self):
        params = [Parameter(np.zeros(2)), Parameter(np.zeros(3))]
        opt = nn.SGD(params, lr=0.1, momentum=0.9)
        _drive(opt, params, 0, 1)
        assert sorted(opt.state_dict()) == ["velocity.0", "velocity.1"]
        opt2 = nn.Adam(params, lr=0.1)
        _drive(opt2, params, 0, 1)
        assert sorted(opt2.state_dict()) == ["m.0", "m.1", "t", "v.0", "v.1"]

    def test_state_survives_id_reuse(self):
        # The historic hazard: id(p)-keyed state could silently attach a
        # freed parameter's moments to an unrelated new parameter that
        # reused its address.  Index keying is immune: state follows the
        # position in the params list, never the object identity.
        params = [Parameter(np.ones(4))]
        opt = nn.SGD(params, lr=0.1, momentum=0.9)
        _drive(opt, params, 0, 3)
        velocity = opt._velocity[0].copy()
        # Replace the parameter object in place (new id, same slot).
        opt.params[0] = Parameter(np.ones(4))
        assert np.array_equal(opt._velocity[0], velocity)

    def test_load_rejects_bad_shapes_and_keys(self):
        params = [Parameter(np.zeros(2))]
        opt = nn.SGD(params, lr=0.1, momentum=0.9)
        with pytest.raises(KeyError):
            opt.load_state_dict({"m.0": np.zeros(2)})
        with pytest.raises(ValueError, match="shape"):
            opt.load_state_dict({"velocity.0": np.zeros(3)})
        with pytest.raises(KeyError, match="range"):
            opt.load_state_dict({"velocity.5": np.zeros(2)})
        adam = nn.Adam(params, lr=0.1)
        with pytest.raises(KeyError, match="'t'"):
            adam.load_state_dict({"m.0": np.zeros(2), "v.0": np.zeros(2)})
