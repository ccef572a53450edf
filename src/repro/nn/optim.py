"""Optimizers for the numpy substrate.

Every update runs in place: moments live in persistent buffers and
every temporary is written into a per-parameter scratch slab with
``np.multiply/add/...(..., out=)``, so a step allocates nothing.  The
operations and their order are those of the textbook update equations,
so the bytes equal the fresh-array formulation, which the test suite
keeps beside it as the reference (``tests/oracles.py``).

Optimizer state is keyed by *parameter index* (position in the
``params`` list), never by ``id(p)``: an ``id``-keyed dict can silently
attach a freed parameter's stale moments to an unrelated new parameter
whose allocation reused the address.  Index keying also gives the state
a stable serialized form — :meth:`Optimizer.state_dict` /
:meth:`Optimizer.load_state_dict` round-trip it as a flat
``name -> array`` mapping, which is what epoch-granular training
checkpoints persist.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.nn.module import DTYPE, Parameter


class Optimizer:
    """Base optimizer over a list of :class:`Parameter` objects.

    Args:
        params: parameters to optimize; their order defines the state
            indexing used by :meth:`state_dict`.
        lr: learning rate.
    """

    def __init__(self, params: List[Parameter], lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)
        self._scratch: Dict[tuple, np.ndarray] = {}

    def _scratch_for(self, index: int, tag: str, p: Parameter) -> np.ndarray:
        """A persistent uninitialized scratch array shaped like ``p``."""
        key = (index, tag)
        buf = self._scratch.get(key)
        if buf is None or buf.shape != p.data.shape:
            buf = np.empty_like(p.data)
            self._scratch[key] = buf
        return buf

    def step(self) -> None:
        """Apply one update using the accumulated gradients."""
        raise NotImplementedError

    def zero_grad(self) -> None:
        """Zero the gradients of all managed parameters."""
        for p in self.params:
            p.zero_grad()

    # ------------------------------------------------------------------
    # Serialization (epoch-granular training checkpoints)
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Flat ``name -> array`` view of the optimizer state.

        Keys are ``<slot>.<param_index>`` (e.g. ``m.3``) plus scalar
        counters as 0-d arrays; :meth:`load_state_dict` inverts it
        exactly, and the mapping stores directly into one ``.npz``.
        """
        return {}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state_dict`.

        The optimizer must have been constructed over the same
        parameter list (same order and shapes).
        """
        if state:
            raise KeyError(
                f"unexpected keys in optimizer state: {sorted(state)}")

    def _check_moment(self, key: str, value: np.ndarray) -> np.ndarray:
        slot, _, index_text = key.partition(".")
        try:
            index = int(index_text)
        except ValueError:
            raise KeyError(f"malformed optimizer state key {key!r}") from None
        if not 0 <= index < len(self.params):
            raise KeyError(
                f"optimizer state key {key!r} is out of range for "
                f"{len(self.params)} parameter(s)")
        expected = self.params[index].data.shape
        value = np.ascontiguousarray(value, dtype=DTYPE)
        if value.shape != expected:
            raise ValueError(
                f"shape mismatch for optimizer state {key!r}: "
                f"expected {expected}, got {value.shape}")
        return value


class SGD(Optimizer):
    """Stochastic gradient descent with momentum and weight decay.

    Args:
        params: parameters to optimize.
        lr: learning rate.
        momentum: classical momentum factor (0 disables).
        weight_decay: decoupled L2 coefficient applied to the gradient.
    """

    def __init__(self, params: List[Parameter], lr: float = 0.01, *,
                 momentum: float = 0.0, weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        if momentum < 0:
            raise ValueError(f"momentum must be non-negative, got {momentum}")
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: Dict[int, np.ndarray] = {}

    def step(self) -> None:
        for i, p in enumerate(self.params):
            g = p.grad
            if self.weight_decay:
                decayed = self._scratch_for(i, "g", p)
                np.multiply(p.data, self.weight_decay, out=decayed)
                np.add(decayed, g, out=decayed)
                g = decayed
            if self.momentum:
                v = self._velocity.get(i)
                if v is None or v.shape != p.data.shape:
                    v = np.zeros_like(p.data)
                    self._velocity[i] = v
                np.multiply(v, self.momentum, out=v)
                np.add(v, g, out=v)
                g = v
            scaled = self._scratch_for(i, "s", p)
            np.multiply(g, self.lr, out=scaled)
            np.subtract(p.data, scaled, out=p.data)

    def state_dict(self) -> Dict[str, np.ndarray]:
        return {f"velocity.{i}": v.copy()
                for i, v in sorted(self._velocity.items())}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        velocity: Dict[int, np.ndarray] = {}
        for key, value in state.items():
            if not key.startswith("velocity."):
                raise KeyError(f"unexpected key in SGD state: {key!r}")
            velocity[int(key.partition(".")[2])] = self._check_moment(
                key, value).copy()
        self._velocity = velocity


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015) with bias correction."""

    def __init__(self, params: List[Parameter], lr: float = 1e-3, *,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0) -> None:
        super().__init__(params, lr)
        b1, b2 = betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.betas = (float(b1), float(b2))
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1 ** self._t
        bc2 = 1.0 - b2 ** self._t
        for i, p in enumerate(self.params):
            g = p.grad
            if self.weight_decay:
                decayed = self._scratch_for(i, "g", p)
                np.multiply(p.data, self.weight_decay, out=decayed)
                np.add(decayed, g, out=decayed)
                g = decayed
            m = self._m.get(i)
            v = self._v.get(i)
            if m is None or m.shape != p.data.shape:
                m = np.zeros_like(p.data)
                v = np.zeros_like(p.data)
                self._m[i] = m
                self._v[i] = v
            a = self._scratch_for(i, "a", p)
            b = self._scratch_for(i, "b", p)
            # m <- b1 * m + (1 - b1) * g          (in place)
            np.multiply(m, b1, out=m)
            np.multiply(g, 1 - b1, out=a)
            np.add(m, a, out=m)
            # v <- b2 * v + (1 - b2) * g^2        (in place)
            np.multiply(v, b2, out=v)
            np.multiply(g, g, out=a)
            np.multiply(a, 1 - b2, out=a)
            np.add(v, a, out=v)
            # update = (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(v, bc2, out=a)
            np.sqrt(a, out=a)
            np.add(a, self.eps, out=a)
            np.divide(m, bc1, out=b)
            np.divide(b, a, out=b)
            np.multiply(b, self.lr, out=b)
            np.subtract(p.data, b, out=p.data)

    def state_dict(self) -> Dict[str, np.ndarray]:
        state: Dict[str, np.ndarray] = {"t": np.asarray(self._t, dtype=np.int64)}
        for i, m in sorted(self._m.items()):
            state[f"m.{i}"] = m.copy()
        for i, v in sorted(self._v.items()):
            state[f"v.{i}"] = v.copy()
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        if "t" not in state:
            raise KeyError("Adam state is missing the step counter 't'")
        m: Dict[int, np.ndarray] = {}
        v: Dict[int, np.ndarray] = {}
        for key, value in state.items():
            if key == "t":
                continue
            if key.startswith("m."):
                m[int(key.partition(".")[2])] = self._check_moment(
                    key, value).copy()
            elif key.startswith("v."):
                v[int(key.partition(".")[2])] = self._check_moment(
                    key, value).copy()
            else:
                raise KeyError(f"unexpected key in Adam state: {key!r}")
        if sorted(m) != sorted(v):
            raise KeyError("Adam state has mismatched m/v moment keys")
        self._t = int(np.asarray(state["t"]))
        self._m = m
        self._v = v
