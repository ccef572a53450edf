"""Module/Parameter core of the numpy deep-learning substrate.

This substrate replaces PyTorch for the reproduction (see DESIGN.md).
It implements the small subset of a deep-learning framework the paper's
search framework actually needs:

* stateful layers with explicit ``forward``/``backward`` passes,
* trainable :class:`Parameter` tensors with accumulated gradients,
* a training/evaluation mode switch (batch norm, dropout),
* recursive parameter discovery and ``state_dict`` (de)serialization.

Gradient flow is manual rather than taped: each layer caches whatever it
needs during ``forward`` and consumes it in ``backward``.  Layers are
therefore *single-use per step* — the same module instance must not
appear twice in one forward graph.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

#: Default floating-point dtype for all activations and parameters.
DTYPE = np.float32


class Parameter:
    """A trainable tensor with an accumulated gradient.

    Attributes:
        data: the parameter value, stored as ``float32``.
        grad: gradient of the loss w.r.t. ``data``; same shape as ``data``.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.ascontiguousarray(data, dtype=DTYPE)
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero in place."""
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter(shape={self.data.shape})"


class Module:
    """Base class for all layers and models.

    Subclasses assign :class:`Parameter` and sub-:class:`Module` objects
    as attributes; :meth:`named_parameters` and :meth:`modules` discover
    them by attribute walking, mirroring the PyTorch convention.
    """

    def __init__(self) -> None:
        self.training: bool = True

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the layer output for input ``x``."""
        raise NotImplementedError

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        """Propagate ``grad_out`` back through the layer.

        Accumulates parameter gradients into ``Parameter.grad`` and
        returns the gradient with respect to the layer's input.
        """
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def children(self) -> Iterator[Tuple[str, "Module"]]:
        """Yield ``(attribute_name, module)`` for direct sub-modules.

        Attributes whose name starts with an underscore are treated as
        private references (caches, ordering lists, choice banks) and
        are *not* walked — each module must be reachable through exactly
        one public attribute path.
        """
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants, depth-first, deduped.

        Traversal follows attribute-definition order so that, e.g., the
        dropout slots of a network are yielded in network order.
        """
        return self._walk(set())

    def _walk(self, seen: set) -> Iterator["Module"]:
        if id(self) in seen:
            return
        seen.add(id(self))
        yield self
        for _, child in self.children():
            yield from child._walk(seen)

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` for all parameters."""
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")

    def parameters(self) -> List[Parameter]:
        """Return all parameters as a list (deduplicated by identity)."""
        seen: Dict[int, Parameter] = {}
        for _, p in self.named_parameters():
            seen.setdefault(id(p), p)
        return list(seen.values())

    def num_parameters(self) -> int:
        """Total number of scalar parameters in the module tree."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def train(self) -> "Module":
        """Put the module tree into training mode."""
        for m in self.modules():
            m.training = True
        return self

    def eval(self) -> "Module":
        """Put the module tree into evaluation mode.

        Note that MC-dropout layers in this library stay *stochastic* in
        eval mode when their ``mc_mode`` flag is set — that is the whole
        point of dropout-based Bayesian inference (paper Sec. 2.1.2).
        """
        for m in self.modules():
            m.training = False
        return self

    def zero_grad(self) -> None:
        """Zero the gradients of every parameter in the tree."""
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a flat ``name -> array`` mapping of parameter values.

        Buffers (e.g. batch-norm running statistics) are included by
        layers that override :meth:`extra_state`.
        """
        state = {name: p.data.copy() for name, p in self.named_parameters()}
        for mod_name, module in self._named_modules():
            for key, value in module.extra_state().items():
                state[f"{mod_name}{key}" if mod_name else key] = np.copy(value)
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values (and buffers) produced by :meth:`state_dict`."""
        params = dict(self.named_parameters())
        consumed = set()
        for name, p in params.items():
            if name not in state:
                raise KeyError(f"state dict is missing parameter {name!r}")
            value = np.asarray(state[name], dtype=DTYPE)
            if value.shape != p.data.shape:
                raise ValueError(
                    f"shape mismatch for {name!r}: "
                    f"expected {p.data.shape}, got {value.shape}"
                )
            p.data = value.copy()
            consumed.add(name)
        for mod_name, module in self._named_modules():
            extra = module.extra_state()
            loaded = {}
            for key in extra:
                full = f"{mod_name}{key}" if mod_name else key
                if full in state:
                    loaded[key] = state[full]
                    consumed.add(full)
            if loaded:
                module.load_extra_state(loaded)
        unknown = set(state) - consumed
        if unknown:
            raise KeyError(f"unexpected keys in state dict: {sorted(unknown)}")

    def extra_state(self) -> Dict[str, np.ndarray]:
        """Non-parameter buffers to persist; overridden by e.g. BatchNorm."""
        return {}

    def load_extra_state(self, state: Dict[str, np.ndarray]) -> None:
        """Restore buffers produced by :meth:`extra_state`."""
        # Default: nothing to restore.

    def _named_modules(self, prefix: str = "") -> Iterator[Tuple[str, "Module"]]:
        yield prefix, self
        for name, child in self.children():
            yield from child._named_modules(prefix=f"{prefix}{name}.")

    def __repr__(self) -> str:
        child_reprs = [f"  ({name}): {child!r}" for name, child in self.children()]
        if not child_reprs:
            return f"{type(self).__name__}()"
        inner = "\n".join(child_reprs).replace("\n", "\n  ")
        return f"{type(self).__name__}(\n  {inner}\n)"


class Identity(Module):
    """A no-op layer; useful as a placeholder in optional slots."""

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        return grad_out


class Add(Module):
    """Elementwise sum of two inputs, ``a + b`` (a residual join).

    A leaf of its own so that tracers see the join: the netlist records
    it as a layer with two producers, and the fixed-point kernel lowers
    it to an aligned integer add.
    """

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.forward(a, b)

    def forward(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a + b

    def backward(self, grad_out: np.ndarray):
        """The sum fans the gradient to both inputs unchanged."""
        return grad_out, grad_out
