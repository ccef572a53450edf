"""Network tracing: extract a hardware netlist from a live model.

The accelerator generator does not work on ``Module`` objects directly;
it consumes a flat list of :class:`LayerInfo` records (kind, shapes,
MACs, parameter count, dropout design) obtained by tracing one forward
pass.  Tracing handles arbitrary topologies (residual branches) because
it records actual execution rather than attribute order, and
:func:`trace_graph` also records which layers produced each layer's
inputs (a residual join is an ``add`` layer with two producers).
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.dropout.base import DropoutLayer
from repro.models.slots import DropoutSlot
from repro import nn
from repro.nn.module import Identity, Module

#: Layer kinds the hardware model understands.
KIND_CONV = "conv2d"
KIND_LINEAR = "dense"
KIND_BN = "batchnorm"
KIND_ACT = "activation"
KIND_POOL = "pooling"
KIND_GPOOL = "global_pooling"
KIND_FLATTEN = "flatten"
KIND_DROPOUT = "dropout"
KIND_IDENTITY = "identity"
KIND_ADD = "add"

#: Producer name :func:`trace_graph` gives an input that is the network
#: input itself (no module path can take this name).
NETWORK_INPUT = "<input>"


@dataclass
class LayerInfo:
    """One traced layer of the hardware netlist.

    Attributes:
        name: dotted module path inside the model.
        kind: one of the ``KIND_*`` constants.
        in_shape: per-image input shape (no batch dimension).
        out_shape: per-image output shape (no batch dimension).
        macs: multiply-accumulates per image (0 for non-arithmetic).
        params: parameter scalars held by the layer.
        dropout_code: design code if the layer is a dropout slot.
        slot_name: dropout slot name, when applicable.
    """

    name: str
    kind: str
    in_shape: Tuple[int, ...]
    out_shape: Tuple[int, ...]
    macs: int = 0
    params: int = 0
    dropout_code: Optional[str] = None
    slot_name: Optional[str] = None

    @property
    def in_elements(self) -> int:
        """Number of activation elements entering the layer."""
        return int(np.prod(self.in_shape))

    @property
    def out_elements(self) -> int:
        """Number of activation elements leaving the layer."""
        return int(np.prod(self.out_shape))


@dataclass
class Netlist:
    """Flat execution trace of one forward pass."""

    layers: List[LayerInfo] = field(default_factory=list)
    input_shape: Tuple[int, ...] = ()

    @property
    def total_macs(self) -> int:
        """MACs per image over the whole network."""
        return sum(layer.macs for layer in self.layers)

    @property
    def total_params(self) -> int:
        """Parameter scalars over the whole network."""
        return sum(layer.params for layer in self.layers)

    @property
    def dropout_layers(self) -> List[LayerInfo]:
        """The traced dropout slots, in execution order."""
        return [l for l in self.layers if l.kind == KIND_DROPOUT]

    @property
    def max_activation_elements(self) -> int:
        """Largest activation tensor crossing a layer boundary."""
        if not self.layers:
            return 0
        return max(max(l.in_elements, l.out_elements) for l in self.layers)


def _classify(module: Module) -> Optional[str]:
    """Map a leaf module to its netlist kind (None = untraced container)."""
    if isinstance(module, DropoutSlot):
        return KIND_DROPOUT
    if isinstance(module, nn.Conv2d):
        return KIND_CONV
    if isinstance(module, nn.Linear):
        return KIND_LINEAR
    if isinstance(module, nn.BatchNorm2d):
        return KIND_BN
    if isinstance(module, (nn.ReLU, nn.LeakyReLU)):
        return KIND_ACT
    if isinstance(module, (nn.MaxPool2d, nn.AvgPool2d)):
        return KIND_POOL
    if isinstance(module, nn.GlobalAvgPool2d):
        return KIND_GPOOL
    if isinstance(module, nn.Flatten):
        return KIND_FLATTEN
    if isinstance(module, DropoutLayer):
        return KIND_DROPOUT
    if isinstance(module, Identity):
        return KIND_IDENTITY
    if isinstance(module, nn.Add):
        return KIND_ADD
    return None


def _macs(module: Module, in_shape: Tuple[int, ...],
          out_shape: Tuple[int, ...]) -> int:
    if isinstance(module, nn.Conv2d):
        return module.macs_per_image(in_shape[1], in_shape[2])
    if isinstance(module, nn.Linear):
        return module.in_features * module.out_features
    if isinstance(module, nn.BatchNorm2d):
        # One multiply-add per element (folded scale/shift).
        return int(np.prod(out_shape))
    return 0


def _params(module: Module) -> int:
    return sum(p.size for p in module.parameters())


def traced_leaves(model: Module) -> List[Tuple[str, str, Module]]:
    """The leaves the tracer hooks, as ``(name, kind, module)``.

    The one walk shared by the tracer, the range calibrator, the
    compiler and the compiled kernel.  Leaves come in
    ``model.modules()`` order, each named by its first attribute path
    (the dotted name reports and compiled plans key on) with its
    netlist ``KIND_*``.  Containers (no kind) are skipped, and so are
    the layers living inside a dropout slot — the active design and
    the choice bank — which are traced via the slot itself.
    """
    names = {}
    for path, module in model._named_modules():
        names.setdefault(id(module), path.rstrip("."))
    inside_slots = set()
    for module in model.modules():
        if isinstance(module, DropoutSlot):
            inside_slots.add(id(module.active))
            inside_slots.update(id(m) for m in module.bank.values())
    leaves = []
    for module in model.modules():
        if id(module) in inside_slots:
            continue
        kind = _classify(module)
        if kind is not None:
            leaves.append((names.get(id(module), type(module).__name__),
                           kind, module))
    return leaves


@contextlib.contextmanager
def hooked_leaves(model: Module, make_hook: Callable) -> Iterator[None]:
    """Route every traced leaf's forward through a hook for the block.

    Each leaf of :func:`traced_leaves` gets
    ``make_hook(name, kind, module, module.forward)`` as its forward,
    called with every positional input of the leaf (two for an
    ``add``); the class forwards are restored on exit, even when the
    block raises.
    """
    patched = []
    try:
        for name, kind, module in traced_leaves(model):
            module.forward = make_hook(name, kind, module, module.forward)
            patched.append(module)
        yield
    finally:
        for module in patched:
            del module.forward


def trace_network(model: Module,
                  input_shape: Tuple[int, ...]) -> Netlist:
    """Trace one forward pass and return the hardware netlist.

    Args:
        model: the network (dropout slots may hold any active design —
            the traced ``dropout_code`` reflects the active one).
        input_shape: per-image shape, e.g. ``(1, 28, 28)``.

    Returns:
        A :class:`Netlist` whose layers appear in execution order.
    """
    return trace_graph(model, input_shape)[0]


def trace_graph(model: Module, input_shape: Tuple[int, ...]
                ) -> Tuple[Netlist, Dict[str, Tuple[Optional[str], ...]]]:
    """Trace one forward pass: the netlist and every layer's producers.

    Producers are matched by array identity: each positional input of a
    traced layer is the output of the last layer that returned that
    very array, or the probe image (:data:`NETWORK_INPUT`).  Every
    output is held until the trace ends, so no id is reused.  An input
    no traced layer produced (an array the container computed itself)
    maps to ``None``.

    Returns:
        ``(netlist, inputs)``: the :class:`Netlist` of
        :func:`trace_network`, and each layer's producer names, in the
        order the layer takes its inputs.
    """
    records: List[LayerInfo] = []
    edges: Dict[str, Tuple[Optional[str], ...]] = {}
    probe = np.zeros((1,) + tuple(input_shape), dtype=np.float32)
    producers = {id(probe): NETWORK_INPUT}
    held = [probe]

    def make_hook(name: str, kind: str, module: Module, original):
        def hook(*inputs: np.ndarray) -> np.ndarray:
            out = original(*inputs)
            x = inputs[0]
            info = LayerInfo(
                name=name,
                kind=kind,
                in_shape=tuple(x.shape[1:]),
                out_shape=tuple(out.shape[1:]),
                macs=_macs(module, tuple(x.shape[1:]), tuple(out.shape[1:])),
                params=_params(module),
            )
            if isinstance(module, DropoutSlot):
                info.dropout_code = module.active_code
                info.slot_name = module.name
            elif isinstance(module, DropoutLayer):
                info.dropout_code = module.code
            records.append(info)
            edges[name] = tuple(producers.get(id(a)) for a in inputs)
            producers[id(out)] = name
            held.append(out)
            return out
        return hook

    with hooked_leaves(model, make_hook):
        was_training = model.training
        model.eval()
        model(probe)
        if was_training:
            model.train()

    return Netlist(layers=records, input_shape=tuple(input_shape)), edges
