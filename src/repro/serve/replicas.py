"""Multi-process replica pool: shard fused batches, keep every bit.

One GIL-bound process is the serving stack's throughput ceiling — the
:class:`~repro.serve.scheduler.MicroBatcher` buys ~3x from coalescing
and nothing past that.  The FPGA accelerators this repo shadows (Fan et
al.'s BNN accelerators) scale instead by *replicating compute units
behind one batching front-end*; :class:`ReplicaPool` is that shape in
software: N forked worker processes, each executing slices of the
fused batch the batcher just closed.

Three properties make the pool production-shaped rather than a toy
``fork()`` fan-out:

**Zero-copy weights.**  Model parameters (float backend) or
pre-quantized kernel tensors (fixed backend) are copied *once* into an
anonymous shared ``mmap`` and the live arrays are repointed at the
views before any fork, so all workers execute the same physical pages
— replica count does not multiply the deployment's memory.

**Deterministic, bit-preserving sharding.**  The router records an
explicit request→replica→span plan per fused batch
(:func:`plan_shards`), and the shard axis is chosen per backend so the
reassembled posterior is **byte-identical** to single-process
``mc_predict`` / ``kernel.predict`` on the same fused rows:

* ``fixed`` shards along **rows** — integer arithmetic is row-local,
  and :meth:`CompiledKernel.predict`'s row window replays the
  canonical full-batch mask plan sliced to the shard;
* ``float`` shards along **Monte-Carlo passes** — float GEMM rounding
  depends on the GEMM's row count (see :mod:`repro.nn.inference`), so
  row slices of a BLAS matmul are *not* byte-stable; per-pass
  evaluation at the full row count (:func:`repro.bayes.mc.
  mc_predict_span`) is.  Each worker reseeds per fused batch and draws
  the same canonical ``(T, N, ...)`` plan, exactly as the tentpole
  contract requires — the plan is replayed per shard, never reseeded
  per shard.

**Health, drain and restart.**  The workers are a
:class:`repro.workers.WorkerPool`, which bounds every shard round-trip
by ``timeout_s``: a killed worker surfaces as EOF, a wedged one misses
the deadline.  Either way the dead process is reaped, a fresh one is
forked into its slot, and the shard is sent once more, or computed
inline in the parent (which keeps the model) if that fails too — no
caller future is ever dropped or reordered.  Per-replica counters (shards, failures,
restarts, latency) surface through :meth:`UncertaintyService.stats`.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro import workers
from repro.bayes.mc import MCPrediction
from repro.faults.runtime import SITE_REPLICA_DISPATCH, fire
from repro.utils.validation import check_positive_int
from repro.workers import WorkerPool, split_spans

#: Shard axes, by backend: float shards Monte-Carlo passes (GEMM row
#: counts must match the single-process reference bit-for-bit), fixed
#: shards rows (integer arithmetic is row-local).
AXES = ("passes", "rows")

#: Shared-memory view alignment — matches a fresh numpy allocation so
#: relocating an array cannot perturb vectorized kernels.
_ALIGNMENT = 64


class ReplicaError(RuntimeError):
    """No replica can serve: the platform cannot fork, or a diagnostic
    call targets a slot without a live worker.

    Serving never raises it: a killed or wedged replica's shard is
    re-dispatched or computed inline, and a deterministic compute error
    raised inside a worker is re-raised in the parent with its own type.
    """


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shard:
    """One routed slice of a fused batch.

    Attributes:
        replica: pool slot index the shard was routed to.
        axis: ``"rows"`` or ``"passes"``.
        start / stop: half-open span along ``axis``.
    """

    replica: int
    axis: str
    start: int
    stop: int

    @property
    def units(self) -> int:
        return self.stop - self.start


def plan_shards(axis: str, total_rows: int, num_samples: int,
                replica_indices: List[int]) -> List[Shard]:
    """The deterministic request→replica→span route for one batch.

    Pure function of ``(axis, total_rows, num_samples, healthy
    replicas)`` — the bookkeeping a byte-identity audit replays.  The
    sharded dimension is ``num_samples`` on the pass axis and
    ``total_rows`` on the row axis; parallelism is capped by that
    dimension (e.g. ``T = 3`` float serving uses at most 3 replicas per
    batch).
    """
    if axis not in AXES:
        raise ValueError(f"unknown shard axis {axis!r}; choose from {AXES}")
    if not replica_indices:
        raise ValueError("cannot plan shards over zero replicas")
    total = int(num_samples) if axis == "passes" else int(total_rows)
    return [Shard(replica=replica_indices[lane], axis=axis,
                  start=start, stop=stop)
            for lane, (start, stop) in enumerate(
                split_spans(total, len(replica_indices)))]


# ----------------------------------------------------------------------
# Zero-copy weight sharing
# ----------------------------------------------------------------------
def share_arrays(arrays: Dict[str, np.ndarray]):
    """Copy ``arrays`` into one anonymous shared mapping.

    Returns ``(buffer, views, nbytes)`` where ``views[name]`` is a
    writable ndarray view into the mapping holding a byte-equal copy of
    ``arrays[name]``.  The mapping is created with ``mmap.mmap(-1, …)``
    (``MAP_SHARED | MAP_ANONYMOUS``), so children forked afterwards see
    the *same physical pages*, not copy-on-write duplicates.
    """
    names = sorted(arrays)
    layout = []
    offset = 0
    for name in names:
        array = np.ascontiguousarray(arrays[name])
        layout.append((name, offset, array))
        offset += -(-array.nbytes // _ALIGNMENT) * _ALIGNMENT
    buffer = mmap.mmap(-1, max(offset, mmap.PAGESIZE))
    views = {}
    for name, start, array in layout:
        view = np.frombuffer(buffer, dtype=array.dtype, count=array.size,
                             offset=start).reshape(array.shape)
        view[...] = array
        views[name] = view
    return buffer, views, offset


class ReplicaPool:
    """N forked workers answering shards of fused Monte-Carlo batches.

    Args:
        deployment: the serving artifact (must round-trip through
            fork intact; it is inherited, never pickled).
        replicas: worker process count.
        backend: ``"float"`` (pass-axis sharding over ``model``) or
            ``"fixed"`` (row-axis sharding over ``kernel``).
        num_samples: default Monte-Carlo passes per fused batch.
        model: instantiated supernet (float backend).
        kernel: compiled kernel (fixed backend).
        timeout_s: per-shard round-trip bound; a replica that exceeds
            it is declared wedged, killed and respawned, and its shard
            re-dispatched.

    The pool is synchronous by design: :meth:`predict` is called from
    the batcher's ``predict_fn`` slot, which already runs inline on the
    event loop.  Shards execute concurrently across worker processes;
    the parent blocks only on collection.
    """

    def __init__(self, deployment, *, replicas: int, num_samples: int,
                 backend: str = "float", model=None, kernel=None,
                 timeout_s: float = 30.0) -> None:
        check_positive_int(replicas, "replicas")
        check_positive_int(num_samples, "num_samples")
        if backend not in ("float", "fixed"):
            raise ValueError(f"unknown backend {backend!r}")
        if timeout_s <= 0:
            raise ValueError(f"timeout_s must be > 0, got {timeout_s}")
        if not self.available():
            raise ReplicaError(
                "replica pool requires the 'fork' start method "
                "(POSIX only)")
        self.deployment = deployment
        self.backend = backend
        self.axis = "rows" if backend == "fixed" else "passes"
        self.replicas = int(replicas)
        self.num_samples = int(num_samples)
        self.timeout_s = float(timeout_s)
        self.batches = 0
        self._inline_batches = 0
        self.last_batch_failures = 0
        self.last_route: List[Shard] = []

        # Map the weights into shared memory *before* any fork and
        # repoint the live objects at the views, so every worker (and
        # the parent's own fallback path) executes the same pages.
        if backend == "fixed":
            if kernel is None:
                raise ValueError("fixed-backend pool requires kernel=")
            self._buffer, self._shared, self.shared_bytes = share_arrays(
                kernel.tensor_arrays())
            kernel.rebind_tensors(self._shared)
            kernel.warm()
            self._model, self._kernel = None, kernel
        else:
            if model is None:
                raise ValueError("float-backend pool requires model=")
            unique = {}
            for name, parameter in model.named_parameters():
                unique.setdefault(id(parameter), (name, parameter))
            arrays = {name: p.data for name, p in unique.values()}
            self._buffer, self._shared, self.shared_bytes = share_arrays(
                arrays)
            for name, parameter in unique.values():
                # Pre-fork setup: repointing parameters at the shared
                # mapping *before* any worker exists is the float
                # analogue of rebind_tensors.
                parameter.data = self._shared[name]  # repro: allow[fork-shared-mutation]
            self._model, self._kernel = model, None
        self._pool = WorkerPool(self._handle, workers=self.replicas,
                                deadline_s=self.timeout_s)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    available = staticmethod(workers.available)

    @property
    def running(self) -> bool:
        return self._pool.running

    def shared_view(self, name: str) -> np.ndarray:
        """The parent's view of one shared array (tests/diagnostics)."""
        return self._shared[name]

    def shared_names(self) -> List[str]:
        return sorted(self._shared)

    def stats(self) -> Dict[str, object]:
        """Pool- and per-replica operational counters."""
        pool = self._pool.stats()
        for worker in pool["workers"]:
            worker["shards"] = worker.pop("tasks")
        return {
            "replicas": self.replicas,
            "axis": self.axis,
            "backend": self.backend,
            "running": self.running,
            "shared_bytes": self.shared_bytes,
            "batches": self.batches,
            "dispatches": pool["dispatches"],
            "redispatches": pool["redispatches"],
            "fallbacks": pool["fallbacks"] + self._inline_batches,
            "injected_faults": pool["injected"],
            "last_batch_failures": self.last_batch_failures,
            "workers": pool["workers"],
        }

    # ------------------------------------------------------------------
    # Lifecycle and diagnostics
    # ------------------------------------------------------------------
    def start(self) -> "ReplicaPool":
        """Fork the workers (idempotent)."""
        self._pool.start()
        return self

    def stop(self) -> None:
        """Drain and reap every worker (idempotent).

        In-flight work is never abandoned mid-``predict`` because
        ``predict`` is synchronous — by the time ``stop`` runs, every
        caller future from the batcher has already been resolved.
        """
        self._pool.stop()

    def call(self, index: int, op: str, *args):
        """Synchronous round-trip to one replica (tests/diagnostics)."""
        if self.pid(index) is None:
            raise ReplicaError(f"replica {index} is not alive")
        return self._pool.map([(op,) + args], slots=[index])[0]

    def wedge(self, index: int, seconds: float) -> None:
        """Test hook: make one replica unresponsive for ``seconds``."""
        self._pool.wedge(index, seconds)

    def pid(self, index: int) -> Optional[int]:
        return self._pool.pid(index)

    def _handle(self, request: tuple):
        """Answer one request; runs in a worker, or inline as fallback."""
        op, *args = request
        if op == "predict":
            return self._compute_shard(*args)
        if op == "peek":
            # Read one cell of a shared array — lets tests prove the
            # mapping is shared memory, not a copy-on-write clone.
            name, flat_index = args
            return self._shared[name].reshape(-1)[flat_index].item()
        raise ValueError(f"unknown replica op {op!r}")

    # ------------------------------------------------------------------
    # Prediction
    # ------------------------------------------------------------------
    def predict(self, images: np.ndarray,
                num_samples: Optional[int] = None) -> MCPrediction:
        """One fused batch, sharded across the pool, byte-reassembled.

        Returns exactly what single-process serving would: the
        reassembled ``(T, rows, K)`` posterior is bit-identical to
        ``deployment.predict`` / ``kernel.predict`` on the same fused
        rows, whichever replicas served it and whether any of them died
        along the way.
        """
        if num_samples is None:
            num_samples = self.num_samples
        num_samples = int(num_samples)
        rows = int(images.shape[0])
        self.batches += 1
        if not self.running:
            self._inline_batches += 1
            self.last_batch_failures = self.replicas
            self.last_route = []
            return self._predict_inline(images, num_samples)
        shards = plan_shards(self.axis, rows, num_samples,
                             list(range(self.replicas)))
        self.last_route = shards
        # One fault-site visit per planned shard, parent-side, applied
        # to the routed worker just before its shard is sent; retries
        # and inline fallbacks are not visits.
        failures = self._pool.failures
        parts = self._pool.map(
            [("predict", shard.start, shard.stop,
              self._payload(shard, images), num_samples, rows)
             for shard in shards],
            slots=[shard.replica for shard in shards],
            faults=[fire(SITE_REPLICA_DISPATCH) for _ in shards])
        self.last_batch_failures = self._pool.failures - failures
        return self._assemble(shards, parts, rows, num_samples)

    # -- helpers -------------------------------------------------------
    def _payload(self, shard: Shard, images: np.ndarray) -> np.ndarray:
        # Pass-axis shards need the full fused rows (every pass sees
        # every row); row-axis shards carry only their slice.
        if shard.axis == "rows":
            return images[shard.start:shard.stop]
        return images

    def _compute_shard(self, start: int, stop: int, images: np.ndarray,
                       num_samples: int, rows: int) -> np.ndarray:
        if self.axis == "rows":
            return self._kernel.predict(
                images, num_samples=num_samples,
                total_rows=rows, row_start=start).probs
        return self.deployment.predict_span(
            self._model, images, num_samples=num_samples,
            pass_start=start, pass_stop=stop)

    def _predict_inline(self, images: np.ndarray,
                        num_samples: int) -> MCPrediction:
        if self._kernel is not None:
            return self._kernel.predict(images, num_samples=num_samples)
        return self.deployment.predict(self._model, images,
                                       num_samples=num_samples)

    def _assemble(self, shards: List[Shard], parts: List[np.ndarray],
                  rows: int, num_samples: int) -> MCPrediction:
        probs = np.empty((num_samples, rows, parts[0].shape[-1]),
                         dtype=parts[0].dtype)
        for shard, part in zip(shards, parts):
            if self.axis == "rows":
                probs[:, shard.start:shard.stop] = part
            else:
                probs[shard.start:shard.stop] = part
        return MCPrediction(probs=probs)


__all__ = [
    "AXES",
    "ReplicaError",
    "ReplicaPool",
    "Shard",
    "plan_shards",
    "share_arrays",
    "split_spans",
]
