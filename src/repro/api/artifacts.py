"""On-disk artifact persistence for experiment runs.

The :class:`ArtifactStore` is the single channel through which pipeline
stages persist their outputs: JSON documents for machine-readable
records (train logs, search results, synthesis reports) and ``.npz``
containers for array state (trained supernet weights).  Every write is
atomic (temp file + rename) so a killed run never leaves a torn
artifact behind, and every JSON document carries a small envelope with
the artifact schema version for forward compatibility.

Stores nest: ``store.subdir(run_id)`` scopes one experiment's
artifacts under its own directory, which is how
:class:`repro.api.runner.Runner` keys resumable runs on the spec
fingerprint.

The :class:`EvaluationCache` complements the per-run store with a
*cross-run*, content-addressed cache of candidate evaluations: entries
are keyed by a context fingerprint (everything that determines an
evaluation's result — see
:meth:`repro.api.spec.ExperimentSpec.evaluation_fingerprint`) plus the
candidate's configuration string, so any number of runs sharing one
store root reuse each other's evaluations instead of recomputing them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import zipfile
from typing import Any, Dict, List, Optional

import numpy as np

from repro.faults.runtime import SITE_ARTIFACT_WRITE, SITE_CACHE_WRITE, fire

#: Version stamped into every JSON artifact envelope.
ARTIFACT_VERSION = 1

_JSON_SUFFIX = ".json"
_STATE_SUFFIX = ".npz"


def _maybe_tear(site: str, payload: bytes) -> bytes:
    """Apply a pending torn-write fault event at ``site``, if any.

    Fires the site's injection hook; a ``torn_write`` event truncates
    the payload to ``param`` (a fraction in ``[0, 1)``) of its bytes —
    simulating a write the filesystem tore mid-publish, the exact
    corruption the tolerant readers must degrade to a miss on.
    """
    event = fire(site)
    if event is not None and event.kind == "torn_write":
        return payload[:int(len(payload) * float(event.param))]
    return payload


def atomic_write(path: str, writer) -> None:
    """Atomically materialize ``path`` from a streaming ``writer``.

    ``writer(fh)`` streams the payload into a temp file in ``path``'s
    directory (so the final ``os.replace`` never crosses filesystems),
    then the rename publishes it whole.  Concurrent writers are safe:
    each streams into its own temp file and the atomic rename makes the
    last one win whole — a reader can observe either complete payload,
    never a torn mix (the contract ``tests/test_cache_concurrency.py``
    races).  The directory must already exist.
    """
    directory = os.path.dirname(path)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            writer(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """:func:`atomic_write` of an in-memory payload."""
    atomic_write(path, lambda fh: fh.write(payload))


class ArtifactError(RuntimeError):
    """Raised on malformed or missing artifacts."""


def _check_name(name: str) -> str:
    if (not name or os.sep in name or (os.altsep and os.altsep in name)
            or name.startswith(".")):
        raise ValueError(f"invalid artifact name {name!r}")
    return name


class ArtifactStore:
    """A directory of named JSON and array artifacts.

    Args:
        root: directory holding the artifacts; created lazily on the
            first write so read-only probing never touches the disk.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)

    def __repr__(self) -> str:
        return f"ArtifactStore({self.root!r})"

    def subdir(self, name: str) -> "ArtifactStore":
        """A nested store under ``root/name``."""
        return ArtifactStore(os.path.join(self.root, _check_name(name)))

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def path(self, filename: str) -> str:
        """Absolute path of ``filename`` inside the store."""
        return os.path.join(self.root, _check_name(filename))

    def _ensure_root(self) -> None:
        os.makedirs(self.root, exist_ok=True)

    def _atomic_write_bytes(self, path: str, payload: bytes) -> None:
        self._ensure_root()
        atomic_write_bytes(path, payload)

    # ------------------------------------------------------------------
    # JSON artifacts
    # ------------------------------------------------------------------
    def has(self, name: str) -> bool:
        """True if JSON artifact ``name`` exists."""
        return os.path.exists(self.path(name + _JSON_SUFFIX))

    def save_json(self, name: str, payload: Any) -> str:
        """Atomically persist ``payload`` as JSON artifact ``name``.

        Returns the path written.  The payload is wrapped in an
        ``{"artifact_version", "name", "payload"}`` envelope.
        """
        document = {
            "artifact_version": ARTIFACT_VERSION,
            "name": _check_name(name),
            "payload": payload,
        }
        text = json.dumps(document, indent=2, sort_keys=True)
        path = self.path(name + _JSON_SUFFIX)
        payload_bytes = _maybe_tear(SITE_ARTIFACT_WRITE,
                                    (text + "\n").encode("utf-8"))
        self._atomic_write_bytes(path, payload_bytes)
        return path

    def load_json(self, name: str) -> Any:
        """Load and unwrap JSON artifact ``name``."""
        path = self.path(name + _JSON_SUFFIX)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except FileNotFoundError:
            raise ArtifactError(f"artifact {name!r} not found in "
                                f"{self.root}") from None
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"artifact {name!r} is corrupt: "
                                f"{exc}") from exc
        if (not isinstance(document, dict)
                or "payload" not in document
                or document.get("artifact_version") != ARTIFACT_VERSION):
            raise ArtifactError(
                f"artifact {name!r} has an unsupported envelope")
        return document["payload"]

    def try_load_json(self, name: str) -> Optional[Any]:
        """:meth:`load_json`, degrading any failure to ``None``.

        The resume-path reader: an absent, torn or corrupt artifact is
        indistinguishable from "never written" — the caller recomputes
        instead of crashing (and never sees stale or partial data,
        because the envelope check runs on whatever did parse).
        """
        try:
            return self.load_json(name)
        except ArtifactError:
            return None

    def list_artifacts(self) -> List[str]:
        """Names of all JSON artifacts in the store, sorted."""
        if not os.path.isdir(self.root):
            return []
        return sorted(
            entry[:-len(_JSON_SUFFIX)] for entry in os.listdir(self.root)
            if entry.endswith(_JSON_SUFFIX))

    # ------------------------------------------------------------------
    # Array-state artifacts (npz)
    # ------------------------------------------------------------------
    def has_state(self, name: str) -> bool:
        """True if array artifact ``name`` exists."""
        return os.path.exists(self.path(name + _STATE_SUFFIX))

    def save_state(self, name: str, state: Dict[str, np.ndarray]) -> str:
        """Persist a ``state_dict``-style mapping of arrays."""
        self._ensure_root()
        path = self.path(name + _STATE_SUFFIX)
        buffer = io.BytesIO()
        np.savez(buffer, **state)
        payload = _maybe_tear(SITE_ARTIFACT_WRITE, buffer.getvalue())
        atomic_write_bytes(path, payload)
        return path

    def load_state(self, name: str) -> Dict[str, np.ndarray]:
        """Load an array mapping saved by :meth:`save_state`.

        Raises :class:`ArtifactError` on absent *and* on torn/corrupt
        containers (truncated zip directories, damaged members) — a
        half-written state file must never surface as a raw
        ``zipfile``/``numpy`` exception or, worse, partial arrays.
        """
        path = self.path(name + _STATE_SUFFIX)
        try:
            with np.load(path) as data:
                return {key: data[key] for key in data.files}
        except FileNotFoundError:
            raise ArtifactError(f"state artifact {name!r} not found in "
                                f"{self.root}") from None
        except (OSError, ValueError, EOFError, KeyError,
                zipfile.BadZipFile) as exc:
            raise ArtifactError(f"state artifact {name!r} is corrupt: "
                                f"{exc}") from exc

    def try_load_state(self, name: str) -> Optional[Dict[str, np.ndarray]]:
        """:meth:`load_state`, degrading any failure to ``None``.

        Resume paths treat a torn weights file as a cache miss and
        retrain rather than crash — see ``tests/test_artifacts_torn.py``
        for the every-byte-boundary truncation sweep.
        """
        try:
            return self.load_state(name)
        except ArtifactError:
            return None

    def delete_json(self, name: str) -> bool:
        """Remove JSON artifact ``name``; True if it existed."""
        try:
            os.unlink(self.path(name + _JSON_SUFFIX))
            return True
        except FileNotFoundError:
            return False

    def delete_state(self, name: str) -> bool:
        """Remove array artifact ``name``; True if it existed."""
        try:
            os.unlink(self.path(name + _STATE_SUFFIX))
            return True
        except FileNotFoundError:
            return False


#: Version stamped into every evaluation-cache entry envelope.  Bump
#: whenever the *numerics* behind an evaluation change without the
#: evaluation fingerprint moving: entries with any other version load
#: as misses.  v2: the training kernels were rewritten (conv backward
#: einsum -> GEMM, PR 5), so identically-fingerprinted reruns now train
#: ulp-different supernet weights — v1 entries describe results the
#: current code would not reproduce.
EVALUATION_CACHE_VERSION = 2

#: Store-root subdirectory holding the shared evaluation cache.
EVALUATION_CACHE_DIRNAME = "eval_cache"


class EvaluationCache:
    """Content-addressed, disk-persistent cache of candidate evaluations.

    Each entry is one JSON file named after the SHA-256 of its
    ``(context, name)`` key, sharded into two-hex-digit subdirectories
    (``<root>/ab/abcdef....json``) so directories stay small under
    large sweeps.  ``context`` is the evaluation fingerprint of the
    producing experiment and ``name`` the candidate's configuration
    string; identical keys always map to identical results, which is
    what makes the cache safe to share across runs and processes.

    Robustness contract (crash recovery): writes are atomic (temp file
    + rename), and :meth:`get` treats *any* unreadable, torn or
    mismatched entry as a miss — a crashed writer can never poison
    later runs, at worst it costs one re-evaluation.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)

    def __repr__(self) -> str:
        return f"EvaluationCache({self.root!r})"

    @staticmethod
    def key(context: str, name: str) -> str:
        """Content address of the ``(context, name)`` pair."""
        digest = hashlib.sha256()
        digest.update(str(context).encode("utf-8"))
        digest.update(b"\x00")
        digest.update(str(name).encode("utf-8"))
        return digest.hexdigest()

    def path(self, context: str, name: str) -> str:
        """Absolute file path of the entry for ``(context, name)``."""
        key = self.key(context, name)
        return os.path.join(self.root, key[:2], key + _JSON_SUFFIX)

    def get(self, context: str, name: str) -> Optional[Any]:
        """Load the payload for ``(context, name)``; None on any miss.

        Misses include absent files, torn/corrupt JSON, unsupported
        envelopes and key mismatches — the cache never raises on reads.
        """
        path = self.path(context, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                document = json.load(fh)
        except (OSError, ValueError):
            return None
        if (not isinstance(document, dict)
                or document.get("cache_version") != EVALUATION_CACHE_VERSION
                or document.get("context") != context
                or document.get("name") != name
                or "payload" not in document):
            return None
        return document["payload"]

    def put(self, context: str, name: str, payload: Any) -> str:
        """Atomically persist ``payload`` under ``(context, name)``."""
        path = self.path(context, name)
        directory = os.path.dirname(path)
        os.makedirs(directory, exist_ok=True)
        document = {
            "cache_version": EVALUATION_CACHE_VERSION,
            "context": context,
            "name": name,
            "payload": payload,
        }
        text = json.dumps(document, indent=2, sort_keys=True)
        payload_bytes = _maybe_tear(SITE_CACHE_WRITE,
                                    (text + "\n").encode("utf-8"))
        atomic_write_bytes(path, payload_bytes)
        return path

    def __len__(self) -> int:
        """Number of entry files currently on disk."""
        if not os.path.isdir(self.root):
            return 0
        count = 0
        for shard in os.listdir(self.root):
            shard_dir = os.path.join(self.root, shard)
            if os.path.isdir(shard_dir):
                count += sum(1 for entry in os.listdir(shard_dir)
                             if entry.endswith(_JSON_SUFFIX))
        return count


__all__ = [
    "ARTIFACT_VERSION",
    "ArtifactError",
    "ArtifactStore",
    "EVALUATION_CACHE_DIRNAME",
    "EVALUATION_CACHE_VERSION",
    "EvaluationCache",
    "atomic_write",
    "atomic_write_bytes",
]
