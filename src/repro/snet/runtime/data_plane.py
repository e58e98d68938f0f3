"""The cross-process record data plane shared by the process and distributed engines.

Two mechanisms live here, both introduced by the zero-copy work (PR 3) and
now shared by every transport that moves records across OS process
boundaries:

* **Protocol-5 out-of-band serialization** — :func:`dumps_records` /
  :func:`loads_records` serialize record batches explicitly with pickle
  protocol 5 and ``buffer_callback``, so NumPy payloads that must cross a
  boundary travel as out-of-band buffers instead of being copied into the
  pickle stream.  ``dumps_records`` also reports the total serialized size,
  which feeds the engines' ``bytes_pickled`` instrumentation.

* **The fork-shared payload broadcast registry** — large field values of a
  run's input records (the scene and its BVH, in the paper's farm) are
  registered *before* worker processes fork; forked children inherit the
  registry, so a registered object crosses the boundary as a tiny
  :class:`SharedObjectRef` token instead of being re-pickled into every
  batch.  This relies on the S-Net purity contract: boxes never mutate
  their input field values, so sharing one copy-on-write instance is
  indistinguishable from shipping copies.  Objects exposing
  ``prepare_for_broadcast()`` (e.g. :class:`~repro.raytracer.scene.Scene`,
  which builds its BVH) are prepared once in the parent so workers inherit
  the finished structure.

The registry is intentionally module-global: ``fork`` snapshots the parent
interpreter, so whatever is registered here at fork time is exactly what
every worker sees.  Engines must therefore register *before* forking and
unregister what they registered when their pool/links are torn down.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.snet.errors import RuntimeError_
from repro.snet.records import Record

__all__ = [
    "SharedObjectRef",
    "SharedPayloadMissing",
    "dumps_records",
    "loads_records",
    "estimate_nbytes",
    "register_shared_value",
    "unregister_shared",
    "swap_shared_out",
    "resolve_shared_in",
]

#: broadcast payloads visible to forked workers: key -> object, and the
#: reverse identity index id(object) -> key used when swapping payloads for
#: refs at the serialization boundary.  Registered objects are kept alive by
#: the registry, so their ids stay unique for the registration's lifetime.
_SHARED_OBJECTS: Dict[int, Any] = {}
_SHARED_BY_ID: Dict[int, int] = {}
_shared_keys = itertools.count(1)

#: input-record field values at least this large (estimated) are broadcast
#: through the fork-shared registry instead of being pickled into batches
BROADCAST_MIN_BYTES = 1024


class SharedPayloadMissing(RuntimeError_):
    """A :class:`SharedObjectRef` arrived in a process that never inherited it."""


@dataclass(frozen=True)
class SharedObjectRef:
    """Picklable stand-in for an object broadcast via the fork-shared registry."""

    key: int


def swap_shared_out(rec: Record) -> Record:
    """Replace registered field values with :class:`SharedObjectRef` tokens."""
    if not _SHARED_BY_ID:
        return rec

    def swap(value: Any) -> Any:
        key = _SHARED_BY_ID.get(id(value))
        return SharedObjectRef(key) if key is not None else value

    return rec.map_field_values(swap)


def resolve_shared_in(rec: Record) -> Record:
    """Replace :class:`SharedObjectRef` tokens with the registered objects."""

    def resolve(value: Any) -> Any:
        if isinstance(value, SharedObjectRef):
            try:
                return _SHARED_OBJECTS[value.key]
            except KeyError:
                raise SharedPayloadMissing(
                    f"shared payload key {value.key} missing in this process; "
                    "the zero-copy data plane requires the 'fork' start method"
                ) from None
        return value

    return rec.map_field_values(resolve)


def dumps_records(records: Sequence[Record]) -> Tuple[bytes, List[bytes], int]:
    """Serialize records with protocol 5, buffers out-of-band.

    Returns ``(payload, buffers, nbytes)`` where ``nbytes`` is the total
    serialized size (payload plus all out-of-band buffers) — the quantity
    the data-plane instrumentation accumulates.
    """
    buffers: List[bytes] = []
    payload = pickle.dumps(
        list(records),
        protocol=5,
        buffer_callback=lambda buf: buffers.append(buf.raw().tobytes()),
    )
    nbytes = len(payload) + sum(len(b) for b in buffers)
    return payload, buffers, nbytes


def loads_records(payload: bytes, buffers: Sequence[bytes]) -> List[Record]:
    """Inverse of :func:`dumps_records`."""
    return pickle.loads(payload, buffers=buffers)


# -- broadcast registration ---------------------------------------------------
def estimate_nbytes(value: Any) -> Optional[int]:
    """Best-effort serialized-size estimate of a field value."""
    nbytes = getattr(value, "nbytes", None)
    if nbytes is not None:
        return int(nbytes)
    payload_size = getattr(value, "payload_size", None)
    if callable(payload_size):
        return int(payload_size())
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    return None


def broadcast_worthy(value: Any, min_bytes: int = BROADCAST_MIN_BYTES) -> bool:
    """Whether a field value should ride the fork-shared broadcast registry."""
    if value is None or isinstance(
        value, (bool, int, float, complex, str, bytes, bytearray)
    ):
        return False
    estimate = estimate_nbytes(value)
    # size unknown -> broadcast anyway: registration costs one dict slot
    # and boxes are pure by the S-Net contract, so sharing is safe
    return estimate is None or estimate >= min_bytes


def register_shared_value(
    value: Any, registered: List[int], min_bytes: int = BROADCAST_MIN_BYTES
) -> None:
    """Broadcast one payload object; must run before workers fork.

    Values already registered (identity match) or not worth broadcasting
    are skipped.  The key of a new registration is appended to
    ``registered`` — the caller's undo list for :func:`unregister_shared`.
    """
    if id(value) in _SHARED_BY_ID or not broadcast_worthy(value, min_bytes):
        return
    prepare = getattr(value, "prepare_for_broadcast", None)
    if callable(prepare):
        prepare()
    key = next(_shared_keys)
    _SHARED_OBJECTS[key] = value
    _SHARED_BY_ID[id(value)] = key
    registered.append(key)


def unregister_shared(registered: List[int]) -> None:
    """Undo the registrations recorded in ``registered`` (and clear it)."""
    for key in registered:
        value = _SHARED_OBJECTS.pop(key, None)
        if value is not None:
            _SHARED_BY_ID.pop(id(value), None)
    registered.clear()
