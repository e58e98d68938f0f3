"""A keyed pool of warm render runtimes: LRU + TTL eviction, eager teardown.

:class:`WarmPoolManager` generalises the render service's original
single-slot-per-scene cache into the shape of SNIPPETS.md Snippet 3
(ModelOps): a bounded pool of *warm slots* behind the existing
``Transport``/``RenderBackend`` port seams, keyed by whatever identifies a
reusable runtime — the service keys by
``(runtime backend, scene content hash, farm variant)``.

Each slot owns the expensive parts of one render pipeline (prepared scene,
render backend with its shared frame segment, built network, a runtime whose
``setup()`` already forked its pool / node workers).  The pool's job is the
*lifecycle*:

* ``acquire(key, build)`` returns the warm slot for ``key`` (building it
  cold via ``build()`` on a miss) and leases it to the caller;
* ``release(slot)`` returns the lease and stamps the idle clock;
* **LRU** — inserting beyond ``capacity`` evicts the least-recently-used
  *idle* slot immediately;
* **TTL** — slots idle longer than ``ttl`` seconds are evicted by a
  background sweeper (or an explicit :meth:`sweep`);
* **eager teardown** — an evicted slot's runtime is torn down and its
  backend released *at eviction time*, not at :meth:`close`:
  ``/dev/shm`` frame segments and forked workers are freed the moment the
  pool stops caring about the slot (``tests/apps/test_warm_pool.py`` pins
  this with a leak guard mirroring ``test_shared_memory_plane.py``).

Slots that are currently leased (``busy``) are never evicted; they become
eviction candidates again on release.  The pool is thread-safe: the service
scheduler leases slots while the sweeper evicts idle ones concurrently.

>>> pool = WarmPoolManager(capacity=2)
>>> class Probe:
...     def __init__(self): self.down = False
...     def teardown(self): self.down = True
>>> def build():
...     return {"runtime": Probe(), "backend": None}
>>> slot, warm = pool.acquire("a", build)
>>> warm, pool.stats()["cold_builds"]
(False, 1)
>>> pool.release(slot)
>>> pool.acquire("a", build)[1]  # second acquire: warm
True
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Hashable, List, Mapping, Optional, Tuple

__all__ = ["WarmPoolManager", "WarmSlot"]


@dataclass
class WarmSlot:
    """One warm runtime leased out by the pool.

    ``parts`` holds whatever the build callable returned; the conventional
    keys (``scene``, ``backend``, ``network``, ``runtime``,
    ``setup_seconds``) are exposed as attributes for convenience.
    """

    key: Hashable
    parts: Mapping[str, Any] = field(repr=False)
    setup_seconds: float = 0.0
    jobs_served: int = 0
    #: watermark of the runtime's cumulative ``recoveries`` counter after
    #: the last served job, so node deaths handled *between* jobs (the
    #: warm revive path runs on a link receiver thread) are still
    #: attributed to the next job instead of slipping between two deltas
    recoveries_seen: int = 0
    last_used: float = 0.0
    busy: bool = False

    def __getattr__(self, name: str) -> Any:
        try:
            return self.parts[name]
        except KeyError:
            raise AttributeError(
                f"{type(self).__name__} has no attribute {name!r}"
            ) from None


class WarmPoolManager:
    """Bounded keyed pool of warm slots with LRU + TTL eviction.

    Parameters
    ----------
    capacity:
        Maximum number of warm slots kept alive.  Inserting a cold-built
        slot beyond this evicts (and eagerly tears down) the
        least-recently-used idle slot.
    ttl:
        Idle seconds after which a slot is evicted.  ``None`` disables
        time-based eviction (LRU only).
    clock:
        Monotonic time source — injectable so the TTL rules are testable
        without sleeping.
    sweep_interval:
        Period of the background TTL sweeper; defaults to ``ttl / 4``
        (bounded to [0.05, 1.0] seconds).  Only started when ``ttl`` is set
        and ``clock`` is the real one; a test driving a fake clock calls
        :meth:`sweep` explicitly.
    """

    def __init__(
        self,
        capacity: int = 4,
        *,
        ttl: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
        sweep_interval: Optional[float] = None,
    ):
        if capacity < 1:
            raise ValueError("warm pool capacity must be at least 1")
        if ttl is not None and ttl <= 0:
            raise ValueError("ttl must be positive (or None to disable)")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock
        self._slots: "OrderedDict[Hashable, WarmSlot]" = OrderedDict()
        self._lock = threading.Condition()
        self._closed = False
        self._warm_hits = 0
        self._cold_builds = 0
        self._evictions_lru = 0
        self._evictions_ttl = 0
        self._discards_stale = 0
        self._setup_seconds_total = 0.0
        self._setup_seconds_saved = 0.0
        self._sweeper: Optional[threading.Thread] = None
        if ttl is not None and clock is time.monotonic:
            interval = sweep_interval
            if interval is None:
                interval = min(1.0, max(0.05, ttl / 4.0))
            self._sweep_interval = interval
            self._sweeper = threading.Thread(
                target=self._sweep_loop, name="warm-pool-sweeper", daemon=True
            )
            self._sweeper.start()

    # -- leasing --------------------------------------------------------------
    def acquire(
        self, key: Hashable, build: Callable[[], Mapping[str, Any]]
    ) -> Tuple[WarmSlot, bool]:
        """Lease the warm slot for ``key``; cold-build it via ``build()`` on a miss.

        Returns ``(slot, warm)`` — ``warm`` is ``True`` when the slot already
        existed.  The lease blocks eviction until :meth:`release`.  Acquiring
        a key whose slot is already leased raises ``RuntimeError`` — the pool
        serves single-dispatcher schedulers (one job executes at a time), not
        concurrent executions of the same key.
        """
        with self._lock:
            if self._closed:
                raise RuntimeError("acquire on a closed WarmPoolManager")
            slot = self._slots.get(key)
            if slot is not None:
                if slot.busy:
                    raise RuntimeError(
                        f"warm slot {key!r} is already leased; the pool serves "
                        "one execution per key at a time"
                    )
                slot.busy = True
                self._slots.move_to_end(key)
                self._warm_hits += 1
                self._setup_seconds_saved += slot.setup_seconds
                return slot, True
        # cold build outside the lock: forking pools / rendering-scale BVH
        # builds must not block the TTL sweeper or other keys' acquires
        parts = dict(build())
        with self._lock:
            slot = WarmSlot(
                key=key,
                parts=parts,
                setup_seconds=float(parts.get("setup_seconds", 0.0)),
                last_used=self._clock(),
                busy=True,
            )
            self._cold_builds += 1
            self._setup_seconds_total += slot.setup_seconds
            self._slots[key] = slot
            evicted = self._trim_locked()
        for victim in evicted:
            self._teardown(victim)
        return slot, False

    def release(self, slot: WarmSlot) -> None:
        """Return a lease: the slot becomes idle (and evictable) now."""
        evicted: List[WarmSlot] = []
        with self._lock:
            slot.busy = False
            slot.last_used = self._clock()
            if self._closed or slot.key not in self._slots:
                # the pool stopped caring while the slot was leased
                evicted.append(self._slots.pop(slot.key, None) or slot)
            self._lock.notify_all()
        for victim in evicted:
            self._teardown(victim)

    # -- eviction -------------------------------------------------------------
    def sweep(self, now: Optional[float] = None) -> int:
        """Evict every idle slot older than ``ttl``; returns how many."""
        if self.ttl is None:
            return 0
        if now is None:
            now = self._clock()
        victims: List[WarmSlot] = []
        with self._lock:
            for key, slot in list(self._slots.items()):
                if not slot.busy and now - slot.last_used > self.ttl:
                    victims.append(self._slots.pop(key))
                    self._evictions_ttl += 1
        for slot in victims:
            self._teardown(slot)
        return len(victims)

    def discard(self, key: Hashable) -> bool:
        """Evict ``key`` now (idle slots only); returns whether it existed.

        For slots the caller found stale — a runtime that can no longer
        serve its key, such as fork workers the scene journal cannot catch
        up — counted as ``discards_stale`` in :meth:`stats`.
        """
        with self._lock:
            slot = self._slots.get(key)
            if slot is None or slot.busy:
                return False
            del self._slots[key]
            self._discards_stale += 1
        self._teardown(slot)
        return True

    def adopt(
        self, new_key: Hashable, match: Callable[[WarmSlot], bool]
    ) -> Optional[WarmSlot]:
        """Re-key the first idle slot satisfying ``match`` to ``new_key``.

        In-place scene edits change the scene's content key, which would
        orphan the warm slot built for the pre-edit key even though its
        runtime *is* the right one (the live scene object inside it was
        edited).  ``adopt`` lets the caller migrate such a slot to the
        post-edit key instead of cold-building a duplicate.  No-op (returns
        the existing slot) when ``new_key`` is already present; returns
        ``None`` when no idle slot matches.
        """
        with self._lock:
            if self._closed:
                return None
            existing = self._slots.get(new_key)
            if existing is not None:
                return existing
            for key, slot in list(self._slots.items()):
                if slot.busy or not match(slot):
                    continue
                del self._slots[key]
                slot.key = new_key
                self._slots[new_key] = slot
                return slot
        return None

    def _trim_locked(self) -> List[WarmSlot]:
        """Pop LRU-excess idle slots (caller holds the lock, tears down after)."""
        victims: List[WarmSlot] = []
        idle = [k for k, s in self._slots.items() if not s.busy]
        while len(self._slots) > self.capacity and idle:
            key = idle.pop(0)
            victims.append(self._slots.pop(key))
            self._evictions_lru += 1
        return victims

    @staticmethod
    def _teardown(slot: WarmSlot) -> None:
        """Eagerly release everything the slot owns.

        The runtime goes first (terminate forked workers / node processes),
        the backend last (unlink the shared frame segment) — and the backend
        is released even when the runtime teardown raises, so a misbehaving
        pool can never leak ``/dev/shm`` segments.
        """
        runtime = slot.parts.get("runtime")
        backend = slot.parts.get("backend")
        try:
            teardown = getattr(runtime, "teardown", None)
            if callable(teardown):
                teardown()
        finally:
            release = getattr(backend, "release", None)
            if callable(release):
                release()

    def _sweep_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed:
                    return
                self._lock.wait(self._sweep_interval)
                if self._closed:
                    return
            try:
                self.sweep()
            except Exception:  # pragma: no cover - sweeper must never die
                pass

    # -- lifecycle / introspection --------------------------------------------
    def close(self) -> None:
        """Tear down every idle slot and stop the sweeper.  Idempotent.

        Slots still leased at close are torn down by their :meth:`release`.
        """
        with self._lock:
            self._closed = True
            victims = [
                self._slots.pop(key)
                for key, slot in list(self._slots.items())
                if not slot.busy
            ]
            self._lock.notify_all()
        for slot in victims:
            self._teardown(slot)
        if self._sweeper is not None and self._sweeper is not threading.current_thread():
            self._sweeper.join(timeout=5.0)

    def __len__(self) -> int:
        with self._lock:
            return len(self._slots)

    def slots(self) -> "OrderedDict[Hashable, WarmSlot]":
        """A consistent snapshot of the key -> slot mapping (LRU order)."""
        with self._lock:
            return OrderedDict(self._slots)

    def stats(self) -> Dict[str, Any]:
        """A consistent snapshot of the pool counters (JSON-friendly)."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "ttl": self.ttl,
                "slots": len(self._slots),
                "busy": sum(1 for s in self._slots.values() if s.busy),
                "warm_hits": self._warm_hits,
                "cold_builds": self._cold_builds,
                "evictions_lru": self._evictions_lru,
                "evictions_ttl": self._evictions_ttl,
                "discards_stale": self._discards_stale,
                "setup_seconds_total": self._setup_seconds_total,
                "setup_seconds_saved": self._setup_seconds_saved,
            }
