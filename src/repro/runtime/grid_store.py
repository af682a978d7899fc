"""Zero-copy cross-process store of realised outcome grids.

A sweep's dominant redundant cost is grid realisation: every pool
worker privately rebuilds and caches the (configuration × input)
outcome grids its cells need, so a plan whose cells share timings pays
O(workers) realisations per grid plus O(workers) copies of every
grid's arrays.  This module removes both: the **first** worker to need
a grid realises it once and publishes its arrays into a
``multiprocessing.shared_memory`` segment; every other worker (and the
driver) attaches read-only zero-copy views instead of realising or
copying anything.

Publishing is zero-copy end to end when the caller knows the grid's
dimensions up front: the segment is sized and created *before*
realisation (:func:`~repro.models.inference.shared_grid_layout`) and
the batch evaluation writes its output planes directly into it
(:func:`~repro.models.inference.buffer_grid_allocator`), so no private
grid is ever built and then copied.  Layout and adoption live in
:mod:`repro.models.inference`
(:func:`~repro.models.inference.shared_grid_payload` /
:func:`~repro.models.inference.adopt_shared_grid`); this module owns
the cross-process choreography:

* a :class:`SharedGridStore` is created by the driver and owns segment
  lifetime — close/:keyword:`with` unlinks every published segment
  (worker processes never unlink).  The store makes the process tree's
  *shared* resource tracker exist before any worker can fork, so every
  create/attach registration lands in that one tracker's set — where
  duplicates collapse — and the single ``unlink()`` at close retires
  the segment's registration exactly once.  (Per-process compensating
  ``unregister`` calls would race: two processes' balanced pairs
  interleave through one set and the second unregister throws.)
  A crashed driver leaves cleanup to that tracker's exit sweep;
* the cross-process entry map is itself a shared-memory segment — a
  pickled dict guarded by a ``multiprocessing`` lock
  (:class:`_ShmDict`), not a ``Manager`` dict.  A manager proxies
  every operation through a separate server process, so each lookup
  costs a scheduler round-trip (~hundreds of microseconds, and a whole
  timeslice when cores are scarce); the registry keeps lookups
  in-process at lock-acquire cost, which is what lets the store win
  even on a single-core host;
* its :class:`GridStoreClient` crosses the pool boundary (by fork
  inheritance or as a process argument) and exposes one operation,
  :meth:`GridStoreClient.get_or_realize`: look the grid up, else claim
  it (a *pending* marker under the store lock), realise, publish;
  losers of the claim race poll-wait for the marker to turn *ready*
  and attach.  The marker names the segment as soon as the publisher
  has one, so a publisher killed mid-realise leaves nothing that
  :meth:`SharedGridStore.close` does not unlink.  Every failure mode —
  a full ``/dev/shm``, a vanished segment, a full registry, a
  publisher that died mid-realise (timeout), a lock its dead holder
  never released — degrades to realising locally without publishing,
  so the store is always an optimisation, never a correctness
  dependency.

Attached grids are plain :class:`~repro.models.inference.BatchOutcomeGrid`
objects whose arrays are explicitly read-only (``writeable=False``): a
stray in-place mutation in one worker raises instead of silently
corrupting every sibling's view of the segment.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import struct
import time
from contextlib import contextmanager
from multiprocessing import resource_tracker, shared_memory

from repro.models.inference import (
    adopt_shared_grid,
    buffer_grid_allocator,
    shared_grid_layout,
    shared_grid_payload,
    write_shared_grid,
)

__all__ = ["SharedGridStore", "GridStoreClient"]

#: Entry states in the store's shared map.
_PENDING = "pending"
_READY = "ready"
_FAILED = "failed"

#: How long an attacher waits on a *pending* grid before giving up and
#: realising locally (a realisation takes milliseconds; this bound only
#: matters when the publishing worker died mid-realise).
_WAIT_TIMEOUT_S = 60.0
#: Poll interval while waiting on a pending entry; sleeping yields the
#: core to the realising worker, so waiting is cheap even single-core.
_POLL_INTERVAL_S = 0.002

#: Fixed size of the registry segment.  Pages are allocated on first
#: touch, so the virtual reservation costs nothing; entries are a few
#: kilobytes each (digest key + field table), so this holds thousands
#: of distinct grids — far beyond any one sweep's timing count.
_REGISTRY_CAPACITY = 16 * 1024 * 1024

#: Reserved registry key holding the free-segment pool
#: (``{nbytes: [segment names]}``).  Grid keys are hex digests, so a
#: NUL-prefixed name can never collide with one.
_POOL_KEY = "\x00segment-pool"

#: Page granularity used when prefaulting pooled segments.
_PAGE_SIZE = 4096

#: Bound on waiting for the store lock.  A live holder keeps it for
#: microseconds; only a process killed mid-operation keeps it forever,
#: and then callers fail over (workers realise locally, the driver's
#: close skips the registry) instead of hanging.
_LOCK_TIMEOUT_S = 10.0


@contextmanager
def _holding(lock):
    """Hold ``lock``, raising TimeoutError after :data:`_LOCK_TIMEOUT_S`."""
    if not lock.acquire(timeout=_LOCK_TIMEOUT_S):
        raise TimeoutError("grid store lock not released (holder died?)")
    try:
        yield
    finally:
        lock.release()


def _digest(key) -> str:
    """Collapse an arbitrary store key into a short string.

    Store keys carry a structural space fingerprint — one row per
    candidate configuration, kilobytes once pickled — and every
    registry operation re-pickles the whole entry map.  Keys built from
    plain scalars (strings, ints, floats, None, tuples and dataclasses
    of them) have deterministic ``repr`` across processes, so the
    digest identifies the same grid everywhere at a fraction of the
    payload cost.
    """
    return hashlib.sha256(repr(key).encode("utf-8")).hexdigest()


class _ShmDict:
    """A pickled dict inside a fixed shared-memory segment.

    The drop-in replacement for a ``Manager().dict()``: every operation
    acquires the store lock, unpickles the payload, and (for writes)
    re-pickles it.  That is microseconds of in-process work for the
    small entry maps a sweep builds, where every manager-proxy
    operation costs a round-trip through the manager *process* — a
    scheduler timeslice each when cores are scarce.  The lock is
    re-entrant so callers can compose operations (claim-if-absent)
    under one critical section.
    """

    def __init__(self, name: str, lock) -> None:
        self._name = name
        self._lock = lock
        self._shm = None

    @classmethod
    def create(cls, lock, capacity: int = _REGISTRY_CAPACITY) -> "_ShmDict":
        shm = shared_memory.SharedMemory(create=True, size=capacity)
        registry = cls(shm.name, lock)
        registry._shm = shm
        registry._write({})
        return registry

    # -- segment plumbing ----------------------------------------------
    def _segment(self) -> shared_memory.SharedMemory:
        if self._shm is None:
            # The attach registration collapses into the shared
            # tracker's set alongside the creator's.
            self._shm = shared_memory.SharedMemory(name=self._name)
        return self._shm

    def _read(self) -> dict:
        buf = self._segment().buf
        (length,) = struct.unpack_from("<Q", buf, 0)
        if length == 0:
            return {}
        return pickle.loads(bytes(buf[8:8 + length]))

    def _write(self, entries: dict) -> None:
        payload = pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL)
        buf = self._segment().buf
        if 8 + len(payload) > len(buf):
            raise ValueError(
                f"grid registry full: {len(payload)} bytes of entries "
                f"exceed the {len(buf)}-byte segment"
            )
        buf[8:8 + len(payload)] = payload
        struct.pack_into("<Q", buf, 0, len(payload))

    # -- the dict surface the client uses ------------------------------
    def get(self, key, default=None):
        with _holding(self._lock):
            return self._read().get(key, default)

    def __setitem__(self, key, value) -> None:
        with _holding(self._lock):
            entries = self._read()
            entries[key] = value
            self._write(entries)

    def values(self) -> list:
        with _holding(self._lock):
            return list(self._read().values())

    def items(self) -> list:
        with _holding(self._lock):
            return list(self._read().items())

    def clear(self) -> None:
        with _holding(self._lock):
            self._write({})

    def unlink(self) -> None:
        """Retire the registry segment (driver close only)."""
        shm = self._segment()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass
        shm.close()
        self._shm = None

    # The mapped segment does not survive pickling; workers re-attach
    # by name on first use.  The lock pickles by process inheritance
    # (fork, or multiprocessing's own pickler for process arguments),
    # which is exactly how the client crosses the pool boundary.
    def __getstate__(self) -> dict:
        return {"name": self._name, "lock": self._lock}

    def __setstate__(self, state: dict) -> None:
        self._name = state["name"]
        self._lock = state["lock"]
        self._shm = None


class GridStoreClient:
    """Worker-side handle onto one :class:`SharedGridStore`.

    Holds only the registry (a segment name plus the store lock), so it
    crosses the pool boundary like any multiprocessing primitive — by
    fork inheritance or as a process argument — and every copy talks to
    the same store.
    """

    def __init__(self, entries, lock) -> None:
        self._entries = entries
        self._lock = lock

    # ------------------------------------------------------------------
    # The one worker-facing operation
    # ------------------------------------------------------------------
    def get_or_realize(self, key, configs, realize, n_inputs=None):
        """The grid for ``key``: attached shared, else realised.

        ``configs`` is the configuration tuple the adopted grid's rows
        align with (the caller's memoised candidate space — row order
        is the deterministic space enumeration, identical in every
        process); ``realize`` is a callable producing the grid locally.
        Exactly one caller per key realises and publishes; everyone
        else attaches.  When ``n_inputs`` is given and ``realize``
        accepts an ``allocator`` keyword, the winner sizes the segment
        up front (:func:`~repro.models.inference.shared_grid_layout`)
        and realises *into* it, skipping the realise-then-copy pass;
        otherwise the grid is realised privately and copied in.  Any
        store failure falls back to ``realize()`` without publishing.
        """
        key = _digest(key)
        try:
            entry = self._entries.get(key)
        except Exception:
            return realize()
        if entry is None:
            claimed = False
            try:
                with _holding(self._lock):
                    if self._entries.get(key) is None:
                        self._entries[key] = (_PENDING, None, None)
                        claimed = True
            except Exception:
                return realize()
            if claimed:
                if n_inputs is not None:
                    return self._publish_into(key, configs, realize, n_inputs)
                grid = realize()
                shared = self._publish(key, grid, configs)
                return shared if shared is not None else grid
            entry = self._entries.get(key)
        attached = self._wait_attach(key, configs, entry)
        return attached if attached is not None else realize()

    # ------------------------------------------------------------------
    # Publisher side
    # ------------------------------------------------------------------
    def _set_entry(self, key, value) -> bool:
        """Best-effort registry write (False when the registry is gone)."""
        try:
            self._entries[key] = value
            return True
        except Exception:
            return False

    def _pop_pool(self, nbytes):
        """Claim a preallocated segment name of exactly ``nbytes``."""
        try:
            with _holding(self._lock):
                pool = self._entries.get(_POOL_KEY)
                names = (pool or {}).get(nbytes)
                if not names:
                    return None
                name = names.pop()
                self._entries[_POOL_KEY] = pool
                return name
        except Exception:
            return None

    def _segment_for(self, nbytes):
        """A segment of ``nbytes``: pooled (already prefaulted) else fresh.

        Popping a :meth:`SharedGridStore.preallocate`-d segment skips
        both the create syscalls and — because the driver touched every
        page at setup — the first-touch page allocation the kernel
        would otherwise charge to the realisation writes, the dominant
        per-grid publish overhead.
        """
        name = self._pop_pool(nbytes)
        if name is not None:
            try:
                return shared_memory.SharedMemory(name=name)
            except (FileNotFoundError, OSError):
                pass
        return shared_memory.SharedMemory(create=True, size=max(1, nbytes))

    def _publish_into(self, key, configs, realize, n_inputs):
        """Realise a grid directly inside a fresh shared segment.

        The field layout is a static function of the grid's dimensions,
        so the segment is created *before* realisation and the batch
        evaluation writes its output planes straight into it via a
        :func:`~repro.models.inference.buffer_grid_allocator` — no
        private realisation, no 30-megabyte copy.  Returns the adopted
        (read-only) grid; any failure marks the entry *failed*,
        retires the segment, and realises locally instead.
        """
        try:
            fields, nbytes = shared_grid_layout(len(configs), n_inputs)
            shm = self._segment_for(nbytes)
        except Exception:
            self._set_entry(key, (_FAILED, None, None))
            return realize()
        self._set_entry(key, (_PENDING, shm.name, None))
        try:
            allocator = buffer_grid_allocator(fields, shm.buf)
            grid = realize(allocator=allocator)
            meta = {
                "deadline_s": grid.deadline_s,
                "period_s": grid.period_s,
                "n_configs": len(configs),
                "n_inputs": n_inputs,
                "fields": fields,
                "nbytes": nbytes,
            }
            adopted = adopt_shared_grid(tuple(configs), meta, shm.buf, owner=shm)
        except Exception:
            self._set_entry(key, (_FAILED, None, None))
            try:
                shm.unlink()  # unlink() also drops the tracker claim
            except FileNotFoundError:  # pragma: no cover
                pass
            shm.close()
            return realize()
        # Publish *after* realisation completes: a reader only sees
        # "ready" once the segment is fully written (the registry lock
        # orders the two).  The create-registration stays — the
        # driver's close() retires it (see the module docstring).
        if not self._set_entry(key, (_READY, shm.name, meta)):
            # Registry gone mid-publish: retire the name now (close()
            # will never see the entry); the adopted mapping stays
            # valid for this process.
            try:
                shm.unlink()
            except Exception:  # pragma: no cover
                pass
        return adopted

    def _publish(self, key, grid, configs):
        """Copy a freshly realised grid into a new shared segment.

        Returns the adopted (read-only, zero-copy) grid over the
        segment — the publisher serves from the shared arrays too — or
        None when the segment cannot be created (the entry turns
        *failed* so waiters stop polling and realise locally).
        """
        try:
            meta, arrays = shared_grid_payload(grid)
            shm = self._segment_for(meta["nbytes"])
        except Exception:
            self._set_entry(key, (_FAILED, None, None))
            return None
        self._set_entry(key, (_PENDING, shm.name, None))
        try:
            write_shared_grid(meta, arrays, shm.buf)
            adopted = adopt_shared_grid(
                tuple(configs), meta, shm.buf, owner=shm
            )
        except Exception:
            self._set_entry(key, (_FAILED, None, None))
            try:
                shm.unlink()  # unlink() also drops the tracker claim
            except FileNotFoundError:  # pragma: no cover
                pass
            shm.close()
            return None
        # Publish *after* the copy: a reader only sees "ready" once the
        # segment is fully written (the registry lock orders the two).
        # The create-registration stays: it lands in the process tree's
        # shared tracker set, where the driver's close() retires it
        # with the one unlink (see the module docstring).
        if not self._set_entry(key, (_READY, shm.name, meta)):
            try:
                shm.unlink()
            except Exception:  # pragma: no cover
                pass
        return adopted

    # ------------------------------------------------------------------
    # Attacher side
    # ------------------------------------------------------------------
    def _attach(self, name, meta, configs):
        try:
            # The attach-registration collapses into the shared
            # tracker's set alongside the creator's (see module
            # docstring) — no compensating unregister.
            shm = shared_memory.SharedMemory(name=name)
        except (FileNotFoundError, OSError):
            return None
        try:
            return adopt_shared_grid(tuple(configs), meta, shm.buf, owner=shm)
        except Exception:
            shm.close()
            return None

    def _wait_attach(self, key, configs, entry):
        deadline = time.monotonic() + _WAIT_TIMEOUT_S
        while True:
            if entry is None:
                return None
            state, name, meta = entry
            if state == _READY:
                return self._attach(name, meta, configs)
            if state == _FAILED:
                return None
            if time.monotonic() >= deadline:
                return None
            time.sleep(_POLL_INTERVAL_S)
            try:
                entry = self._entries.get(key)
            except Exception:
                return None

    # ------------------------------------------------------------------
    # Introspection (benches and tests)
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Published-segment counters: grids, shared bytes, failures."""
        grids = 0
        nbytes = 0
        failed = 0
        pending = 0
        pooled = 0
        for key, value in self._entries.items():
            if key == _POOL_KEY:
                pooled = sum(len(names) for names in value.values())
                continue
            state, _name, meta = value
            if state == _READY:
                grids += 1
                nbytes += meta["nbytes"]
            elif state == _FAILED:
                failed += 1
            else:
                pending += 1
        return {
            "grids": grids,
            "nbytes": nbytes,
            "failed": failed,
            "pending": pending,
            "pooled": pooled,
        }


class SharedGridStore:
    """Driver-side owner of a sweep's shared grid segments.

    Create one per sweep (or bench A/B arm), hand :meth:`client` to the
    executor/pool, and :meth:`close` — or use it as a context manager —
    when the sweep is done.  Close unlinks every published segment;
    grids already adopted by live objects stay readable (their mappings
    pin the memory) but no new attach can see them.
    """

    def __init__(self) -> None:
        # The whole process tree must share ONE resource tracker (the
        # register/unregister discipline in the module docstring relies
        # on a single shared set), so make it exist before any pool can
        # fork.
        resource_tracker.ensure_running()
        # Re-entrant: the claim path composes get + set under one
        # critical section while each _ShmDict operation also locks.
        self._lock = multiprocessing.RLock()
        self._entries = _ShmDict.create(self._lock)
        self._client = GridStoreClient(self._entries, self._lock)
        self._pool_names: list[str] = []
        self._closed = False

    def preallocate(self, nbytes: int, count: int) -> None:
        """Create ``count`` prefaulted segments of ``nbytes`` for publishers.

        Per-grid publish overhead is dominated not by the store's
        bookkeeping but by the kernel: segment creation syscalls plus
        first-touch page allocation of tens of megabytes, charged to
        the realisation writes.  A sweep knows its grid dimensions up
        front (:func:`~repro.models.inference.shared_grid_layout` sizes
        a segment from ``(n_configs, n_inputs)`` alone), so the driver
        can pay that cost once at startup: publishers pop a ready,
        already-faulted segment instead of creating one per grid in
        steady state.  Call before forking workers; unused segments are
        unlinked by :meth:`close`.
        """
        names = []
        for _ in range(count):
            shm = shared_memory.SharedMemory(create=True, size=max(1, nbytes))
            buf = shm.buf
            for offset in range(0, len(buf), _PAGE_SIZE):
                buf[offset] = 0
            names.append(shm.name)
            shm.close()
        with _holding(self._lock):
            pool = self._entries.get(_POOL_KEY) or {}
            pool.setdefault(nbytes, []).extend(names)
            self._entries[_POOL_KEY] = pool
        self._pool_names.extend(names)

    def client(self) -> GridStoreClient:
        """The handle pool workers use (fork/process-argument safe)."""
        return self._client

    def stats(self) -> dict:
        """Published-segment counters (see :meth:`GridStoreClient.stats`)."""
        return self._client.stats()

    def close(self) -> None:
        """Unlink every store-created segment, then the registry itself."""
        if self._closed:
            return
        self._closed = True
        try:
            entries = [
                value
                for key, value in self._entries.items()
                if key != _POOL_KEY
            ]
            self._entries.clear()
        except Exception:  # registry gone, or its lock held by a dead process
            entries = []
        for _state, name, _meta in entries:
            # READY entries name their segment, and so do PENDING ones
            # once the publisher has one: a publisher killed
            # mid-realise leaves its segment to this unlink.
            if name is None:
                continue
            try:
                shm = shared_memory.SharedMemory(name=name)
            except (FileNotFoundError, OSError):
                continue
            # The one unregister of the segment's lifetime: unlink()
            # retires the single collapsed entry every create/attach
            # registration shares in the tracker's set.
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            shm.close()
        # Preallocated segments a publisher claimed were retired above
        # through their READY entries; the rest are retired here by
        # name (a claimed name just comes back FileNotFound).
        for name in self._pool_names:
            try:
                shm = shared_memory.SharedMemory(name=name)
            except (FileNotFoundError, OSError):
                continue
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
            shm.close()
        try:
            self._entries.unlink()
        except Exception:  # pragma: no cover - registry already gone
            pass

    def __enter__(self) -> "SharedGridStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass
