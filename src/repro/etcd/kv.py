"""The etcd key-value core: revisions, watches, leases.

:class:`EtcdStore` is a single-node model of the etcd v3 data model
subset that FfDL relies on (Section 3.2 of the paper): small values with
revisions, per-key and per-prefix *streaming watches*, and leases with
TTL.  It serves the operations FfDL issues (DESIGN.md "Store
operations"): get, put, delete, delete a prefix, watch, and grant, keep
alive and revoke a lease; ``range`` and ``keys`` are for inspection.
Replication is layered on separately (:mod:`repro.etcd.replicated`) via
Raft.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.errors import LeaseExpiredError, StoreError
from repro.sim.core import Environment, Event, Timeout
from repro.sim.race import note_read, note_write
from repro.sim.resources import Store as EventQueue

PUT = "PUT"
DELETE = "DELETE"


@dataclass
class KeyValue:
    """One stored key-value pair with etcd-style revision bookkeeping."""

    key: str
    value: Any
    create_revision: int
    mod_revision: int
    version: int = 1
    lease_id: Optional[int] = None


@dataclass
class WatchEvent:
    """A change notification delivered to watchers."""

    type: str  # PUT or DELETE
    key: str
    value: Any
    revision: int
    prev_value: Any = None


class Lease:
    """A TTL lease; keys attached to it are deleted when it expires.

    One timer watches the deadline.  It wakes at the deadline it last
    read: a keepalive has moved it, and it sleeps the rest, or the lease
    expires.  While a keepalive chain runs as arithmetic for the lease
    (``keeper``, a ``core.helper.LeaseKeepalive``), the timer, finding
    the lease kept, is not re-armed; :meth:`release` arms it at the
    deadline the chain leaves (DESIGN.md, "A healthy lease is a
    deadline").
    """

    #: Profiler family of the expiry timer.
    name = "lease"

    def __init__(self, store: "EtcdStore", lease_id: int, ttl_s: float):
        self.store = store
        self.lease_id = lease_id
        self.ttl_s = ttl_s
        self._deadline = store.env.now + ttl_s
        self.keys: set = set()
        self.revoked = False
        self.keeper = None
        self._armed = False
        self._sleep(self._deadline - store.env.now)  # the process's first

    @property
    def deadline(self) -> float:
        self.store.env.settle()
        return self._deadline

    @deadline.setter
    def deadline(self, when: float) -> None:
        # A write, not an observation: only this lease's chain moves.
        if self.keeper is not None:
            self.keeper.settle(self.store.env.now)
        self._deadline = when

    def release(self) -> None:
        """The keeper's chain is events again: the timer watches."""
        self.keeper = None
        if not (self._armed or self.revoked):
            self._armed = True
            self.store.env.timeout_at(self._deadline).callbacks.append(
                self._wake)

    def _sleep(self, delay: float) -> None:
        self._armed = True
        Timeout(self.store.env, delay).callbacks.append(self._wake)

    def _wake(self, _timer: Event) -> None:
        self._armed = False
        if self.revoked or self.keeper is not None:
            return
        remaining = self._deadline - self.store.env.now
        if remaining > 0:
            self._sleep(remaining)
        else:
            self.store._expire(self)


class Watcher:
    """A streaming watch on a key or prefix.

    Events arrive in commit order on :attr:`queue`; consume them with
    ``event = yield watcher.get()``.  Watchers are usable as context
    managers, which is the recommended idiom for scoped watches::

        with store.watch_prefix("/jobs/") as watcher:
            event = yield watcher.get()

    :meth:`close` (or leaving the ``with`` block) deregisters the
    watcher from the store's fanout index, so abandoned watchers cost
    nothing — they are not merely skipped on every subsequent write.
    """

    def __init__(self, env: Environment, key: str, is_prefix: bool):
        self.key = key
        self.is_prefix = is_prefix
        self.queue = EventQueue(env)
        self.cancelled = False
        #: Registration order within the owning store; fanout delivers
        #: to matching watchers in this order regardless of how the
        #: index found them.
        self._seq = 0
        self._store: Optional["EtcdStore"] = None

    def matches(self, key: str) -> bool:
        if self.is_prefix:
            return key.startswith(self.key)
        return key == self.key

    def get(self):
        """Return a sim event firing with the next :class:`WatchEvent`."""
        return self.queue.get()

    def pending(self) -> int:
        return len(self.queue)

    def close(self) -> None:
        """Stop the stream and deregister from the store index."""
        self.cancelled = True
        store, self._store = self._store, None
        if store is not None:
            store._remove_watcher(self)

    def __enter__(self) -> "Watcher":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


class _PrefixTrieNode:
    """One character of the prefix-watch trie."""

    __slots__ = ("children", "watchers")

    def __init__(self) -> None:
        self.children: Dict[str, "_PrefixTrieNode"] = {}
        self.watchers: List[Watcher] = []


class EtcdStore:
    """Single-node etcd: the state machine replicated by Raft."""

    def __init__(self, env: Environment):
        self.env = env
        self._race_label = env.register_shared_store("etcd", self)
        self.revision = 0
        self._data: Dict[str, KeyValue] = {}
        #: Fanout index: exact-key watchers by key, prefix watchers in a
        #: character trie, so a change visits only the watchers it
        #: matches however many are open.
        self._exact_watch: Dict[str, List[Watcher]] = {}
        self._prefix_trie = _PrefixTrieNode()
        self._watch_seq = 0
        #: Fanout counters: ``notify_calls`` changes have delivered
        #: ``watcher_visits`` events between them.
        self.watcher_visits = 0
        self.notify_calls = 0
        self._leases: Dict[int, Lease] = {}
        self._next_lease_id = 1
        #: Optional hook invoked when a lease expires, before its keys are
        #: deleted.  The replicated store uses this to route expiry deletes
        #: through consensus.
        self.on_lease_expired: Optional[Callable[[Lease], None]] = None

    # -- reads -------------------------------------------------------------

    def get(self, key: str) -> Optional[KeyValue]:
        if self.env.race_detector is not None:
            note_read(self.env, self._race_label, key, "EtcdStore.get")
        return self._data.get(key)

    def range(self, prefix: str) -> List[KeyValue]:
        """All live keys with the given prefix, sorted by key."""
        found = [self._data[k] for k in sorted(self._data)
                 if k.startswith(prefix)]
        if self.env.race_detector is not None:
            for kv in found:
                note_read(self.env, self._race_label, kv.key,
                          "EtcdStore.range")
        return found

    def keys(self) -> List[str]:
        return sorted(self._data)

    def __len__(self) -> int:
        return len(self._data)

    # -- writes ------------------------------------------------------------

    def put(self, key: str, value: Any,
            lease_id: Optional[int] = None) -> KeyValue:
        if self.env.race_detector is not None:
            note_write(self.env, self._race_label, key, "EtcdStore.put")
        if lease_id is not None:
            lease = self._leases.get(lease_id)
            if lease is None or lease.revoked:
                raise LeaseExpiredError(f"lease {lease_id} not alive")
            lease.keys.add(key)
        self.revision += 1
        existing = self._data.get(key)
        if existing is None:
            kv = KeyValue(key, value, self.revision, self.revision, 1,
                          lease_id)
        else:
            kv = KeyValue(key, value, existing.create_revision,
                          self.revision, existing.version + 1,
                          lease_id if lease_id is not None
                          else existing.lease_id)
        prev = existing.value if existing else None
        self._data[key] = kv
        self._notify(WatchEvent(PUT, key, value, self.revision, prev))
        return kv

    def delete(self, key: str) -> int:
        """Delete one key; returns the number of keys removed (0 or 1)."""
        if self.env.race_detector is not None:
            note_write(self.env, self._race_label, key,
                       "EtcdStore.delete")
        existing = self._data.pop(key, None)
        if existing is None:
            return 0
        self.revision += 1
        if existing.lease_id is not None:
            lease = self._leases.get(existing.lease_id)
            if lease is not None:
                lease.keys.discard(key)
        self._notify(WatchEvent(DELETE, key, None, self.revision,
                                existing.value))
        return 1

    def delete_prefix(self, prefix: str) -> int:
        count = 0
        for key in [k for k in self._data if k.startswith(prefix)]:
            count += self.delete(key)
        return count

    # -- watches --------------------------------------------------------------

    def watch(self, key: str) -> Watcher:
        return self._add_watcher(Watcher(self.env, key, is_prefix=False))

    def watch_prefix(self, prefix: str) -> Watcher:
        return self._add_watcher(Watcher(self.env, prefix, is_prefix=True))

    def _add_watcher(self, watcher: Watcher) -> Watcher:
        self._watch_seq += 1
        watcher._seq = self._watch_seq
        watcher._store = self
        if watcher.is_prefix:
            node = self._prefix_trie
            for char in watcher.key:
                child = node.children.get(char)
                if child is None:
                    child = node.children[char] = _PrefixTrieNode()
                node = child
            node.watchers.append(watcher)
        else:
            self._exact_watch.setdefault(watcher.key, []).append(watcher)
        return watcher

    def _remove_watcher(self, watcher: Watcher) -> None:
        """Deregister one watcher from the fanout index.

        :meth:`Watcher.close` calls this at most once per watcher (it
        clears ``_store`` first), so the watcher is always registered.
        """
        if not watcher.is_prefix:
            bucket = self._exact_watch[watcher.key]
            bucket.remove(watcher)
            if not bucket:
                del self._exact_watch[watcher.key]
            return
        # Walk the trie to the prefix node, then prune empty branches.
        path = [self._prefix_trie]
        for char in watcher.key:
            path.append(path[-1].children[char])
        path[-1].watchers.remove(watcher)
        for depth in range(len(path) - 1, 0, -1):
            node = path[depth]
            if node.watchers or node.children:
                break
            del path[depth - 1].children[watcher.key[depth - 1]]

    def _matching_watchers(self, key: str) -> List[Watcher]:
        """Watchers whose key/prefix matches ``key``, in registration
        order."""
        matched = self._exact_watch.get(key, [])[:]
        node = self._prefix_trie
        matched.extend(node.watchers)  # watch_prefix("") sits at the root
        for char in key:
            node = node.children.get(char)
            if node is None:
                break
            matched.extend(node.watchers)
        matched.sort(key=lambda watcher: watcher._seq)
        return matched

    def _notify(self, event: WatchEvent) -> None:
        self.notify_calls += 1
        matched = self._matching_watchers(event.key)
        self.watcher_visits += len(matched)
        for watcher in matched:
            watcher.queue.put(event)

    # -- leases ----------------------------------------------------------------

    def grant_lease(self, ttl_s: float) -> Lease:
        """Grant a lease; its timer deletes its keys at the deadline."""
        if ttl_s <= 0:
            raise StoreError("lease ttl must be positive")
        lease = Lease(self, self._next_lease_id, ttl_s)
        self._next_lease_id += 1
        self._leases[lease.lease_id] = lease
        return lease

    def keepalive(self, lease_id: int) -> bool:
        """Extend a lease by its TTL; False if it is already gone."""
        lease = self._leases.get(lease_id)
        if lease is None or lease.revoked:
            return False
        if self.env.race_detector is not None:
            note_write(self.env, self._race_label, f"lease/{lease_id}",
                       "EtcdStore.keepalive")
        lease.deadline = self.env.now + lease.ttl_s
        return True

    def revoke(self, lease_id: int) -> bool:
        """Revoke a lease, deleting all attached keys."""
        lease = self._leases.pop(lease_id, None)
        if lease is None or lease.revoked:
            return False
        if self.env.race_detector is not None:
            note_write(self.env, self._race_label, f"lease/{lease_id}",
                       "EtcdStore.revoke")
        lease.revoked = True
        if lease.keeper is not None:
            # A keepalive in flight lands on the revoked lease.
            lease.keeper.fall_back()
        for key in list(lease.keys):
            self.delete(key)
        return True

    def lease_alive(self, lease_id: int) -> bool:
        lease = self._leases.get(lease_id)
        return lease is not None and not lease.revoked

    def _expire(self, lease: Lease) -> None:
        if self.on_lease_expired is not None:
            self.on_lease_expired(lease)
            if lease.revoked:
                return
        self.revoke(lease.lease_id)
