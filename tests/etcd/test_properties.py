"""Property-based tests for etcd store invariants."""


from hypothesis import given, settings, strategies as st

from repro.etcd import EtcdStore
from repro.sim import Environment

from tests.conftest import examples

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.sampled_from("abcde"),
                  st.integers(min_value=0, max_value=100)),
        st.tuples(st.just("delete"), st.sampled_from("abcde"),
                  st.just(0)),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=examples(60), deadline=None)
@given(ops=OPS)
def test_revision_strictly_increases_on_effective_writes(ops):
    store = EtcdStore(Environment())
    last_revision = 0
    for op, key, value in ops:
        before = store.revision
        if op == "put":
            store.put(key, value)
            assert store.revision == before + 1
        else:
            removed = store.delete(key)
            assert store.revision == before + (1 if removed else 0)
        assert store.revision >= last_revision
        last_revision = store.revision


@settings(max_examples=examples(60), deadline=None)
@given(ops=OPS)
def test_store_matches_dict_semantics(ops):
    store = EtcdStore(Environment())
    model = {}
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
            model[key] = value
        else:
            store.delete(key)
            model.pop(key, None)
    for key in "abcde":
        kv = store.get(key)
        if key in model:
            assert kv is not None and kv.value == model[key]
        else:
            assert kv is None
    assert store.keys() == sorted(model)


@settings(max_examples=examples(60), deadline=None)
@given(ops=OPS)
def test_version_counts_puts_since_creation(ops):
    store = EtcdStore(Environment())
    puts_since_create = {}
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
            puts_since_create[key] = puts_since_create.get(key, 0) + 1
        else:
            if store.delete(key):
                puts_since_create.pop(key, None)
    for key, count in puts_since_create.items():
        assert store.get(key).version == count


@settings(max_examples=examples(40), deadline=None)
@given(ops=OPS)
def test_watch_replays_every_effective_change(ops):
    store = EtcdStore(Environment())
    watcher = store.watch_prefix("")
    effective = 0
    for op, key, value in ops:
        if op == "put":
            store.put(key, value)
            effective += 1
        else:
            effective += store.delete(key)
    assert watcher.pending() == effective
    watcher.close()


@settings(max_examples=examples(40), deadline=None)
@given(ttls=st.lists(st.floats(min_value=1.0, max_value=50.0),
                     min_size=1, max_size=8))
def test_all_leased_keys_gone_after_all_ttls(ttls):
    env = Environment()
    store = EtcdStore(env)
    for i, ttl in enumerate(ttls):
        lease = store.grant_lease(ttl)
        store.put(f"k{i}", i, lease_id=lease.lease_id)
    env.run(until=max(ttls) + 1.0)
    assert len(store) == 0


# -- watch fanout index vs a brute-force scan ---------------------------------

#: Nested prefixes ("" < "a" < "ab" < "abc"), siblings, and keys several
#: watchers share, so the trie's prune walk meets every shape of branch.
WATCH_KEYS = ["", "a", "ab", "abc", "b", "ba"]
DATA_KEYS = ["a", "ab", "abc", "abd", "b", "ba", "c"]

WATCH_OPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(["watch", "watch_prefix"]),
                  st.sampled_from(WATCH_KEYS)),
        st.tuples(st.just("close"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.sampled_from(["put", "delete"]),
                  st.sampled_from(DATA_KEYS)),
        # ``with store.watch*(key)``: a change, an optional close inside
        # the block (the exit then closes a second time), a change.
        st.tuples(st.just("scoped"),
                  st.sampled_from(["watch", "watch_prefix"]),
                  st.sampled_from(WATCH_KEYS), st.booleans(),
                  st.sampled_from(DATA_KEYS)),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=examples(150), deadline=None)
@given(ops=WATCH_OPS)
def test_watch_fanout_equals_a_brute_force_scan(ops):
    """Every watcher receives exactly the effective changes that
    ``Watcher.matches`` selects while it is open, a change reaches its
    watchers in registration order, and closing everything leaves the
    index empty."""
    env = Environment()
    store = EtcdStore(env)
    taps = []        # per watcher, in registration order
    delivered = []   # (revision, tap index) in delivery order
    changes = 0

    def consume(index, tap):
        while True:
            event = yield tap["watcher"].get()
            tap["received"].append((event.type, event.key, event.revision))
            delivered.append((event.revision, index))

    def open_watcher(method, key):
        tap = {"watcher": getattr(store, method)(key), "open": True,
               "received": [], "expected": []}
        env.process(consume(len(taps), tap))
        taps.append(tap)
        env.run()  # park the consumer on get() before the next change
        return tap

    def close(tap):
        tap["open"] = False
        tap["watcher"].close()  # a second close must be a no-op

    def change(kind, key):
        nonlocal changes
        if kind == "put":
            store.put(key, changes)
        elif not store.delete(key):
            return
        changes += 1
        reached = []
        for index, tap in enumerate(taps):
            if tap["open"] and tap["watcher"].matches(key):
                tap["expected"].append((kind.upper(), key, store.revision))
                reached.append((store.revision, index))
        before = len(delivered)
        env.run()
        assert delivered[before:] == reached

    for op in ops:
        if op[0] in ("watch", "watch_prefix"):
            open_watcher(*op)
        elif op[0] == "close":
            if taps:
                close(taps[op[1] % len(taps)])
        elif op[0] == "scoped":
            _, method, key, close_inside, data_key = op
            tap = open_watcher(method, key)
            with tap["watcher"]:
                change("put", data_key)
                if close_inside:
                    close(tap)
                change("put", data_key)
            tap["open"] = False
        else:
            change(*op)

    for tap in taps:
        assert tap["received"] == tap["expected"]
    assert store.notify_calls == changes
    assert store.watcher_visits == len(delivered)
    for tap in taps:
        close(tap)
    assert store._exact_watch == {}
    assert store._prefix_trie.children == {}
    assert store._prefix_trie.watchers == []
