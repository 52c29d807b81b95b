"""Ablation — etcd vs MongoDB as the status-coordination store.

Section 3.2: "We preferred to use etcd over MongoDB for coordination
because it is much faster and has some abstractions that MongoDB lacks,
like leases on keys and fine grained support for 'streaming watches' at
the level of a single key."

Ablation: propagate N learner status updates from a writer to an observer
through both stores.  etcd delivers each update via a streaming watch at
put latency; MongoDB needs the observer to poll, so delivery latency is
the write latency plus half the polling interval — an order of magnitude
worse even with aggressive 200ms polling.
"""


from repro.analysis import print_table
from repro.etcd import EtcdClient, EtcdStore
from repro.mongo import MongoClient, MongoDatabase
from repro.sim import Environment

UPDATES = 200
MONGO_POLL_S = 0.2


def etcd_latencies():
    env = Environment()
    client = EtcdClient(env, EtcdStore(env))
    latencies = []

    def observer(watcher):
        for _ in range(UPDATES):
            event = yield watcher.get()
            latencies.append(env.now - float(event.value))

    def writer():
        for i in range(UPDATES):
            yield env.timeout(1.0)
            yield client.put("status/learner-0", str(env.now))

    with client.watch("status/learner-0") as watcher:
        env.process(observer(watcher))
        env.process(writer())
        env.run()
    return latencies


def mongo_latencies():
    env = Environment()
    client = MongoClient(env, MongoDatabase())
    latencies = []
    seen = {"version": -1}

    def observer():
        while len(latencies) < UPDATES:
            yield env.timeout(MONGO_POLL_S)
            doc = yield client.find_one("statuses", {"_id": "learner-0"})
            if doc is not None and doc["version"] != seen["version"]:
                seen["version"] = doc["version"]
                latencies.append(env.now - doc["written_at"])

    def writer():
        for i in range(UPDATES):
            yield env.timeout(1.0)
            yield client.update_one(
                "statuses", {"_id": "learner-0"},
                {"$set": {"version": i, "written_at": env.now}},
                upsert=True)

    env.process(observer())
    env.process(writer())
    env.run(until=UPDATES * 1.0 + 30)
    return latencies


def run_ablation():
    etcd = etcd_latencies()
    mongo = mongo_latencies()
    mean_etcd = sum(etcd) / len(etcd)
    mean_mongo = sum(mongo) / len(mongo)
    print_table(
        ["store", "delivery mechanism", "mean status latency",
         "p100 latency"],
        [["etcd", "streaming watch", f"{mean_etcd * 1000:.1f} ms",
          f"{max(etcd) * 1000:.1f} ms"],
         ["MongoDB", f"poll @ {MONGO_POLL_S * 1000:.0f} ms",
          f"{mean_mongo * 1000:.1f} ms",
          f"{max(mongo) * 1000:.1f} ms"]],
        title="Ablation: status-update propagation, etcd vs MongoDB")
    print(f"\netcd is {mean_mongo / mean_etcd:.0f}x faster for "
          f"status coordination (the paper's rationale)")
    return mean_etcd, mean_mongo


def test_ablation_status_store(once):
    mean_etcd, mean_mongo = once(run_ablation)
    assert mean_etcd < 0.01  # single-digit milliseconds
    assert mean_mongo > 5 * mean_etcd
