"""The sharded KV fabric: many register groups behind one hash ring.

One paper register group (``n >= 5f + 1`` servers) is a single
serialization domain; the ROADMAP's production north star scales *out*
by running many independent groups — shards — and routing each key to
one of them. This package is that layer:

* :mod:`~repro.fabric.ring` — deterministic consistent-hash placement
  (crc32, never builtin ``hash()``), key -> shard id;
* :mod:`~repro.fabric.topology` — the serializable fabric layout
  (``repro-fabric-topology/1``): shards, ``n/f``, server addresses;
* :mod:`~repro.fabric.host` — hosts one shard's
  :class:`~repro.net.group.ServerGroup` (the live cluster's server
  group) inline or in its own OS process, driven over a
  ``multiprocessing`` pipe;
* :mod:`~repro.fabric.supervisor` — lifecycle owner: spawns one host
  per shard (separate OS processes by default), relays control-plane
  commands (kill/heal/corrupt/retire/respawn), tears down;
* :mod:`~repro.fabric.client` — multiplexes
  :class:`~repro.net.daemon.ClientEndpoint` s across shards; per-shard
  histories judged by the same sweep
  :class:`~repro.spec.regularity.RegularityChecker` as everything else;
* :mod:`~repro.fabric.kv` — the sync adapter that plugs the fabric into
  :class:`~repro.kvstore.store.StabilizingKVStore` via its
  ``shard_factory`` seam, so ``put``/``get``/``audit`` work unchanged;
* :mod:`~repro.fabric.loadgen` — open/closed-loop fabric load with
  keyspace skew (uniform/zipf) and the ``repro-bench-fabric/1``
  artifact;
* :mod:`~repro.fabric.chaos` — a nemesis targeted at one shard while
  the others serve, with a blast-radius verdict.

See ``docs/FABRIC.md`` for the topology format, the placement rule and
the blast-radius contract.
"""

from repro.fabric.chaos import ShardNemesis, run_targeted_chaos
from repro.fabric.client import FabricClient
from repro.fabric.host import InlineShardHost, ProcessShardHost
from repro.fabric.kv import FabricKV
from repro.fabric.loadgen import (
    FABRIC_BENCH_FORMAT,
    FabricLoadResult,
    KeyPicker,
    fabric_benchmark,
    fabric_scaleout,
    run_fabric_load,
)
from repro.fabric.ring import DEFAULT_VNODES, HashRing, ring_hash
from repro.fabric.supervisor import FabricSupervisor
from repro.fabric.topology import TOPOLOGY_FORMAT, FabricTopology, ShardSpec

__all__ = [
    "DEFAULT_VNODES",
    "FABRIC_BENCH_FORMAT",
    "FabricClient",
    "FabricKV",
    "FabricLoadResult",
    "FabricSupervisor",
    "FabricTopology",
    "HashRing",
    "InlineShardHost",
    "KeyPicker",
    "ProcessShardHost",
    "ShardNemesis",
    "ShardSpec",
    "TOPOLOGY_FORMAT",
    "fabric_benchmark",
    "fabric_scaleout",
    "ring_hash",
    "run_fabric_load",
    "run_targeted_chaos",
]
