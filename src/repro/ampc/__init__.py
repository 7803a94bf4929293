"""AMPC substrate: simulated distributed hash table + cost model.

DESIGN.md §2 documents the mapping from the paper's RDMA key-value
store to a Spark broadcast store.
"""
from repro.ampc.dht import build_sorted_adjacency  # noqa: F401
from repro.ampc.cost import modeled_time, LATENCY_S  # noqa: F401
