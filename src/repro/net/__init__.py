"""Interconnect & directory timing subsystem.

Re-times the misses of replayed traces with a cycle-approximate,
contention-aware model in place of the paper's fixed 50-cycle penalty:
messages route over a configurable topology (crossbar or k-ary 2D mesh)
with per-link FIFO queueing and finite bandwidth, and per-line directory
home nodes serialize requests.  ``build_network("ideal", ...)`` returns
None — the fixed penalty, kept as the default backend.
"""

from .directory import DirectoryModel
from .model import NETWORK_KINDS, ContentionNetwork, build_network
from .topology import Crossbar, Mesh, Topology

__all__ = [
    "NETWORK_KINDS",
    "ContentionNetwork",
    "Crossbar",
    "DirectoryModel",
    "Mesh",
    "Topology",
    "build_network",
]
