"""Workbench for double-replicated storage codes.

Byte-exact encode/decode/repair for polygon and heptagon-local codes against
replication and RAID+mirroring baselines, a fault-injectable on-disk block
store, MTTDL reliability estimation, and a map-task data-locality simulator.
"""

from .schemes import (
    HeptagonLocal,
    Polygon,
    RaidMirror,
    Replication,
    Scheme,
    parse_scheme,
    storage_overhead,
    tolerance,
)

__version__ = "0.1.0"

__all__ = [
    "HeptagonLocal",
    "Polygon",
    "RaidMirror",
    "Replication",
    "Scheme",
    "parse_scheme",
    "storage_overhead",
    "tolerance",
    "__version__",
]
