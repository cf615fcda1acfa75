"""Multi-core cache hierarchy producing the LLC miss/write-back stream."""

from repro.cache.setassoc import AccessResult, SetAssociativeCache
from repro.cache.hierarchy import CacheHierarchy, RawStream

__all__ = [
    "AccessResult",
    "SetAssociativeCache",
    "CacheHierarchy",
    "RawStream",
]
