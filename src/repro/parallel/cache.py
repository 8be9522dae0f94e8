"""Topology-hashed factorization cache.

Sweeps cross-product parameters against a handful of distinct grid
topologies; the expensive part of each evaluation is the sparse LU
factorization of the mesh.  This module keys :class:`FactorizedPDN`
instances on a **content hash of the compiled arrays**, so any two
scenarios that compile to the same mesh share one factorization — no
matter which code path built the :class:`CompiledNetlist`, and across
the whole lifetime of a process-pool worker that evaluates many chunks.

The fingerprint covers everything :class:`FactorizedPDN` can read from
the netlist: the structural arrays (endpoints, resistances, source
incidence) that determine the MNA matrix, *and* the value arrays
(``cs_amp``, ``vs_volt``) that seed default right-hand sides.  Grid
structures carry all-zero value arrays and pass explicit values at
solve time, so they still collapse onto one cache entry per topology;
including the values just makes the cache safe for callers that rely on
netlist-default solves.

The cache is a bounded LRU (default :data:`DEFAULT_CACHE_ENTRIES`
factorizations) with hit/miss/eviction counters, and a process-global
instance behind :func:`get_factorized` that both the serial path and
pool workers use.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass

from ..errors import require_count
from ..pdn.mna import FactorizedPDN
from ..pdn.network import CompiledNetlist

#: Default number of factorizations kept alive.  A factorization holds
#: the LU factors (O(nnz) memory); sweeps rarely touch more than a few
#: distinct topologies, so a small cap bounds worker memory without
#: hurting hit rates.
DEFAULT_CACHE_ENTRIES = 8


def compiled_fingerprint(compiled: CompiledNetlist) -> str:
    """Content hash of a compiled netlist's arrays.

    Two netlists with equal fingerprints produce byte-identical MNA
    systems and default right-hand sides, so a factorization computed
    for one is valid for the other.  Each array contributes its dtype
    and full shape alongside the raw bytes: two arrays with identical
    byte payloads but different numeric interpretations (e.g. an
    ``int64`` view of ``float64`` data) must never collapse onto one
    cache key, or a factorization built for the wrong interpretation
    could be handed out.  Node/element *names* are excluded: they
    never enter the numerics, and hashing lazy name tuples would force
    materializing them.

    The content is the whole key: two stamps with byte-identical arrays
    are the same matrix and share a correct LU, and a discretization
    enters through the values it stamps (the transient engine's
    companion resistances carry ``Δt`` and ``C``).
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(compiled.n_nodes.to_bytes(8, "little", signed=False))
    for array in (
        compiled.res_a,
        compiled.res_b,
        compiled.res_ohm,
        compiled.cs_from,
        compiled.cs_to,
        compiled.cs_amp,
        compiled.vs_plus,
        compiled.vs_minus,
        compiled.vs_volt,
    ):
        dtype_tag = array.dtype.str.encode("ascii")
        digest.update(len(dtype_tag).to_bytes(8, "little", signed=False))
        digest.update(dtype_tag)
        digest.update(array.ndim.to_bytes(8, "little", signed=False))
        for dim in array.shape:
            digest.update(dim.to_bytes(8, "little", signed=False))
        digest.update(array.tobytes())
    return digest.hexdigest()


@dataclass
class CacheStats:
    """Counters exposed for tests, benchmarks, and progress reporting."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


class FactorizationCache:
    """Bounded LRU of content-hash → :class:`FactorizedPDN`.

    Thread-safe around the bookkeeping (the executor streams results on
    the main thread while ``concurrent.futures`` callbacks may run on a
    pool-management thread); the factorization itself is computed
    outside the lock per key, accepting a rare duplicate build over
    serializing every solve behind one mutex.  When two threads race,
    the first insert wins and the duplicate build is discarded, so
    every caller holds the *same* cached entry.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_ENTRIES) -> None:
        self.maxsize = require_count(maxsize, "maxsize", 1)
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, FactorizedPDN]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, compiled: CompiledNetlist) -> FactorizedPDN:
        """The cached factorization of this netlist's content (see
        :func:`compiled_fingerprint`), building on miss."""
        key = compiled_fingerprint(compiled)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry
            self.stats.misses += 1
        entry = FactorizedPDN(compiled)
        with self._lock:
            # Two threads that missed concurrently both build; keep the
            # first insert and hand the duplicate builder the same
            # entry, so every caller shares one FactorizedPDN (and its
            # influence-column LRU) per key.
            existing = self._entries.get(key)
            if existing is not None:
                self._entries.move_to_end(key)
                return existing
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return entry

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()


#: Process-wide cache: the serial path and every pool worker share one
#: instance per process, so repeated chunks against the same topology
#: factor once per worker lifetime.
_PROCESS_CACHE = FactorizationCache()


def process_cache() -> FactorizationCache:
    """The process-global factorization cache."""
    return _PROCESS_CACHE


def get_factorized(compiled: CompiledNetlist) -> FactorizedPDN:
    """Shared-factorization entry point used by the grid layer.

    Returns a :class:`FactorizedPDN` from the process-global cache,
    factoring on first sight of the netlist's content.
    """
    return _PROCESS_CACHE.get(compiled)
