"""Cache-line traffic across hierarchy boundaries from stream semantics.

Per cache line of work: a read stream moves one line across every boundary; a
read-modify-write stream moves two (explicit load plus dirty eviction); a
plain write stream moves two (write-allocate plus eviction); a non-temporal
write bypasses the caches and moves one line at the memory boundary only.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .kernels import KernelModel, with_nt_stores


class TrafficProfile(NamedTuple):
    # cache lines crossing each boundary per cache line of work
    cls_l1l2: int
    cls_l2l3: int
    cls_l3mem: int
    # bytes touched at the memory boundary per scalar loop iteration
    mem_bytes_per_iteration: int
    # same, but counting only explicit accesses (no write-allocate traffic)
    payload_bytes_per_iteration: int


def traffic(kernel: KernelModel) -> TrafficProfile:
    reads, readwrites, writes, nt_writes = kernel._tally
    cache_cls = reads + 2 * readwrites + 2 * writes
    mem_cls = cache_cls + nt_writes
    mem_bytes = kernel.element_bytes * mem_cls
    return TrafficProfile(cache_cls, cache_cls, mem_cls, mem_bytes, mem_bytes - kernel.element_bytes * writes)


def nt_volume_ratio(kernel: KernelModel) -> Fraction:
    """Memory-volume ratio of the kernel with regular stores over the same
    kernel with all write streams non-temporal."""
    if not any(s.access == "write" for s in kernel.streams):
        raise ValueError(f"kernel {kernel.name!r} has no write streams")
    regular = traffic(with_nt_stores(kernel, nontemporal=False))
    nontemporal = traffic(with_nt_stores(kernel, nontemporal=True))
    return Fraction(regular.mem_bytes_per_iteration, nontemporal.mem_bytes_per_iteration)
