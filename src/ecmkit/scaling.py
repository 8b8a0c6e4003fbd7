"""Multi-core performance: single-core predictions scaled linearly until the
memory-bandwidth ceiling binds, per NUMA domain or per chip, plus
non-temporal-store speedup estimates. Performance is in MUp/s (million loop
iterations per second).

Every performance figure is an exact Fraction, for int inputs too: the
single-core figure and the ceilings are built with Fraction operators, and
each point is the smaller of n times it and the cap of the domains its n
cores occupy. A point is a named tuple.

A machine remembers the curves `scale` has built (`MachineModel._curves`).
Every call still runs `ecm_input`, which runs the core timing; the curve is
then looked up by what it depends on besides the machine: t_ol and t_nol
(the input's first two cells, core_timing's ints), the kernel's
stream tally, the resolved mode, the element size, the penalty's added
cycles (model.penalty_cycles, or None), the pinning and the core count. On
one machine the tally and the mode fix the transfer cells, and with the
element size they fix the bandwidth ceilings, so `bandwidth_ceiling` runs
on a miss only. The frequency and the NUMA layout are the machine's own,
which cannot change. A miss builds the curve and stores it in that `Memo`,
which holds at most machine.CURVE_MEMO_POINTS points (a curve has one per core).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .kernels import KernelModel, bandwidth_signature, with_nt_stores
from .machine import CACHE_LINE_BYTES, MachineModel
from .model import ECMPrediction, PenaltyConfig, apply_penalty, ecm_input, penalty_cycles, predict
from .traffic import nt_volume_ratio, traffic

PINNING_POLICIES = ("domain-sequential", "round-robin")


class PerformancePoint(NamedTuple):
    cores: int
    performance_mups: Fraction
    bandwidth_bound: bool


class ScalingCurve(NamedTuple):
    mode: str
    points: tuple[PerformancePoint, ...]
    # first core count from which every point is bandwidth bound; None if never
    saturation_cores: int | None
    # bandwidth-bound performance at the full requested core count; None if compute bound
    ceiling_mups: Fraction | None


class BandwidthCeiling(NamedTuple):
    per_domain_mups: Fraction | None
    per_chip_mups: Fraction | None
    compute_bound: bool


class NtEstimate(NamedTuple):
    """Expected gain from non-temporal stores: the exact memory-volume ratio
    and the bandwidth-ceiling estimates for both variants."""

    volume_ratio: Fraction
    regular: BandwidthCeiling
    nontemporal: BandwidthCeiling


def single_core_performance(pred: ECMPrediction, kernel: KernelModel, machine: MachineModel) -> Fraction:
    """MUp/s for one core with data from memory: f * iterations per line / t_mem."""
    if not pred.t_mem:
        raise ValueError("prediction has zero memory-level cycles")
    return Fraction(machine.frequency_ghz) * 1000 * (CACHE_LINE_BYTES // kernel.element_bytes) / pred.t_mem


def bandwidth_ceiling(kernel: KernelModel, machine: MachineModel, mode: str | None = None) -> BandwidthCeiling:
    """Memory-bandwidth-bound performance per domain and per chip."""
    mode = machine.resolve_mode(mode)
    bytes_per_it = traffic(kernel).mem_bytes_per_iteration
    if bytes_per_it == 0:
        return BandwidthCeiling(None, None, True)
    gbs = machine.bandwidth(bandwidth_signature(kernel), mode)
    mups = Fraction(gbs) * 1000 / bytes_per_it
    if mode == "cod":
        return BandwidthCeiling(mups, mups * machine.numa.n_domains, False)
    return BandwidthCeiling(None, mups, False)


def scale(
    kernel: KernelModel,
    machine: MachineModel,
    mode: str | None = None,
    max_cores: int | None = None,
    pinning: str = "domain-sequential",
    penalty: PenaltyConfig | None = None,
) -> ScalingCurve:
    """Performance for 1..max_cores: linear in the single-core prediction until
    capped by the bandwidth of the occupied domains (clustered mode) or of the
    chip. Domain-sequential pinning fills one domain before the next;
    round-robin spreads cores across domains. `max_cores` is an int (not a
    bool) in 1..total cores.

    Each call runs `ecm_input`, then returns the machine's stored curve for
    the same core timing, stream tally, mode, element size, penalty cycles,
    pinning and core count if it has one (see the module docstring);
    otherwise it takes the bandwidth ceilings, builds the curve and stores it.
    """
    mode = machine.resolve_mode(mode)
    if pinning not in PINNING_POLICIES:
        raise ValueError(f"pinning must be one of {PINNING_POLICIES}")
    total = machine.numa.total_cores
    if max_cores is None:
        max_cores = total
    if type(max_cores) is not int or not 1 <= max_cores <= total:
        raise ValueError(f"max_cores must be in 1..{total}, got {max_cores!r}")

    inp = ecm_input(kernel, machine, mode)
    added = None if penalty is None else penalty_cycles(kernel, penalty)
    key = (inp.t_ol, inp.t_nol, kernel._tally, mode, kernel.element_bytes, added, pinning, max_cores)
    curve = machine._curves.get(key)
    if curve is not None:
        return curve

    per_domain, per_chip, compute_bound = bandwidth_ceiling(kernel, machine, mode)
    pred = predict(inp)
    if penalty is not None:
        pred = apply_penalty(pred, kernel, penalty)
    p1 = single_core_performance(pred, kernel, machine)

    numa = machine.numa
    points, saturation = [], None
    for n in range(1, max_cores + 1):
        perf = n * p1
        if compute_bound:
            cap = None
        elif mode == "noncod":
            cap = per_chip
        elif pinning == "domain-sequential":
            cap = -(-n // numa.cores_per_domain) * per_domain
        else:
            cap = min(n, numa.n_domains) * per_domain
        bound = cap is not None and perf >= cap
        points.append(PerformancePoint(n, cap if bound else perf, bound))
        saturation = (saturation or n) if bound else None
    return machine._curves.put(key, ScalingCurve(mode, tuple(points), saturation, cap))


def nt_speedup(kernel: KernelModel, machine: MachineModel, mode: str | None = None) -> NtEstimate:
    """Estimated non-temporal-store gain for a kernel with write streams.

    The ratio is exact memory-volume arithmetic; the absolute numbers are
    bandwidth ceilings for the regular and non-temporal variants.
    """
    ratio = nt_volume_ratio(kernel)  # raises if there is nothing to toggle
    regular = bandwidth_ceiling(with_nt_stores(kernel, nontemporal=False), machine, mode)
    nontemporal = bandwidth_ceiling(with_nt_stores(kernel, nontemporal=True), machine, mode)
    return NtEstimate(volume_ratio=ratio, regular=regular, nontemporal=nontemporal)
