"""Machine configurations for the paper's target processors (Table 1).

========  ==================  ===============  ==========
machine   model name          microarch        PHR size
========  ==================  ===============  ==========
1         Core i9-13900KS     Raptor Lake      194
2         Core i9-12900       Alder Lake       194
3         Core i7-6770HQ      Skylake          93
========  ==================  ===============  ==========

Observation 1 of the paper is that Raptor Lake's PHR structure is
identical to Alder Lake's; the two presets therefore differ only in their
identification strings, and a benchmark asserts the behavioural identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.cpu.pht import default_history_lengths


@dataclass(frozen=True)
class MachineConfig:
    """Static parameters of a simulated machine."""

    name: str
    model_name: str
    microarchitecture: str
    #: Predictor family backend (a :mod:`repro.cpu.model` registry id).
    #: ``intel-cbp`` is the paper's reverse-engineered CBP and the
    #: default; ``m1-phr`` and ``gshare-tournament`` select the other
    #: built-in families.  Every profile digest and snapshot artifact
    #: carries this id, so configs differing only here never share
    #: checkpoints or service workers.
    predictor_model: str = "intel-cbp"
    #: Taken branches the PHR records (doublets).
    phr_capacity: int = 194
    #: History window (in doublets) of each tagged PHT.
    pht_history_lengths: Tuple[int, ...] = (34, 66, 194)
    pht_sets: int = 512
    pht_ways: int = 4
    #: Observation 2: 3-bit saturating counters.
    counter_bits: int = 3
    pht_tag_bits: int = 11
    #: The single PC bit mixed into the PHT index (PC[5] on Alder/Raptor
    #: Lake, PC[4] on some older parts).
    pc_index_bit: int = 5
    base_index_bits: int = 13
    #: SMT: logical threads per physical core, each with a private PHR.
    smt_threads: int = 2
    #: Speculation: instructions the wrong path may run when the branch
    #: resolves quickly, and the cap when resolution is delayed by a cache
    #: miss (the Section 9 `clflush` of the round count).
    spec_window_base: int = 8
    spec_window_max: int = 192
    #: Cycles-per-instruction divisor converting resolve latency to window.
    spec_cycles_per_instruction: int = 2
    cache_sets: int = 1024
    cache_ways: int = 8
    cache_line_size: int = 64
    cache_hit_latency: int = 4
    cache_miss_latency: int = 300
    #: Latency threshold above which a reload is classified as a miss by
    #: the attacker's flush+reload timer.
    reload_threshold: int = 100

    def __post_init__(self) -> None:
        if self.phr_capacity < 8:
            raise ValueError("PHR capacity too small to hold a footprint")
        if any(length > self.phr_capacity for length in self.pht_history_lengths):
            raise ValueError("PHT history window exceeds PHR capacity")

    def describe(self) -> Dict[str, str]:
        """Row data for the Table 1 benchmark."""
        return {
            "Machine": self.name,
            "Model Name": self.model_name,
            "uArch.": self.microarchitecture,
            "PHR size": str(self.phr_capacity),
            "PHT tables": "x".join(str(l) for l in self.pht_history_lengths),
        }


def _config(name: str, model: str, microarch: str, phr_capacity: int,
            pc_index_bit: int) -> MachineConfig:
    return MachineConfig(
        name=name,
        model_name=model,
        microarchitecture=microarch,
        phr_capacity=phr_capacity,
        pht_history_lengths=default_history_lengths(phr_capacity),
        pc_index_bit=pc_index_bit,
    )


#: machine 1 of Table 1.
RAPTOR_LAKE = _config("machine 1", "Core i9-13900KS", "Raptor Lake", 194, 5)
#: machine 2 of Table 1.
ALDER_LAKE = _config("machine 2", "Core i9-12900", "Alder Lake", 194, 5)
#: machine 3 of Table 1.
SKYLAKE = _config("machine 3", "Core i7-6770HQ", "Skylake", 93, 4)

#: All Table 1 targets, in paper order.
TARGET_MACHINES: Tuple[MachineConfig, ...] = (RAPTOR_LAKE, ALDER_LAKE, SKYLAKE)

#: The M1 Firestorm-style lab machine (arXiv 2502.10719 family; see
#: :mod:`repro.cpu.m1` for the modeling notes).  86 doublets: the M1
#: register records both directions, so it fills roughly twice as fast
#: per retired conditional as the Intel PHR.
FIRESTORM_M1 = MachineConfig(
    name="lab M1",
    model_name="Apple M1 (Firestorm)",
    microarchitecture="Firestorm",
    predictor_model="m1-phr",
    phr_capacity=86,
    pht_history_lengths=default_history_lengths(86),
    pc_index_bit=5,
)

#: The gshare/tournament baseline lab machine (Assassyn-CPU family; see
#: :mod:`repro.cpu.tournament`).  The PHR-geometry fields are inert for
#: this family -- its history is a 16-bit GHR of direction bits.
TOURNAMENT_BASELINE = MachineConfig(
    name="lab tournament",
    model_name="Assassyn tournament core",
    microarchitecture="tournament baseline",
    predictor_model="gshare-tournament",
)

#: One representative machine per predictor family -- the backend axis
#: of the cross-architecture result matrix (benchmarks, conformance
#: suite, per-backend fuzz arms).
PREDICTOR_LAB_MACHINES: Tuple[MachineConfig, ...] = (
    RAPTOR_LAKE, FIRESTORM_M1, TOURNAMENT_BASELINE,
)
