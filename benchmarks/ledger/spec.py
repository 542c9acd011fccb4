"""What the ledger measures: the declaration, the workloads, the scales.

``BENCHMARK.json`` at the repository root is the single declaration of
metric names, units, directions and regression bounds; this module
loads it and adds only what that file has no room for — each
workload's instance family, skeleton knobs and time split.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

DECLARATION = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in DECLARATION["end_to_end"]}
PER_LAYER = {m["name"]: m for m in DECLARATION["per_layer"]}
RUN_SECONDS = int(DECLARATION["run_seconds"])

COORDINATIONS = ("budget", "stacksteal", "ordered")
WORKERS = 2  # the machine has 2 cores: every parallel cell runs exactly 2

# The SkeletonParams defaults, spelled out so the run record pins them.
DEFAULT_KNOBS = {"budget": 1000, "share_poll": 64, "d_cutoff": 2, "chunked": True}
WIRE_CODEC = "binary"

# The gateway mix: six Table 1 instances from three DIMACS families, all
# 9-13 ms sequential, so the latency tail measures queueing behind the
# scheduler and the HTTP path, not which request drew the one big
# instance.  brock90-1 is the hot key.
TABLE1_SIX = (
    "brock90-1", "brock90-2", "brock100-2", "brock110-1", "p_hat90-1", "san100-1",
)
HOT_FRACTION = 0.25
CLIENTS = 2


@dataclass(frozen=True)
class Workload:
    """One workload: which instances the search cells run, under which
    knobs, and the share of the measured seconds that goes to the
    closed-loop gateway load (the rest goes to the search passes)."""

    name: str
    family: str  # "uts" | "maxclique" (generated) | "library" (TABLE1_SIX[0])
    knobs: dict = field(default_factory=lambda: dict(DEFAULT_KNOBS))
    gateway_share: float = 0.3


WORKLOADS = {
    w.name: w
    for w in (
        Workload("enum-uts-coarse", "uts"),
        Workload(
            "enum-uts-fine", "uts",
            knobs={**DEFAULT_KNOBS, "budget": 100, "d_cutoff": 4, "chunked": False},
        ),
        Workload("opt-maxclique", "maxclique"),
        Workload("gateway-mix", "library", gateway_share=0.6),
    )
}
assert list(WORKLOADS) == [w["name"] for w in DECLARATION["workloads"]]


@dataclass(frozen=True)
class Scale:
    """Pinned instances and repetition floors.

    Each instance is ``(fixed args, (lo, hi) node band, seed, nodes)``:
    ``seed`` is the first candidate of the family's ``SplitMix64(0)``
    stream whose exact sequential node count falls in the band
    (``instances.derive_pin`` re-derives it; ``test_ledger`` checks),
    and ``nodes`` is that count — the enumeration oracle.
    """

    name: str
    uts: tuple
    maxclique: tuple
    micro_uts: tuple  # off-family instances for the app micro-benches
    micro_maxclique: tuple
    setups: int  # set-up repetitions; setup_s is their median
    min_rounds: int  # a round is one search pass plus its gateway segments
    segment_s: float  # length of one gateway segment
    micro_target_s: float  # timing budget per micro-bench
    micro_sample: int  # nodes sampled from the instance for the app micro-benches
    micro_reps: int  # repetitions of the micro-benches that time whole calls


FULL = Scale(
    name="full",
    uts=((4, 9), (145_500, 154_500), 1330772960, 149_511),
    maxclique=((80, 85), (120_000, 130_000), 2089692763, 122_832),
    micro_uts=((4, 8), (40_000, 120_000), 439092716, 81_370),
    micro_maxclique=((100, 60), (10_000, 60_000), 2089692763, 30_966),
    setups=5,
    min_rounds=2,
    segment_s=1.5,
    micro_target_s=0.05,
    micro_sample=10_000,
    micro_reps=5,
)
SMOKE = Scale(
    name="smoke",
    uts=((4, 6), (2_000, 12_000), 439092716, 5_152),
    maxclique=((60, 60), (1_000, 20_000), 2089692763, 3_056),
    micro_uts=((4, 6), (2_000, 12_000), 439092716, 5_152),
    micro_maxclique=((60, 60), (1_000, 20_000), 2089692763, 3_056),
    setups=1,
    min_rounds=1,
    segment_s=0.5,
    micro_target_s=0.005,
    micro_sample=500,
    micro_reps=2,
)
