"""The fluid oracle frozen as data.

Completion times, event counts and loss counts of the default (fluid)
engine on small-n runs of every built-in algorithm, on each shipped
cluster profile as it ships (loss overlay, jitter and start skew
included), plus the ping-pong ladder the Hockney fit reads.  The values
were recorded from the generator interpreter the fluid engine used to
run on; the protocol replay both engines now share must reproduce them
bit for bit.

Each run golden is ``(duration hex, events_processed, total_losses,
stalls)``; ping-pong goldens are the one-way times as ``float.hex()``.
"""

from __future__ import annotations

import pytest

from repro.clusters.profiles import get_cluster
from repro.measure.pingpong import measure_pingpong
from repro.registry import ALGORITHMS, ENGINES
from repro.traffic import as_pattern

SEED = 3
N = 8

SCALAR = {
    ("fast-ethernet", "direct", 1_024): ("0x1.e73c480e5b0e8p-11", 238, 0, 0),
    ("fast-ethernet", "direct", 262_144): ("0x1.b0514172aa970p-3", 342, 0, 0),
    ("fast-ethernet", "rounds", 1_024): ("0x1.c0707966deee0p-10", 288, 0, 0),
    ("fast-ethernet", "rounds", 262_144): ("0x1.49c1d5d2e2a13p-3", 344, 0, 0),
    ("fast-ethernet", "bruck", 1_024): ("0x1.5921d9bc8baedp-7", 129, 0, 0),
    ("fast-ethernet", "bruck", 262_144): ("0x1.17f3d5dfa3186p-2", 152, 0, 0),
    ("fast-ethernet", "ring", 1_024): ("0x1.c8030f673810ep-9", 288, 0, 0),
    ("fast-ethernet", "ring", 262_144): ("0x1.4682a2cbaaba6p-1", 344, 0, 0),
    ("gigabit-ethernet", "direct", 1_024): ("0x1.cb74affa20c16p-13", 240, 0, 0),
    ("gigabit-ethernet", "direct", 262_144): ("0x1.95930f843c37cp-5", 344, 0, 0),
    ("gigabit-ethernet", "rounds", 1_024): ("0x1.6d300345f4ab8p-11", 288, 0, 0),
    ("gigabit-ethernet", "rounds", 262_144): ("0x1.29b4e8a1d5340p-6", 344, 0, 0),
    ("gigabit-ethernet", "bruck", 1_024): ("0x1.b263d4a90dee7p-12", 128, 0, 0),
    ("gigabit-ethernet", "bruck", 262_144): ("0x1.e0ab73a14f1bdp-6", 152, 0, 0),
    ("gigabit-ethernet", "ring", 1_024): ("0x1.cb5b13fe64c45p-11", 288, 0, 0),
    ("gigabit-ethernet", "ring", 262_144): ("0x1.180166f05851fp-4", 344, 0, 0),
    ("myrinet", "direct", 1_024): ("0x1.7a27e835c96dcp-10", 240, 0, 0),
    ("myrinet", "direct", 262_144): ("0x1.413111f1bcfc3p-6", 296, 0, 0),
    ("myrinet", "rounds", 1_024): ("0x1.51d8229d93727p-9", 288, 0, 0),
    ("myrinet", "rounds", 262_144): ("0x1.4ccd4272a841bp-7", 344, 0, 0),
    ("myrinet", "bruck", 1_024): ("0x1.9092c77231acep-10", 128, 0, 0),
    ("myrinet", "bruck", 262_144): ("0x1.d2caeabd2f4f2p-7", 152, 0, 0),
    ("myrinet", "ring", 1_024): ("0x1.47ae11a7990eep-9", 288, 0, 0),
    ("myrinet", "ring", 262_144): ("0x1.0bb426b383ccdp-5", 344, 0, 0),
}

#: Both alltoallv programs over the hotspot pattern's matrix (scale
#: 64 KiB, so the hot column crosses the rendezvous threshold).
MATRIX = {
    "alltoallv-direct": ("0x1.0d8b07e272d5ep-4", 343, 0, 0),
    "alltoallv-rounds": ("0x1.12282a799cd83p-5", 344, 0, 0),
}

#: One-way times of ``measure_pingpong(cluster, reps=1)`` over the
#: default size ladder (1 B .. 1 MiB).
PINGPONG = {
    "fast-ethernet": [
        "0x1.f1170287f7b74p-14", "0x1.af7aa4b45039fp-13",
        "0x1.b8b8471729bf3p-11", "0x1.867a4ffd555b6p-8",
        "0x1.7c98561d8703fp-7", "0x1.782931df3a8edp-6",
        "0x1.768de07071adcp-5", "0x1.7502d1e7f2da9p-4",
    ],
    "gigabit-ethernet": [
        "0x1.39286d7d3d4afp-14", "0x1.64ba14047a334p-14",
        "0x1.49c3764da5730p-13", "0x1.a1aa70f4e8183p-11",
        "0x1.6af381ac04836p-10", "0x1.519f6ccdfd931p-9",
        "0x1.476665206f815p-8", "0x1.3f69200d44faep-7",
    ],
    "myrinet": [
        "0x1.19c25bcc0264ap-13", "0x1.57a302bdb0956p-13",
        "0x1.3516f56f0fbb0p-12", "0x1.08f1a81a9469bp-11",
        "0x1.4a4b2c07a75cep-11", "0x1.235cad316c305p-10",
        "0x1.5923c072109aap-9", "0x1.1e916ccaa348fp-8",
    ],
}


def _signature(result) -> tuple:
    return (
        float(result.duration).hex(), result.events_processed,
        result.total_losses, result.stalls,
    )


@pytest.mark.parametrize(
    "cluster, algorithm, msg_size", sorted(SCALAR), ids=lambda v: str(v)
)
def test_scalar_run_matches_golden(cluster, algorithm, msg_size):
    result = ENGINES.get("fluid")(
        get_cluster(cluster), N, ALGORITHMS.get(algorithm), msg_size, SEED
    )
    assert _signature(result) == SCALAR[(cluster, algorithm, msg_size)]


@pytest.mark.parametrize("algorithm", sorted(MATRIX))
def test_hotspot_matrix_run_matches_golden(algorithm):
    matrix = as_pattern("hotspot").matrix(N, 65_536, seed=SEED)
    result = ENGINES.get("fluid")(
        get_cluster("gigabit-ethernet"), N, ALGORITHMS.get(algorithm),
        matrix, SEED,
    )
    assert _signature(result) == MATRIX[algorithm]


@pytest.mark.parametrize("cluster", sorted(PINGPONG))
def test_pingpong_ladder_matches_golden(cluster):
    result = measure_pingpong(get_cluster(cluster), reps=1)
    assert [float(t).hex() for t in result.one_way_times] == PINGPONG[cluster]
