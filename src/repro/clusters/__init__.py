"""Calibrated virtual-cluster profiles standing in for Grid'5000."""

from .profiles import (
    ClusterProfile,
    PaperSignature,
    fast_ethernet,
    get_cluster,
    gigabit_ethernet,
    myrinet,
)

__all__ = [
    "ClusterProfile",
    "PaperSignature",
    "fast_ethernet",
    "get_cluster",
    "gigabit_ethernet",
    "myrinet",
]
