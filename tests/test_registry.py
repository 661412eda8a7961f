"""Unit tests for the plugin registries."""

import pytest

from repro.exceptions import DuplicateNameError, UnknownNameError
from repro.registry import (
    ALGORITHMS,
    BACKENDS,
    CLUSTERS,
    TOPOLOGIES,
    Registry,
    normalize_name,
)


class TestNormalization:
    @pytest.mark.parametrize(
        "raw, canonical",
        [
            ("fast-ethernet", "fast-ethernet"),
            ("fast_ethernet", "fast-ethernet"),
            ("Fast Ethernet", "fast-ethernet"),
            ("  FAST_ETHERNET  ", "fast-ethernet"),
            ("fast__ethernet", "fast-ethernet"),
        ],
    )
    def test_spelling_variants_collapse(self, raw, canonical):
        assert normalize_name(raw) == canonical

    def test_near_miss_cluster_names_resolve(self):
        # The satellite bugfix: near-miss names must not be rejected.
        assert CLUSTERS.canonical("fast_ethernet") == "fast-ethernet"
        assert CLUSTERS.canonical("Fast-Ethernet") == "fast-ethernet"
        assert CLUSTERS.canonical("GIGABIT_ETHERNET") == "gigabit-ethernet"

    def test_aliases_resolve_but_do_not_enumerate(self):
        assert CLUSTERS.canonical("fe") == "fast-ethernet"
        assert CLUSTERS.canonical("gige") == "gigabit-ethernet"
        assert "fe" not in CLUSTERS.names()
        assert CLUSTERS.names() == [
            name for name in CLUSTERS.names() if name == normalize_name(name)
        ]


class TestLookup:
    def test_unknown_name_lists_known_set(self):
        with pytest.raises(UnknownNameError, match="unknown cluster 'infiniband'"):
            CLUSTERS.get("infiniband")
        with pytest.raises(UnknownNameError, match="known: "):
            CLUSTERS.get("infiniband")

    def test_unknown_name_is_both_keyerror_and_valueerror(self):
        # Pre-registry call sites caught KeyError (clusters) or
        # ValueError (backends); both contracts must survive.
        with pytest.raises(KeyError):
            CLUSTERS.get("infiniband")
        with pytest.raises(ValueError):
            BACKENDS.get("carrier-pigeon")

    def test_contains_is_alias_tolerant(self):
        assert "fast_ethernet" in CLUSTERS
        assert "fe" in CLUSTERS
        assert "infiniband" not in CLUSTERS

    def test_builtins_present(self):
        assert CLUSTERS.names() == ["fast-ethernet", "gigabit-ethernet", "myrinet"]
        assert TOPOLOGIES.names() == ["edge-core", "single-switch"]
        assert ALGORITHMS.names() == [
            "alltoallv-direct", "alltoallv-rounds",
            "bruck", "direct", "ring", "rounds",
        ]
        assert BACKENDS.names() == ["mpi4py", "sim"]
        from repro.registry import PATTERNS

        assert PATTERNS.names() == [
            "block-sparse", "hotspot", "permutation", "random-sparse",
            "shift", "uniform", "zipf",
        ]


class TestRegistration:
    def test_register_and_unregister(self):
        reg = Registry("widget")

        @reg.register("my-widget", aliases=("w",))
        def factory():
            return 42

        assert reg.get("My_Widget")() == 42
        assert reg.get("w")() == 42
        reg.unregister("w")  # by alias
        assert "my-widget" not in reg

    def test_duplicate_name_rejected(self):
        reg = Registry("widget")
        reg.register("a", object())
        with pytest.raises(DuplicateNameError, match="already registered"):
            reg.register("a", object())
        with pytest.raises(DuplicateNameError):
            reg.register("b", object(), aliases=("A",))

    def test_replace_allows_overwrite(self):
        reg = Registry("widget")
        reg.register("a", 1)
        reg.register("a", 2, replace=True)
        assert reg.get("a") == 2

    def test_empty_name_rejected(self):
        reg = Registry("widget")
        with pytest.raises(ValueError, match="non-empty"):
            reg.register("  ", object())


class TestDeprecationShims:
    def test_legacy_imports_still_resolve(self):
        # Old import paths keep working.
        from repro.simnet.topology import edge_core, single_switch  # noqa: F401
        from repro.measure import get_backend  # noqa: F401


class TestBackendRegistry:
    def test_get_backend_routes_through_registry(self, gige_cluster):
        from repro.measure.backends import SimBackend, get_backend

        assert isinstance(get_backend("Simulator", gige_cluster), SimBackend)

    def test_unknown_backend_message(self):
        from repro.measure.backends import get_backend

        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("carrier-pigeon")
