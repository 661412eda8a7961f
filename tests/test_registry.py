"""Unit tests for the plugin registries."""

import pytest

from repro.exceptions import DuplicateNameError, ScenarioError, UnknownNameError
from repro.registry import (
    ALGORITHMS,
    BACKENDS,
    CLUSTERS,
    TOPOLOGIES,
    Registry,
    canonical_params,
    normalize_name,
    params_key,
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

    def test_built_in_means_recorded_name_and_object(self):
        reg = Registry("widget")
        builtin, other = object(), object()
        reg.register("a", builtin, aliases=("alias-a",))
        assert not reg.is_built_in("a")
        reg.record_built_ins()
        assert reg.is_built_in("A") and reg.is_built_in("alias_a")
        reg.register("renamed", builtin, aliases=("also",))  # new names, same object
        assert not reg.is_built_in("renamed") and not reg.is_built_in("also")
        reg.register("a", other, replace=True)  # built-in name, other object
        assert not reg.is_built_in("a")
        reg.register("a", builtin, replace=True)
        assert reg.is_built_in("a")
        reg.unregister("a")
        assert not reg.is_built_in("a") and not reg.is_built_in("no-such-widget")

    def test_import_records_every_shipped_name(self):
        assert all(ALGORITHMS.is_built_in(name) for name in ("direct", "linear", "vdirect"))
        assert all(CLUSTERS.is_built_in(name) for name in CLUSTERS.names())


class TestParams:
    def test_canonical_form_sorts_and_collapses_integral_floats(self):
        assert canonical_params({"b": 8.0, "a": 1.5, "c": True}, "widget") == (
            ("a", 1.5), ("b", 8), ("c", True),
        )
        assert canonical_params((("k", "x"),), "widget") == (("k", "x"),)
        assert canonical_params({}, "widget") == ()

    @pytest.mark.parametrize("params, message", [
        ({"k": [1]}, "widget param 'k' must be a scalar (int/float/str/bool), got list"),
        (5, "widget params must be a mapping, got 5"),
    ])
    def test_canonical_form_rejects_non_scalars(self, params, message):
        with pytest.raises(ScenarioError) as excinfo:
            canonical_params(params, "widget")
        assert str(excinfo.value) == message

    def test_key_form(self):
        assert params_key("w", ()) == "w"
        assert params_key("w", (("a", 1), ("b", "x"))) == "w(a=1,b='x')"

    def test_canonical_raises_the_requested_error(self):
        reg = Registry("widget")
        reg.register("a", object())
        with pytest.raises(ScenarioError) as excinfo:
            reg.canonical("b", ScenarioError)
        assert str(excinfo.value) == "unknown widget 'b'; known: a"

    def test_check_binds_keys_past_the_leading_and_supplied_params(self):
        reg = Registry("widget", leading=2, supplied=("rng",))

        @reg.register("w")
        def widget(n, m, rng=None, size=1, *, groups):
            pass

        reg.check_params("W", {"groups": 2})
        reg.check_params("w", ["groups", "size"])
        with pytest.raises(ScenarioError) as excinfo:
            reg.check_params("w", {"groups": 2, "m": 1, "rng": 0})
        assert str(excinfo.value) == (
            "unknown param(s) ['m', 'rng'] for widget 'w'; known: groups, size"
        )
        with pytest.raises(ScenarioError) as excinfo:
            reg.check_params("w", {"size": 2})
        assert str(excinfo.value) == "missing param(s) ['groups'] for widget 'w'"

    def test_kwargs_take_any_key_but_not_a_missing_one(self):
        reg = Registry("widget", leading=1)

        @reg.register("w")
        def widget(n, *, groups, **params):
            pass

        reg.check_params("w", {"groups": 2, "anything": 1})
        with pytest.raises(ScenarioError, match=r"missing param\(s\) \['groups'\]"):
            reg.check_params("w", {"anything": 1})

    def test_check_of_an_unknown_name_is_the_lookup_error(self):
        with pytest.raises(UnknownNameError, match="unknown widget 'w'"):
            Registry("widget").check_params("w", {})


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
