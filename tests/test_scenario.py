"""Unit tests for declarative scenario specs (dict/TOML/JSON)."""

import json

import pytest

from repro.exceptions import ScenarioError
from repro.scenario import ScenarioSpec, TopologySpec, WorkloadSpec


def spec_dict(**overrides):
    base = {
        "name": "edge-gige",
        "description": "test scenario",
        "base": "gigabit-ethernet",
        "topology": {
            "factory": "edge-core",
            "params": {
                "nic_bandwidth": 117.6e6,
                "hosts_per_edge": 4,
                "trunk_bandwidth": 200e6,
            },
        },
        "transport": {"mux_overhead": 7.5e-3},
        "loss": {"coeff_per_byte": 4.0e-9},
        "start_skew_scale": 150e-6,
        "max_hosts": 64,
        "algorithm": "direct",
        "workload": {
            "nprocs": [4, 6],
            "sizes": ["2kB", "8kB", "32kB", "128kB"],
            "seeds": [0],
            "reps": 1,
        },
    }
    base.update(overrides)
    return base


class TestRoundTrip:
    def test_dict_round_trip(self):
        spec = ScenarioSpec.from_dict(spec_dict())
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_toml_round_trip(self):
        spec = ScenarioSpec.from_dict(spec_dict())
        assert ScenarioSpec.from_toml(spec.to_toml()) == spec

    def test_json_file_round_trip(self, tmp_path):
        spec = ScenarioSpec.from_dict(spec_dict())
        path = spec.save(tmp_path / "scenario.json")
        assert ScenarioSpec.from_file(path) == spec
        json.loads(path.read_text())  # valid JSON document

    def test_toml_file_round_trip(self, tmp_path):
        spec = ScenarioSpec.from_dict(spec_dict())
        path = spec.save(tmp_path / "scenario.toml")
        assert ScenarioSpec.from_file(path) == spec

    def test_wrapped_scenario_table_accepted(self):
        # TOML files use a top-level [scenario] table.
        wrapped = {"scenario": spec_dict()}
        assert ScenarioSpec.from_dict(wrapped) == ScenarioSpec.from_dict(spec_dict())

    def test_minimal_spec_round_trips(self):
        spec = ScenarioSpec.from_dict({"name": "plain", "base": "myrinet"})
        assert ScenarioSpec.from_toml(spec.to_toml()) == spec
        assert spec.workload == WorkloadSpec()

    def test_unsupported_suffix_rejected(self, tmp_path):
        spec = ScenarioSpec.from_dict(spec_dict())
        with pytest.raises(ScenarioError, match="file type"):
            spec.save(tmp_path / "scenario.yaml")
        (tmp_path / "s.yaml").write_text("x")
        with pytest.raises(ScenarioError, match="file type"):
            ScenarioSpec.from_file(tmp_path / "s.yaml")


class TestValidation:
    def test_needs_base_or_topology(self):
        with pytest.raises(ScenarioError, match="base cluster and/or a topology"):
            ScenarioSpec.from_dict({"name": "empty"})

    def test_base_name_normalised_and_checked(self):
        spec = ScenarioSpec.from_dict({"name": "s", "base": "Gigabit_Ethernet"})
        assert spec.base == "gigabit-ethernet"
        with pytest.raises(ScenarioError, match="unknown cluster"):
            ScenarioSpec.from_dict({"name": "s", "base": "infiniband"})

    def test_algorithm_checked_and_canonicalised(self):
        spec = ScenarioSpec.from_dict(spec_dict(algorithm="Direct"))
        assert spec.algorithm == "direct"
        with pytest.raises(ScenarioError, match="unknown algorithm"):
            ScenarioSpec.from_dict(spec_dict(algorithm="teleport"))

    def test_unknown_fields_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario field"):
            ScenarioSpec.from_dict(spec_dict(typo_field=1))
        with pytest.raises(ScenarioError, match="unknown transport field"):
            ScenarioSpec.from_dict(spec_dict(transport={"warp_factor": 9}))
        with pytest.raises(ScenarioError, match="unknown workload field"):
            ScenarioSpec.from_dict(spec_dict(workload={"nprocs": [4], "sizes": [1], "speed": 1}))

    def test_workload_validation(self):
        with pytest.raises(ScenarioError, match="nprocs"):
            WorkloadSpec(nprocs=(1,))
        with pytest.raises(ScenarioError, match="sizes"):
            WorkloadSpec(sizes=())
        with pytest.raises(ScenarioError, match="reps"):
            WorkloadSpec(reps=0)

    def test_sizes_accept_strings(self):
        workload = WorkloadSpec(sizes=("2kB", 100))
        assert workload.sizes == (2_048, 100)

    def test_invalid_toml_reported(self):
        with pytest.raises(ScenarioError, match="invalid scenario TOML"):
            ScenarioSpec.from_toml("[scenario\nname=")


class TestBuildProfile:
    def test_base_with_overrides(self):
        profile = ScenarioSpec.from_dict(spec_dict()).build_profile()
        assert profile.name == "edge-gige"
        assert profile.transport.mux_overhead == 7.5e-3
        # Inherited from the gigabit-ethernet base:
        assert profile.transport.base_latency == 50e-6
        assert profile.loss.coeff_per_byte == 4.0e-9
        assert profile.loss.rto_min == 0.200  # inherited
        assert profile.start_skew_scale == 150e-6
        assert profile.max_hosts == 64
        # A modified fabric no longer carries the paper's signature.
        assert profile.paper is None

    def test_topology_params_reach_the_fabric(self):
        profile = ScenarioSpec.from_dict(spec_dict()).build_profile()
        topo = profile.topology(10)
        # 4 hosts per edge -> 3 edge switches + 1 core for 10 hosts.
        assert len(topo.switches) == 4

    def test_pure_base_keeps_paper_signature(self):
        spec = ScenarioSpec.from_dict({"name": "gdx", "base": "gigabit-ethernet"})
        profile = spec.build_profile()
        assert spec.is_pure_base
        assert profile.paper is not None
        assert profile.name == "gdx"

    def test_loss_disabled_removes_mechanism(self):
        spec = ScenarioSpec.from_dict(
            spec_dict(loss={"enabled": False})
        )
        assert spec.build_profile().loss is None

    def test_scratch_profile_without_base(self):
        spec = ScenarioSpec.from_dict(
            {
                "name": "scratch",
                "topology": {
                    "factory": "single-switch",
                    "params": {"nic_bandwidth": 100e6},
                },
                "transport": {"base_latency": 20e-6},
            }
        )
        profile = spec.build_profile()
        assert profile.loss is None and profile.hol is None
        assert profile.transport.base_latency == 20e-6
        assert profile.transport.name == "scratch"
        assert profile.topology(4).n_hosts == 4

    def test_hol_override_builds_penalty(self):
        spec = ScenarioSpec.from_dict(
            spec_dict(hol={"eta": {"HOST_RX": 0.5}})
        )
        profile = spec.build_profile()
        assert profile.hol is not None and profile.hol.enabled

    def test_unknown_link_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown link kind"):
            ScenarioSpec.from_dict(
                spec_dict(loss={"sat_flows": {"WORMHOLE": 4}})
            ).build_profile()

    @pytest.mark.parametrize("loss, message", [
        # A zero threshold made a vector sweep lose a packet every epoch
        # and never finish.
        ({"sat_flows": {"HOST_TX": 0}}, r"sat_flows\[HOST_TX\] must be >= 1"),
        ({"rto_min": -1.0}, r"need 0 < rto_min <= rto_max"),
    ], ids=["sat_flows", "rto_min"])
    def test_invalid_loss_value_is_a_scenario_error(self, loss, message):
        with pytest.raises(ScenarioError, match=message):
            ScenarioSpec.from_dict(spec_dict(loss=loss)).build_profile()


class TestCachePayload:
    def test_payload_excludes_presentation_fields(self):
        a = ScenarioSpec.from_dict(spec_dict())
        b = ScenarioSpec.from_dict(spec_dict(name="other", description="zzz"))
        assert a.cache_payload() == b.cache_payload()

    def test_payload_tracks_every_definition_field(self):
        base = ScenarioSpec.from_dict(spec_dict()).cache_payload()
        variants = [
            spec_dict(transport={"mux_overhead": 9e-3}),
            spec_dict(loss={"coeff_per_byte": 5e-9}),
            spec_dict(start_skew_scale=1e-3),
            spec_dict(max_hosts=32),
            spec_dict(
                topology={
                    "factory": "edge-core",
                    "params": {
                        "nic_bandwidth": 117.6e6,
                        "hosts_per_edge": 5,
                        "trunk_bandwidth": 200e6,
                    },
                }
            ),
        ]
        for variant in variants:
            assert ScenarioSpec.from_dict(variant).cache_payload() != base

    def test_payload_is_jsonable(self):
        json.dumps(ScenarioSpec.from_dict(spec_dict()).cache_payload())


class TestTopologySpec:
    def test_build_uses_registry(self):
        topo = TopologySpec("single_switch", {"nic_bandwidth": 1e8}).build(3)
        assert topo.n_hosts == 3

    def test_missing_factory_rejected(self):
        with pytest.raises(ScenarioError, match="factory"):
            TopologySpec("")


class TestLoadTimeValidation:
    def test_unknown_topology_factory_fails_at_load(self):
        with pytest.raises(ScenarioError, match="unknown topology 'torus2d'"):
            ScenarioSpec.from_dict(
                spec_dict(topology={"factory": "torus2d", "params": {}})
            )

    def test_builtin_plugin_detection(self):
        assert ScenarioSpec.from_dict(spec_dict()).uses_only_builtin_plugins()

    def test_user_plugin_detection(self):
        from repro.registry import TOPOLOGIES, register_topology

        @register_topology("test-user-topo")
        def user_topo(n_hosts, **params):
            pass

        try:
            spec = ScenarioSpec.from_dict(
                spec_dict(topology={"factory": "test-user-topo", "params": {}})
            )
            assert not spec.uses_only_builtin_plugins()
        finally:
            TOPOLOGIES.unregister("test-user-topo")
