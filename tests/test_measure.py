"""Unit tests for the measurement harness (ping-pong, stress, alltoall)."""

import numpy as np
import pytest

from repro.core.signature import AlltoallSample
from repro.exceptions import MeasurementError
from repro.measure.alltoall import measure_alltoall, sweep_grid
from repro.measure.pingpong import (
    hockney_from_pingpong,
    measure_pingpong,
)
from repro.measure.stress import run_stress, stress_sweep


class TestPingPong:
    def test_times_increase_with_size(self, gige_cluster):
        result = measure_pingpong(
            gige_cluster, sizes=[1, 65_536, 1_048_576], reps=1, seed=0
        )
        assert np.all(np.diff(result.one_way_times) > 0)

    def test_reproducible(self, gige_cluster):
        a = measure_pingpong(gige_cluster, sizes=[1, 65_536], reps=2, seed=5)
        b = measure_pingpong(gige_cluster, sizes=[1, 65_536], reps=2, seed=5)
        assert np.array_equal(a.one_way_times, b.one_way_times)

    def test_hockney_fit_close_to_nic_bandwidth(self, gige_cluster):
        result = measure_pingpong(
            gige_cluster, sizes=[1, 65_536, 262_144, 1_048_576], reps=1, seed=0
        )
        fit = hockney_from_pingpong(result)
        # NIC is 117.6 MB/s; wire framing makes the effective beta a bit
        # larger (lower bandwidth).
        assert 90e6 < fit.params.bandwidth < 120e6
        assert 0 <= fit.params.alpha < 1e-3

    def test_needs_two_sizes(self, gige_cluster):
        with pytest.raises(MeasurementError):
            measure_pingpong(gige_cluster, sizes=[1024], reps=1)

    def test_rejects_zero_reps(self, gige_cluster):
        with pytest.raises(MeasurementError):
            measure_pingpong(gige_cluster, sizes=[1, 2048], reps=0)


class TestStress:
    def test_single_connection_near_line_rate(self, gige_cluster):
        run = run_stress(gige_cluster, 1, 8 * 1024 * 1024, seed=0)
        assert run.mean_throughput > 80e6

    def test_throughput_decays_with_connections(self, gige_cluster):
        few = run_stress(gige_cluster, 2, 8 * 1024 * 1024, seed=0)
        many = run_stress(gige_cluster, 30, 8 * 1024 * 1024, seed=0)
        assert many.mean_throughput < few.mean_throughput

    def test_sweep_shapes(self, gige_cluster):
        sweep = stress_sweep(
            gige_cluster, [1, 4], 4 * 1024 * 1024, reps=2, seed=1
        )
        ks, bw = sweep.mean_throughput_curve()
        assert ks.tolist() == [1.0, 4.0]
        xs, ys = sweep.scatter_times()
        assert len(xs) == len(ys) == 2 * (1 + 4)
        assert sweep.saturated_times().shape == (8,)

    def test_too_many_pairs_rejected(self, myrinet_cluster):
        with pytest.raises(MeasurementError, match="hosts"):
            run_stress(myrinet_cluster, 60, 1024, seed=0)

    def test_invalid_inputs(self, gige_cluster):
        with pytest.raises(MeasurementError):
            run_stress(gige_cluster, 0, 1024)
        with pytest.raises(MeasurementError):
            run_stress(gige_cluster, 1, 0)
        with pytest.raises(MeasurementError):
            stress_sweep(gige_cluster, [], 1024)


class TestAlltoallMeasure:
    def test_sample_fields(self, gige_cluster):
        sample = measure_alltoall(gige_cluster, 4, 65_536, reps=2, seed=0)
        assert isinstance(sample, AlltoallSample)
        assert sample.n_processes == 4
        assert sample.reps == 2
        assert sample.mean_time > 0

    def test_reproducible(self, gige_cluster):
        a = measure_alltoall(gige_cluster, 4, 65_536, reps=2, seed=9)
        b = measure_alltoall(gige_cluster, 4, 65_536, reps=2, seed=9)
        assert a.mean_time == b.mean_time

    def test_time_grows_with_message_size(self, gige_cluster):
        samples = sweep_grid(
            gige_cluster, [4], [65_536, 1_048_576], reps=1, seed=0
        )
        assert samples[1].mean_time > samples[0].mean_time

    def test_time_grows_with_nprocs(self, gige_cluster):
        small = measure_alltoall(gige_cluster, 4, 262_144, reps=1, seed=0)
        large = measure_alltoall(gige_cluster, 12, 262_144, reps=1, seed=0)
        assert large.mean_time > small.mean_time

    def test_grid_sweep_count(self, gige_cluster):
        samples = sweep_grid(
            gige_cluster, [4, 6], [1_024, 2_048], reps=1, seed=0
        )
        assert len(samples) == 4

    def test_unknown_algorithm_rejected(self, gige_cluster):
        with pytest.raises(MeasurementError, match="algorithm"):
            measure_alltoall(gige_cluster, 4, 1024, algorithm="nope")

    def test_invalid_params_rejected(self, gige_cluster):
        with pytest.raises(MeasurementError):
            measure_alltoall(gige_cluster, 1, 1024)
        with pytest.raises(MeasurementError):
            measure_alltoall(gige_cluster, 4, 0)
        with pytest.raises(MeasurementError):
            measure_alltoall(gige_cluster, 4, 1024, reps=0)

    def test_sweeps_keep_measurement_error_hierarchy(self, gige_cluster):
        # Engine routing must not change the measure layer's exception
        # contract (callers catch ReproError/MeasurementError).
        with pytest.raises(MeasurementError):
            sweep_grid(gige_cluster, [1], [1024], reps=1)
        with pytest.raises(MeasurementError):
            sweep_grid(gige_cluster, [4], [0], reps=1)
