"""Displacement metrics and the experiment runner."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

import crowdcast as cc
from crowdcast.core import DataError, Trajectory
from crowdcast.dynamics import ForceParams
from crowdcast.evaluate import (
    Window,
    ade,
    fde,
    min_over_candidates,
    run_experiment,
)

from conftest import STEP, benchmark_tracks, line_track


def _grid(agent_id, frames, positions):
    return Trajectory.from_frame_grid(agent_id, frames, positions, STEP)


class TestAdeFde:
    def test_hand_computed_offsets(self):
        gt = _grid("gt", [0, 1, 2], [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        pred = _grid("p", [0, 1, 2], [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert ade(pred, gt) == pytest.approx(1.0)
        assert fde(pred, gt) == pytest.approx(2.0)

    def test_identical_tracks_score_zero(self):
        gt = _grid("gt", [5, 6, 7], [[0.0, 1.0], [0.5, 1.0], [1.0, 1.0]])
        assert ade(gt, gt) == 0.0
        assert fde(gt, gt) == 0.0

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        a = _grid("a", np.arange(6), rng.normal(size=(6, 2)))
        b = _grid("b", np.arange(6), rng.normal(size=(6, 2)))
        assert ade(a, b) == ade(b, a)
        assert fde(a, b) == fde(b, a)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(12)
        a = _grid("a", np.arange(8), rng.normal(size=(8, 2)))
        b = _grid("b", np.arange(8), rng.normal(size=(8, 2)))
        theta = 0.7
        rot = np.array([[np.cos(theta), -np.sin(theta)],
                        [np.sin(theta), np.cos(theta)]])
        shift = np.array([3.0, -2.0])
        a2 = _grid("a", a.frames, a.positions @ rot.T + shift)
        b2 = _grid("b", b.frames, b.positions @ rot.T + shift)
        assert ade(a2, b2) == pytest.approx(ade(a, b), abs=1e-12)
        assert fde(a2, b2) == pytest.approx(fde(a, b), abs=1e-12)

    def test_length_mismatch_rejected(self):
        gt = _grid("gt", [0, 1], [[0.0, 0.0], [1.0, 0.0]])
        pred = _grid("p", [0, 1, 2], np.zeros((3, 2)))
        with pytest.raises(DataError):
            ade(pred, gt)

    def test_frame_mismatch_rejected(self):
        gt = _grid("gt", [0, 1], [[0.0, 0.0], [1.0, 0.0]])
        pred = _grid("p", [1, 2], [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(DataError):
            ade(pred, gt)
        with pytest.raises(DataError):
            fde(pred, gt)

    def test_empty_rejected(self):
        empty = Trajectory("e", np.zeros(0, dtype=np.int64), np.zeros(0),
                           np.zeros((0, 2)))
        with pytest.raises(DataError):
            ade(empty, empty)
        with pytest.raises(DataError):
            fde(empty, empty)


class TestMinOverCandidates:
    def test_argmins_taken_independently(self):
        gt = _grid("gt", [0, 1, 2], np.zeros((3, 2)))
        steady = _grid("A", [0, 1, 2], np.full((3, 2), [0.4, 0.0]))
        late = _grid("B", [0, 1, 2], [[2.0, 0.0], [2.0, 0.0], [0.0, 0.0]])
        min_ade, min_fde, (ai, fi) = min_over_candidates([steady, late], gt)
        assert min_ade == pytest.approx(0.4)
        assert min_fde == pytest.approx(0.0)
        assert (ai, fi) == (0, 1)

    def test_single_candidate(self):
        gt = _grid("gt", [0, 1], [[0.0, 0.0], [1.0, 0.0]])
        only = _grid("c", [0, 1], [[0.0, 0.3], [1.0, 0.3]])
        min_ade, min_fde, (ai, fi) = min_over_candidates([only], gt)
        assert min_ade == pytest.approx(0.3)
        assert min_fde == pytest.approx(0.3)
        assert (ai, fi) == (0, 0)

    def test_no_candidates_rejected(self):
        gt = _grid("gt", [0], [[0.0, 0.0]])
        with pytest.raises(DataError):
            min_over_candidates([], gt)


class TestWindow:
    def test_frame_arithmetic(self, cfg):
        w = Window(99)
        assert w.horizon_last(cfg) == 129


@pytest.fixture(scope="module")
def report():
    cfg = cc.Config()
    tracks = benchmark_tracks(4)
    params = ForceParams.from_config(cfg, substeps=1)
    return run_experiment(tracks, cc.SceneGeometry.empty(), [Window(99)],
                          cfg, params)


class TestRunExperiment:
    def test_counts_partition_the_tracks(self, report):
        row = report.rows[0]
        assert row.n_agents == 4
        assert row.n_skipped == 4
        assert row.n_groups == 4

    def test_accuracy_on_replayable_tracks(self, report):
        row = report.rows[0]
        assert row.min_ade < 0.05
        assert row.min_fde < 0.05
        assert report.overall_min_ade < 0.05
        assert 0.0 <= report.beats_baseline_fraction() <= 1.0

    def test_candidate_counts(self, report, cfg):
        assert report.k_used == cfg.k_candidates + 1
        for rec in report.agents:
            assert rec.n_candidates == report.k_used
            assert 0 <= rec.ade_argmin < rec.n_candidates
            assert 0 <= rec.fde_argmin < rec.n_candidates

    def test_agent_records_carry_window(self, report):
        assert {rec.endtime for rec in report.agents} == {99}
        assert {rec.group_size for rec in report.agents} == {1}
        assert {rec.emotion for rec in report.agents} == {1.0}

    def test_text_table_layout(self, report):
        table = report.text_table()
        lines = table.splitlines()
        assert lines[0] == "K = 6 candidates per group"
        assert "Endtime= 99" in lines[1]
        assert lines[2].startswith("hybrid")
        assert lines[3].startswith("baseline")
        assert lines[4].startswith("groups")
        assert lines[5].startswith("agents")
        assert "4 (4 skipped)" in lines[5]
        assert "--" not in table

    def test_csv_format(self, report):
        text = report.csv_bytes().decode()
        lines = text.splitlines()
        assert lines[0] == "endtime,min_ade,min_fde,n_agents,n_skipped"
        fields = lines[1].split(",")
        assert fields[0] == "99"
        assert float(fields[1]) == pytest.approx(report.rows[0].min_ade)
        assert fields[3] == "4"
        assert fields[4] == "4"

    def test_window_without_groups_yields_nan_row(self):
        cfg = cc.Config()
        tracks = benchmark_tracks(2)
        params = ForceParams.from_config(cfg, substeps=1)
        report = run_experiment(tracks, cc.SceneGeometry.empty(),
                                [Window(1000)], cfg, params)
        row = report.rows[0]
        assert row.n_agents == 0
        assert row.n_skipped == 4
        assert math.isnan(row.min_ade)
        assert "n/a" in report.text_table()
        assert "--" not in report.text_table()

    def test_k_override_visible_in_report(self):
        cfg = replace(cc.Config(), k_candidates=1)
        tracks = benchmark_tracks(2)
        params = ForceParams.from_config(cfg, substeps=1)
        report = run_experiment(tracks, cc.SceneGeometry.empty(), [Window(99)],
                                cfg, params)
        assert report.k_used == 2
        assert report.text_table().startswith("K = 2 candidates per group")
        for rec in report.agents:
            assert rec.n_candidates == 2

    def test_multiple_windows_one_row_each(self):
        cfg = cc.Config()
        tracks = benchmark_tracks(2)
        params = ForceParams.from_config(cfg, substeps=1)
        report = run_experiment(tracks, cc.SceneGeometry.empty(),
                                [Window(90), Window(99)], cfg, params)
        assert [r.endtime for r in report.rows] == [90, 99]
        table = report.text_table()
        assert "Endtime= 90" in table and "Endtime= 99" in table


def test_beats_baseline_counts_ties_as_wins():
    from crowdcast.evaluate import AgentRecord, MetricReport, WindowRow

    def rec(min_ade, baseline_ade):
        return AgentRecord(0, "a", 1, 1.0, min_ade, 0.0, 0, 0,
                           baseline_ade, 0.0, 2)

    row = WindowRow(0, 3, 3, 0, 0.0, 0.0, 0.0, 0.0)
    report = MetricReport(2, (row,), (rec(0.5, 0.5), rec(0.4, 0.6),
                                      rec(0.7, 0.1)))
    assert report.beats_baseline_fraction() == pytest.approx(2.0 / 3.0)
    empty = MetricReport(2, (), ())
    assert math.isnan(empty.beats_baseline_fraction())


def test_jitter_mode_is_seed_deterministic():
    cfg = cc.Config()
    tracks = [line_track("p0", 40, 90, (0.0, 0.0), (1.0, 0.0))]
    k = np.arange(90)
    wiggle = np.column_stack([k * STEP, 0.4 + 0.06 * np.sin(0.7 * k)])
    tracks.append(Trajectory.from_frame_grid("p1", 40 + k, wiggle, STEP))
    tracks.append(line_track("hist", 0, 65, (-5.0, 0.2), (1.1, 0.0)))
    params = ForceParams.from_config(cfg, substeps=1)
    kw = dict(mode="seeded-jitter", seed=7)
    one = run_experiment(tracks, cc.SceneGeometry.empty(), [Window(99)],
                         cfg, params, **kw)
    two = run_experiment(tracks, cc.SceneGeometry.empty(), [Window(99)],
                         cfg, params, **kw)
    other = run_experiment(tracks, cc.SceneGeometry.empty(), [Window(99)],
                           cfg, params, mode="seeded-jitter", seed=8)
    assert [r.min_ade for r in one.agents] == [r.min_ade for r in two.agents]
    assert one.rows[0].n_agents == 2
    assert [r.min_ade for r in one.agents] != [r.min_ade for r in other.agents]
