import json

import numpy as np
import pytest

from evroute import (
    GenConfig,
    NodeKind,
    StationCandidate,
    bfd_initial,
    charging_score,
    generate,
    load,
    preselect_station,
    save,
)
from evroute.errors import (
    GenerationFailedError,
    InstanceFormatError,
    UnsupportedVersionError,
)
from evroute.gen import MAX_EVENTS_PER_DAY


class TestGenerate:
    def test_minimal_instance_shape(self):
        inst = generate(GenConfig(seed=1, max_events=1, max_days=1))
        kinds = [nd.kind for nd in inst.nodes]
        assert kinds == [NodeKind.START, kinds[1], NodeKind.SEPARATOR, NodeKind.END]
        assert kinds[1] in (NodeKind.FIXED, NodeKind.FLEXIBLE)
        assert inst.n == 4

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save(generate(GenConfig(seed=5)), a)
        save(generate(GenConfig(seed=5)), b)
        assert a.read_bytes() == b.read_bytes()

    def test_event_counts_within_cap(self):
        for seed in range(100):
            inst = generate(GenConfig(seed=seed))
            assert inst.event_count <= 120

    def test_exact_event_count_override(self):
        for ev in (1, 6, 18):
            inst = generate(GenConfig(seed=3, event_count=ev))
            assert inst.event_count == ev

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            GenConfig(seed=-1)

    @pytest.mark.parametrize("field, value", [
        ("area_km", float("nan")),
        ("area_km", float("inf")),
        ("area_km", 0.0),
        ("speed_kmh", 0.0),
        ("speed_kmh", -40.0),
        ("speed_kmh", float("nan")),
        ("max_walk_meters", -1.0),
        ("max_walk_meters", float("nan")),
        ("max_walk_meters", float("inf")),
        ("stations_per_event", 0),
        ("noise", (1.0, float("nan"))),
        ("noise", (1.0, float("inf"))),
        ("noise", (float("nan"), 1.3)),
    ])
    def test_bad_setting_rejected_at_construction(self, field, value):
        with pytest.raises(ValueError, match=field):
            GenConfig(seed=0, **{field: value})

    def test_too_dense_request_fails_loudly(self):
        with pytest.raises(GenerationFailedError):
            generate(GenConfig(seed=0, max_days=1, event_count=MAX_EVENTS_PER_DAY + 1))

    def test_fixed_windows_totally_ordered(self):
        for seed in range(20):
            inst = generate(GenConfig(seed=seed, event_count=8, max_days=2, fixed_fraction=0.9))
            fixed = [nd for nd in inst.nodes if nd.kind is NodeKind.FIXED]
            for a, b in zip(fixed, fixed[1:]):
                assert a.fixed_arrival + a.duration < b.fixed_arrival

    def test_every_instance_admits_a_feasible_schedule(self):
        for seed in range(30):
            inst = generate(GenConfig(seed=seed, event_count=4 + seed % 4, max_days=2))
            assert bfd_initial(inst) is not None

    def test_distance_matrix_is_asymmetric_jitter(self):
        inst = generate(GenConfig(seed=8, event_count=6))
        off_diag = ~np.eye(inst.n, dtype=bool)
        assert (inst.dist[off_diag] >= 0).all()
        assert not np.allclose(inst.dist, inst.dist.T)

    def test_battery_window(self):
        for seed in range(20):
            inst = generate(GenConfig(seed=seed, event_count=5))
            assert 150.0 <= inst.k_max <= 400.0
            assert 0.3 * inst.k_max <= inst.k_start <= 0.8 * inst.k_max
            assert 0.0 <= inst.k_min <= inst.k_start


class TestChargingScore:
    def test_saturated(self):
        cfg = GenConfig(seed=0)
        assert charging_score(StationCandidate(150.0, 0.0, 4), cfg) == pytest.approx(1.0)

    def test_zero(self):
        cfg = GenConfig(seed=0)
        assert charging_score(StationCandidate(0.0, 500.0, 0), cfg) == pytest.approx(0.0)

    def test_halfway(self):
        cfg = GenConfig(seed=0)
        assert charging_score(StationCandidate(75.0, 250.0, 2), cfg) == pytest.approx(0.5)

    def test_incompatible_excluded_before_scoring(self):
        cfg = GenConfig(seed=0)
        with pytest.raises(ValueError):
            charging_score(StationCandidate(75.0, 0.0, 2, compatible=False), cfg)
        picked = preselect_station(
            [
                StationCandidate(300.0, 0.0, 8, compatible=False),
                StationCandidate(50.0, 100.0, 2),
            ],
            cfg,
        )
        assert picked[0] == 1

    def test_ties_prefer_shorter_walk_then_index(self):
        cfg = GenConfig(seed=0)
        # same score profile: power saturated, plugs saturated, same walk
        same = StationCandidate(150.0, 100.0, 4)
        assert preselect_station([same, StationCandidate(150.0, 50.0, 4)], cfg)[0] == 1
        assert preselect_station([same, same], cfg)[0] == 0


class TestSaveLoad:
    def test_round_trip_identity(self, tmp_path, seed42):
        p = tmp_path / "i.json"
        save(seed42, p)
        assert load(p) == seed42

    def test_truncated_file_is_parse_error(self, tmp_path, seed42):
        p = tmp_path / "i.json"
        save(seed42, p)
        text = p.read_text()
        p.write_text(text[: len(text) // 2])
        with pytest.raises(InstanceFormatError) as e:
            load(p)
        assert e.value.offset >= 0

    def test_version_mismatch(self, tmp_path, seed42):
        p = tmp_path / "i.json"
        save(seed42, p)
        doc = json.loads(p.read_text())
        doc["version"] = 99
        p.write_text(json.dumps(doc))
        with pytest.raises(UnsupportedVersionError):
            load(p)

    def test_missing_field_is_format_error(self, tmp_path, seed42):
        p = tmp_path / "i.json"
        save(seed42, p)
        doc = json.loads(p.read_text())
        del doc["nodes"]
        p.write_text(json.dumps(doc))
        with pytest.raises(InstanceFormatError):
            load(p)

    def test_hand_written_three_node_file(self, tmp_path):
        doc = {
            "version": 1,
            "k_min": 5.0,
            "k_max": 200.0,
            "k_start": 150.0,
            "epsilon": 0.001,
            "separators": [],
            "weights": {
                "wd": 1.0,
                "wt": 0.0,
                "wc": 0.0,
                "prefs": [1.0, 0.0, 0.0],
                "bounds": [[0.0, 1.0], [0.0, 1.0], [-200.0, -5.0]],
            },
            "nodes": [
                {"id": 0, "kind": "start", "a_min": 420, "a_max": 1140,
                 "duration": 0, "fixed_arrival": None, "charging": None},
                {"id": 1, "kind": "flexible", "a_min": 420, "a_max": 1140,
                 "duration": 45, "fixed_arrival": None,
                 "charging": {"walk_time": 2.5, "rate": 0.916667, "max_gain": 41.25,
                              "station": {"power_kw": 11.0, "walk_meters": 200.0, "plug_count": 2}}},
                {"id": 2, "kind": "end", "a_min": 0, "a_max": 2880,
                 "duration": 0, "fixed_arrival": None, "charging": None},
            ],
            "dist": [[0.0, 12.5, 3.0], [11.0, 0.0, 14.25], [3.0, 13.0, 0.0]],
            "travel": [[0.0, 18.75, 4.5], [16.5, 0.0, 21.375], [4.5, 19.5, 0.0]],
        }
        p = tmp_path / "hand.json"
        p.write_text(json.dumps(doc))
        inst = load(p)
        assert inst.n == 3
        assert inst.nodes[1].charging.walk_time == 2.5
        assert bfd_initial(inst) is not None

    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_token_is_format_error(self, tmp_path, seed42, token):
        p = tmp_path / "inst.json"
        save(seed42, p)
        doc = json.loads(p.read_text())
        doc["dist"][1][2] = "TOKEN"
        p.write_text(json.dumps(doc).replace('"TOKEN"', token))
        with pytest.raises(InstanceFormatError, match=token):
            load(p)

    @pytest.mark.parametrize(
        "literal, match",
        [("1e999", "1e999"), ("-1e999", "-1e999"), ("1" + "0" * 400, "too large"), ("9" * 5000, "digits")],
        ids=["float", "negative-float", "int-400-digits", "int-5000-digits"],
    )
    def test_overflowing_number_literal_is_format_error(self, tmp_path, seed42, literal, match):
        p = tmp_path / "inst.json"
        save(seed42, p)
        doc = json.loads(p.read_text())
        doc["dist"][1][2] = doc["k_max"] = "LITERAL"
        p.write_text(json.dumps(doc).replace('"LITERAL"', literal))
        with pytest.raises(InstanceFormatError, match=match):
            load(p)

    def test_non_integer_minutes_rejected_on_save(self, tmp_path, seed42):
        from dataclasses import replace

        node = replace(seed42.nodes[0], a_min=420.5)
        inst = replace(seed42, nodes=(node,) + seed42.nodes[1:])
        with pytest.raises(ValueError):
            save(inst, tmp_path / "x.json")
