"""The population model: classes, generation, device annotations."""

from __future__ import annotations

import numpy as np
import pytest

from repro.casestudy import CLIENTS, table1_mapping
from repro.errors import AnalysisError, MappingError
from repro.workload import (
    Population,
    UserClass,
    mapping_for_user,
    parse_user_classes,
)


class TestUserClass:
    def test_defaults(self):
        cls = UserClass("std")
        assert cls.weight == 1.0
        assert cls.device_availability is None
        assert cls.jitter == 0.0
        assert cls.demand == 1.0
        assert cls.mobility == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"name": ""},
            {"name": "x", "weight": 0.0},
            {"name": "x", "weight": -1.0},
            {"name": "x", "device_availability": 1.5},
            {"name": "x", "device_availability": -0.1},
            {"name": "x", "jitter": 1.0},
            {"name": "x", "jitter": -0.2},
            {"name": "x", "demand": 0.0},
            {"name": "x", "mobility": 0.0},
            {"name": "x", "mobility": 1.2},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(AnalysisError):
            UserClass(**kwargs)


class TestParseUserClasses:
    def test_full_spec(self):
        classes = parse_user_classes("std:4:0.98:0.05,gold:1:0.9999")
        assert [c.name for c in classes] == ["std", "gold"]
        assert classes[0].weight == 4.0
        assert classes[0].device_availability == 0.98
        assert classes[0].jitter == 0.05
        assert classes[1].device_availability == 0.9999
        assert classes[1].jitter == 0.0

    def test_name_only(self):
        (cls,) = parse_user_classes("mobile")
        assert cls == UserClass("mobile")

    @pytest.mark.parametrize(
        "spec",
        ["", " , ", "a:1:2:3:4", "a:notanumber", "dup:1,dup:2"],
    )
    def test_bad_specs(self, spec):
        with pytest.raises(AnalysisError):
            parse_user_classes(spec)


class TestPopulation:
    def test_generate_is_deterministic(self):
        classes = parse_user_classes("std:4:0.98:0.05,gold:1:0.9999")
        a = Population.generate(5000, classes, CLIENTS, seed=42)
        b = Population.generate(5000, classes, CLIENTS, seed=42)
        assert np.array_equal(a.class_index, b.class_index)
        assert np.array_equal(a.attachment_index, b.attachment_index)
        assert np.array_equal(a.jitter_unit, b.jitter_unit)
        c = Population.generate(5000, classes, CLIENTS, seed=43)
        assert not np.array_equal(a.attachment_index, c.attachment_index)

    def test_generate_respects_weights(self):
        classes = parse_user_classes("heavy:9,light:1")
        population = Population.generate(20_000, classes, CLIENTS, seed=0)
        counts = population.class_counts()
        assert counts["heavy"] + counts["light"] == 20_000
        assert counts["heavy"] / 20_000 == pytest.approx(0.9, abs=0.02)

    def test_low_mobility_concentrates(self):
        sedentary = UserClass("desk", mobility=0.1)
        population = Population.generate(
            2000, (sedentary,), CLIENTS, seed=0
        )
        used = population.attachment_counts()
        # mobility 0.1 of 15 clients -> roaming window of 2 positions
        assert len(used) == 2

    def test_validation(self):
        std = UserClass("std")
        with pytest.raises(AnalysisError, match="at least one user class"):
            Population((), CLIENTS, np.zeros(1), np.zeros(1))
        with pytest.raises(AnalysisError, match="at least one attachment"):
            Population((std,), (), np.zeros(1), np.zeros(1))
        with pytest.raises(AnalysisError, match="repeat"):
            Population((std,), ("t1", "t1"), np.zeros(1), np.zeros(1))
        with pytest.raises(AnalysisError, match="disagree"):
            Population((std,), ("t1",), np.zeros(2), np.zeros(1))
        with pytest.raises(AnalysisError, match="class_index out of range"):
            Population((std,), ("t1",), np.array([1]), np.zeros(1))
        with pytest.raises(AnalysisError, match="attachment_index out of range"):
            Population((std,), ("t1",), np.zeros(1), np.array([3]))
        with pytest.raises(AnalysisError, match="jitter_unit"):
            Population(
                (std,), ("t1",), np.zeros(1), np.zeros(1), np.zeros(4)
            )
        # the plane's affine rule needs r_u in [0, 1): no device clips
        for bad in (1.0, -0.1, np.nan):
            with pytest.raises(AnalysisError, match="jitter_unit out of range"):
                Population(
                    (std,), ("t1",), np.zeros(1), np.zeros(1), np.array([bad])
                )
        with pytest.raises(AnalysisError, match="size must be >= 1"):
            Population.generate(0, (std,), CLIENTS)

    def test_device_availability_override_and_jitter(self):
        classes = (
            UserClass("plain"),
            UserClass("gold", device_availability=0.5),
            UserClass("shaky", jitter=0.5),
        )
        population = Population(
            classes,
            ("t1", "t2"),
            class_index=np.array([0, 1, 2]),
            attachment_index=np.array([0, 1, 0]),
            jitter_unit=np.array([0.0, 0.9, 0.5]),
        )
        table = {"t1": 0.8, "t2": 0.9}
        device = population.device_availability(table)
        assert device[0] == pytest.approx(0.8)  # table value, no jitter draw
        assert device[1] == pytest.approx(0.5)  # class override wins
        assert device[2] == pytest.approx(0.8 * (1 - 0.5 * 0.5))

    def test_device_availability_missing_attachment(self):
        population = Population(
            (UserClass("std"),), ("ghost",), np.zeros(1), np.zeros(1)
        )
        with pytest.raises(AnalysisError, match="ghost"):
            population.device_availability({"t1": 0.9})


class TestMappingForUser:
    def test_substitutes_every_role(self):
        factory = mapping_for_user(table1_mapping(), "t1")
        moved = factory("t15")
        for pair in moved.pairs:
            assert "t1" not in (pair.requester, pair.provider)
        assert any(
            "t15" in (p.requester, p.provider) for p in moved.pairs
        )

    def test_identity_position_returns_template(self):
        template = table1_mapping()
        factory = mapping_for_user(template, "t1")
        assert factory("t1") is template

    def test_unknown_user_component_raises(self):
        with pytest.raises(MappingError, match="does not appear"):
            mapping_for_user(table1_mapping(), "nobody")
