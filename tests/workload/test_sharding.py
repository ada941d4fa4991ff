"""Shard fan-out over artifact files: equivalence, cleanup, failure paths."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.casestudy import CLIENTS, printing_mapping
from repro.errors import AnalysisError
from repro.fanout import balance
from repro.workload import Population, UserClass, evaluate_population
from repro.workload import sharding
from repro.workload.sharding import evaluate_sharded, sharding_supported

pytestmark = pytest.mark.fanout

needs_mp = pytest.mark.skipif(
    not sharding_supported(), reason="cannot start worker processes here"
)

CLASSES = (
    UserClass("std", weight=4, device_availability=0.98, jitter=0.05),
    UserClass("gold", weight=1, device_availability=0.9999),
)


def usi_mapping(client):
    return printing_mapping(client, "p2")


class TestBalance:
    def test_spreads_by_cost(self):
        assignments = balance([100, 1, 1, 1, 1], workers=2)
        loads = [sum([100, 1, 1, 1, 1][i] for i in a) for a in assignments]
        # the four small tasks all land opposite the giant one
        assert sorted(loads) == [4, 100]

    def test_every_task_assigned_once(self):
        assignments = balance([3, 5, 2, 8, 1, 1], workers=3)
        flat = sorted(i for a in assignments for i in a)
        assert flat == [0, 1, 2, 3, 4, 5]


class TestEvaluateSharded:
    def test_rejects_single_shard(self):
        with pytest.raises(AnalysisError, match="shards >= 2"):
            evaluate_sharded([], shards=1)

    @needs_mp
    def test_empty_tasks(self):
        assert evaluate_sharded([], shards=2) == ([], [])

    @needs_mp
    def test_matches_single_process_and_releases_shm(
        self, usi_topo, printing, no_fanout_leftovers
    ):
        population = Population.generate(4000, CLASSES, CLIENTS, seed=9)
        serial = evaluate_population(
            usi_topo, printing, usi_mapping, population
        )
        sharded = evaluate_population(
            usi_topo, printing, usi_mapping, population, shards=2
        )
        assert sharded.shards == 2
        assert len(sharded.shard_seconds) == 2
        assert all(s >= 0.0 for s in sharded.shard_seconds)
        # same IEEE arithmetic, different process: bit-exact agreement
        assert np.array_equal(serial.availability, sharded.availability)

    def test_worker_failure_cleans_up_and_raises(
        self, usi_topo, printing, monkeypatch, forked_workers, no_fanout_leftovers
    ):
        """A crashing worker must surface as AnalysisError with the shard
        named, and the scratch directory must still be removed.  Fork
        inherits the monkeypatched worker body, so the crash happens in
        the child."""

        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(sharding, "_shard_worker", crash)
        population = Population.generate(1000, CLASSES, CLIENTS, seed=9)
        with pytest.raises(AnalysisError, match="shard 0: exit code 1"):
            evaluate_population(
                usi_topo, printing, usi_mapping, population, shards=2
            )

    def test_timed_out_worker_is_terminated(
        self, usi_topo, printing, monkeypatch, forked_workers, no_fanout_leftovers
    ):
        """A worker that outlives the timeout is terminated and named."""

        def hang(*args, **kwargs):
            time.sleep(60)

        monkeypatch.setattr(sharding, "_shard_worker", hang)
        population = Population.generate(400, CLASSES, CLIENTS, seed=2)
        tasks, _ = _collect_tasks(usi_topo, printing, population)
        started = time.monotonic()
        with pytest.raises(AnalysisError, match="shard 0: timed out") as info:
            evaluate_sharded(tasks, shards=2, timeout=0.5)
        assert time.monotonic() - started < 5.0
        assert "shared-memory" not in str(info.value)
        assert "shard 1: timed out" in str(info.value)

    @needs_mp
    def test_more_shards_than_tasks_clamps(self, usi_topo, printing):
        # two attachment keys, eight requested shards -> clamped, correct
        population = Population(
            CLASSES,
            ("t1", "t15"),
            class_index=np.array([0, 1, 0, 1], dtype=np.int32),
            attachment_index=np.array([0, 0, 1, 1], dtype=np.int32),
        )
        report = evaluate_population(
            usi_topo, printing, usi_mapping, population, shards=8
        )
        serial = evaluate_population(
            usi_topo, printing, usi_mapping, population
        )
        assert np.array_equal(report.availability, serial.availability)


class TestFallbacks:
    def test_single_key_population_skips_sharding(self, usi_topo, printing):
        population = Population(
            (UserClass("std"),),
            ("t1",),
            class_index=np.zeros(10, dtype=np.int32),
            attachment_index=np.zeros(10, dtype=np.int32),
        )
        report = evaluate_population(
            usi_topo, printing, usi_mapping, population, shards=4
        )
        assert report.shards == 0  # one task: nothing to fan out

    def test_unsupported_platform_falls_back(
        self, usi_topo, printing, monkeypatch
    ):
        """Where no worker process can start, the plane runs the
        single-process path and a direct call refuses to shard."""
        monkeypatch.setattr(sharding, "sharding_supported", lambda: False)
        population = Population.generate(500, CLASSES, CLIENTS, seed=1)
        report = evaluate_population(
            usi_topo, printing, usi_mapping, population, shards=4
        )
        assert report.shards == 0
        naive_free = evaluate_population(
            usi_topo, printing, usi_mapping, population
        )
        assert np.array_equal(report.availability, naive_free.availability)
        tasks, _ = _collect_tasks(usi_topo, printing, population)
        with pytest.raises(AnalysisError, match="not supported"):
            evaluate_sharded(tasks, shards=2)


class TestArtifactTransport:
    """The artifact-file transport: workers map per-task artifacts."""

    @needs_mp
    def test_matches_single_process(self, usi_topo, printing):
        """Workers map read-only kernel artifacts and agree bit for bit
        with the in-process path."""
        population = Population.generate(2000, CLASSES, CLIENTS, seed=9)
        serial = evaluate_population(
            usi_topo, printing, usi_mapping, population
        )
        tasks, rows = _collect_tasks(usi_topo, printing, population)
        results, shard_seconds = evaluate_sharded(tasks, shards=2)
        assert len(shard_seconds) == 2
        assert all(s >= 0.0 for s in shard_seconds)
        assert np.array_equal(serial.availability, _scatter(population, rows, results))

    @needs_mp
    def test_spawn_start_method(
        self, usi_topo, printing, helper_thread, no_fanout_leftovers
    ):
        """With another thread alive the workers spawn: they re-import
        the module and rebuild everything from the artifact files."""
        population = Population.generate(400, CLASSES, CLIENTS, seed=3)
        serial = evaluate_population(
            usi_topo, printing, usi_mapping, population
        )
        tasks, rows = _collect_tasks(usi_topo, printing, population)
        results, _ = evaluate_sharded(tasks, shards=2)
        assert np.array_equal(serial.availability, _scatter(population, rows, results))

    def test_worker_failure_raises(
        self, usi_topo, printing, monkeypatch, forked_workers
    ):
        """One error names every failed shard."""

        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(sharding, "_shard_worker", crash)
        population = Population.generate(400, CLASSES, CLIENTS, seed=2)
        tasks, _ = _collect_tasks(usi_topo, printing, population)
        with pytest.raises(
            AnalysisError,
            match="shard worker.*shard 0: exit code 1; shard 1: exit code 1",
        ):
            evaluate_sharded(tasks, shards=2)


def _scatter(population, rows, results):
    """Per-user availability from per-task results, as the plane does."""
    availability = np.empty(population.n_users, dtype=np.float64)
    for (_, _, _, _, user_rows, inverse), row_avail in zip(rows, results):
        availability[user_rows] = row_avail[inverse]
    return availability


def _collect_tasks(usi_topo, printing, population):
    """Build the same per-key tasks the evaluation plane would fan out."""
    from repro.analysis.transformations import component_availabilities
    from repro.workload.plane import _kernels_for_attachments

    table = component_availabilities(usi_topo)
    device_avail = population.device_availability(table)
    present = np.unique(population.attachment_index)
    attachments = [population.attachments[i] for i in present]
    kernels = _kernels_for_attachments(
        usi_topo,
        printing,
        usi_mapping,
        attachments,
        include_links=True,
    )
    tasks = []
    rows = []
    for attachment_ix, attachment in zip(present, attachments):
        kernel = kernels[attachment]
        user_rows = np.flatnonzero(
            population.attachment_index == attachment_ix
        )
        base = kernel.probability_vector(table)
        var = kernel.index.get(attachment)
        if var is None:
            var = 0
            unique_values = base[:1].copy()
            inverse = np.zeros(len(user_rows), dtype=np.intp)
        else:
            unique_values, inverse = np.unique(
                device_avail[user_rows], return_inverse=True
            )
        tasks.append((kernel, base, var, unique_values))
        rows.append((kernel, base, var, unique_values, user_rows, inverse))
    return tasks, rows
