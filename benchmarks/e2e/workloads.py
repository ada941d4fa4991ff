"""The in-process workloads and the case-study oracle.

Each workload builds its inputs from the run seed, outside the timed
region (:meth:`Workload.next_input`), and times exactly one call into the
program per operation (:meth:`Workload.op`).  Program entry points are
called through their modules so that the traced run's wrappers, which
replace module attributes, see them.  Every check compares against one of
the program's own reference routes and runs untimed.
"""

from __future__ import annotations

import copy
import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.resilience as _resilience
import repro.workload as _workload
from repro.analysis.exact import system_availability_reference
from repro.analysis.transformations import (
    component_availabilities,
    service_path_set_groups,
)
from repro.casestudy import (
    CLIENTS,
    PRINTERS,
    printing_mapping,
    printing_service,
    usi_topology,
)
from repro.cli import build_parser
from repro.core import ServiceMapping, ServiceMappingPair
from repro.core import engine as _engine
from repro.core.churn import ChurnPolicy, ChurnStream, LiveEvaluator
from repro.core.upsim import generate_upsim
from repro.dependability import bdd as _bdd
from repro.network import Topology
from repro.network.generators import campus
from repro.services import AtomicService, CompositeService

from benchmarks.e2e.layers import program_counters
from benchmarks.e2e.spec import derive_seed

#: users per population-campus operation
POPULATION_USERS = 1_000_000
#: users of the naive-oracle subsample
ORACLE_USERS = 1_000
#: churn events between two from-scratch oracle comparisons
CHURN_CHECK_EVERY = 500
TOLERANCE = 1e-12


def casestudy_references() -> Dict[str, float]:
    """``system_availability_reference`` of every (client, printer) mapping,
    keyed ``"client/printer"`` — what ``upsim casestudy`` must print as the
    ``service (all pairs)`` availability (``analyze_upsim`` defaults:
    Formula 1, link failures included)."""
    topology = usi_topology()
    service = printing_service()
    references = {}
    for printer in PRINTERS:
        for client in CLIENTS:
            upsim = generate_upsim(
                topology, service, printing_mapping(client, printer)
            )
            references[f"{client}/{printer}"] = system_availability_reference(
                service_path_set_groups(upsim, include_links=True),
                component_availabilities(
                    upsim.model, formula="paper", include_links=True
                ),
            )
    return references


class Workload:
    """One workload inside one worker process."""

    check_every = 10

    def __init__(self, seed: int, worker: int):
        self.seed = seed
        self.worker = worker

    def next_input(self, index: int):
        raise NotImplementedError

    def op(self, item):
        raise NotImplementedError

    def units(self, item, result) -> int:
        return 1

    def check(self, index: int, item, result) -> Optional[str]:
        """None when *result* matches the oracle, else what differs."""
        return None

    def final_check(self) -> Optional[str]:
        return None

    def counters(self) -> Dict[str, int]:
        return program_counters()

    def extras(self, item, result) -> Dict[str, float]:
        """Per-op layer quantities read off the op's own output."""
        return {}


class PopulationCampus(Workload):
    """``evaluate_population`` over a fresh seeded 1M-user population per
    op on ``campus(4, 4, 4)`` with the two-leg ``access`` service and the
    CLI's default user classes; kernels stay cached across ops."""

    def __init__(self, seed: int, worker: int):
        super().__init__(seed, worker)
        defaults = build_parser().parse_args(["population"])
        self.classes = _workload.parse_user_classes(defaults.classes)
        self.topology = Topology(
            campus(dist_switches=4, edges_per_dist=4, clients_per_edge=4).build()
        )
        self.clients = tuple(
            name for name in self.topology.nodes() if name.startswith("client")
        )
        self.service = CompositeService.sequential(
            "access", (AtomicService("connect"), AtomicService("transfer"))
        )

    @staticmethod
    def mapping_for(client: str) -> ServiceMapping:
        return ServiceMapping(
            [
                ServiceMappingPair("connect", client, "server"),
                ServiceMappingPair("transfer", "server", client),
            ]
        )

    def next_input(self, index: int):
        return _workload.Population.generate(
            POPULATION_USERS,
            self.classes,
            self.clients,
            seed=derive_seed(self.seed, "population", self.worker, index),
        )

    def op(self, population):
        return _workload.evaluate_population(
            self.topology, self.service, self.mapping_for, population
        )

    def units(self, population, report) -> int:
        return population.n_users

    def check(self, index, population, report):
        sample = _workload.Population(
            classes=population.classes,
            attachments=population.attachments,
            class_index=population.class_index[:ORACLE_USERS],
            attachment_index=population.attachment_index[:ORACLE_USERS],
            jitter_unit=population.jitter_unit[:ORACLE_USERS],
        )
        naive = _workload.evaluate_population_naive(
            self.topology, self.service, self.mapping_for, sample
        )
        error = float(
            np.max(np.abs(report.availability[:ORACLE_USERS] - naive))
        )
        if not error <= TOLERANCE:
            return f"population op {index}: naive oracle differs by {error:.3e}"
        return None

    def extras(self, population, report):
        return {"dedup_ratio": report.dedup_ratio}


class ChurnCampus(Workload):
    """One delta-mode ``LiveEvaluator`` (no deadline) on the CLI-default
    campus; each op applies one seeded event with ``submit`` + ``pump``."""

    check_every = CHURN_CHECK_EVERY

    def __init__(self, seed: int, worker: int):
        super().__init__(seed, worker)
        args = build_parser().parse_args(["churn"])
        model = campus(
            dist_switches=args.dist,
            edges_per_dist=args.edges,
            clients_per_edge=args.clients,
            dual_homed=not args.single_homed,
        ).object_model
        clients = sorted(
            (i.name for i in model.instances if i.name.startswith("client")),
            key=lambda name: (len(name), name),
        )
        pairs = [(client, "server") for client in clients[: args.pairs]]
        policy = ChurnPolicy(
            deadline=None, max_retries=args.retries, coalesce_window=args.window
        )
        self.evaluator = LiveEvaluator(model, pairs, policy=policy)
        self.events = iter(
            ChurnStream(
                model, pairs, seed=derive_seed(seed, "churn", worker)
            )
        )

    def next_input(self, index: int):
        return next(self.events)

    def op(self, event):
        self.evaluator.submit(event)
        return self.evaluator.pump()

    def check(self, index, event, fresh):
        return self._compare_with_oracle(f"after event {index + 1}")

    def final_check(self):
        if self.evaluator.quarantine:
            return f"{len(self.evaluator.quarantine)} quarantined churn event(s)"
        return self._compare_with_oracle("at the end")

    def _compare_with_oracle(self, when: str) -> Optional[str]:
        view = self.evaluator.snapshot()
        if view.stale:
            return f"churn snapshot stale {when}"
        oracle = LiveEvaluator(
            copy.deepcopy(self.evaluator.model),
            list(self.evaluator.pairs),
            policy=ChurnPolicy(delta=False),
        ).snapshot().snapshot
        live = view.snapshot
        if set(live.pair_availability) != set(oracle.pair_availability):
            return f"churn pairs differ from the full-recompile oracle {when}"
        error = max(
            abs(value - oracle.pair_availability[pair])
            for pair, value in live.pair_availability.items()
        )
        if not error <= TOLERANCE:
            return f"churn differs from the full-recompile oracle by {error:.3e} {when}"
        return None

    def counters(self):
        counts = program_counters()
        counts["churn.recomputes"] = self.evaluator.stats["recomputes"]
        return counts


class CampaignUSI(Workload):
    """``run_campaign(k=2, include_links=True)`` over every USI (client,
    printer) mapping once per round, in seeded order, with the engine and
    kernel caches cleared before each op as in a fresh CLI run."""

    def __init__(self, seed: int, worker: int):
        super().__init__(seed, worker)
        self.topology = usi_topology()
        self.service = printing_service()
        self.positions = [(c, p) for p in PRINTERS for c in CLIENTS]
        self.rng = random.Random(derive_seed(seed, "campaign", worker))
        self.round: List[Tuple[str, str]] = []

    def next_input(self, index: int):
        # the warm-up op (index -1) draws from a round of its own
        if index % len(self.positions) == 0 or not self.round:
            self.round = list(self.positions)
            self.rng.shuffle(self.round)
        mapping = printing_mapping(*self.round[index % len(self.positions)])
        _engine.path_cache_clear()
        _engine.block_cache_clear()
        _bdd.kernel_cache_clear()
        return mapping

    def op(self, mapping, kernel: str = "bdd"):
        return _resilience.run_campaign(
            self.topology,
            self.service,
            mapping,
            k=2,
            include_links=True,
            kernel=kernel,
        )

    def units(self, mapping, report) -> int:
        return len(report.results)

    def check(self, index, mapping, report):
        """Every combination against the inclusion-exclusion route, and one
        seeded two-fault combination against state enumeration."""
        problem = _ranking_problem(report.results, self.op(mapping, "ie").results)
        if problem:
            return f"campaign op {index} vs kernel=ie: {problem}"
        pairs = [r for r in report.results if len(r.faults) == 2]
        chosen = random.Random(derive_seed(self.seed, "spot", index)).choice(pairs)
        enum = _resilience.run_campaign(
            self.topology,
            self.service,
            mapping,
            candidates=list(chosen.faults),
            k=2,
            kernel="enum",
        )
        reference = [r for r in enum.results if r.faults == chosen.faults]
        problem = _ranking_problem([chosen], reference)
        if problem:
            return f"campaign op {index} vs kernel=enum: {problem}"
        return None

    def extras(self, mapping, report):
        return {"scenarios": len(report.results)}


def _ranking_problem(results: Sequence, reference: Sequence) -> Optional[str]:
    """Where *results* disagree with *reference*: the same combinations
    with the same outcomes, availabilities within 1e-12, and an order that
    is a valid ranking under the reference's values (ties within 1e-12
    may swap)."""
    expected = {r.faults: r for r in reference}
    if set(expected) != {r.faults for r in results}:
        return "different fault combinations"
    for r in results:
        ref = expected[r.faults]
        if (r.unreachable_pairs, r.disconnected_services) != (
            ref.unreachable_pairs,
            ref.disconnected_services,
        ):
            return f"{r.faults}: different outcome"
        if not abs(r.availability - ref.availability) <= TOLERANCE:
            return f"{r.faults}: availability differs by {abs(r.availability - ref.availability):.3e}"
    for first, second in zip(results, results[1:]):
        a, b = expected[first.faults], expected[second.faults]
        if len(a.unreachable_pairs) != len(b.unreachable_pairs):
            ordered = len(a.unreachable_pairs) > len(b.unreachable_pairs)
        else:
            ordered = a.availability_loss >= b.availability_loss - TOLERANCE
        if not ordered:
            return f"{first.faults} ranked above {second.faults}"
    return None


IN_PROCESS = {
    "population-campus": PopulationCampus,
    "churn-campus": ChurnCampus,
    "campaign-usi": CampaignUSI,
}
