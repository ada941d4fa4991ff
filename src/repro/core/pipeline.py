"""The eight-step UPSIM methodology pipeline (Section V-B, Figure 4).

Steps 1–4 provide the input models (profiles + class diagram, object
diagram, activity diagram, mapping XML); Steps 5–8 are "then fully
automated": import into the model space, import the mapping, discover
paths, generate the UPSIM.

:class:`MethodologyPipeline` orchestrates all steps with *incremental
re-execution*: each input setter invalidates exactly the downstream stages
that depend on it, reproducing the paper's dynamicity analysis
(Section V-A3) —

* changing only the **mapping** (user mobility within known positions,
  service migration) re-runs Steps 6–8 and leaves the imported UML models
  untouched;
* changing the **infrastructure** (topology change) re-runs Steps 5–8;
* substituting the **service description** re-runs the service import and
  Steps 6–8 but not the infrastructure import;
* changing the **fault plan** (:meth:`set_fault_plan`) re-runs Steps 7–8
  on a copy-on-write overlay — the cheap path for "what does the UPSIM
  look like when switch S3 is down?".

Every :meth:`run` returns a :class:`PipelineReport` listing, per stage,
whether it executed or was reused from cache, and how long it took — the
quantity benchmark ``test_bench_dynamicity.py`` sweeps.

Failure semantics.  The default is **strict**: any failing stage raises,
and an unreachable mapping pair aborts Step 8 — exactly the seed
behavior.  Passing ``resilience=ResiliencePolicy(...)`` switches to
**graceful degradation**: stages are error-isolated (a failure is
recorded on the :class:`StageReport` and downstream stages are skipped,
never crashed into), Step 7 runs under per-pair timeouts and bounded
retries, unreachable or stalled pairs become structured
:class:`~repro.resilience.runner.PairDiagnostic` records on the report,
and Step 8 produces a *partial* UPSIM covering the reachable pairs.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, Iterator, List, Mapping, Optional, Set, TYPE_CHECKING

from repro.core.engine import discover_many
from repro.core.mapping import ServiceMapping
from repro.core.pathdiscovery import PathSet
from repro.core.upsim import UPSIM, generate_upsim
from repro.errors import MappingError, ReproError, UnreachablePairError
from repro.network.topology import Topology
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.services.composite import CompositeService
from repro.uml.objects import ObjectModel
from repro.vpm.importers import (
    INSTANCES_NS,
    MAPPING_NS,
    PATHS_NS,
    MappingImporter,
    UMLImporter,
    load_paths,
    store_paths,
)
from repro.vpm.modelspace import ModelSpace
from repro.vpm.patterns import Pattern
from repro.vpm.transform import Transformation

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import at load
    from repro.resilience.faults import FaultPlan
    from repro.resilience.runner import PairDiagnostic, ResiliencePolicy
    from repro.workload.plane import PopulationReport as _PopulationReport
    from repro.workload.population import Population

__all__ = ["MethodologyPipeline", "PipelineReport", "StageReport"]

#: Automated stages in execution order (paper step numbers 5-8).
STAGES = ("import_uml", "import_mapping", "discover_paths", "generate_upsim")

#: The optional population-scale stage (Step 9).  Deliberately *not* part
#: of :data:`STAGES`: it only runs when a population is attached, and the
#: incremental-invalidation tests pin the Step 5-8 stage list.
POPULATION_STAGE = "evaluate_population"

_M_RUNS = _metrics.counter(
    "repro_pipeline_runs_total", "MethodologyPipeline.run() invocations"
)
_M_STAGE_RUNS = _metrics.counter(
    "repro_pipeline_stage_runs_total",
    "Pipeline stage executions (incremental reuses not counted)",
    labelnames=("stage",),
)
_M_STAGE_REUSES = _metrics.counter(
    "repro_pipeline_stage_reuses_total",
    "Pipeline stages satisfied from the incremental cache",
    labelnames=("stage",),
)
_M_STAGE_SECONDS = _metrics.histogram(
    "repro_pipeline_stage_seconds",
    "Wall time of executed pipeline stages",
    labelnames=("stage",),
)


@dataclass
class StageReport:
    """Execution record of one automated stage."""

    stage: str
    executed: bool
    seconds: float
    #: failure description when the stage failed or was skipped in
    #: resilient mode (``None`` on success or cache reuse)
    error: Optional[str] = None
    #: the typed exception behind ``error`` when the stage itself raised in
    #: resilient mode (``None`` on success, cache reuse or a skipped stage)
    exception: Optional[ReproError] = None
    #: the trace span covering this stage's execution (``None`` when the
    #: stage was reused from cache or tracing is disabled)
    span: Optional[_trace.Span] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@contextmanager
def _executed_stage(report: PipelineReport, name: str) -> Iterator[StageReport]:
    """Record one executing stage under a ``pipeline.<stage>`` span.

    ``seconds`` is stamped in a ``finally`` so failed stages keep their
    elapsed time (the old success-path-only assignment leaked the timer —
    a raising stage reported 0.0s)."""
    entry = StageReport(name, True, 0.0)
    report.stages.append(entry)
    _M_STAGE_RUNS.labels(stage=name).inc()
    start = time.perf_counter()
    try:
        with _trace.span(f"pipeline.{name}") as span_:
            if isinstance(span_, _trace.Span):
                entry.span = span_
            yield entry
    finally:
        entry.seconds = time.perf_counter() - start
        _M_STAGE_SECONDS.labels(stage=name).observe(entry.seconds)


def _reused_stage(report: PipelineReport, name: str) -> None:
    report.stages.append(StageReport(name, False, 0.0))
    _M_STAGE_REUSES.labels(stage=name).inc()


@dataclass
class PipelineReport:
    """Result of one :meth:`MethodologyPipeline.run` invocation."""

    stages: List[StageReport] = field(default_factory=list)
    upsim: Optional[UPSIM] = None
    #: population-scale evaluation result (optional Step 9; ``None``
    #: unless a population was attached with ``set_population``)
    population: Optional["_PopulationReport"] = None
    #: per-pair discovery outcomes (resilient runs; empty when strict)
    diagnostics: List["PairDiagnostic"] = field(default_factory=list)
    #: True when the run degraded: a stage failed, or at least one
    #: mapping pair contributed no paths to the generated UPSIM
    partial: bool = False

    def executed_stages(self) -> List[str]:
        return [s.stage for s in self.stages if s.executed]

    def reused_stages(self) -> List[str]:
        return [s.stage for s in self.stages if not s.executed and s.ok]

    def failed_stages(self) -> List[str]:
        return [s.stage for s in self.stages if s.error is not None]

    def unreachable_pairs(self) -> List["PairDiagnostic"]:
        return [d for d in self.diagnostics if not d.ok]

    def total_seconds(self) -> float:
        return sum(s.seconds for s in self.stages if s.executed)


class MethodologyPipeline:
    """Stateful orchestration of the methodology with incremental updates."""

    def __init__(self):
        self._infrastructure: Optional[ObjectModel] = None
        self._service: Optional[CompositeService] = None
        self._mapping: Optional[ServiceMapping] = None
        self._fault_plan: Optional["FaultPlan"] = None
        self._fault_tick: Optional[int] = None
        self._dirty: Set[str] = set(STAGES)
        self._path_sets: Optional[Dict[str, PathSet]] = None
        self._diagnostics: List["PairDiagnostic"] = []
        self._discovery_mode: Optional[str] = None
        self._population: Optional["Population"] = None
        self._user_component: Optional[str] = None
        self._population_report: Optional["_PopulationReport"] = None
        self.space: Optional[ModelSpace] = None
        self.upsim: Optional[UPSIM] = None

    # -- Steps 1-4: inputs -----------------------------------------------------

    def set_infrastructure(self, infrastructure: ObjectModel) -> "MethodologyPipeline":
        """Provide the object diagram (output of Steps 1+2).

        Invalidates every automated stage: "changes to the network topology
        require updating … the network model and mapping"."""
        self._infrastructure = infrastructure
        self._dirty |= set(STAGES) | {POPULATION_STAGE}
        return self

    def set_service(self, service: CompositeService) -> "MethodologyPipeline":
        """Provide the composite service description (Step 3).

        Substituting a service re-imports the UML models (the activity
        import is part of Step 5) and everything downstream."""
        self._service = service
        self._dirty |= set(STAGES) | {POPULATION_STAGE}
        return self

    def set_mapping(self, mapping: ServiceMapping) -> "MethodologyPipeline":
        """Provide the service mapping (Step 4).

        Only invalidates Steps 6–8 — the documented cheap path for user
        mobility and service migration."""
        self._mapping = mapping
        self._dirty |= {"import_mapping", "discover_paths", "generate_upsim",
                        POPULATION_STAGE}
        return self

    def set_fault_plan(
        self,
        plan: Optional["FaultPlan"],
        *,
        tick: Optional[int] = None,
    ) -> "MethodologyPipeline":
        """Inject (or clear, with ``None``) a fault plan for Steps 7–8.

        The infrastructure model is never touched: discovery and UPSIM
        generation run on a copy-on-write
        :class:`~repro.resilience.overlay.FaultOverlayTopology`, so only
        Steps 7–8 are invalidated — the same cheap path as a mapping
        change.  *plan* also accepts ``"crash:c1"``-style spec strings or
        an iterable of them; *tick* resolves flapping schedules.
        """
        if plan is not None:
            from repro.resilience.faults import FaultPlan

            if not isinstance(plan, FaultPlan):
                plan = FaultPlan.parse(plan)
        self._fault_plan = plan
        self._fault_tick = tick
        self._dirty |= {"discover_paths", "generate_upsim", POPULATION_STAGE}
        return self

    @property
    def fault_plan(self) -> Optional["FaultPlan"]:
        return self._fault_plan

    def set_population(
        self,
        population: Optional["Population"],
        *,
        user_component: Optional[str] = None,
    ) -> "MethodologyPipeline":
        """Attach (or clear, with ``None``) a user population for Step 9.

        When a population is set, every :meth:`run` finishes with an
        optional ninth stage: the mapping is treated as a *template*
        describing one user position (*user_component*, defaulting to the
        requester of the mapping's first pair), and the vectorized
        evaluation plane (:func:`repro.workload.evaluate_population`)
        computes per-user availability for every attachment in the
        population.  The stage participates in incremental re-execution:
        mapping-only updates re-run it, while an unchanged configuration
        reuses the cached :class:`~repro.workload.PopulationReport`.
        """
        self._population = population
        self._user_component = user_component
        self._population_report = None
        if population is None:
            self._dirty.discard(POPULATION_STAGE)
        else:
            self._dirty.add(POPULATION_STAGE)
        return self

    # -- Steps 5-8: automation ---------------------------------------------------

    def _require_inputs(self) -> None:
        missing = [
            name
            for name, value in (
                ("infrastructure", self._infrastructure),
                ("service", self._service),
                ("mapping", self._mapping),
            )
            if value is None
        ]
        if missing:
            raise ReproError(
                f"pipeline inputs missing: {missing}; provide them with the "
                f"set_* methods (methodology Steps 1-4)"
            )

    def _topology(self) -> Topology:
        """The analyzed topology view: nominal, or the fault overlay."""
        assert self._infrastructure is not None
        topology = Topology(self._infrastructure)
        if self._fault_plan is not None and len(self._fault_plan):
            return self._fault_plan.apply(topology, tick=self._fault_tick)
        return topology

    def run(
        self,
        *,
        max_depth: Optional[int] = None,
        max_paths: Optional[int] = None,
        resilience: Optional["ResiliencePolicy"] = None,
    ) -> PipelineReport:
        """Execute the automated Steps 5–8, skipping up-to-date stages.

        ``resilience`` switches failure semantics from strict (raise on
        the first failing stage or unreachable pair) to graceful
        degradation — see the module docstring.
        """
        self._require_inputs()
        assert self._infrastructure and self._service and self._mapping

        # Strict and resilient discovery have different outputs (the latter
        # degrades unreachable pairs to empty PathSets and records
        # diagnostics), so cached Step-7 results do not carry across modes.
        mode = "strict" if resilience is None else "resilient"
        if mode != self._discovery_mode:
            self._dirty |= {"discover_paths", "generate_upsim"}
            self._discovery_mode = mode

        report = PipelineReport()
        _M_RUNS.inc()

        with _trace.span("pipeline.run", mode=mode) as run_span:
            if resilience is None:
                self._run_stages(report, max_depth, max_paths, None)
                self._run_population_stage(report)
                report.upsim = self.upsim
                run_span.set(executed=len(report.executed_stages()))
                return report

            # resilient mode: per-stage error isolation — a failing stage is
            # recorded, its dependents are skipped, and the report returns
            try:
                self._run_stages(report, max_depth, max_paths, resilience)
            except ReproError as exc:
                failed = (
                    report.stages[-1].stage
                    if report.stages
                    else "import_uml"
                )
                if report.stages and report.stages[-1].error is None:
                    report.stages[-1].error = str(exc)
                    report.stages[-1].exception = exc
                    report.stages[-1].executed = True
                for stage in STAGES[STAGES.index(failed) + 1 :]:
                    report.stages.append(
                        StageReport(
                            stage,
                            False,
                            0.0,
                            error=f"skipped: upstream stage {failed!r} failed",
                        )
                    )
                report.partial = True
            report.diagnostics = list(self._diagnostics)
            if report.unreachable_pairs() or report.failed_stages():
                report.partial = True
            if not report.failed_stages():
                # Step 9 only runs on a healthy Step 5-8 chain: a partial
                # UPSIM means some positions are unreachable, and the
                # population numbers would silently misrepresent them
                self._run_population_stage(report)
            report.upsim = self.upsim
            run_span.set(
                executed=len(report.executed_stages()), partial=report.partial
            )
            return report

    def _run_stages(
        self,
        report: PipelineReport,
        max_depth: Optional[int],
        max_paths: Optional[int],
        resilience: Optional["ResiliencePolicy"],
    ) -> None:
        assert self._infrastructure and self._service and self._mapping

        # Step 5: import UML models into the model space
        if "import_uml" in self._dirty:
            with _executed_stage(report, "import_uml"):
                self.space = ModelSpace()
                importer = UMLImporter(self.space)
                importer.import_object_model(self._infrastructure)
                importer.import_activity(self._service.activity)
                self._dirty.discard("import_uml")
        else:
            _reused_stage(report, "import_uml")
        assert self.space is not None

        # Step 6: import the service mapping
        if "import_mapping" in self._dirty:
            with _executed_stage(report, "import_mapping"):
                self._clear_namespace(MAPPING_NS)
                # pairs of atomic services the composite never runs are
                # ignored (Section VI-D): neither validated nor imported;
                # a service the activity runs twice has one pair
                relevant = ServiceMapping(
                    dict.fromkeys(self._mapping.pairs_for_service(self._service))
                )
                problems = relevant.validate_against(
                    Topology(self._infrastructure)
                )
                if problems:
                    raise MappingError(
                        f"mapping inconsistent with infrastructure: {problems}"
                    )
                MappingImporter(self.space).import_mapping(relevant)
                self._dirty.discard("import_mapping")
        else:
            _reused_stage(report, "import_mapping")

        # Step 7: discover all paths per mapping pair, store in the space
        if "discover_paths" in self._dirty:
            with _executed_stage(report, "discover_paths") as entry:
                self._clear_namespace(PATHS_NS)
                topology = self._topology()
                pairs = self._mapping.pairs_for_service(self._service)
                endpoint_pairs = [(p.requester, p.provider) for p in pairs]
                self._diagnostics = []
                if resilience is None:
                    discovered = discover_many(
                        topology,
                        endpoint_pairs,
                        max_depth=max_depth,
                        max_paths=max_paths,
                    )
                else:
                    from repro.resilience.runner import discover_many_resilient

                    outcome = discover_many_resilient(
                        topology,
                        endpoint_pairs,
                        max_depth=max_depth,
                        max_paths=max_paths,
                        policy=resilience,
                    )
                    self._diagnostics = list(outcome.diagnostics)
                    # unreachable pairs degrade to an *empty* PathSet: Step 8
                    # skips them in partial mode without re-running discovery
                    discovered = {
                        pair: outcome.path_sets.get(
                            pair, PathSet(pair[0], pair[1])
                        )
                        for pair in dict.fromkeys(endpoint_pairs)
                    }
                self._path_sets = {}
                for pair in pairs:
                    path_set = discovered[(pair.requester, pair.provider)]
                    self._path_sets[pair.atomic_service] = path_set
                    store_paths(self.space, pair.atomic_service, path_set.paths)
                if entry.span is not None:
                    entry.span.set(pairs=len(endpoint_pairs))
                self._dirty.discard("discover_paths")
        else:
            _reused_stage(report, "discover_paths")

        # Step 8: generate the UPSIM (model-space filter + object diagram).
        # The Step-7 PathSets are threaded through so each run enumerates
        # every mapping pair exactly once.
        if "generate_upsim" in self._dirty:
            with _executed_stage(report, "generate_upsim"):
                try:
                    self.upsim = generate_upsim(
                        self._topology(),
                        self._service,
                        self._mapping,
                        max_depth=max_depth,
                        max_paths=max_paths,
                        path_sets=self._path_sets,
                        partial=resilience is not None,
                    )
                except UnreachablePairError:
                    # resilient mode only: nothing at all is reachable — there
                    # is no UPSIM, but the diagnostics say why, pair by pair
                    if resilience is None:
                        raise
                    self.upsim = None
                    raise
                self._mark_upsim_entities()
                self._dirty.discard("generate_upsim")
        else:
            _reused_stage(report, "generate_upsim")

    def _run_population_stage(self, report: PipelineReport) -> None:
        """Optional Step 9: population-scale evaluation (see
        :meth:`set_population`).  A no-op when no population is attached;
        otherwise executes or reuses like any other incremental stage.
        """
        if self._population is None:
            return
        assert self._mapping is not None and self._service is not None
        if (
            POPULATION_STAGE not in self._dirty
            and self._population_report is not None
        ):
            _reused_stage(report, POPULATION_STAGE)
            report.population = self._population_report
            return
        from repro.workload.plane import evaluate_population
        from repro.workload.population import mapping_for_user

        with _executed_stage(report, POPULATION_STAGE) as entry:
            user_component = self._user_component
            if user_component is None:
                pairs = self._mapping.pairs_for_service(self._service)
                user_component = pairs[0].requester
            factory = mapping_for_user(self._mapping, user_component)
            self._population_report = evaluate_population(
                self._topology(),
                self._service,
                factory,
                self._population,
            )
            self._dirty.discard(POPULATION_STAGE)
            if entry.span is not None:
                entry.span.set(
                    users=self._population.n_users,
                    keys=self._population_report.keys,
                )
        report.population = self._population_report

    def analyze(self, **kwargs):
        """Section-VII availability analysis of the generated UPSIM
        (delegates to :func:`repro.analysis.report.analyze_upsim`; pass
        ``dimensions=[...]`` and friends through as keyword arguments)."""
        if self.upsim is None:
            raise ReproError(
                "pipeline has not produced a UPSIM yet; call run() first"
            )
        from repro.analysis.report import analyze_upsim

        return analyze_upsim(self.upsim, **kwargs)

    def evaluate_dimensions(self, names=None, **kwargs):
        """Registry-backed multi-dimension evaluation of the Step-8 UPSIM
        (delegates to :func:`repro.dimensions.evaluate_dimensions`): one
        compile and one structure pass serve every selected
        probability-valued dimension (kernels memoize by structure)."""
        if self.upsim is None:
            raise ReproError(
                "pipeline has not produced a UPSIM yet; call run() first"
            )
        from repro.dimensions import evaluate_dimensions

        return evaluate_dimensions(self.upsim, names, **kwargs)

    # -- model-space bookkeeping ---------------------------------------------

    def _clear_namespace(self, namespace: str) -> None:
        assert self.space is not None
        if self.space.has_entity(namespace):
            self.space.delete_entity(namespace)

    def _mark_upsim_entities(self) -> None:
        """Copy retained instances into the ``upsim`` namespace via a
        transformation rule — the model-space face of the Step 8 filter.

        The rule's pattern matches every instance entity visited by at
        least one stored path; its action creates a mirror entity under
        ``upsim.<model-name>`` related to the original with ``sameAs``.
        """
        assert self.space is not None and self.upsim is not None
        space = self.space
        container_fqn = f"upsim.{self.upsim.model.name}"
        self._clear_namespace("upsim")
        container = space.create_entity(container_fqn)

        visited = {
            relation.target.fqn
            for relation in space.relations("visits")
        }

        pattern = Pattern("retained-instances").entity(
            "n",
            namespace=INSTANCES_NS,
            predicate=lambda entity: entity.fqn in visited,
        )

        def copy_instance(model_space, match):
            original = match["n"]
            mirror = container.child(original.name, value=original.value)
            model_space.create_relation("sameAs", mirror, original)

        Transformation("upsim-generation").add_rule(
            "copy-retained", pattern, copy_instance
        ).run(space)

    @property
    def path_sets(self) -> Mapping[str, PathSet]:
        """Read-only Step-7 results keyed by atomic service.

        In resilient runs an unreachable pair maps to an *empty*
        :class:`PathSet`; before the first :meth:`run` the view is empty."""
        return MappingProxyType(self._path_sets or {})

    def stored_paths(self, atomic_service: str) -> List[List[str]]:
        """Paths stored in the model space for *atomic_service* (Step 7)."""
        if self.space is None:
            raise ReproError("pipeline has not run yet")
        return load_paths(self.space, atomic_service)

    def upsim_entity_names(self) -> List[str]:
        """Instance names mirrored into the ``upsim`` namespace (Step 8)."""
        if self.space is None or self.upsim is None:
            raise ReproError("pipeline has not run yet")
        container = self.space.entity(f"upsim.{self.upsim.model.name}")
        return sorted(child.name for child in container.children)

