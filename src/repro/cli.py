"""Command-line interface: the methodology end to end from model files.

Subcommands::

    upsim casestudy [--client t1] [--printer p2] [--server printS]
        Run the built-in USI case study: print Table I, the discovered
        paths for every mapping pair (filter with --service), the UPSIM
        and the availability report.

    upsim generate --models bundle.xml --service NAME --mapping mapping.xml
        Steps 5-8 on externally-authored models; writes the UPSIM as an
        XML bundle (--out) and/or Graphviz DOT (--dot).

    upsim paths --models bundle.xml --requester A --provider B
        Path discovery between two components.

    upsim analyze --models bundle.xml --service NAME --mapping mapping.xml
        Full availability analysis of the generated UPSIM.

    upsim validate --models bundle.xml
        Well-formedness constraint check of the infrastructure model.

    upsim campaign [--k 2] [--faults crash:c1 ...] [--json]
        Fault-injection campaign over the case-study service: sweep
        single- and k-fault combinations, rank by user-perceived impact.

    upsim population [--users N] [--classes SPEC] [--top N]
        Population-scale evaluation of the case-study printing service:
        generate N simulated users over the client positions, evaluate
        per-user availability through the vectorized plane, and print
        per-class percentiles plus the worst-served users.  SPEC is
        ``NAME[:WEIGHT[:DEVICE_A[:JITTER]]],...``.

    upsim churn [--events N] [--seed S] [--deadline MS] [--full]
        Live-churn evaluation on a generated campus network: drive a
        deterministic seeded event stream (link cut/restore/flap,
        component crash/restore) through the delta-aware
        :class:`~repro.core.churn.LiveEvaluator` and report epochs,
        deadline misses, coalescing, quarantined events and the final
        availability snapshot.  ``--full`` switches to the
        full-recompile oracle for comparison.

    upsim dimensions ls
        List the registered user-perceived dimensions
        (:mod:`repro.dimensions`): name, evaluation mode, fold semiring,
        probability rule, unit and description.  ``casestudy`` and
        ``analyze`` accept ``--dimensions NAME,NAME,...`` to evaluate any
        registered subset in one kernel pass alongside the availability
        report.

    upsim obs trace.json
        Pretty-print a trace file produced by ``--trace`` as an indented
        span tree.

    upsim store {ls|verify|gc} --store DIR
        Inspect the content-addressed artifact store (:mod:`repro.store`):
        list stored objects, verify every digest, or garbage-collect down
        to ``--max-bytes``.

``casestudy`` and ``campaign`` accept ``--trace FILE.json`` (record a
hierarchical span trace of the whole run) and ``--metrics`` (print the
collected counters/gauges/histograms as a table plus the Prometheus text
exposition) — see :mod:`repro.obs`.  They also accept ``--store DIR``
(equivalent to setting ``REPRO_STORE=DIR``): compiled topologies, path
enumerations and availability kernels are persisted there and mapped
back zero-copy on the next run, so a fresh process warm-starts instead
of recompiling.

Model files use the XML dialect of :mod:`repro.uml.xmi`; mapping files use
the Figure 3 schema of :mod:`repro.core.mapping`.

Exit codes
----------
Every :class:`~repro.errors.ReproError` subclass maps to a distinct
non-zero exit code with a one-line ``error:`` message (no traceback), so
scripts can branch on the failure class:

====  ========================
code  failure
====  ========================
   0  success
   1  ``validate`` found constraint violations / ``sla`` not met
   2  other error (generic :class:`ReproError`, ``OSError``, usage)
   3  :class:`ModelError` (incl. constraint/stereotype violations)
   4  :class:`SerializationError`
   5  :class:`ModelSpaceError`
   6  :class:`MappingError`
   7  :class:`ServiceError`
   8  :class:`TopologyError`
   9  :class:`PathDiscoveryTimeout`
  10  :class:`UnreachablePairError`
  11  :class:`PathDiscoveryError`
  12  :class:`AnalysisError`
  13  :class:`FaultPlanError`
  14  :class:`StoreError`
====  ========================
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import TYPE_CHECKING, List, Optional

from repro import _IMPORT_STARTED
from repro import store as _artifact_store
from repro.analysis import analyze_upsim
from repro.core.mapping import ServiceMapping
from repro.core.pathdiscovery import discover_paths
from repro.core.pipeline import MethodologyPipeline
from repro.errors import (
    AnalysisError,
    FaultPlanError,
    MappingError,
    ModelError,
    ModelSpaceError,
    PathDiscoveryError,
    PathDiscoveryTimeout,
    ReproError,
    SerializationError,
    ServiceError,
    StoreError,
    TopologyError,
    UnreachablePairError,
)
from repro.network.topology import Topology
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.services.composite import CompositeService
from repro.uml.constraints import check_infrastructure
from repro.viz import mapping_table, object_model_text, paths_text

if TYPE_CHECKING:  # the model-file commands import it when they run
    from repro.uml import xmi

__all__ = ["main", "build_parser", "EXIT_CODES", "exit_code_for"]

#: most-derived classes first — the first ``isinstance`` match wins, so a
#: :class:`PathDiscoveryTimeout` maps to 9, not to its base class's 11.
EXIT_CODES = (
    (PathDiscoveryTimeout, 9),
    (UnreachablePairError, 10),
    (PathDiscoveryError, 11),
    (SerializationError, 4),
    (ModelSpaceError, 5),
    (MappingError, 6),
    (ServiceError, 7),
    (TopologyError, 8),
    (AnalysisError, 12),
    (FaultPlanError, 13),
    (StoreError, 14),
    (ModelError, 3),
)


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit code documented above."""
    for exc_class, code in EXIT_CODES:
        if isinstance(exc, exc_class):
            return code
    return 2


def _add_observability_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE.json",
        help="record a hierarchical span trace of the run to FILE.json "
        "(inspect with 'upsim obs FILE.json')",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="print collected metrics (table + Prometheus text exposition)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="content-addressed artifact store directory: compiled "
        "engines/kernels persist here and warm-start the next run "
        "(equivalent to REPRO_STORE=DIR)",
    )


def _add_dimensions_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dimensions",
        default=None,
        metavar="NAMES",
        help="comma-separated registered user-perceived dimensions to "
        "evaluate alongside the availability report "
        "(see 'upsim dimensions ls'), e.g. "
        "availability,responsiveness,performability",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="upsim",
        description="User-perceived service infrastructure model generation "
        "and dependability analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    case = sub.add_parser("casestudy", help="run the built-in USI case study")
    case.add_argument("--client", default="t1")
    case.add_argument("--printer", default="p2")
    case.add_argument("--server", default="printS")
    case.add_argument(
        "--mc", type=int, default=0, help="Monte-Carlo cross-check samples"
    )
    case.add_argument(
        "--service",
        default=None,
        help="only report discovered paths for this atomic service",
    )
    case.add_argument(
        "--inject",
        action="append",
        default=None,
        metavar="SPEC",
        help="inject a fault (repeatable), e.g. crash:c1, cut:e1|d1, "
        "degrade:c2:mtbf=100; runs in degradation-tolerant mode and "
        "reports per-pair diagnostics plus the partial UPSIM",
    )
    _add_dimensions_arg(case)
    _add_observability_args(case)

    campaign = sub.add_parser(
        "campaign",
        help="fault-injection campaign over the case-study service",
    )
    campaign.add_argument("--client", default="t1")
    campaign.add_argument("--printer", default="p2")
    campaign.add_argument("--server", default="printS")
    campaign.add_argument(
        "--k", type=int, default=1, help="sweep 1..k simultaneous faults"
    )
    campaign.add_argument(
        "--links", action="store_true", help="also inject link cuts"
    )
    campaign.add_argument(
        "--faults",
        action="append",
        default=None,
        metavar="SPEC",
        help="explicit candidate fault (repeatable); default: one crash "
        "per UPSIM component",
    )
    campaign.add_argument(
        "--ticks", type=int, default=4, help="schedule ticks for flap faults"
    )
    campaign.add_argument(
        "--json", action="store_true", help="emit the machine-readable report"
    )
    campaign.add_argument(
        "--limit", type=int, default=10, help="rows in the text ranking"
    )
    _add_observability_args(campaign)

    population = sub.add_parser(
        "population",
        help="population-scale availability of the case-study service",
    )
    population.add_argument(
        "--users", type=int, default=10_000, help="population size"
    )
    population.add_argument(
        "--classes",
        default="std:4:0.98:0.05,gold:1:0.9999",
        metavar="SPEC",
        help="user classes as NAME[:WEIGHT[:DEVICE_A[:JITTER]]],... "
        "(default: %(default)s)",
    )
    population.add_argument("--printer", default="p2")
    population.add_argument("--server", default="printS")
    population.add_argument(
        "--seed", type=int, default=0, help="population generator seed"
    )
    population.add_argument(
        "--top", type=int, default=5, help="worst-served users to list"
    )
    _add_observability_args(population)

    churn = sub.add_parser(
        "churn",
        help="live-churn evaluation with delta-aware recomputation",
    )
    churn.add_argument(
        "--events", type=int, default=200, help="churn events to drive"
    )
    churn.add_argument(
        "--seed", type=int, default=0, help="event stream seed"
    )
    churn.add_argument(
        "--pairs", type=int, default=4, help="client→server pairs to evaluate"
    )
    churn.add_argument(
        "--dist", type=int, default=2, help="campus distribution switches"
    )
    churn.add_argument(
        "--edges", type=int, default=2, help="edge switches per distribution"
    )
    churn.add_argument(
        "--clients", type=int, default=3, help="clients per edge switch"
    )
    churn.add_argument(
        "--single-homed",
        action="store_true",
        help="drop the redundant edge uplinks (default: dual-homed)",
    )
    churn.add_argument(
        "--deadline",
        type=float,
        default=None,
        metavar="MS",
        help="per-event recompute deadline in milliseconds "
        "(default: unbounded)",
    )
    churn.add_argument(
        "--retries",
        type=int,
        default=2,
        help="recompute retries before an event is quarantined",
    )
    churn.add_argument(
        "--window",
        type=int,
        default=8,
        help="events coalesced per catch-up attempt while degraded",
    )
    churn.add_argument(
        "--full",
        action="store_true",
        help="full-recompile oracle instead of delta-aware recomputation",
    )
    churn.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    _add_observability_args(churn)

    store_cmd = sub.add_parser(
        "store", help="inspect the content-addressed artifact store"
    )
    store_cmd.add_argument(
        "action",
        choices=("ls", "verify", "gc"),
        help="ls: list stored objects; verify: recheck every digest; "
        "gc: evict least-recently-used objects down to --max-bytes",
    )
    store_cmd.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="store directory (default: $REPRO_STORE)",
    )
    store_cmd.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        help="gc target size in bytes (default: $REPRO_STORE_MAX_BYTES)",
    )

    dimensions_cmd = sub.add_parser(
        "dimensions",
        help="inspect the user-perceived dimension registry",
    )
    dimensions_cmd.add_argument(
        "action",
        choices=("ls",),
        help="ls: list the registered dimensions (built-in and any "
        "loaded via the repro.dimensions registry)",
    )

    obs_cmd = sub.add_parser(
        "obs", help="pretty-print a trace file written by --trace"
    )
    obs_cmd.add_argument("tracefile", help="JSON trace file")
    obs_cmd.add_argument(
        "--max-depth", type=int, default=None, help="truncate deep traces"
    )
    obs_cmd.add_argument(
        "--min-ms",
        type=float,
        default=0.0,
        help="hide spans faster than this many milliseconds",
    )

    def add_model_args(p: argparse.ArgumentParser, with_service: bool) -> None:
        p.add_argument("--models", required=True, help="XML model bundle")
        if with_service:
            p.add_argument("--service", required=True, help="activity name")
            p.add_argument("--mapping", required=True, help="mapping XML file")

    gen = sub.add_parser("generate", help="generate a UPSIM from model files")
    add_model_args(gen, True)
    gen.add_argument("--out", help="write the UPSIM as an XML bundle")
    gen.add_argument("--dot", help="write the UPSIM as Graphviz DOT")

    paths = sub.add_parser("paths", help="discover all requester→provider paths")
    add_model_args(paths, False)
    paths.add_argument("--requester", required=True)
    paths.add_argument("--provider", required=True)
    paths.add_argument("--max-depth", type=int, default=None)
    paths.add_argument("--max-paths", type=int, default=None)

    analyze = sub.add_parser("analyze", help="availability analysis of a UPSIM")
    add_model_args(analyze, True)
    analyze.add_argument("--formula", choices=("paper", "exact"), default="paper")
    analyze.add_argument("--mc", type=int, default=0)
    analyze.add_argument(
        "--no-links", action="store_true", help="ignore link failures"
    )
    _add_dimensions_arg(analyze)

    validate = sub.add_parser("validate", help="constraint-check a model bundle")
    validate.add_argument("--models", required=True)

    impact = sub.add_parser(
        "impact", help="failure-impact triage list for a UPSIM"
    )
    add_model_args(impact, True)
    impact.add_argument(
        "--links", action="store_true", help="also rank cable failures"
    )

    inventory_cmd = sub.add_parser(
        "inventory", help="per-class inventory and availability budget"
    )
    inventory_cmd.add_argument("--models", required=True)

    diversity = sub.add_parser(
        "diversity", help="path-diversity profile of a requester/provider pair"
    )
    add_model_args(diversity, False)
    diversity.add_argument("--requester", required=True)
    diversity.add_argument("--provider", required=True)

    sla = sub.add_parser(
        "sla", help="check a required availability and plan upgrades"
    )
    add_model_args(sla, True)
    sla.add_argument(
        "--required", type=float, required=True, help="required availability, e.g. 0.999"
    )

    query = sub.add_parser(
        "query", help="run a VTCL-style pattern query against the model space"
    )
    query.add_argument("--models", required=True)
    query.add_argument(
        "--pattern-file", required=True, help="file with one pattern block"
    )
    return parser


def _load_bundle(path: str) -> xmi.ModelBundle:
    from repro.uml import xmi

    bundle = xmi.load(path)
    if bundle.object_model is None:
        raise ReproError(f"model bundle {path!r} contains no object model")
    return bundle


def _composite_from_bundle(bundle: xmi.ModelBundle, name: str) -> CompositeService:
    from repro.services.atomic import AtomicService

    activity = bundle.activity(name)
    atomics = [
        AtomicService(service_name)
        for service_name in dict.fromkeys(activity.atomic_service_names())
    ]
    return CompositeService(activity, atomics)


def _run_pipeline(args: argparse.Namespace):
    bundle = _load_bundle(args.models)
    service = _composite_from_bundle(bundle, args.service)
    mapping = ServiceMapping.load(args.mapping)
    pipeline = (
        MethodologyPipeline()
        .set_infrastructure(bundle.object_model)
        .set_service(service)
        .set_mapping(mapping)
    )
    report = pipeline.run()
    assert report.upsim is not None
    return bundle, report.upsim


def _parse_dimensions(args: argparse.Namespace) -> Optional[List[str]]:
    """The --dimensions option as a name list (None when not given).

    Every name must be registered; commands call this before their first
    step, so a typo fails before anything is printed."""
    raw = getattr(args, "dimensions", None)
    if raw is None:
        return None
    names = [name.strip() for name in raw.split(",") if name.strip()]
    if not names:
        raise AnalysisError(
            "--dimensions needs at least one dimension name; "
            "see 'upsim dimensions ls'"
        )
    from repro.dimensions import default_registry

    registry = default_registry()
    for name in names:
        registry.get(name)
    return names


def cmd_casestudy(args: argparse.Namespace) -> int:
    from repro.casestudy import printing_mapping, printing_service, usi_builder

    dimensions = _parse_dimensions(args)
    # Steps 1-4 of the methodology (paper Figure 4) build the input models;
    # the pipeline runs the automated Steps 5-8 under its pipeline.* spans.
    with _trace.span("casestudy.step1_annotate_profiles"):
        builder = usi_builder()
    with _trace.span("casestudy.step2_object_diagram"):
        infrastructure = builder.build()
    with _trace.span("casestudy.step3_service_description"):
        service = printing_service()
    with _trace.span("casestudy.step4_mapping"):
        mapping = printing_mapping(args.client, args.printer, args.server)
    pairs = mapping.pairs_for_service(service)
    if args.service is not None:
        pairs = [p for p in pairs if p.atomic_service == args.service]
        if not pairs:
            known = ", ".join(p.atomic_service for p in mapping.pairs)
            raise ReproError(
                f"no mapping pair for atomic service {args.service!r} "
                f"(known: {known})"
            )
    pipeline = (
        MethodologyPipeline()
        .set_infrastructure(infrastructure)
        .set_service(service)
        .set_mapping(mapping)
    )
    plan = policy = None
    if args.inject:
        from repro.resilience import FaultPlan, ResiliencePolicy

        plan = FaultPlan.parse(args.inject).at(0)
        pipeline.set_fault_plan(plan)
        policy = ResiliencePolicy()
    report = pipeline.run(resilience=policy)
    for stage in report.stages:
        if stage.exception is not None:
            raise stage.exception
    if plan is not None:
        print(f"injected faults: {', '.join(plan.specs())}")
        print()
    print(mapping_table(mapping, title="Service mapping (Table I schema):"))
    print()
    if plan is not None:
        # diagnostics, like paths, are reported for the selected pairs only
        selected = {(p.requester, p.provider) for p in pairs}
        print("pair diagnostics:")
        for diagnostic in report.diagnostics:
            if (diagnostic.requester, diagnostic.provider) in selected:
                print(f"  {diagnostic.describe()}")
        print()
    for pair in pairs:
        print(f"atomic service {pair.atomic_service!r}:")
        print(paths_text(pipeline.path_sets[pair.atomic_service]))
    print()
    print(object_model_text(report.upsim.model))
    print()
    print(
        pipeline.analyze(
            montecarlo_samples=args.mc,
            dimensions=dimensions,
        ).to_text()
    )
    return 0


def cmd_campaign(args: argparse.Namespace) -> int:
    from repro.casestudy import printing_mapping, printing_service, usi_topology
    from repro.resilience import run_campaign

    report = run_campaign(
        usi_topology(),
        printing_service(),
        printing_mapping(args.client, args.printer, args.server),
        candidates=args.faults,
        k=args.k,
        ticks=args.ticks,
        include_links=args.links,
    )
    if args.json:
        print(report.to_json())
    else:
        print(report.to_text(limit=args.limit))
        spofs = report.single_points_of_failure()
        if spofs:
            print()
            print(
                "single points of failure: "
                + ", ".join(" + ".join(r.faults) for r in spofs)
            )
    return 0


def cmd_population(args: argparse.Namespace) -> int:
    from repro.casestudy import (
        CLIENTS,
        printing_mapping,
        printing_service,
        usi_topology,
    )
    from repro.workload import (
        Population,
        evaluate_population,
        parse_user_classes,
    )

    if args.users < 1:
        raise AnalysisError(f"--users must be >= 1, got {args.users}")
    classes = parse_user_classes(args.classes)
    population = Population.generate(
        args.users, classes, CLIENTS, seed=args.seed
    )
    report = evaluate_population(
        usi_topology(),
        printing_service(),
        lambda client: printing_mapping(client, args.printer, args.server),
        population,
        top=args.top,
    )
    print(report.to_text())
    return 0


def cmd_churn(args: argparse.Namespace) -> int:
    import json as _json

    from repro.core.churn import ChurnPolicy, ChurnStream, LiveEvaluator
    from repro.network.generators import campus

    if args.events < 1:
        raise AnalysisError(f"--events must be >= 1, got {args.events}")
    builder = campus(
        dist_switches=args.dist,
        edges_per_dist=args.edges,
        clients_per_edge=args.clients,
        dual_homed=not args.single_homed,
    )
    model = builder.object_model
    clients = sorted(
        (inst.name for inst in model.instances if inst.name.startswith("client")),
        key=lambda n: (len(n), n),
    )
    if args.pairs < 1 or args.pairs > len(clients):
        raise TopologyError(
            f"--pairs must be in [1, {len(clients)}] for this campus, "
            f"got {args.pairs}"
        )
    pairs = [(client, "server") for client in clients[: args.pairs]]
    policy = ChurnPolicy(
        deadline=None if args.deadline is None else args.deadline / 1000.0,
        max_retries=args.retries,
        coalesce_window=args.window,
        delta=not args.full,
    )
    evaluator = LiveEvaluator(model, pairs, policy=policy)
    stream = ChurnStream(model, pairs, seed=args.seed)
    report = evaluator.run(stream.events(args.events))
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    mode = "full-recompile oracle" if args.full else "delta-aware"
    final = report.final
    assert final is not None
    print(
        f"churn over campus({args.dist}x{args.edges}x{args.clients}, "
        f"{'single' if args.single_homed else 'dual'}-homed), "
        f"{len(pairs)} pair(s), mode: {mode}"
    )
    print(
        f"  events {report.events}  applied {report.applied}  "
        f"coalesced {report.coalesced}  quarantined {len(report.quarantined)}"
    )
    print(
        f"  recomputes {report.recomputes}  epochs {report.epochs}  "
        f"deadline misses {report.deadline_misses}  retries {report.retries}"
    )
    print(
        f"  elapsed {report.elapsed:.3f}s "
        f"({report.events / report.elapsed:.0f} events/s)"
        if report.elapsed > 0
        else f"  elapsed {report.elapsed:.3f}s"
    )
    snap = final.snapshot
    staleness = (
        f"stale ({final.lag_events} event(s) behind, "
        f"{final.age_seconds:.3f}s old)"
        if final.stale
        else "fresh"
    )
    print(f"  final epoch {snap.epoch}: {staleness}")
    print(f"  service availability: {snap.availability:.9f}")
    for pair, value in sorted(snap.pair_availability.items()):
        marker = "  (disconnected)" if tuple(sorted(pair)) in snap.disconnected else ""
        print(f"    {pair[0]} -> {pair[1]}: {value:.9f}{marker}")
    for parked in report.quarantined:
        print(
            f"  quarantined: {parked.event!r} after {parked.attempts} "
            f"attempt(s): {parked.error}"
        )
    return 0


def cmd_store(args: argparse.Namespace) -> int:
    import os as _os

    root = args.store or _os.environ.get(_artifact_store.ENV_STORE)
    if not root:
        raise StoreError(
            "no store directory: pass --store DIR or set "
            f"{_artifact_store.ENV_STORE}"
        )
    # inspecting a mistyped path must not create an empty store there;
    # every store made ``objects/`` when it was opened
    if not _os.path.isdir(root):
        raise StoreError(f"no store directory at {root!r}")
    if not _os.path.isdir(_os.path.join(root, "objects")):
        raise StoreError(f"{root!r} is not an artifact store (no objects/)")
    store = _artifact_store._store_for(root)
    if args.action == "ls":
        rows = sorted(store.objects(), key=lambda o: o.mtime, reverse=True)
        header = f"{'digest':<32} {'kind':<8} {'bytes':>10}  key"
        print(header)
        print("-" * len(header))
        for obj in rows:
            print(
                f"{obj.digest:<32} {obj.kind:<8} {obj.nbytes:>10}  "
                + "/".join(obj.key)
            )
        total = sum(obj.nbytes for obj in rows)
        print(f"({len(rows)} object(s), {total} bytes)")
        return 0
    if args.action == "verify":
        ok, corrupt = store.verify_all()
        print(f"verified {len(ok) + len(corrupt)} object(s): {len(ok)} ok")
        for obj in corrupt:
            print(f"  corrupt: {obj.digest} ({obj.kind}) at {obj.path}")
        return 1 if corrupt else 0
    removed, reclaimed = store.gc(args.max_bytes)
    print(
        f"gc removed {removed} object(s), reclaimed {reclaimed} bytes "
        f"({store.total_bytes()} bytes remain)"
    )
    return 0


def cmd_dimensions(args: argparse.Namespace) -> int:
    from repro.dimensions import default_registry

    registry = default_registry()
    header = (
        f"{'name':<16} {'mode':<9} {'fold':<17} {'rule':<12} "
        f"{'unit':<5} description"
    )
    print(header)
    print("-" * len(header))
    for dimension in registry:
        rule = dimension.prob_rule if dimension.mode == "bdd-prob" else "-"
        print(
            f"{dimension.name:<16} {dimension.mode:<9} "
            f"{dimension.semiring.name:<17} {rule:<12} "
            f"{dimension.unit or '-':<5} {dimension.description}"
        )
    print(f"({len(registry)} dimension(s) registered)")
    return 0


def cmd_obs(args: argparse.Namespace) -> int:
    try:
        data = _trace.load(args.tracefile)
    except ValueError as exc:
        raise ReproError(str(exc)) from exc
    print(
        _trace.render(
            data,
            max_depth=args.max_depth,
            min_seconds=args.min_ms / 1000.0,
        )
    )
    print(f"({data.get('span_count', 0)} span(s) recorded)")
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.uml import xmi
    from repro.viz import object_model_dot

    bundle, upsim = _run_pipeline(args)
    print(object_model_text(upsim.model))
    if args.out:
        out_bundle = xmi.ModelBundle(
            profiles=bundle.profiles,
            class_model=bundle.class_model,
            object_model=upsim.model,
        )
        xmi.dump(out_bundle, args.out)
        print(f"UPSIM written to {args.out}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(object_model_dot(upsim.model))
        print(f"DOT written to {args.dot}")
    return 0


def cmd_paths(args: argparse.Namespace) -> int:
    bundle = _load_bundle(args.models)
    topology = Topology(bundle.object_model)
    path_set = discover_paths(
        topology,
        args.requester,
        args.provider,
        max_depth=args.max_depth,
        max_paths=args.max_paths,
    )
    print(paths_text(path_set))
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    dimensions = _parse_dimensions(args)
    _, upsim = _run_pipeline(args)
    report = analyze_upsim(
        upsim,
        formula=args.formula,
        include_links=not args.no_links,
        montecarlo_samples=args.mc,
        dimensions=dimensions,
    )
    print(report.to_text())
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    bundle = _load_bundle(args.models)
    violations = check_infrastructure(bundle.object_model)
    if not violations:
        print(
            f"model {bundle.object_model.name!r} is well-formed "
            f"({len(bundle.object_model)} instances, "
            f"{len(bundle.object_model.links)} links)"
        )
        return 0
    for violation in violations:
        print(violation)
    return 1


def cmd_impact(args: argparse.Namespace) -> int:
    from repro.analysis import impact_table

    _, upsim = _run_pipeline(args)
    header = (
        f"{'component':<14} {'hard outages':>12} {'degraded':>9} "
        f"{'A | component down':>19}"
    )
    print(header)
    print("-" * len(header))
    for impact in impact_table(upsim, include_links=args.links):
        print(
            f"{impact.component:<14} {len(impact.disconnected_services):>12} "
            f"{len(impact.degraded_services):>9} "
            f"{impact.conditional_availability:>19.9f}"
        )
    return 0


def cmd_inventory(args: argparse.Namespace) -> int:
    from repro.network import articulation_points, availability_budget, inventory

    bundle = _load_bundle(args.models)
    topology = Topology(bundle.object_model)
    budget = availability_budget(topology)
    header = (
        f"{'class':<12} {'kind':<9} {'count':>6} {'MTBF [h]':>10} "
        f"{'MTTR [h]':>9} {'A':>11} {'downtime share':>15}"
    )
    print(header)
    print("-" * len(header))
    for row in inventory(topology):
        print(
            f"{row.class_name:<12} {row.kind:<9} {row.count:>6} "
            f"{row.mtbf:>10.0f} {row.mttr:>9.2f} {row.availability:>11.7f} "
            f"{budget[row.class_name]:>14.1%}"
        )
    points = sorted(articulation_points(topology))
    print(f"\narticulation points (topology-level SPOFs): {', '.join(points)}")
    return 0


def cmd_diversity(args: argparse.Namespace) -> int:
    from repro.core.diversity import diversity_report

    bundle = _load_bundle(args.models)
    topology = Topology(bundle.object_model)
    report = diversity_report(topology, args.requester, args.provider)
    print(f"diversity profile {report.requester} -> {report.provider}:")
    print(f"  discovered paths:      {report.path_count}")
    print(f"  node-disjoint paths:   {report.node_disjoint_paths}")
    print(f"  edge-disjoint paths:   {report.edge_disjoint_paths}")
    print(f"  hops (min..max):       {report.shortest_hops}..{report.longest_hops}")
    spofs = ", ".join(report.single_points_of_failure) or "(none)"
    print(f"  single points of failure: {spofs}")
    verdict = (
        "survives any single intermediate node failure"
        if report.survives_any_single_node_failure
        else "a single node failure can disconnect this pair"
    )
    print(f"  verdict: {verdict}")
    return 0


def cmd_sla(args: argparse.Namespace) -> int:
    from repro.analysis import check_sla, improvement_plan

    _, upsim = _run_pipeline(args)
    verdict = check_sla(upsim, args.required)
    status = "MET" if verdict.met else "VIOLATED"
    print(
        f"SLA {args.required:.6f} for {verdict.service_name!r}: {status} "
        f"(achieved {verdict.achieved:.9f}, margin {verdict.margin:+.2e})"
    )
    print(
        f"expected downtime {verdict.expected_downtime_minutes_per_year:.0f} "
        f"min/year vs allowed "
        f"{verdict.allowed_downtime_minutes_per_year:.0f} min/year"
    )
    if not verdict.met:
        print("\nsingle-component upgrade options (A_component -> 1):")
        for option in improvement_plan(upsim, args.required)[:5]:
            marker = "closes gap" if option.closes_gap else "insufficient"
            print(
                f"  {option.component:<14} achievable {option.achievable:.9f} "
                f"({marker})"
            )
        return 1
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    from repro.vpm import ModelSpace, UMLImporter, run_query

    bundle = _load_bundle(args.models)
    space = ModelSpace()
    importer = UMLImporter(space)
    importer.import_object_model(bundle.object_model)
    for activity in bundle.activities:
        importer.import_activity(activity)
    with open(args.pattern_file, "r", encoding="utf-8") as handle:
        text = handle.read()
    results = run_query(space, text)
    if not results:
        print("no matches")
        return 0
    variables = sorted(results[0])
    print("  ".join(f"{v:<24}" for v in variables))
    for row in results:
        print("  ".join(f"{row[v]:<24}" for v in variables))
    print(f"({len(results)} match(es))")
    return 0


_COMMANDS = {
    "casestudy": cmd_casestudy,
    "campaign": cmd_campaign,
    "population": cmd_population,
    "churn": cmd_churn,
    "dimensions": cmd_dimensions,
    "obs": cmd_obs,
    "store": cmd_store,
    "generate": cmd_generate,
    "paths": cmd_paths,
    "analyze": cmd_analyze,
    "validate": cmd_validate,
    "impact": cmd_impact,
    "inventory": cmd_inventory,
    "diversity": cmd_diversity,
    "sla": cmd_sla,
    "query": cmd_query,
}


# the first main() call in a process owns the start-up interval
_startup_from: Optional[float] = _IMPORT_STARTED


def main(argv: Optional[List[str]] = None) -> int:
    global _startup_from
    entered = time.perf_counter()
    startup_from, _startup_from = _startup_from, None
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_path: Optional[str] = getattr(args, "trace", None)
    show_metrics: bool = getattr(args, "metrics", False)
    store_dir: Optional[str] = getattr(args, "store", None)
    tracer = _trace.NOOP_TRACER
    if trace_path:
        # a traced first call starts its clock at ``import repro`` and
        # opens with a closed ``startup`` root covering import → main()
        tracer = _trace.Tracer(origin=startup_from)
        if startup_from is not None:
            tracer.record(
                "startup", startup_from, entered, modules=len(sys.modules)
            )
    try:
        if store_dir and args.command != "store":
            _artifact_store.configure(store_dir)
        with _trace.activate(tracer):
            code = _COMMANDS[args.command](args)
    except (ReproError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = exit_code_for(exc)
    finally:
        if store_dir and args.command != "store":
            _artifact_store.reset()
    if trace_path:
        assert isinstance(tracer, _trace.Tracer)
        tracer.save(trace_path)
        print()
        print(f"trace written to {trace_path} ({tracer.span_count} span(s))")
    if show_metrics:
        print()
        print(_metrics.registry().summary())
        print()
        print(_metrics.registry().to_prometheus(), end="")
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
