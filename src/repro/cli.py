"""Command-line interface: ``python -m repro.cli <command>`` (or the
installed ``repro`` console script).

Built on the :mod:`repro.api` experiment layer.  Five commands:

* ``run`` — execute a declarative experiment spec end to end (all
  phases, every aim in the spec), persisting JSON artifacts through the
  :class:`~repro.api.ArtifactStore`; re-running the same spec against
  the same store resumes from the artifacts instead of retraining;
  ``--export-deployment`` additionally freezes the winner into a
  serving deployment directory;
* ``serve`` — drive the async micro-batching uncertainty service over
  an exported deployment (``--smoke`` answers one request and exits;
  ``--backend fixed`` serves through the compiled integer kernel;
  ``--replicas N`` shards fused batches across N forked workers;
  ``--deadline-ms``/``--fault-plan`` exercise the degradation ladder);
* ``chaos`` — soak the serving stack under a deterministic fault plan
  and gate on the resilience invariants: no dropped futures,
  byte-identity to fault-free serving, honest shed accounting and an
  identical fired-event log on every rerun (exit 1 on any violation);
* ``compile`` — lower a deployment to the executable fixed-point
  kernel, statically certify its accumulators against int64 overflow,
  and print its measured float-vs-fixed fidelity report;
* ``verify-kernel`` — re-derive a compiled kernel's overflow
  certificate from the persisted artifact bytes and cross-check the
  stored copy (exit 1 on wrap-possible or a stale certificate);
* ``profile`` — compile a deployment in memory (refused if
  wrap-possible) and time each step of the kernel's program next to
  the FPGA cycles :mod:`repro.hw.perf` models for the same layers, then
  each traced leaf of the float engine's fused ``mc_predict``;
* ``lint`` — run the determinism/fork-safety linter over source trees
  (exit 1 on findings);
* ``search`` — ad-hoc four-phase search from flat flags;
* ``generate`` — emit the HLS project for a configuration;
* ``report`` — print the csynth-style report of a configuration.

Examples::

    python -m repro.cli run --spec experiment.json --store runs/ \\
        --export-deployment deploy/
    python -m repro.cli serve --deployment deploy/ --smoke
    python -m repro.cli compile --deployment deploy/
    python -m repro.cli verify-kernel --deployment deploy/
    python -m repro.cli profile --deployment deploy/ --rows 32
    python -m repro.cli lint src/
    python -m repro.cli serve --deployment deploy/ --backend fixed
    python -m repro.cli serve --deployment deploy/ --replicas 4
    python -m repro.cli chaos --deployment deploy/ --replicas 2
    python -m repro.cli chaos --deployment deploy/ --emit-plan plan.json
    python -m repro.cli serve --deployment deploy/ --fault-plan plan.json
    python -m repro.cli search --model lenet_slim --dataset mnist_like \\
        --image-size 16 --aims accuracy latency
    python -m repro.cli generate --config B-K-M --outdir gen/
    python -m repro.cli report --model resnet18 --config M-M-M-M
"""

from __future__ import annotations

import argparse
import asyncio
import ctypes
import dataclasses
import glob
import json
import os
import sys
from typing import List, Optional

import numpy as np

from repro.api import (
    SEARCH_ALGORITHMS,
    ArtifactError,
    EvolutionSpec,
    ExperimentSpec,
    FidelityRungSpec,
    Pipeline,
    PipelineContext,
    Runner,
    SearchSpec,
    SearchStage,
    SpecError,
    SpecifyStage,
    TrainSpec,
    TrainStage,
    build_design,
)
from repro.search.space import config_from_string, config_to_string
from repro.utils.validation import check_positive_int


def _deployment_source(parser: argparse.ArgumentParser,
                       out: bool = False) -> None:
    """Add the deployment a command works on: ``--deployment`` or
    ``--run-dir`` (one required) and ``--aim``; with ``out``, also the
    ``--out`` artifact directory (:func:`_compile_dir`)."""
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--deployment", metavar="DIR",
                        help="deployment directory (from "
                             "`run --export-deployment`)")
    source.add_argument("--run-dir", metavar="DIR",
                        help="finished run directory (<store>/<run_id>)")
    parser.add_argument("--aim", default=None,
                        help="searched aim of the run (with --run-dir)")
    if out:
        parser.add_argument("--out", default=None, metavar="DIR",
                            help="compiled-artifact directory (default: "
                                 "the deployment directory itself, or "
                                 "<run-dir>/compiled)")


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_flow_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", default="lenet_slim",
                       help="model zoo name (default: lenet_slim)")
        p.add_argument("--dataset", default="mnist_like",
                       help="synthetic dataset name")
        p.add_argument("--image-size", type=int, default=16,
                       help="square input side (default: 16)")
        p.add_argument("--dataset-size", type=int, default=700,
                       help="number of synthesized images")
        p.add_argument("--seed", type=int, default=0,
                       help="master seed")
        p.add_argument("--epochs", type=int, default=15,
                       help="supernet training epochs")

    p_run = sub.add_parser(
        "run", help="run a declarative experiment spec (JSON file)")
    p_run.add_argument("--spec", required=True,
                       help="path to an ExperimentSpec JSON file")
    p_run.add_argument("--store", default="runs",
                       help="artifact-store root directory (default: runs)")
    p_run.add_argument("--no-store", action="store_true",
                       help="run fully in memory (no artifacts, no resume)")
    p_run.add_argument("--workers", type=int, default=None,
                       help="evaluation worker processes (overrides the "
                            "spec's num_workers; results are bit-identical "
                            "for every worker count)")
    p_run.add_argument("--algorithm", choices=list(SEARCH_ALGORITHMS),
                       default=None,
                       help="search loop (overrides the spec's "
                            "search.algorithm): lockstep generations or "
                            "the steady-state async_ea")
    p_run.add_argument("--json", action="store_true", dest="as_json",
                       help="print the full result digest as JSON")
    p_run.add_argument("--export-deployment", default=None, metavar="DIR",
                       help="after the run, freeze the generation "
                            "target into a serving deployment directory")

    p_serve = sub.add_parser(
        "serve", help="drive the micro-batching uncertainty service")
    _deployment_source(p_serve)
    p_serve.add_argument("--smoke", action="store_true",
                         help="one-shot mode: answer a single request, "
                              "print the posterior and exit")
    p_serve.add_argument("--requests", type=int, default=8,
                         help="concurrent demo requests (default: 8)")
    p_serve.add_argument("--batch-rows", type=int, default=32,
                         help="rows per fused micro-batch (default: 32)")
    p_serve.add_argument("--max-wait-ms", type=float, default=2.0,
                         help="micro-batching admission wait (default: 2)")
    p_serve.add_argument("--samples", type=int, default=None,
                         help="Monte-Carlo passes T (default: the "
                              "deployment spec's mc_samples)")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="seed of the synthetic demo requests")
    p_serve.add_argument("--backend", choices=["float", "fixed"],
                         default="float",
                         help="serving backend: float MC engine or the "
                              "compiled fixed-point integer kernel "
                              "(default: float)")
    p_serve.add_argument("--replicas", type=int, default=0,
                         help="forked worker processes sharding each "
                              "fused batch (0 = serve inline; responses "
                              "are byte-identical either way)")
    p_serve.add_argument("--replica-timeout-s", type=float, default=30.0,
                         help="per-shard timeout before a replica is "
                              "declared wedged and respawned "
                              "(default: 30)")
    p_serve.add_argument("--deadline-ms", type=float, default=None,
                         help="per-request deadline budget; requests "
                              "still queued past it are shed with "
                              "DeadlineExceeded (default: none)")
    p_serve.add_argument("--fault-plan", default=None, metavar="FILE",
                         help="JSON fault plan (see `repro chaos "
                              "--emit-plan`) to replay against the "
                              "serving stack while it runs")

    p_chaos = sub.add_parser(
        "chaos",
        help="soak the serving stack under a deterministic fault plan")
    _deployment_source(p_chaos)
    p_chaos.add_argument("--plan", default=None, metavar="FILE",
                         help="JSON fault plan to replay (default: the "
                              "pinned standard plan)")
    p_chaos.add_argument("--plan-seed", type=int, default=0,
                         help="seed of the standard/generated plan "
                              "(ignored with --plan; default: 0)")
    p_chaos.add_argument("--generate-plan", action="store_true",
                         help="soak under a seed-generated plan instead "
                              "of the pinned standard plan")
    p_chaos.add_argument("--emit-plan", default=None, metavar="FILE",
                         help="write the soak's fault plan as JSON and "
                              "exit without serving")
    p_chaos.add_argument("--requests", type=int, default=24,
                         help="concurrent soak requests (default: 24)")
    p_chaos.add_argument("--rows", type=int, default=4,
                         help="rows per request = rows per fused batch "
                              "(default: 4)")
    p_chaos.add_argument("--replicas", type=int, default=2,
                         help="forked workers behind the batcher "
                              "(default: 2)")
    p_chaos.add_argument("--backend", choices=["float", "fixed"],
                         default="float",
                         help="serving backend under test (default: float)")
    p_chaos.add_argument("--samples", type=int, default=None,
                         help="Monte-Carlo passes T (default: the "
                              "deployment spec's mc_samples)")
    p_chaos.add_argument("--deadline-ms", type=float, default=None,
                         help="per-request deadline budget for the soak "
                              "traffic (default: none)")
    p_chaos.add_argument("--replica-timeout-s", type=float, default=2.0,
                         help="per-shard timeout; small so wedged "
                              "replicas recover promptly (default: 2)")
    p_chaos.add_argument("--timeout-s", type=float, default=120.0,
                         help="wall bound on the request wave; futures "
                              "unresolved past it count as dropped "
                              "(default: 120)")
    p_chaos.add_argument("--repeat", type=int, default=2,
                         help="soak runs; fired-event logs must be "
                              "identical across all of them (default: 2)")
    p_chaos.add_argument("--json", action="store_true", dest="as_json",
                         help="print the chaos report as JSON")

    p_compile = sub.add_parser(
        "compile",
        help="lower a deployment to an executable fixed-point kernel")
    _deployment_source(p_compile, out=True)
    p_compile.add_argument("--calibration-rows", type=int, default=None,
                           help="validation rows for range calibration")
    p_compile.add_argument("--fidelity-rows", type=int, default=None,
                           help="validation rows for the fidelity report")
    p_compile.add_argument("--samples", type=int, default=None,
                           help="Monte-Carlo passes T (default: the "
                                "deployment spec's mc_samples)")
    p_compile.add_argument("--force", action="store_true",
                           help="recompile even if artifacts exist")
    p_compile.add_argument("--allow-unsafe", action="store_true",
                           help="keep a wrap-possible kernel on disk for "
                                "inspection only (nothing runs it)")
    p_compile.add_argument("--json", action="store_true", dest="as_json",
                           help="print the fidelity report as JSON")

    p_verify = sub.add_parser(
        "verify-kernel",
        help="re-derive and cross-check a compiled kernel's overflow "
             "certificate")
    _deployment_source(p_verify, out=True)
    p_verify.add_argument("--json", action="store_true", dest="as_json",
                          help="print the certificate as JSON")

    p_profile = sub.add_parser(
        "profile",
        help="time each fixed-point kernel step against its modelled "
             "FPGA cycles, then each float-engine leaf")
    p_profile.add_argument("--deployment", metavar="DIR", required=True,
                           help="deployment directory (from "
                                "`run --export-deployment`)")
    p_profile.add_argument("--rows", type=int, default=32,
                           help="seeded request rows per predict "
                                "(default: 32)")
    p_profile.add_argument("--samples", type=int, default=None,
                           help="Monte-Carlo passes T (default: the "
                                "deployment spec's mc_samples)")
    p_profile.add_argument("--repeats", type=int, default=20,
                           help="timed predicts (default: 20)")

    p_lint = sub.add_parser(
        "lint", help="run the determinism/fork-safety linter")
    p_lint.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    p_lint.add_argument("--json", action="store_true", dest="as_json",
                        help="print the findings as JSON")

    p_search = sub.add_parser(
        "search", help="run the four-phase dropout search")
    add_flow_args(p_search)
    p_search.add_argument(
        "--aims", nargs="+",
        default=["accuracy", "ece", "ape", "latency"],
        help="aim presets to search (default: all four)")
    p_search.add_argument("--population", type=int, default=12)
    p_search.add_argument("--generations", type=int, default=6)
    p_search.add_argument(
        "--workers", type=int, default=1,
        help="evaluation worker processes (default: 1; results are "
             "bit-identical for every worker count)")
    p_search.add_argument(
        "--algorithm", choices=list(SEARCH_ALGORITHMS),
        default="lockstep",
        help="search loop: lockstep generations (default) or the "
             "steady-state async_ea")
    p_search.add_argument(
        "--rung", action="append", default=None, metavar="T:FRAC[:KEEP]",
        help="add one async_ea screening rung: T Monte-Carlo passes "
             "(0 = full T) on a FRAC validation subset, keeping the "
             "top KEEP fraction (default 0.5); repeatable, ordered "
             "cheapest first")
    p_search.add_argument(
        "--store", default=None,
        help="optional artifact-store root; enables resume")

    p_generate = sub.add_parser(
        "generate", help="emit an HLS project for a configuration")
    add_flow_args(p_generate)
    p_generate.add_argument("--config", required=True,
                            help="dropout configuration, e.g. B-K-M")
    p_generate.add_argument("--outdir", default="generated_accelerator",
                            help="output directory")
    p_generate.add_argument("--project-name", default="myproject")

    p_report = sub.add_parser(
        "report", help="print the synthesis report of a configuration")
    add_flow_args(p_report)
    p_report.add_argument("--config", required=True,
                          help="dropout configuration, e.g. M-M-M")
    return parser


def _parse_rung(text: str) -> FidelityRungSpec:
    """Parse one ``--rung T:FRAC[:KEEP]`` flag (T = 0 keeps full T)."""
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise SpecError(f"--rung expects T:FRAC[:KEEP], got {text!r}")
    try:
        mc_samples = int(parts[0])
        data_fraction = float(parts[1])
        keep_fraction = float(parts[2]) if len(parts) == 3 else 0.5
    except ValueError as exc:
        raise SpecError(f"invalid --rung {text!r}: {exc}") from exc
    return FidelityRungSpec(
        mc_samples=None if mc_samples == 0 else mc_samples,
        data_fraction=data_fraction,
        keep_fraction=keep_fraction)


def _spec_from_args(args: argparse.Namespace, *,
                    aims: Optional[List[str]] = None,
                    population: Optional[int] = None,
                    generations: Optional[int] = None) -> ExperimentSpec:
    """Build a declarative spec from the flat legacy-style flags."""
    evolution = EvolutionSpec()
    if population is not None or generations is not None:
        evolution = EvolutionSpec(
            population_size=population if population is not None else 16,
            generations=generations if generations is not None else 8)
    algorithm = getattr(args, "algorithm", None) or "lockstep"
    rungs = tuple(_parse_rung(text)
                  for text in (getattr(args, "rung", None) or ()))
    if rungs and algorithm != "async_ea":
        raise SpecError("--rung requires --algorithm async_ea")
    return ExperimentSpec(
        name=f"cli-{args.model}",
        model=args.model, dataset=args.dataset,
        image_size=args.image_size, dataset_size=args.dataset_size,
        seed=args.seed,
        num_workers=(args.workers if getattr(args, "workers", None)
                     is not None else 1),
        train=TrainSpec(epochs=args.epochs),
        search=SearchSpec(aims=tuple(aims) if aims else ("accuracy",),
                          evolution=evolution,
                          algorithm=algorithm,
                          fidelity_rungs=rungs))


def _specified_context(args: argparse.Namespace) -> PipelineContext:
    """A context with Phase 1 executed (no training) for codegen paths."""
    ctx = PipelineContext(spec=_spec_from_args(args))
    SpecifyStage().execute(ctx)
    return ctx


def _parse_config(ctx: PipelineContext, text: str):
    """Parse and validate a Table-2 config string against the space."""
    try:
        return ctx.space.validate(config_from_string(text))
    except KeyError as exc:  # unknown design letter
        raise ValueError(exc.args[0] if exc.args else str(exc)) from exc


def _print_summary_rows(rows) -> None:
    for row in rows:
        seconds = row["search_seconds"]
        cost = f" {seconds:6.1f}s" if seconds is not None else ""
        print(f"{row['aim']:<18} {row['config']:<12} "
              f"acc={row['accuracy_pct']:5.1f}% "
              f"ECE={row['ece_pct']:5.2f}% "
              f"aPE={row['ape_nats']:5.3f} "
              f"lat={row['latency_ms']:.3f}ms{cost} "
              f"evals={row['cache_misses']}+{row['cache_hits']}cached")


def cmd_run(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.load(args.spec)
    if args.workers is not None:
        # num_workers is fingerprint-excluded (the pooled path is
        # bit-identical to serial), so the override still resumes the
        # spec's persisted artifacts.
        spec = spec.with_updates(num_workers=args.workers)
    if args.algorithm is not None and args.algorithm != spec.search.algorithm:
        # The algorithm changes the search trajectory, so — unlike the
        # worker override — the updated spec resumes into
        # its own artifact namespace (a fresh fingerprint).
        spec = spec.with_updates(search=dataclasses.replace(
            spec.search, algorithm=args.algorithm))
    runner = Runner(spec,
                    store_root=None if args.no_store else args.store)
    result = runner.run()
    deployment = None
    if args.export_deployment:
        deployment = runner.export_deployment(args.export_deployment)
    if args.as_json:
        digest = result.to_dict()
        if deployment is not None:
            digest["deployment"] = {
                "path": args.export_deployment,
                "config": config_to_string(deployment.config),
                "aim": deployment.aim,
                "serve_seed": deployment.serve_seed,
            }
        print(json.dumps(digest, indent=2, sort_keys=True))
        return 0
    print(f"run id: {result.run_id}")
    if result.store_root:
        print(f"artifacts: {result.store_root}")
    if deployment is not None:
        print(f"deployment: {args.export_deployment} "
              f"(config {config_to_string(deployment.config)})")
    if result.resumed:
        print(f"resumed from artifacts: {', '.join(sorted(result.resumed))}")
    log = result.train_log
    print(f"supernet: {log.steps} steps, {log.wall_seconds:.1f}s"
          f"{' (restored)' if 'train' in result.resumed else ''}")
    _print_summary_rows(result.summary())
    for key, design in result.designs.items():
        print(f"\ngenerated design [{key}]")
        print(design.report.render())
    return 0


def cmd_search(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args, aims=list(args.aims),
                           population=args.population,
                           generations=args.generations)
    # Search-only pipeline: no Phase-4 generation (use `run`/`generate`).
    pipeline = Pipeline([SpecifyStage(), TrainStage(), SearchStage()])
    runner = Runner(spec, store_root=args.store, pipeline=pipeline)
    ctx = runner.ctx
    space = SpecifyStage().execute(ctx)
    print(f"search space: {space}")
    result = runner.run()
    log = result.train_log
    print(f"supernet trained: {log.steps} steps, "
          f"{log.wall_seconds:.1f}s")
    _print_summary_rows(result.summary())
    return 0


async def _drive_service(service, requests: List[np.ndarray]):
    """Submit ``requests`` concurrently; return posteriors or sheds.

    Shed errors (deadline, admission, backpressure) come back in the
    result list instead of aborting the whole demo wave — under a
    fault plan or a tight deadline, shedding is expected behavior.
    """
    from repro.serve import ShedError

    async with service:
        outcomes = await asyncio.gather(
            *(service.predict(images) for images in requests),
            return_exceptions=True)
    for outcome in outcomes:
        if isinstance(outcome, BaseException) and not isinstance(
                outcome, ShedError):
            raise outcome
    return outcomes


#: Environment variables that cap BLAS/OpenMP threads; one the user
#: sets wins over :func:`_one_blas_thread`.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def _one_blas_thread() -> None:
    """Run numpy's bundled OpenBLAS on one thread from here on.

    :func:`main` calls it before every command.  At its default thread
    count a process on a small host can run about 10x slower for its
    whole life; forked search workers and replicas inherit the
    setting.  Does nothing when the user set a thread variable, or when
    numpy bundles no ``scipy_openblas``.
    """
    if any(os.environ.get(name) for name in BLAS_THREAD_VARS):
        return
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__),
                                       os.pardir, "numpy.libs",
                                       "*openblas*")):
        try:
            setter = ctypes.CDLL(path).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        setter.argtypes = [ctypes.c_int]
        setter.restype = None
        setter(1)
        return


def _deployment(args: argparse.Namespace):
    """The deployment ``--deployment`` or ``--run-dir`` names."""
    from repro.serve import Deployment

    if args.deployment:
        return Deployment.load(args.deployment)
    return Deployment.from_run(args.run_dir, aim=args.aim)


def _compile_dir(args: argparse.Namespace) -> str:
    """Where ``repro compile`` writes (and ``verify-kernel`` reads) the
    compiled artifacts: ``--out``, else the deployment directory, else
    ``<run-dir>/compiled``."""
    return (args.out or args.deployment
            or os.path.join(args.run_dir, "compiled"))


def _check_counts(args: argparse.Namespace) -> None:
    """Refuse a serve or chaos count flag outside its range."""
    check_positive_int(args.requests, "--requests")
    if args.replicas < 0:
        raise ValueError(f"--replicas must be at least 0, got "
                         f"{args.replicas}")


def cmd_serve(args: argparse.Namespace) -> int:
    # Imported here so the other subcommands never pay the serve
    # imports (and vice versa on a stripped deployment host).
    from repro.serve import UncertaintyService

    _check_counts(args)
    deployment = _deployment(args)
    kernel = None
    if args.backend == "fixed" and args.deployment:
        # Reuse a `repro compile` artifact when the deployment
        # directory holds one; otherwise the service compiles inline.
        # Either kernel passes the service's certificate gate.
        from repro.api import ArtifactStore
        from repro.hw.compile import KERNEL_ARTIFACT, load_kernel
        store = ArtifactStore(args.deployment)
        if store.has(KERNEL_ARTIFACT):
            kernel = load_kernel(store, deployment)
    fault_plan = None
    if args.fault_plan:
        from repro.faults.plan import FaultPlan
        fault_plan = FaultPlan.load(args.fault_plan)
    num_requests = 1 if args.smoke else args.requests
    rng = np.random.default_rng(args.seed)
    requests = [
        rng.normal(size=(1,) + deployment.input_shape).astype(np.float32)
        for _ in range(num_requests)
    ]
    service = UncertaintyService(
        deployment,
        max_batch_rows=args.batch_rows,
        max_wait_ms=args.max_wait_ms,
        max_queue_rows=max(args.batch_rows, num_requests),
        num_samples=args.samples,
        backend=args.backend,
        kernel=kernel,
        replicas=args.replicas,
        replica_timeout_s=args.replica_timeout_s,
        deadline_ms=args.deadline_ms,
        fault_plan=fault_plan)
    print(f"deployment: model={deployment.spec.model} "
          f"config={config_to_string(deployment.config)} "
          f"T={service.num_samples} "
          f"backend={service.backend} "
          f"replicas={service.replicas} "
          f"fixed_point=<{deployment.fixed_point.total_bits},"
          f"{deployment.fixed_point.fraction_bits}>")
    posteriors = asyncio.run(_drive_service(service, requests))
    for index, posterior in enumerate(posteriors):
        if isinstance(posterior, BaseException):
            print(f"request {index}: SHED "
                  f"({type(posterior).__name__}: {posterior})")
            continue
        print(f"request {index}: class={int(posterior.predictions[0])} "
              f"entropy={float(posterior.predictive_entropy[0]):.4f} "
              f"mutual_info={float(posterior.mutual_information[0]):.4f}")
    stats = service.stats()
    print(f"served {stats['requests']} request(s) in {stats['batches']} "
          f"fused batch(es), coalesce ratio "
          f"{stats['coalesce_ratio']:.2f}, "
          f"p50={stats['latency_p50_ms']:.1f}ms "
          f"p99={stats['latency_p99_ms']:.1f}ms")
    # The degradation ladder, one honest line: every distinct way the
    # service sheds load, plus the breaker's verdict on the pool.
    breaker = stats.get("breaker") or {}
    print(f"degradation: degraded={stats['degraded']} "
          f"rejected={stats['rejected']} "
          f"shed_deadline={stats['shed_deadline']} "
          f"shed_load={stats['shed_load']} "
          f"shed_stopped={stats['shed_stopped']} "
          f"breaker={breaker.get('state', 'n/a')} "
          f"trips={breaker.get('trips', 0)} "
          f"fallbacks={stats['breaker_fallbacks']}")
    injector = stats.get("fault_injector")
    if injector:
        print(f"fault plan: fired={injector['fired']} "
              f"pending={injector['pending']}")
        for site, visit, kind, param in injector["events"]:
            print(f"  fired {kind}@{site} visit={visit} param={param}")
    pool = stats.get("replicas")
    if pool:
        # Stats render after the graceful drain, when every worker has
        # been reaped on purpose — DEAD only means dead mid-flight.
        workers = ", ".join(
            f"#{w['index']}:{w['shards']} shard(s) "
            f"restarts={w['restarts']}"
            f"{' DEAD' if pool['running'] and not w['alive'] else ''}"
            for w in pool["workers"])
        print(f"replica pool: axis={pool['axis']} "
              f"shared={pool['shared_bytes']} bytes "
              f"redispatches={pool['redispatches']} "
              f"injected_faults={pool['injected_faults']} "
              f"fallbacks={pool['fallbacks']} [{workers}]")
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    # Lazy imports, mirroring cmd_serve: chaos builds on the serving
    # stack, which the other subcommands never need.
    from repro.faults import chaos
    from repro.faults.plan import FaultPlan

    _check_counts(args)
    check_positive_int(args.repeat, "--repeat")
    if args.plan:
        plan = FaultPlan.load(args.plan)
    elif args.generate_plan:
        plan = FaultPlan.generate(args.plan_seed)
    else:
        plan = FaultPlan.standard_plan(args.plan_seed)
    if args.emit_plan:
        plan.save(args.emit_plan)
        print(f"wrote fault plan ({len(plan.events)} event(s)) to "
              f"{args.emit_plan}")
        return 0
    deployment = _deployment(args)

    reports = []
    for round_index in range(args.repeat):
        reports.append(chaos.run_soak(
            deployment, plan,
            requests=args.requests, rows=args.rows,
            replicas=args.replicas, backend=args.backend,
            num_samples=args.samples, deadline_ms=args.deadline_ms,
            replica_timeout_s=args.replica_timeout_s,
            timeout_s=args.timeout_s))
    report = reports[0]
    replay_ok = all(rep.event_log == report.event_log
                    for rep in reports[1:])
    if not replay_ok:
        report.violations.append(
            "fired-event logs diverged across --repeat soak runs — the "
            "fault schedule is not deterministic")
    ok = report.ok and all(rep.ok for rep in reports)

    if args.as_json:
        payload = report.to_dict()
        payload["ok"] = ok
        payload["repeat"] = args.repeat
        payload["replay_identical"] = replay_ok
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if ok else 1
    print(f"chaos soak: {args.requests} request(s) x {args.repeat} "
          f"run(s), {len(plan.events)} planned fault(s), replicas="
          f"{args.replicas}")
    print(f"outcomes: completed={report.completed} "
          f"shed={report.shed} dropped={report.dropped} "
          f"mismatched={report.mismatched}")
    print(f"faults: fired={report.fired} pending={report.pending} "
          f"replay_identical={replay_ok}")
    for site, visit, kind, param in report.event_log:
        print(f"  fired {kind}@{site} visit={visit} param={param}")
    for rep in reports:
        for violation in rep.violations:
            print(f"VIOLATION: {violation}")
    print(f"invariants: {'OK' if ok else 'FAILED'}")
    return 0 if ok else 1


def cmd_compile(args: argparse.Namespace) -> int:
    # Lazy imports, mirroring cmd_serve: compile builds on the serving
    # and hw layers, which the other subcommands never need.
    from repro.api import ArtifactStore
    from repro.hw.compile import compile_and_report

    deployment = _deployment(args)
    store = ArtifactStore(_compile_dir(args))
    kernel, report, certificate = compile_and_report(
        deployment, store,
        **({} if args.calibration_rows is None
           else {"calibration_rows": args.calibration_rows}),
        fidelity_rows=args.fidelity_rows,
        num_samples=args.samples,
        force=args.force,
        allow_unsafe=args.allow_unsafe)
    if args.as_json:
        payload = report.to_dict()
        payload["overflow_certificate"] = certificate.to_dict()
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"compiled: model={deployment.spec.model} "
          f"config={config_to_string(deployment.config)} "
          f"layers={len(kernel.plans)} "
          f"default=<{deployment.fixed_point.total_bits},"
          f"{deployment.fixed_point.fraction_bits}>")
    print(f"artifacts: {store.root}")
    print(certificate.render())
    print(report.render())
    return 0


def cmd_verify_kernel(args: argparse.Namespace) -> int:
    # Lazy imports for the same reason as cmd_compile.
    from repro.analysis.certify import verify_kernel
    from repro.api import ArtifactStore

    deployment = _deployment(args)
    result = verify_kernel(ArtifactStore(_compile_dir(args)), deployment)
    if args.as_json:
        payload = result.certificate.to_dict()
        payload["stored_certificate"] = (result.stored is not None)
        payload["stale"] = result.stale
        payload["ok"] = result.ok
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if result.ok else 1
    print(result.certificate.render())
    if result.stored is None:
        print("stored certificate: none (derived fresh from the kernel)")
    elif result.stale:
        print("stored certificate: STALE — it differs from the one "
              "re-derived from the kernel on disk; `repro compile` "
              "rewrites it")
    else:
        print(f"stored certificate: matches kernel fingerprint "
              f"{result.certificate.kernel_fingerprint[:12]}…")
    print(f"verification: {'OK' if result.ok else 'FAILED'}")
    return 0 if result.ok else 1


def cmd_profile(args: argparse.Namespace) -> int:
    # Lazy imports for the same reason as cmd_compile.
    import time

    from repro.bayes.mc import mc_predict
    from repro.hw import estimate, trace_network
    from repro.hw.compile import compile_deployment
    from repro.hw.netlist import hooked_leaves, traced_leaves
    from repro.serve import Deployment

    check_positive_int(args.rows, "--rows")
    check_positive_int(args.repeats, "--repeats")
    deployment = Deployment.load(args.deployment)
    samples = args.samples or deployment.spec.mc_samples
    check_positive_int(samples, "--samples")
    kernel = compile_deployment(deployment)
    kernel.require_certified()
    images = np.random.default_rng(deployment.serve_seed).normal(
        size=(args.rows,) + deployment.input_shape).astype(np.float32)
    kernel.predict(images, samples)     # draws the masks, builds the ops
    spent = {op: [] for op in kernel.ops}
    clock = [0.0]

    def timer(op) -> None:
        now = time.perf_counter()
        if op is not None:
            spent[op].append(now - clock[0])
        clock[0] = now

    totals = []
    for _ in range(args.repeats):
        start = time.perf_counter()
        kernel.predict(images, samples, timer=timer)
        totals.append(time.perf_counter() - start)
    model = deployment.instantiate()
    perf = estimate(trace_network(model.model, deployment.input_shape),
                    deployment.spec.accelerator_config())
    cycles = {layer.info.name: layer.cycles for layer in perf.layers}
    total_ms = float(np.median(totals)) * 1e3
    print(f"profile: model={deployment.spec.model} "
          f"config={config_to_string(deployment.config)} rows={args.rows} "
          f"T={samples} repeats={args.repeats} "
          f"(median ms per predict; modelled cycles per pass)")
    print(f"{'step':<40} {'ms':>9} {'share':>7} {'cycles':>10}")
    for op, times in spent.items():
        ms = float(np.median(times)) * 1e3
        modelled = sum(cycles.get(name, 0) for name in op.plans)
        print(f"{'+'.join(op.plans):<40} {ms:>9.3f} "
              f"{ms / total_ms:>7.1%} {modelled:>10.0f}")
    print(f"{'total (predict)':<40} {total_ms:>9.3f} {1:>7.1%} "
          f"{perf.cycles_per_pass:>10.0f}")

    # The float engine, leaf by leaf: every call draws fresh mask plans,
    # as a search candidate does.
    leaves = {name: kind for name, kind, _ in traced_leaves(model.model)}
    leaf_times = {name: [] for name in leaves}

    def make_hook(name, kind, module, forward):
        def hook(*inputs):
            start = time.perf_counter()
            out = forward(*inputs)
            leaf_times[name][-1] += time.perf_counter() - start
            return out
        return hook

    totals = []
    with hooked_leaves(model.model, make_hook):
        for _ in range(args.repeats + 1):   # the first one warms
            for times in leaf_times.values():
                times.append(0.0)
            start = time.perf_counter()
            mc_predict(model, images, samples)
            totals.append(time.perf_counter() - start)
    total_ms = float(np.median(totals[1:])) * 1e3
    print()
    print(f"float: mc_predict rows={args.rows} T={samples} "
          f"repeats={args.repeats} (median ms per call, fresh mask plans)")
    print(f"{'leaf':<40} {'kind':<14} {'ms':>9} {'share':>7}")
    for name, times in leaf_times.items():
        ms = float(np.median(times[1:])) * 1e3
        print(f"{name:<40} {leaves[name]:<14} {ms:>9.3f} "
              f"{ms / total_ms:>7.1%}")
    print(f"{'total (mc_predict)':<40} {'':<14} {total_ms:>9.3f} {1:>7.1%}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.lint import lint_paths, render_findings

    findings = lint_paths(args.paths or ["src"])
    if args.as_json:
        print(json.dumps([f.to_dict() for f in findings], indent=2,
                         sort_keys=True))
    else:
        print(render_findings(findings))
    return 1 if findings else 0


def cmd_generate(args: argparse.Namespace) -> int:
    ctx = _specified_context(args)
    config = _parse_config(ctx, args.config)
    design, project = build_design(ctx, config, outdir=args.outdir,
                                   project_name=args.project_name)
    print(f"emitted {len(project.files)} files under {args.outdir}/")
    print(design.report.render())
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    ctx = _specified_context(args)
    config = _parse_config(ctx, args.config)
    design, _ = build_design(ctx, config)
    print(design.report.render())
    return 0


_COMMANDS = {
    "run": cmd_run,
    "serve": cmd_serve,
    "chaos": cmd_chaos,
    "compile": cmd_compile,
    "verify-kernel": cmd_verify_kernel,
    "profile": cmd_profile,
    "lint": cmd_lint,
    "search": cmd_search,
    "generate": cmd_generate,
    "report": cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    User errors (bad spec file, torn artifact store) are rendered as a
    one-line ``error:`` message instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    _one_blas_thread()
    try:
        return _COMMANDS[args.command](args)
    except (SpecError, ArtifactError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
