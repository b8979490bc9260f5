"""``qbss-report`` — regenerate the paper's tables and figures from the CLI.

Examples::

    qbss-report rho                 # the Sec. 4.2 rho table
    qbss-report table1 --alpha 2.5  # Table 1 at alpha = 2.5
    qbss-report all --jobs 4        # every experiment, over a process pool
    qbss-report all --no-cache      # recompute, bypassing the result cache
    qbss-report --list              # what's in the registry

Evaluation goes through :mod:`repro.engine`: experiments fan out over a
process pool (``--jobs``, with ``0``/``auto`` meaning one worker per CPU)
and warm re-runs are served from the content-addressed result cache
(``--cache-dir``, ``--no-cache``, ``--cache-prune``).  Reports go to
stdout; the engine-metrics footer (per-experiment wall time and cache
hit/miss) goes to stderr, so piped report output stays deterministic.

This module also hosts ``qbss-replay`` (:func:`replay_main`) — the
trace-driven evaluation CLI of :mod:`repro.traces`::

    qbss-replay trace.swf --shard-window 3600 --algorithms avrq,bkpq
    qbss-replay jobs.csv --format csv --noise-model lognormal --jobs auto
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__ as PACKAGE_VERSION


def _add_version_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {PACKAGE_VERSION}",
    )


def build_parser() -> argparse.ArgumentParser:
    from .analysis.experiments import REGISTRY

    parser = argparse.ArgumentParser(
        prog="qbss-report",
        description=(
            "Regenerate the evaluation artifacts of 'Speed Scaling with "
            "Explorable Uncertainty' (SPAA 2021)."
        ),
    )
    _add_version_argument(parser)
    parser.add_argument(
        "experiment",
        nargs="?",
        choices=sorted(REGISTRY) + ["all", "verify"],
        help=(
            "which paper artifact to regenerate; 'verify' runs the "
            "condensed reproduction check-list"
        ),
    )
    parser.add_argument(
        "--alpha",
        type=float,
        default=None,
        help="power exponent (where the experiment takes one; default 3.0)",
    )
    parser.add_argument(
        "--n",
        type=int,
        default=None,
        help="jobs per random instance (where applicable)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        default=None,
        help="number of random seeds (where applicable)",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit a markdown document instead of ASCII tables",
    )
    parser.add_argument(
        "--jobs",
        default="1",
        metavar="N",
        help=(
            "fan experiments out over N worker processes; 0 or 'auto' "
            "means one per CPU (default: serial)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "result-cache directory (default: $QBSS_CACHE_DIR or "
            "~/.cache/qbss-repro)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the result cache entirely (no reads, no writes)",
    )
    parser.add_argument(
        "--cache-prune",
        default=None,
        metavar="SPEC",
        help=(
            "prune the result cache before running: delete entries older "
            "than an age ('30d', '12h') and/or evict oldest-first beyond a "
            "size budget ('500mb', '7d,1gb'); with no experiment given, "
            "prune and exit"
        ),
    )
    _add_robustness_arguments(parser)
    _add_obs_arguments(parser)
    parser.add_argument(
        "--list",
        action="store_true",
        help="list the registered experiments and their parameters, then exit",
    )
    return parser


def _add_robustness_arguments(parser: argparse.ArgumentParser) -> None:
    """The hardened-execution flags shared by qbss-report, qbss-replay and
    qbss-serve (docs/robustness.md); :func:`_retry_policy` and
    :func:`_backend_arg` validate them."""
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help=(
            "deadline per task: a task running longer is cancelled and "
            "reported as a timeout while the batch continues (enforced "
            "with --jobs > 1; serial execution cannot preempt a task)"
        ),
    )
    parser.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        metavar="N",
        help=(
            "total attempts per task for transient failures — worker "
            "death, cache I/O errors (default 3; 1 disables retries)"
        ),
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="SPEC",
        help=(
            "execution backend: 'serial' (one worker, inline), 'pool' "
            "(local process pool, the default), or "
            "'remote:HOST:PORT[,HOST:PORT...]' to "
            "fan tasks out to qbss-worker processes over TCP; remote "
            "entries may also be '@FILE' naming a qbss-worker --port-file "
            "(see docs/backends.md)"
        ),
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """The observability flags shared by both CLIs (docs/observability.md)."""
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help=(
            "write a JSON-lines span trace of the run (batch/task/attempt "
            "spans plus retry/timeout/quarantine events); report output is "
            "byte-identical with or without this flag"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help=(
            "export run metrics after the run; a '.prom'/'.txt' suffix "
            "selects Prometheus text exposition, anything else JSON"
        ),
    )
    parser.add_argument(
        "--manifest-out",
        default=None,
        metavar="FILE",
        help=(
            "write a run manifest (package/python version, resolved "
            "arguments, seed, cache dir, fault plan, wall-clock start) "
            "as a repro.io JSON document"
        ),
    )


def _obs_setup(args: argparse.Namespace):
    """Build the (tracer, metrics registry, wall-clock start) triple.

    The wall clock is read exactly once, here — the manifest is the only
    consumer of ``time.time()``; nothing on the execution path touches it.
    """
    import time

    tracer = None
    if args.trace_out is not None:
        from .obs import Tracer

        tracer = Tracer.to_path(args.trace_out)
    registry = None
    if args.metrics_out is not None:
        from .obs import MetricsRegistry

        registry = MetricsRegistry()
    return tracer, registry, time.time()


def _obs_finish(
    args: argparse.Namespace,
    tool: str,
    tracer,
    registry,
    *,
    started_at: float,
    seed=None,
    cache_dir=None,
    fault_plan=None,
    recovery=None,
) -> None:
    """Flush the trace and write the metrics/manifest output files."""
    if tracer is not None:
        tracer.close()
        print(f"trace written to {args.trace_out}", file=sys.stderr)
    if registry is not None:
        from .obs import write_metrics

        fmt = write_metrics(registry, args.metrics_out)
        print(
            f"metrics written to {args.metrics_out} ({fmt})", file=sys.stderr
        )
    if args.manifest_out is not None:
        from . import io as rio
        from .obs import RunManifest

        manifest = RunManifest.create(
            tool,
            vars(args),
            seed=seed,
            cache_dir=cache_dir,
            fault_plan=fault_plan,
            recovery=recovery,
            now=started_at,
        )
        rio.save(manifest, args.manifest_out)
        print(f"manifest written to {args.manifest_out}", file=sys.stderr)


def _retry_policy(parser: argparse.ArgumentParser, args: argparse.Namespace):
    from .engine import RetryPolicy

    if args.task_timeout is not None and args.task_timeout <= 0:
        parser.error("--task-timeout must be > 0")
    try:
        return RetryPolicy(max_attempts=args.max_attempts)
    except ValueError as exc:
        parser.error(str(exc))


def _session(
    parser: argparse.ArgumentParser,
    args: argparse.Namespace,
    jobs: int,
    backend: str | None,
    tracer,
    registry,
):
    """The one :class:`~repro.engine.ExecutionSession` a CLI run executes
    under, built from the shared execution flags."""
    from .engine import ExecutionSession

    return ExecutionSession(
        jobs=jobs,
        cache=not args.no_cache,
        cache_dir=args.cache_dir,
        task_timeout=args.task_timeout,
        retry=_retry_policy(parser, args),
        tracer=tracer,
        metrics=registry,
        backend=backend,
    )


def _overrides_from_args(args: argparse.Namespace) -> dict:
    """The CLI's global keyword overrides, in experiment-kwargs form."""
    overrides = {}
    if args.alpha is not None:
        overrides["alpha"] = args.alpha
    if args.n is not None:
        overrides["n"] = args.n
    if args.seeds is not None:
        overrides["seeds"] = tuple(range(args.seeds))
    return overrides


def _list_experiments() -> str:
    """One line per registry entry: name, defaults, docstring summary."""
    from .analysis.experiments import REGISTRY, experiment_params

    lines = []
    for name in sorted(REGISTRY):
        doc = (REGISTRY[name].__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        params = ", ".join(
            f"{k}={v}" for k, v in experiment_params(name).items()
        )
        lines.append(f"{name:<22} {summary}")
        if params:
            lines.append(f"{'':<22}   defaults: {params}")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    try:
        return _main(argv)
    except BrokenPipeError:
        # Reader went away (e.g. `qbss-report rho | head`); die quietly with
        # the conventional 128+SIGPIPE status instead of a traceback.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


def _resolve_jobs_arg(parser: argparse.ArgumentParser, value) -> int:
    from .engine import resolve_jobs

    try:
        return resolve_jobs(value)
    except ValueError as exc:
        parser.error(str(exc))


def _check_evaluation_args(
    parser: argparse.ArgumentParser, args: argparse.Namespace
) -> None:
    """The synthesis and evaluation parameters of ``qbss-replay`` and
    ``qbss-serve``: a bad one is a usage error (exit 2) up front, not a
    failure of every shard or submission later."""
    if args.seed < 0:
        parser.error(f"--seed must be >= 0, got {args.seed}")
    for flag, value in (
        ("--deadline-slack", args.deadline_slack),
        ("--shard-window", args.shard_window),
    ):
        if not (math.isfinite(value) and value > 0):
            parser.error(f"{flag} must be a finite number > 0, got {value}")
    if not (math.isfinite(args.alpha) and args.alpha > 1):
        parser.error(f"--alpha must be a finite number > 1, got {args.alpha}")


def _backend_arg(
    parser: argparse.ArgumentParser, args: argparse.Namespace, jobs: int
) -> tuple[str | None, int]:
    """Validate ``--backend``; returns ``(spec, effective jobs)``.

    A remote spec raises the effective job count to the worker count so
    the driver actually feeds the whole fleet (and the replay memory
    bound of ``2 x jobs`` in-flight shards scales with it).
    """
    if args.backend is None:
        return None, jobs
    from .engine import parse_backend_spec

    try:
        kind, entries = parse_backend_spec(args.backend)
    except ValueError as exc:
        parser.error(str(exc))
    if kind == "remote":
        jobs = max(jobs, len(entries))
    return args.backend, jobs


def _prune_cache(
    parser: argparse.ArgumentParser, spec: str, cache_dir
) -> None:
    """Apply a ``--cache-prune`` spec; reports the outcome on stderr."""
    from .engine import ResultCache, parse_prune_spec

    try:
        max_age_days, max_bytes = parse_prune_spec(spec)
    except ValueError as exc:
        parser.error(str(exc))
    stats = ResultCache(cache_dir).prune(
        max_age_days=max_age_days, max_bytes=max_bytes
    )
    print(
        f"cache prune: removed {stats.removed} of {stats.scanned} entries "
        f"({stats.freed_bytes} bytes freed)",
        file=sys.stderr,
    )


def _main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.list:
        print(_list_experiments())
        return 0
    if args.cache_prune is not None:
        _prune_cache(parser, args.cache_prune, args.cache_dir)
        if args.experiment is None:
            return 0
    if args.experiment is None:
        parser.error("an experiment name (or 'all'/'verify') is required")
    jobs = _resolve_jobs_arg(parser, args.jobs)
    if args.experiment == "verify":
        from .analysis.verification import all_ok, render_claims, verify_reproduction

        claims = verify_reproduction(alpha=args.alpha or 3.0, n=args.n or 12)
        print(render_claims(claims))
        return 0 if all_ok(claims) else 1

    from .analysis.experiments import REGISTRY, resolve_kwargs

    names = sorted(REGISTRY) if args.experiment == "all" else [args.experiment]
    cli_overrides = _overrides_from_args(args)
    overrides = {}
    used_anywhere = set()
    per_name_unused = {}
    for name in names:
        call_kwargs, _resolved, unused = resolve_kwargs(name, cli_overrides)
        overrides[name] = call_kwargs
        used_anywhere.update(call_kwargs)
        per_name_unused[name] = unused
    if len(names) == 1:
        # Warn per unused override: previously --alpha etc. were silently
        # dropped when the experiment named its parameters differently.
        for key in per_name_unused[names[0]]:
            print(
                f"warning: --{key.replace('_', '-')} is not a parameter of "
                f"experiment '{names[0]}' and was ignored",
                file=sys.stderr,
            )
    else:
        for key in sorted(set(cli_overrides) - used_anywhere):
            print(
                f"warning: --{key.replace('_', '-')} matched no experiment "
                "and was ignored everywhere",
                file=sys.stderr,
            )

    from .engine import run_experiments

    backend, jobs = _backend_arg(parser, args, jobs)
    tracer, registry, started_at = _obs_setup(args)
    try:
        with _session(parser, args, jobs, backend, tracer, registry) as session:
            result = run_experiments(names, overrides, session=session)
    except BaseException:
        if tracer is not None:
            tracer.close()
        raise

    if args.markdown:
        from .analysis.report import engine_failures_to_markdown, reports_to_markdown

        print(reports_to_markdown(result.reports), end="")
        print(engine_failures_to_markdown(result), end="")
    else:
        for run in result.runs:
            if run.report is not None:
                print(run.report.render())
                print()

    _obs_finish(
        args,
        "qbss-report",
        tracer,
        registry,
        started_at=started_at,
        cache_dir=result.cache_dir,
        fault_plan=session.active_fault_plan,
    )
    print(result.footer(), file=sys.stderr)
    for run in result.errors:
        print(
            f"error: experiment '{run.name}' failed "
            f"({run.metrics.status} after {run.metrics.attempts} attempt(s)):"
            f"\n{run.metrics.error}",
            file=sys.stderr,
        )
    return 1 if result.errors else 0


# ----------------------------------------------------------------------------------
# qbss-replay — trace-driven evaluation (see repro.traces)
# ----------------------------------------------------------------------------------


def build_replay_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qbss-replay",
        description=(
            "Replay an external workload trace (SWF cluster log or "
            "release,deadline,runtime[,query_cost] CSV/JSONL) through the "
            "QBSS online algorithms: synthesize uncertainty around each "
            "observed runtime, shard the stream into time windows, and "
            "report per-shard competitive ratios against the clairvoyant "
            "optimum."
        ),
    )
    _add_version_argument(parser)
    parser.add_argument("trace", help="path to the trace file")
    parser.add_argument(
        "--format",
        choices=["auto", "swf", "csv", "jsonl"],
        default="auto",
        help="trace format (default: detect from the file extension)",
    )
    parser.add_argument(
        "--noise-model",
        default="multiplicative",
        metavar="NAME",
        help=(
            "how the upper bound w is synthesized from the observed "
            "runtime w*: multiplicative, lognormal or adversarial "
            "(default: multiplicative)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        help="noise-synthesis seed (per-record derivation; default 0)",
    )
    parser.add_argument(
        "--deadline-slack",
        type=float,
        default=2.0,
        metavar="F",
        help=(
            "for traces without explicit deadlines (SWF): window = F x "
            "requested (or observed) runtime (default 2.0)"
        ),
    )
    parser.add_argument(
        "--shard-window",
        type=float,
        default=3600.0,
        metavar="W",
        help="time-window width of one shard, in trace time units "
        "(default 3600 — one hour of an SWF log)",
    )
    parser.add_argument(
        "--algorithms",
        default=",".join(_default_replay_algorithms()),
        metavar="A,B,...",
        help=(
            "comma-separated online algorithms to replay "
            f"(default: {','.join(_default_replay_algorithms())})"
        ),
    )
    parser.add_argument(
        "--alpha",
        type=float,
        default=3.0,
        help="power exponent (default 3.0)",
    )
    parser.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="replay only the first N usable records",
    )
    parser.add_argument(
        "--jobs",
        default="auto",
        metavar="N",
        help=(
            "evaluate shards over N worker processes; 0 or 'auto' means "
            "one per CPU (default: auto)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "shard-result cache directory (default: $QBSS_CACHE_DIR or "
            "~/.cache/qbss-repro)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="bypass the shard cache entirely (no reads, no writes)",
    )
    parser.add_argument(
        "--cache-prune",
        default=None,
        metavar="SPEC",
        help=(
            "prune the cache before replaying ('30d', '500mb', '7d,1gb')"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        default=None,
        metavar="FILE",
        help=(
            "durably record each completed shard to FILE (fsync'd JSONL) "
            "so an interrupted replay can be resumed with --resume"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from an existing --checkpoint file: shards it already "
            "holds are served from it and skipped, everything else re-runs"
        ),
    )
    _add_robustness_arguments(parser)
    _add_obs_arguments(parser)
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="emit a markdown document instead of ASCII tables",
    )
    parser.add_argument(
        "--output",
        default=None,
        metavar="FILE",
        help="also serialize the full replay report (repro.io JSON)",
    )
    return parser


def _default_replay_algorithms():
    from .traces.replay import DEFAULT_ALGORITHMS

    return DEFAULT_ALGORITHMS


def replay_main(argv: list[str] | None = None) -> int:
    # Replay issues no BLAS call: keep numpy's OpenBLAS from starting a
    # helper thread that spins on an idle CPU (an explicit value wins).
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        return _replay_main(argv)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141


def _replay_main(argv: list[str] | None = None) -> int:
    parser = build_replay_parser()
    args = parser.parse_args(argv)
    jobs = _resolve_jobs_arg(parser, args.jobs)
    _check_evaluation_args(parser, args)
    if args.limit is not None and args.limit < 1:
        parser.error("--limit must be >= 1")
    if args.resume and args.checkpoint is None:
        parser.error("--resume requires --checkpoint")
    if args.cache_prune is not None:
        _prune_cache(parser, args.cache_prune, args.cache_dir)

    from .traces import (
        TraceOrderError,
        TraceParseError,
        get_noise_model,
        replay_trace,
        validate_replay_algorithms,
    )

    algorithms = tuple(
        name.strip() for name in args.algorithms.split(",") if name.strip()
    )
    try:
        validate_replay_algorithms(algorithms)
        get_noise_model(args.noise_model)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc.args[0] if exc.args else exc))
    if not os.path.exists(args.trace):
        parser.error(f"trace file not found: {args.trace}")

    backend, jobs = _backend_arg(parser, args, jobs)
    tracer, registry, started_at = _obs_setup(args)
    checkpoint = None
    if args.checkpoint is not None:
        from .traces.checkpoint import ReplayCheckpoint

        checkpoint = ReplayCheckpoint(args.checkpoint, resume=args.resume)
        if args.resume:
            note = (
                f" ({checkpoint.torn} torn entries dropped)"
                if checkpoint.torn
                else ""
            )
            print(
                f"resuming from {args.checkpoint}: "
                f"{checkpoint.completed} shards already completed{note}",
                file=sys.stderr,
            )
    try:
        with _session(parser, args, jobs, backend, tracer, registry) as session:
            report, metrics = replay_trace(
                args.trace,
                trace_format=args.format,
                noise_model=args.noise_model,
                seed=args.seed,
                deadline_slack=args.deadline_slack,
                limit=args.limit,
                algorithms=algorithms,
                alpha=args.alpha,
                shard_window=args.shard_window,
                session=session,
                checkpoint=checkpoint,
            )
    except (TraceParseError, TraceOrderError, ValueError) as exc:
        if tracer is not None:
            tracer.close()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BaseException:
        if tracer is not None:
            tracer.close()
        raise
    finally:
        if checkpoint is not None:
            checkpoint.close()

    if not report.shards:
        if tracer is not None:
            tracer.close()
        print("error: trace contains no usable records", file=sys.stderr)
        return 1

    if args.markdown:
        from .analysis.report import replay_report_to_markdown

        print(replay_report_to_markdown(report), end="")
    else:
        print(report.render())

    if args.output:
        from . import io as rio

        rio.save(report, args.output)
        print(f"report written to {args.output}", file=sys.stderr)

    recovery = None
    if args.checkpoint is not None:
        recovery = {
            "checkpoint": args.checkpoint,
            "resumed_shards": metrics.resumed,
        }
    _obs_finish(
        args,
        "qbss-replay",
        tracer,
        registry,
        started_at=started_at,
        seed=args.seed,
        cache_dir=metrics.cache_dir,
        fault_plan=session.active_fault_plan,
        recovery=recovery,
    )
    print(metrics.footer(), file=sys.stderr)
    failed = report.failed_shards
    if failed:
        for shard in failed:
            print(
                f"error: shard {shard.get('index')} "
                f"[{shard.get('start')}, {shard.get('end')}) "
                f"ended with status '{shard.get('status')}'",
                file=sys.stderr,
            )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
