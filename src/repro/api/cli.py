"""``python -m repro`` -- reproduce any figure or table from the shell.

Subcommands
-----------

``list``
    Enumerate the registered experiments (name, tags, description).
``describe NAME``
    Show an experiment's parameters, kinds and defaults.
``run NAME [-p key=value ...]``
    Execute one experiment and print its records as an aligned text table;
    ``--csv`` / ``--json`` write the ResultSet to files.
``sweep NAME (--grid | --zip) key=v1,v2 ...``
    Expand a declarative sweep and fan it out, optionally in parallel
    (``--executor process --workers N``); the points of an experiment with
    a ``batch_fn`` run as stacked evaluations.  Per-point progress is
    streamed to stderr as results land; failed points keep the completed
    ones (partial results are printed and exported, exit code 1).
    ``--shards N --shard-index i`` runs one deterministic slice of the
    sweep (stable param-hash partition), for coordination-free splitting
    across machines; ``merge`` reassembles the exported slices.  ``--seed
    S`` sets the experiment's declared ``seed`` parameter.
``campaign run NAME --grid ... --objective COL [--mode min|max]``
    Closed-loop adaptive campaign: a seeded strategy (``--strategy
    random|lhs|refine|surrogate``) proposes batches from the grid's
    candidate pool, the engine executes them (cached, shardable with
    ``--workers N --store ...``), and the loop stops on ``--budget``,
    ``--target`` or ``--patience``.  ``--checkpoint PATH`` makes the
    campaign resumable mid-round; ``--report PATH`` exports the report
    (best point, trajectory, points-vs-grid savings).  See
    docs/CAMPAIGNS.md.
``worker NAME (--grid | --zip) ... --store DIR``
    Attach to a shared result store and claim the sweep's pending points
    one by one (lease-based, ttl-bounded) -- run the same command in N
    terminals or on N machines sharing the directory and each point is
    executed exactly once.  See docs/DISTRIBUTED.md.
``worker --watch QUEUE_DIR [--store DIR] [--drain]``
    Daemon mode: serve a spec queue instead of one fixed sweep -- claim
    submitted jobs as they arrive (exactly once across N daemons), execute
    them through the same claim/execute/publish loop, record per-job
    status/progress back into the queue, and keep serving until SIGTERM
    (the in-flight job completes and publishes) or, with ``--drain``, until
    the queue is empty.  See docs/SERVICE.md.
``merge PART.json ...``
    Reassemble partial sweep exports (shard or worker runs) into the full
    sweep ResultSet, bit-identical to a serial run.
``study {list,describe,run}``
    Composite studies: registered experiment pipelines (``consumes=``
    dependency DAGs) with per-stage parameters and a default sweep.
    ``run`` executes the whole DAG stage by stage -- upstream results are
    injected and cached with chained content-hash keys, so re-runs only pay
    for the stages a parameter change actually invalidates.  ``-p`` accepts
    ``stage.key=value`` to override an upstream stage's parameter
    (unqualified keys target the final stage); ``--shards N --shard-index
    i`` runs one slice of the study's sweep, mergeable with ``merge``.
``serve QUEUE_DIR [--host H] [--port P]``
    HTTP front end over a spec queue (submit/status/fetch/list/health
    endpoints, JSON in and out); daemons watching the same directory do the
    actual work.  See docs/SERVICE.md for the endpoint contract.
``submit NAME (--grid | --zip) ... [--url URL] [--wait]``
    Submit a sweep (or, with ``--study``, a study) to a running service and
    print the job id; ``--wait`` polls until the job settles.
``status [JOB_ID] [--url URL]``
    One job's status, or -- without an id -- the service health line plus a
    table of every job.
``fetch JOB_ID [--url URL]``
    Download a completed job's merged ResultSet (bit-identical to a serial
    run) and print/export it like ``run`` does.
``query [--store SPEC] [--where EXPR ...]``
    Cross-sweep catalog: filter cached results across *all* experiments by
    parameter predicates (``--where "n_segments>50"``), experiment name and
    age; sort and limit; ``--export``/``--csv`` merge the matching payloads
    into one parameter-tagged ResultSet.  Against a sqlite store the query
    touches metadata columns only.  See docs/QUERY.md.
``migrate SRC DEST``
    Copy a result store into another backend -- typically an existing cache
    directory into ``sqlite:///catalog.db`` -- preserving entry identity,
    timestamps and failure tombstones.
``cache {stats,clear,prune}``
    Inspect or evict the on-disk memoisation cache (prune by
    ``--experiment``, ``--version`` and/or ``--older-than 7d``); eviction
    takes the store lock, so it is safe against live workers.  ``prune
    --gc`` additionally garbage-collects failure tombstones and the
    expired/orphaned claim leases crashed workers leave behind.  All cache
    subcommands take ``--store`` (directory or ``sqlite:///path.db``) as an
    alternative to ``--cache-dir``.
``perf-report``
    Render the committed perf trajectory (``benchmarks/perf/BENCH_*.json``)
    with per-case speedup deltas; ``--check`` fails on regressions;
    ``--plot out.svg`` writes a speedup-trajectory chart (skipped
    gracefully when matplotlib is not installed).
``trace {summary,tree,critical-path} TRACE.jsonl``
    Inspect a span trace recorded with ``--trace PATH`` (available on
    ``run``/``sweep``/``worker``/``study run``/``serve``/``submit``):
    aggregate wall/CPU time per span name, render the span tree, or walk
    the longest chain.  See docs/OBSERVABILITY.md.
``docs``
    Print the generated experiment catalog; ``--write``/``--check`` keep
    ``docs/EXPERIMENTS.md`` in sync with the registry.

Global flags: ``--log-level LEVEL`` (or ``-v``/``-vv``) configures root
logging with timestamps -- daemon and worker activity logs through the
standard :mod:`logging` tree (``repro.*`` loggers).

Examples::

    python -m repro list
    python -m repro describe fig9
    python -m repro run fig9 -p mwcnt_diameters_nm=10,22 --csv fig9.csv
    python -m repro sweep fig12 --grid contact_resistance=100e3,250e3 \\
        --executor process --workers 4
    python -m repro sweep fig12 --grid contact_resistance=100e3,250e3 \\
        --shards 4 --shard-index 0 --json part0.json
    python -m repro campaign run growth_window \\
        --grid "temperatures_c=300;350;400;450;500;550;600" \\
        --objective quality --mode max --batch 4 --budget 12 --seed 7 \\
        --checkpoint campaign.json --report report.json
    python -m repro worker fig12 --grid contact_resistance=100e3,250e3 \\
        --store /shared/fig12-store
    python -m repro worker --watch /shared/queue --drain
    python -m repro serve /shared/queue --port 8765
    python -m repro submit fig12 --grid contact_resistance=100e3,250e3 --wait
    python -m repro status
    python -m repro fetch j-0123abcd4567 --json fig12.json
    python -m repro merge part0.json part1.json --json merged.json
    python -m repro study list
    python -m repro study describe variability_to_delay
    python -m repro study run growth_to_wafer -p growth_window.duration_s=500
    python -m repro study run growth_to_wafer --shards 2 --shard-index 0 \\
        --store /shared/study-store --json part0.json
    python -m repro sweep fig12 --grid contact_resistance=100e3,250e3 \\
        --store sqlite:///sweeps.db
    python -m repro migrate .repro-cache sqlite:///catalog.db
    python -m repro query --store sqlite:///catalog.db \\
        --where "contact_resistance>=250e3" --sort timestamp --desc
    python -m repro cache stats --cache-dir .repro-cache
    python -m repro cache prune --experiment fig12 --older-than 7d
    python -m repro cache prune --gc
    python -m repro perf-report --check --plot trajectory.svg
    python -m repro docs --check docs/EXPERIMENTS.md
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

from repro import __version__
from repro.api.engine import EXECUTORS, Engine, SweepError, SweepPoint
from repro.api.experiment import (
    ExperimentError,
    get_experiment,
    list_experiments,
)
from repro.api.results import ResultSet
from repro.api.sweep import SweepSpec

DEFAULT_CACHE_DIR = ".repro-cache"


def _parse_assignment(text: str) -> tuple[str, str]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"expected key=value, got {text!r}"
        )
    key, value = text.split("=", 1)
    return key.strip(), value.strip()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduce the paper's figures and tables from the shell.",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        choices=["debug", "info", "warning", "error"],
        help="configure root logging at this level (timestamped, stderr)",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="shorthand for --log-level info (-vv: debug)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="enumerate registered experiments")
    list_parser.add_argument("--tag", default=None, help="only experiments with this tag")

    describe = subparsers.add_parser("describe", help="show an experiment's parameters")
    describe.add_argument("name", help="experiment name (see `list`)")

    def add_execution_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--cache-dir", default=None, help="on-disk memoisation cache directory")
        sub.add_argument(
            "--store", default=None, metavar="SPEC",
            help="memoise through a result store instead of --cache-dir: a "
            "lock-safe shared directory or sqlite:///path.db",
        )
        sub.add_argument("--no-cache", action="store_true", help="bypass the cache")
        sub.add_argument("--csv", default=None, metavar="PATH", help="write records as CSV")
        sub.add_argument("--json", default=None, metavar="PATH", help="write the ResultSet as JSON")
        sub.add_argument("--limit", type=int, default=40, help="table rows to print (0: all)")
        add_trace_option(sub)

    def add_trace_option(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--trace", default=None, metavar="PATH", dest="trace_path",
            help="record spans as JSON lines into PATH (inspect with "
            "`python -m repro trace summary PATH`)",
        )

    run = subparsers.add_parser("run", help="execute one experiment")
    run.add_argument("name", help="experiment name (see `list`)")
    run.add_argument(
        "-p", "--param", action="append", default=[], type=_parse_assignment,
        metavar="KEY=VALUE", help="override one parameter (repeatable)",
    )
    add_execution_options(run)

    def add_sweep_axes(sub: argparse.ArgumentParser, required: bool = True) -> None:
        mode = sub.add_mutually_exclusive_group(required=required)
        mode.add_argument(
            "--grid", nargs="+", type=_parse_assignment, metavar="KEY=V1,V2",
            help="Cartesian-product sweep axes",
        )
        mode.add_argument(
            "--zip", nargs="+", type=_parse_assignment, metavar="KEY=V1,V2",
            dest="zip_axes", help="lock-step sweep axes (equal lengths)",
        )
        sub.add_argument(
            "-p", "--param", action="append", default=[], type=_parse_assignment,
            metavar="KEY=VALUE", help="fixed base parameter (repeatable)",
        )

    def add_shard_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--shards", type=int, default=None, metavar="N",
            help="statically partition the sweep into N param-hash shards",
        )
        sub.add_argument(
            "--shard-index", type=int, default=None, metavar="I",
            help="which shard (0..N-1) this invocation executes",
        )

    sweep = subparsers.add_parser("sweep", help="fan an experiment out over a sweep")
    sweep.add_argument("name", help="experiment name (see `list`)")
    add_sweep_axes(sweep)
    sweep.add_argument("--executor", choices=EXECUTORS, default="serial")
    sweep.add_argument("--workers", type=int, default=None, help="most forked children")
    sweep.add_argument(
        "--no-progress", action="store_true",
        help="suppress the per-point progress lines on stderr",
    )
    sweep.add_argument(
        "--seed", type=int, default=None, metavar="S",
        help="set the experiment's 'seed' parameter (for experiments that "
        "declare one) without spelling -p seed=S",
    )
    add_shard_options(sweep)
    add_execution_options(sweep)

    campaign = subparsers.add_parser(
        "campaign",
        help="closed-loop adaptive sweep campaigns (see docs/CAMPAIGNS.md)",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_command", required=True)
    campaign_run = campaign_sub.add_parser(
        "run", help="drive a strategy over a candidate pool until a stop rule"
    )
    campaign_run.add_argument("name", help="experiment name (see `list`)")
    add_sweep_axes(campaign_run)
    campaign_run.add_argument(
        "--objective", required=True, metavar="COLUMN",
        help="output column the campaign extremises",
    )
    campaign_run.add_argument(
        "--mode", choices=["min", "max"], default="min",
        help="optimisation direction (default: min)",
    )
    campaign_run.add_argument(
        "--strategy", choices=["random", "lhs", "refine", "surrogate"],
        default="surrogate", help="proposal strategy (default: surrogate)",
    )
    campaign_run.add_argument(
        "--batch", type=int, default=8, metavar="N",
        help="points proposed and executed per round (default: 8)",
    )
    campaign_run.add_argument(
        "--budget", type=int, default=None, metavar="M",
        help="hard cap on visited points (default: the whole pool)",
    )
    campaign_run.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="strategy rng seed; same seed => same proposal sequence",
    )
    campaign_run.add_argument(
        "--target", type=float, default=None, metavar="VALUE",
        help="stop once the objective reaches this value",
    )
    campaign_run.add_argument(
        "--patience", type=int, default=None, metavar="ROUNDS",
        help="stop after this many rounds without improvement",
    )
    campaign_run.add_argument(
        "--tolerance", type=float, default=0.0, metavar="DELTA",
        help="minimum objective change that counts as improvement",
    )
    campaign_run.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="resumable campaign state file; an existing checkpoint resumes "
        "the campaign exactly (rng state, visited points, pending batch)",
    )
    campaign_run.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="partition each batch across N cooperating workers "
        "(needs --store)",
    )
    campaign_run.add_argument(
        "--report", default=None, metavar="PATH", dest="report_path",
        help="write the campaign report (best point, trajectory, savings) "
        "as JSON",
    )
    campaign_run.add_argument(
        "--no-progress", action="store_true",
        help="suppress the per-round progress lines on stderr",
    )
    add_execution_options(campaign_run)

    worker = subparsers.add_parser(
        "worker", help="claim and execute a sweep's pending points from a shared store"
    )
    worker.add_argument(
        "name", nargs="?", default=None,
        help="experiment name (see `list`); omitted in --watch mode",
    )
    add_sweep_axes(worker, required=False)
    worker.add_argument(
        "--store", default=None, metavar="SPEC",
        help="shared result store (same for every cooperating worker): a "
        "directory or sqlite:///path.db; required without --watch, defaults "
        "to QUEUE_DIR/store with it",
    )
    worker.add_argument(
        "--watch", default=None, metavar="QUEUE_DIR",
        help="daemon mode: serve this spec queue instead of one fixed sweep "
        "(jobs submitted via `python -m repro submit` or the HTTP API)",
    )
    worker.add_argument(
        "--drain", action="store_true",
        help="with --watch: exit once the queue has nothing claimable "
        "instead of waiting for new jobs",
    )
    worker.add_argument(
        "--max-jobs", type=int, default=None, metavar="N",
        help="with --watch: exit after executing N jobs",
    )
    worker.add_argument(
        "--worker-id", default=None,
        help="lease identity (default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--lease-ttl", default="300s", metavar="AGE",
        help="claim lease duration, e.g. 60s, 10m; renewed automatically "
        "while a point runs, so it only bounds how long a crashed worker's "
        "point stays blocked",
    )
    worker.add_argument(
        "--poll", type=float, default=0.2, metavar="SECONDS",
        help="sleep between passes while other workers hold all remaining leases",
    )
    worker.add_argument(
        "--no-wait", action="store_true",
        help="exit when nothing is claimable instead of waiting for other workers",
    )
    worker.add_argument(
        "--no-progress", action="store_true",
        help="suppress the per-point progress lines on stderr",
    )
    add_shard_options(worker)
    add_trace_option(worker)

    serve = subparsers.add_parser(
        "serve", help="HTTP front end over a spec queue (see docs/SERVICE.md)"
    )
    serve.add_argument("queue", metavar="QUEUE_DIR", help="spec-queue directory")
    serve.add_argument("--host", default=None, help="bind address (default: 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=None, help="bind port (default: 8765; 0: ephemeral)"
    )
    serve.add_argument(
        "--log-requests", action="store_true",
        help="log one stderr line per handled HTTP request",
    )
    add_trace_option(serve)

    def add_service_url(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--url", default=None, metavar="URL",
            help="service base URL (default: http://127.0.0.1:8765)",
        )

    submit = subparsers.add_parser(
        "submit", help="submit a sweep or study job to a running service"
    )
    submit.add_argument("name", help="experiment name (or study name with --study)")
    submit.add_argument(
        "--study", action="store_true",
        help="NAME is a registered study; -p takes [stage.]key=value overrides",
    )
    add_sweep_axes(submit, required=False)
    add_service_url(submit)
    submit.add_argument(
        "--wait", action="store_true",
        help="poll until the job settles instead of returning after submit",
    )
    submit.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="give up --wait polling after this long (default: 300)",
    )
    add_trace_option(submit)

    status = subparsers.add_parser(
        "status", help="one job's status, or service health plus all jobs"
    )
    status.add_argument(
        "job_id", nargs="?", default=None,
        help="job id (omit for the health line and the full job table)",
    )
    add_service_url(status)

    fetch = subparsers.add_parser(
        "fetch", help="download a completed job's merged ResultSet"
    )
    fetch.add_argument("job_id", help="job id (see `submit` / `status`)")
    add_service_url(fetch)
    fetch.add_argument("--csv", default=None, metavar="PATH", help="write records as CSV")
    fetch.add_argument("--json", default=None, metavar="PATH", help="write the ResultSet as JSON")
    fetch.add_argument("--limit", type=int, default=40, help="table rows to print (0: all)")

    study = subparsers.add_parser(
        "study", help="list, inspect and run composite study pipelines"
    )
    study_sub = study.add_subparsers(dest="study_command", required=True)

    study_list = study_sub.add_parser("list", help="enumerate registered studies")
    study_list.add_argument("--tag", default=None, help="only studies with this tag")

    study_describe = study_sub.add_parser(
        "describe", help="show a study's pipeline, stages and sweep"
    )
    study_describe.add_argument("name", help="study name (see `study list`)")

    study_run = study_sub.add_parser(
        "run", help="execute a study's whole pipeline (optionally sharded)"
    )
    study_run.add_argument("name", help="study name (see `study list`)")
    study_run.add_argument(
        "-p", "--param", action="append", default=[], type=_parse_assignment,
        metavar="[STAGE.]KEY=VALUE",
        help="override a stage parameter; unqualified keys target the final stage",
    )
    study_mode = study_run.add_mutually_exclusive_group()
    study_mode.add_argument(
        "--grid", nargs="+", type=_parse_assignment, metavar="KEY=V1,V2",
        help="override the study's sweep with a Cartesian-product sweep",
    )
    study_mode.add_argument(
        "--zip", nargs="+", type=_parse_assignment, metavar="KEY=V1,V2",
        dest="zip_axes", help="override the study's sweep with a lock-step sweep",
    )
    study_run.add_argument("--executor", choices=EXECUTORS, default="serial")
    study_run.add_argument(
        "--workers", type=int, default=None, help="most forked children"
    )
    study_run.add_argument(
        "--no-progress", action="store_true",
        help="suppress the per-point progress lines on stderr",
    )
    add_shard_options(study_run)
    add_execution_options(study_run)

    merge = subparsers.add_parser(
        "merge", help="reassemble partial sweep exports into the full ResultSet"
    )
    merge.add_argument(
        "paths", nargs="+", metavar="PART.json",
        help="partial ResultSet JSON exports (shard or worker runs)",
    )
    merge.add_argument(
        "--allow-missing", action="store_true",
        help="merge even when some sweep points have no records yet",
    )
    merge.add_argument("--csv", default=None, metavar="PATH", help="write records as CSV")
    merge.add_argument("--json", default=None, metavar="PATH", help="write the ResultSet as JSON")
    merge.add_argument("--limit", type=int, default=40, help="table rows to print (0: all)")

    query = subparsers.add_parser(
        "query", help="cross-sweep catalog: filter/sort cached results by metadata"
    )
    query.add_argument(
        "--store", default=DEFAULT_CACHE_DIR, metavar="SPEC",
        help="result store to query: a cache directory or sqlite:///path.db "
        f"(default: {DEFAULT_CACHE_DIR})",
    )
    query.add_argument(
        "--experiment", default=None, help="only entries of this experiment"
    )
    query.add_argument(
        "--where", action="append", default=[], metavar="EXPR",
        help="parameter predicate, e.g. \"n_segments>50\" or \"kind==Cu\" "
        "(repeatable; all must match)",
    )
    query.add_argument(
        "--newer-than", default=None, metavar="AGE",
        help="only entries at most this old (e.g. 45s, 12h, 7d)",
    )
    query.add_argument(
        "--older-than", default=None, metavar="AGE",
        help="only entries at least this old",
    )
    query.add_argument(
        "--sort", default="timestamp",
        choices=["timestamp", "experiment", "size", "version"],
        help="sort key (default: timestamp)",
    )
    query.add_argument(
        "--desc", action="store_true", help="sort descending (newest/biggest first)"
    )
    query.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="keep at most N entries after sorting",
    )
    query.add_argument(
        "--export", default=None, metavar="PATH",
        help="load the matching payloads and write the merged ResultSet as JSON",
    )
    query.add_argument(
        "--csv", default=None, metavar="PATH",
        help="load the matching payloads and write the merged records as CSV",
    )

    migrate = subparsers.add_parser(
        "migrate", help="copy a result store into another backend (dir <-> sqlite)"
    )
    migrate.add_argument(
        "source", metavar="SRC", help="source store: a cache directory or sqlite:///path.db"
    )
    migrate.add_argument(
        "destination", metavar="DEST",
        help="destination store, typically sqlite:///path.db",
    )

    cache = subparsers.add_parser("cache", help="inspect or evict the result cache")
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)

    def add_cache_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--cache-dir", default=DEFAULT_CACHE_DIR,
            help=f"cache directory (default: {DEFAULT_CACHE_DIR})",
        )
        sub.add_argument(
            "--store", default=None, metavar="SPEC",
            help="operate on a result store instead: a shared directory or "
            "sqlite:///path.db",
        )

    cache_stats = cache_sub.add_parser("stats", help="per-experiment entry counts and sizes")
    add_cache_dir(cache_stats)

    cache_clear = cache_sub.add_parser("clear", help="delete every cache entry")
    add_cache_dir(cache_clear)

    cache_prune = cache_sub.add_parser(
        "prune", help="delete entries matching experiment/version/age filters"
    )
    add_cache_dir(cache_prune)
    cache_prune.add_argument("--experiment", default=None, help="only this experiment's entries")
    cache_prune.add_argument("--version", default=None, help="only entries of this experiment version")
    cache_prune.add_argument(
        "--older-than", default=None, metavar="AGE",
        help="only entries at least this old (e.g. 45s, 30m, 12h, 7d)",
    )
    cache_prune.add_argument(
        "--gc", action="store_true",
        help="also collect failure tombstones and expired/orphaned claim leases",
    )
    cache_prune.add_argument(
        "--dry-run", action="store_true", help="report matches without deleting"
    )

    perf = subparsers.add_parser(
        "perf-report", help="render the committed perf trajectory (BENCH_*.json)"
    )
    perf.add_argument(
        "--dir", default=None, metavar="PATH", dest="perf_dir",
        help="trajectory directory (default: benchmarks/perf)",
    )
    perf.add_argument("--case", default=None, help="only this benchmark case")
    perf.add_argument(
        "--threshold", type=float, default=None, metavar="FRACTION",
        help="relative speedup drop flagged as regression (default: 0.15)",
    )
    perf.add_argument(
        "--check", action="store_true",
        help="exit 1 when the trajectory contains regressions (CI gate)",
    )
    perf.add_argument(
        "--plot", default=None, metavar="PATH",
        help="write a speedup-trajectory chart (SVG/PNG by extension; "
        "skipped gracefully when matplotlib is not installed)",
    )

    trace = subparsers.add_parser(
        "trace", help="inspect a span trace recorded with --trace PATH"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    trace_summary = trace_sub.add_parser(
        "summary", help="aggregate wall/CPU time per span name"
    )
    trace_tree = trace_sub.add_parser(
        "tree", help="render the span tree(s), parent over children"
    )
    trace_tree.add_argument(
        "--max-children", type=int, default=20, metavar="N",
        help="siblings to show per parent before eliding (default: 20)",
    )
    trace_path = trace_sub.add_parser(
        "critical-path", help="walk the longest wall-clock chain of a trace"
    )
    for sub in (trace_summary, trace_tree, trace_path):
        sub.add_argument(
            "path", metavar="TRACE.jsonl", help="span file written by --trace"
        )

    docs = subparsers.add_parser(
        "docs", help="generate the experiment catalog (docs/EXPERIMENTS.md)"
    )
    docs_mode = docs.add_mutually_exclusive_group()
    docs_mode.add_argument(
        "--write", default=None, metavar="PATH", help="write the catalog to PATH"
    )
    docs_mode.add_argument(
        "--check", default=None, metavar="PATH",
        help="fail (exit 1) when PATH differs from the current registry",
    )

    return parser


def _coerced_overrides(name: str, assignments: Sequence[tuple[str, str]]) -> dict[str, Any]:
    experiment = get_experiment(name)
    return {key: experiment.spec(key).coerce(value) for key, value in assignments}


def _coerced_axes(name: str, assignments: Sequence[tuple[str, str]]) -> dict[str, list[Any]]:
    """Parse sweep axes, coercing each comma-separated value per its ParamSpec.

    For scalar parameter kinds every comma-separated token is one sweep
    value; for tuple kinds each token would be ambiguous, so axis values for
    those are separated with ``;`` (e.g. ``lengths_um=1,10;1,100``).
    """
    experiment = get_experiment(name)
    axes: dict[str, list[Any]] = {}
    for key, value in assignments:
        spec = experiment.spec(key)
        if spec.kind in ("floats", "ints", "strs"):
            tokens = [t for t in value.split(";") if t != ""]
        else:
            tokens = [t for t in value.split(",") if t != ""]
        axes[key] = [spec.coerce(token) for token in tokens]
    return axes


def _print_result(result: ResultSet, args: argparse.Namespace) -> None:
    from repro.analysis.report import format_table

    records = result.to_records()
    shown = records if args.limit in (0, None) else records[: args.limit]
    title = (
        f"{result.meta.get('experiment', '?')}: {len(records)} records"
        + (f" (showing {len(shown)})" if len(shown) < len(records) else "")
        + (" [cache hit]" if result.meta.get("cache_hit") else "")
    )
    print(format_table(shown, title=title))
    wall = result.meta.get("wall_time_s")
    if wall is not None:
        print(f"wall time: {wall:.3f} s")
    print(f"content hash: {result.content_hash[:16]}")
    if args.csv:
        result.to_csv(args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        result.to_json(args.json)
        print(f"wrote {args.json}")


def _cmd_list(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table

    rows = [
        {
            "name": experiment.name,
            "tags": ",".join(experiment.tags),
            "params": len(experiment.params),
            "description": experiment.description,
        }
        for experiment in list_experiments(tag=args.tag)
    ]
    print(format_table(rows, title=f"{len(rows)} registered experiments"))
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table

    experiment = get_experiment(args.name)
    print(f"{experiment.name} (version {experiment.version}): {experiment.description}")
    if experiment.tags:
        print(f"tags: {', '.join(experiment.tags)}")
    def default_text(spec):
        if spec.default is None:
            return "(required)"
        text = repr(spec.default)
        return text if len(text) <= 48 else text[:45] + "..."

    rows = [
        {
            "param": spec.name,
            "kind": spec.kind,
            "default": default_text(spec),
            "help": spec.help,
        }
        for spec in experiment.params
    ]
    print(format_table(rows, title=f"{len(rows)} parameters"))
    return 0


def _resolved_store(args: argparse.Namespace):
    """The --store of run/sweep/study as a ResultStore (None without one)."""
    if getattr(args, "store", None) is None:
        return None
    if getattr(args, "cache_dir", None) is not None:
        raise ValueError("pass either --store or --cache-dir, not both")
    from repro.dist import resolve_store

    return resolve_store(args.store)


def _cmd_run(args: argparse.Namespace) -> int:
    engine = Engine(cache_dir=args.cache_dir, store=_resolved_store(args))
    result = engine.run(
        args.name,
        params=_coerced_overrides(args.name, args.param),
        use_cache=not args.no_cache,
    )
    _print_result(result, args)
    return 0


def _progress_printer(total: int):
    """Per-point progress callback rendering one stderr line per result."""
    done = {"count": 0}

    def on_result(point: SweepPoint) -> None:
        done["count"] += 1
        values = " ".join(f"{key}={value}" for key, value in point.point.items())
        if not point.ok:
            status = f"FAILED: {point.error}"
        elif point.cache_hit:
            status = "cached"
        else:
            wall = point.result.meta.get("wall_time_s")
            status = "ok" if wall is None else f"ok ({wall:.3f} s)"
        print(f"  [{done['count']}/{total}] {values} ... {status}", file=sys.stderr)

    return on_result


def _parsed_spec(args: argparse.Namespace) -> SweepSpec:
    assignments = args.grid if args.grid is not None else args.zip_axes
    axes = _coerced_axes(args.name, assignments)
    return SweepSpec(mode="grid" if args.grid is not None else "zip", axes=axes)


def _shard_plan(args: argparse.Namespace):
    """Build the ShardPlan of --shards/--shard-index (or None)."""
    if args.shards is None and args.shard_index is None:
        return None
    if args.shards is None or args.shard_index is None:
        raise ValueError("--shards and --shard-index must be given together")
    from repro.dist import ShardPlan

    return ShardPlan(n_shards=args.shards, shard_index=args.shard_index)


def _seeded_base_params(args: argparse.Namespace, spec: SweepSpec) -> dict[str, Any]:
    """Base parameters of a sweep/campaign, with ``--seed`` folded in.

    ``--seed S`` sets the experiment's declared ``seed`` parameter, so a
    stochastic experiment reruns reproducibly without spelling ``-p
    seed=S``.  Rejects experiments without a seed parameter and conflicts
    with an explicit ``-p seed=`` or a swept seed axis.
    """
    base = _coerced_overrides(args.name, args.param)
    seed = getattr(args, "seed", None)
    if seed is None:
        return base
    experiment = get_experiment(args.name)
    if not any(spec_.name == "seed" for spec_ in experiment.params):
        raise ValueError(
            f"experiment {args.name!r} declares no 'seed' parameter; "
            "--seed needs one"
        )
    if "seed" in base:
        raise ValueError("pass either --seed or -p seed=..., not both")
    if "seed" in spec.axis_names:
        raise ValueError("'seed' is already a sweep axis; drop --seed")
    base["seed"] = experiment.spec("seed").coerce(seed)
    return base


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _parsed_spec(args)
    shard = _shard_plan(args)
    n_points = len(spec) if shard is None else len(shard.indices(spec.points()))
    shard_note = (
        "" if shard is None else f" (shard {shard.shard_index}/{shard.n_shards})"
    )
    print(f"sweep: {spec.mode} over {spec.axis_names}, {n_points} points{shard_note}")
    with Engine(
        cache_dir=args.cache_dir,
        store=_resolved_store(args),
        executor=args.executor,
        max_workers=args.workers,
    ) as engine:
        try:
            result = engine.sweep(
                args.name,
                spec,
                base_params=_seeded_base_params(args, spec),
                use_cache=not args.no_cache,
                on_result=None if args.no_progress else _progress_printer(n_points),
                shard=shard,
            )
        except SweepError as error:
            # Completed points survive the failure: print and export them so
            # the work (also sitting in the cache) is not lost.
            print(f"error: {error}", file=sys.stderr)
            _print_result(error.partial, args)
            return 1
    _print_result(result, args)
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    """``campaign run``: drive an adaptive campaign over a candidate pool."""
    from repro.campaign import Campaign

    if args.no_cache:
        raise ValueError(
            "campaigns depend on the result cache (history assembly and "
            "replay); --no-cache is not supported"
        )
    spec = _parsed_spec(args)
    # A campaign without persistence would re-execute its whole history
    # every round, so default to the standard cache directory.
    cache_dir = args.cache_dir
    if cache_dir is None and args.store is None:
        cache_dir = DEFAULT_CACHE_DIR
    engine = Engine(cache_dir=cache_dir, store=_resolved_store(args))

    def on_round(n_visited: int, budget: int) -> None:
        if not args.no_progress:
            print(f"  [{n_visited}/{budget}] points visited", file=sys.stderr)

    campaign = Campaign(
        args.name,
        spec,
        args.objective,
        mode=args.mode,
        strategy=args.strategy,
        batch_size=args.batch,
        budget=args.budget,
        seed=args.seed,
        base_params=_coerced_overrides(args.name, args.param),
        target=args.target,
        patience=args.patience,
        tolerance=args.tolerance,
        checkpoint_path=args.checkpoint,
        workers=args.workers,
        engine=engine,
    )
    print(
        f"campaign: {args.strategy} over {spec.axis_names} "
        f"({len(spec)} candidates, budget {campaign.budget}, "
        f"batch {args.batch}, seed {args.seed})"
    )
    report = campaign.run(on_round=on_round)
    print(report.summary())
    if args.report_path:
        report.write_json(args.report_path)
        print(f"wrote {args.report_path}")
    if report.result is not None:
        _print_result(report.result, args)
    return 0


def _cmd_worker_watch(args: argparse.Namespace) -> int:
    """Daemon mode: serve a spec queue until stopped or drained."""
    import os
    import signal
    import threading

    from repro.api.cache import parse_age
    from repro.dist import resolve_store
    from repro.service import SpecQueue, serve_queue

    if args.name is not None or args.grid is not None or args.zip_axes is not None:
        raise ValueError(
            "worker --watch serves submitted jobs; NAME and --grid/--zip "
            "do not apply (submit sweeps with `python -m repro submit`)"
        )
    if args.param or args.shards is not None or args.shard_index is not None:
        raise ValueError("-p/--shards/--shard-index do not apply in --watch mode")
    queue = SpecQueue(args.watch)
    store_spec = args.store if args.store is not None else os.path.join(args.watch, "store")
    stop = threading.Event()
    installed: list[tuple[int, Any]] = []
    if threading.current_thread() is threading.main_thread():
        # SIGTERM/SIGINT request a *clean* stop: the in-flight job finishes
        # and publishes, then the serve loop exits between jobs.
        for signum in (signal.SIGTERM, signal.SIGINT):
            installed.append(
                (signum, signal.signal(signum, lambda *_: stop.set()))
            )
    try:
        report = serve_queue(
            queue,
            resolve_store(store_spec),
            worker_id=args.worker_id,
            lease_ttl=parse_age(args.lease_ttl),
            poll_interval=args.poll,
            drain=args.drain,
            max_jobs=args.max_jobs,
            stop=stop,
            # Events always flow through the repro.service.daemon logger;
            # the raw stderr echo is for runs without logging configured
            # (keeping it with --log-level would print every line twice).
            on_event=None
            if args.no_progress or args.log_level is not None or args.verbose
            else (lambda line: print(line, file=sys.stderr)),
        )
    finally:
        for signum, previous in installed:
            signal.signal(signum, previous)
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.api.cache import parse_age
    from repro.dist import default_worker_id, resolve_store, run_worker

    if args.watch is not None:
        return _cmd_worker_watch(args)
    if args.name is None or (args.grid is None and args.zip_axes is None):
        raise ValueError(
            "worker needs NAME and --grid/--zip sweep axes "
            "(or --watch QUEUE_DIR for daemon mode)"
        )
    if args.store is None:
        raise ValueError("worker --store is required (it is the shared result store)")
    if args.drain or args.max_jobs is not None:
        raise ValueError("--drain/--max-jobs only apply with --watch")
    spec = _parsed_spec(args)
    shard = _shard_plan(args)
    store = resolve_store(args.store)
    worker_id = args.worker_id or default_worker_id()
    n_points = len(spec) if shard is None else len(shard.indices(spec.points()))
    print(
        f"worker {worker_id}: {spec.mode} over {spec.axis_names}, "
        f"{n_points} points, store {store.directory}",
        file=sys.stderr,
    )
    report = run_worker(
        args.name,
        spec,
        store,
        base_params=_coerced_overrides(args.name, args.param),
        worker_id=worker_id,
        lease_ttl=parse_age(args.lease_ttl),
        shard=shard,
        on_result=None if args.no_progress else _progress_printer(n_points),
        wait=not args.no_wait,
        poll_interval=args.poll,
    )
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from repro.service import DEFAULT_HOST, DEFAULT_PORT, make_server

    server = make_server(
        args.queue,
        host=args.host if args.host is not None else DEFAULT_HOST,
        port=args.port if args.port is not None else DEFAULT_PORT,
        quiet=not args.log_requests,
    )
    def raise_interrupt(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt

    if threading.current_thread() is threading.main_thread():
        # SIGTERM stops the serve loop as cleanly as Ctrl+C does.
        signal.signal(signal.SIGTERM, raise_interrupt)
    print(
        f"serving queue {server.queue.directory} at {server.url} "
        "(submit work with `python -m repro submit`; Ctrl+C/SIGTERM stops)",
        file=sys.stderr,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def _service_client(args: argparse.Namespace):
    from repro.service import DEFAULT_HOST, DEFAULT_PORT, ServiceClient

    url = args.url if args.url is not None else f"http://{DEFAULT_HOST}:{DEFAULT_PORT}"
    return ServiceClient(url)


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.api.study import get_study

    client = _service_client(args)
    if args.study:
        study = get_study(args.name)
        spec = None
        if args.grid is not None or args.zip_axes is not None:
            assignments = args.grid if args.grid is not None else args.zip_axes
            spec = SweepSpec(
                mode="grid" if args.grid is not None else "zip",
                axes=_coerced_axes(study.target, assignments),
            )
        job_id = client.submit_study(
            args.name,
            sweep=spec,
            params=_coerced_stage_overrides(study, args.param),
        )
    else:
        if args.grid is None and args.zip_axes is None:
            raise ValueError(
                "submit needs --grid or --zip sweep axes (or --study NAME "
                "to submit a registered study)"
            )
        job_id = client.submit_sweep(
            args.name,
            _parsed_spec(args),
            params=_coerced_overrides(args.name, args.param),
        )
    print(job_id)
    if args.wait:
        sys.stdout.flush()
        status = client.wait(job_id, timeout=args.timeout)
        hash_note = str(status.get("content_hash") or "")[:16]
        print(
            f"{job_id}: {status['state']} ({status.get('n_records')} records, "
            f"content hash {hash_note})",
            file=sys.stderr,
        )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.service import JOB_FAILED

    client = _service_client(args)
    if args.job_id is not None:
        status = client.status(args.job_id)
        for key, value in status.items():
            print(f"{key}: {value}")
        return 1 if status["state"] == JOB_FAILED else 0

    health = client.health()
    registry = health.get("registry", {})
    queue = health.get("queue", {})
    depth = ", ".join(
        f"{queue.get(state, 0)} {state}"
        for state in ("queued", "running", "done", "failed")
    )
    print(
        f"service {client.base_url}: {health.get('status')} "
        f"(version {health.get('version')}, "
        f"{registry.get('experiments')} experiments / "
        f"{registry.get('studies')} studies registered)"
    )
    print(f"queue {queue.get('directory')}: {depth}")
    jobs = client.list_jobs()
    rows = [
        {
            "job_id": job.get("job_id"),
            "kind": job.get("kind"),
            "name": job.get("name"),
            "state": job.get("state"),
            "worker": job.get("worker_id", ""),
            "detail": job.get("error") or job.get("progress") or "",
        }
        for job in jobs
    ]
    print(format_table(rows, title=f"{len(rows)} jobs"))
    return 0


def _cmd_fetch(args: argparse.Namespace) -> int:
    client = _service_client(args)
    result = client.fetch_results(args.job_id)
    _print_result(result, args)
    return 0


def _coerced_stage_overrides(
    study, assignments: Sequence[tuple[str, str]]
) -> dict[str, dict[str, Any]]:
    """Parse ``[stage.]key=value`` overrides, coercing per the stage's specs.

    Unqualified keys target the study's final (target) stage; qualified keys
    name any experiment of the pipeline.  Stage membership is validated by
    ``Engine.run_study``, so a typo in the stage name fails loudly there.
    """
    stage_params: dict[str, dict[str, Any]] = {}
    for key, value in assignments:
        stage_name, _, param = key.rpartition(".")
        stage_name = stage_name or study.target
        experiment = get_experiment(stage_name)
        stage_params.setdefault(stage_name, {})[param] = (
            experiment.spec(param).coerce(value)
        )
    return stage_params


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.api.study import get_study, list_studies

    if args.study_command == "list":
        rows = [
            {
                "study": study.name,
                "target": study.target,
                "stages": len(study.resolve()),
                "sweep": len(study.sweep) if study.sweep is not None else "-",
                "tags": ",".join(study.tags),
                "description": study.description,
            }
            for study in list_studies(tag=args.tag)
        ]
        print(format_table(rows, title=f"{len(rows)} registered studies"))
        return 0

    if args.study_command == "describe":
        study = get_study(args.name)
        pipeline = study.resolve()
        print(f"{study.name}: {study.description}")
        if study.tags:
            print(f"tags: {', '.join(study.tags)}")
        print(f"\npipeline ({len(pipeline)} stages, * = target):")
        print(pipeline.describe())
        if study.sweep is not None:
            axes = {name: values for name, values in study.sweep.axes.items()}
            print(
                f"\ndefault sweep: {study.sweep.mode} over {axes} "
                f"({len(study.sweep)} points)"
            )
        for stage in pipeline:
            if stage.experiment.outputs:
                rows = [
                    {"output": spec.name, "kind": spec.kind, "description": spec.help}
                    for spec in stage.experiment.outputs
                ]
                print()
                print(format_table(rows, title=f"{stage.name} outputs"))
        return 0

    # run
    study = get_study(args.name)
    stage_params = _coerced_stage_overrides(study, args.param)
    spec = None
    if args.grid is not None or args.zip_axes is not None:
        assignments = args.grid if args.grid is not None else args.zip_axes
        spec = SweepSpec(
            mode="grid" if args.grid is not None else "zip",
            axes=_coerced_axes(study.target, assignments),
        )
    shard = _shard_plan(args)
    effective = spec if spec is not None else study.sweep
    on_result = None
    if effective is not None and not args.no_progress:
        n_points = (
            len(effective) if shard is None else len(shard.indices(effective.points()))
        )
        shard_note = (
            "" if shard is None else f" (shard {shard.shard_index}/{shard.n_shards})"
        )
        stages = " -> ".join(study.resolve().stage_names)
        print(
            f"study {study.name}: {stages}; sweep {effective.mode} over "
            f"{effective.axis_names}, {n_points} points{shard_note}",
            file=sys.stderr,
        )
        on_result = _progress_printer(n_points)
    with Engine(
        cache_dir=args.cache_dir,
        store=_resolved_store(args),
        executor=args.executor,
        max_workers=args.workers,
    ) as engine:
        try:
            result = engine.run_study(
                study,
                stage_params=stage_params,
                sweep=spec,
                shard=shard,
                use_cache=not args.no_cache,
                on_result=on_result,
            )
        except SweepError as error:
            print(f"error: {error}", file=sys.stderr)
            _print_result(error.partial, args)
            return 1
    _print_result(result, args)
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from repro.dist import merge_results

    parts = []
    for path in args.paths:
        try:
            parts.append(ResultSet.from_json(path))
        except OSError as error:
            raise ValueError(
                f"cannot read part {path!r}: {error.strerror or error}"
            ) from None
        except KeyError:
            raise ValueError(
                f"part {path!r} is not a ResultSet JSON export"
            ) from None
    merged = merge_results(parts, allow_missing=args.allow_missing)
    _print_result(merged, args)
    return 0


def _cmd_perf_report(args: argparse.Namespace) -> int:
    from repro.api.perfreport import (
        DEFAULT_PERF_DIR,
        DEFAULT_THRESHOLD,
        load_trajectory,
        plot_trajectory,
        report_text,
    )

    directory = args.perf_dir if args.perf_dir is not None else DEFAULT_PERF_DIR
    text, findings = report_text(
        directory=directory,
        case=args.case,
        threshold=args.threshold if args.threshold is not None else DEFAULT_THRESHOLD,
    )
    print(text)
    if args.plot is not None:
        if plot_trajectory(load_trajectory(directory), args.plot, case=args.case):
            print(f"wrote {args.plot}")
        else:
            # Optional dependency: a missing matplotlib must not fail CI or
            # scripts that run with --plot unconditionally.
            print(
                f"matplotlib not installed; skipping plot {args.plot}",
                file=sys.stderr,
            )
    if args.check and findings:
        print(f"error: {len(findings)} perf regression(s)", file=sys.stderr)
        return 1
    return 0


def _format_bytes(size: int) -> str:
    value = float(size)
    for unit in ("B", "kB", "MB", "GB"):
        if value < 1024.0 or unit == "GB":
            return f"{value:.1f} {unit}" if unit != "B" else f"{int(value)} B"
        value /= 1024.0
    return f"{value:.1f} GB"


def _cmd_query(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.api.cache import parse_age
    from repro.api.query import export_results, parse_predicate, query_entries
    from repro.dist import resolve_store

    store = resolve_store(args.store)
    predicates = [parse_predicate(expression) for expression in args.where]
    entries = query_entries(
        store,
        experiment=args.experiment,
        where=predicates,
        newer_than=None if args.newer_than is None else parse_age(args.newer_than),
        older_than=None if args.older_than is None else parse_age(args.older_than),
        sort=args.sort,
        descending=args.desc,
        limit=args.limit,
    )
    rows = []
    for entry in entries:
        params = entry.params or {}
        compact = " ".join(f"{key}={value}" for key, value in params.items())
        rows.append(
            {
                "experiment": entry.experiment,
                "version": "?" if entry.version is None else entry.version,
                "key": entry.key,
                "age": f"{entry.age_seconds():.0f}s",
                "size": _format_bytes(entry.size_bytes),
                "params": compact if len(compact) <= 60 else compact[:57] + "...",
            }
        )
    filters = [f"store {store.directory}"]
    if args.experiment:
        filters.append(f"experiment {args.experiment}")
    filters.extend(predicate.describe() for predicate in predicates)
    print(format_table(rows, title=f"{len(rows)} entries ({', '.join(filters)})"))
    if args.export is None and args.csv is None:
        return 0
    result = export_results(
        store,
        entries,
        query={
            "experiment": args.experiment,
            "where": list(args.where),
            "sort": args.sort,
        },
    )
    if args.export is not None:
        result.to_json(args.export)
        print(f"wrote {len(result)} records to {args.export}")
    if args.csv is not None:
        result.to_csv(args.csv)
        print(f"wrote {len(result)} records to {args.csv}")
    return 0


def _cmd_migrate(args: argparse.Namespace) -> int:
    from repro.dist import migrate_store, resolve_store

    report = migrate_store(
        resolve_store(args.source), resolve_store(args.destination)
    )
    print(report.summary())
    for path in report.skipped:
        print(f"  skipped (corrupt): {path}", file=sys.stderr)
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from repro.analysis.report import format_table
    from repro.api.cache import cache_stats, clear_cache, parse_age, prune_cache

    target = args.cache_dir
    if getattr(args, "store", None) is not None:
        from repro.dist import resolve_store

        target = resolve_store(args.store)
    label = target if isinstance(target, str) else target.directory

    if args.cache_command == "stats":
        stats = cache_stats(target)
        rows = [
            {
                "experiment": name,
                "entries": len(entries),
                "size": _format_bytes(sum(e.size_bytes for e in entries)),
                "versions": ",".join(
                    sorted({str(e.version) for e in entries if e.version is not None})
                ) or "?",
            }
            for name, entries in stats.by_experiment().items()
        ]
        print(
            format_table(
                rows,
                title=f"cache {label}: {stats.n_entries} entries, "
                f"{_format_bytes(stats.total_bytes)}",
            )
        )
        return 0

    if args.cache_command == "clear":
        removed = clear_cache(target)
        print(f"removed {removed} cache entries from {label}")
        return 0

    # prune
    from repro.api.cache import gc_store

    verb = "would remove" if args.dry_run else "removed"
    has_criteria = (
        args.experiment is not None
        or args.version is not None
        or args.older_than is not None
    )
    if has_criteria or not args.gc:
        # Without criteria prune_cache raises its usual guidance error; --gc
        # alone is a pure bookkeeping collection with no entry eviction.
        matched = prune_cache(
            target,
            experiment=args.experiment,
            version=args.version,
            older_than=None if args.older_than is None else parse_age(args.older_than),
            dry_run=args.dry_run,
        )
        print(f"{verb} {len(matched)} cache entries from {label}")
        for entry in matched:
            # Metadata is only read when pruning by version; omit it otherwise.
            version = "" if entry.version is None else f" (version {entry.version})"
            print(f"  {entry.experiment}{version} {entry.path}")
    if args.gc:
        collected = gc_store(target, dry_run=args.dry_run)
        print(
            f"{verb} {len(collected)} tombstone/lease records from {label}"
        )
        for path in collected:
            print(f"  {path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.inspect import (
        load_spans,
        render_critical_path,
        render_summary,
        render_tree,
    )

    try:
        spans = load_spans(args.path)
    except OSError as error:
        print(f"error: cannot read trace: {error}", file=sys.stderr)
        return 2
    if not spans:
        print(f"no spans in {args.path}", file=sys.stderr)
        return 1
    if args.trace_command == "summary":
        print(render_summary(spans))
    elif args.trace_command == "tree":
        print(render_tree(spans, max_children=args.max_children))
    else:
        print(render_critical_path(spans))
    return 0


def _cmd_docs(args: argparse.Namespace) -> int:
    from repro.api.catalog import catalog_markdown, check_catalog

    if args.check is not None:
        if check_catalog(args.check):
            print(f"{args.check} is up to date")
            return 0
        print(
            f"error: {args.check} is stale; regenerate with "
            f"`python -m repro docs --write {args.check}`",
            file=sys.stderr,
        )
        return 1
    text = catalog_markdown()
    if args.write is not None:
        with open(args.write, "w") as handle:
            handle.write(text)
        print(f"wrote {args.write}")
        return 0
    print(text, end="")
    return 0


def _configure_logging(args: argparse.Namespace) -> None:
    """Apply the root --log-level/-v flags (timestamped stderr handler)."""
    import logging

    level_name = args.log_level
    if level_name is None and args.verbose:
        level_name = "debug" if args.verbose >= 2 else "info"
    if level_name is None:
        return
    logging.basicConfig(
        level=getattr(logging, level_name.upper()),
        stream=sys.stderr,
        format="%(asctime)s %(levelname)-7s %(name)s: %(message)s",
        datefmt="%H:%M:%S",
    )


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    _configure_logging(args)
    handlers = {
        "list": _cmd_list,
        "describe": _cmd_describe,
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "campaign": _cmd_campaign,
        "worker": _cmd_worker,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "fetch": _cmd_fetch,
        "study": _cmd_study,
        "merge": _cmd_merge,
        "query": _cmd_query,
        "migrate": _cmd_migrate,
        "cache": _cmd_cache,
        "perf-report": _cmd_perf_report,
        "trace": _cmd_trace,
        "docs": _cmd_docs,
    }
    try:
        trace_path = getattr(args, "trace_path", None)
        if trace_path is None:
            return handlers[args.command](args)
        # --trace: record spans for the whole invocation under one root
        # span, so everything the command spawns (forked children, claimed
        # jobs, daemons it hands the carrier to) shares one trace_id.
        from contextlib import ExitStack

        from repro.obs.trace import trace_span, tracing

        with ExitStack() as scope:
            scope.enter_context(tracing(trace_path))
            scope.enter_context(trace_span(f"cli.{args.command}"))
            return handlers[args.command](args)
    except (ExperimentError, ValueError) as error:
        # ValueError covers user-input rejections from Engine/SweepSpec
        # construction (bad --workers, malformed axes, ...).
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; that's a clean exit.
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0
    except Exception as error:
        # A ServiceError: the service rejected the request or is unreachable;
        # the message carries the server's explanation (or the socket error).
        # Only the client verbs raise it, and they import the client first.
        client = sys.modules.get("repro.service.client")
        if client is None or not isinstance(error, client.ServiceError):
            raise
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
