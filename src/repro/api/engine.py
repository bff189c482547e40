"""Execution engine: serial / forked experiment runs with on-disk memoisation.

The :class:`Engine` is the single entry point that turns a registered
:class:`~repro.api.experiment.Experiment` plus parameters into a
:class:`~repro.api.results.ResultSet`:

* ``run(name, **params)`` -- one experiment execution,
* ``sweep(name, spec)`` -- fan a :class:`~repro.api.sweep.SweepSpec` out over
  the experiment, in the coordinating process (``serial``) or in children
  forked for the sweep (``process``, see :mod:`repro.forking`).  Either way
  the pending points of an experiment that declares a ``batch_fn`` are
  stacked into :meth:`~repro.api.experiment.Experiment.run_batch` calls --
  one stack inline, at most ``max_workers`` stacks in children, per-point
  fallback if a stack raises -- and every other point runs on its own,
* ``iter_sweep(name, spec)`` -- the streaming form of ``sweep``: a generator
  yielding one :class:`SweepPoint` per sweep point *as it completes* (cache
  hits first, then executed points in completion order), so callers can
  render progress or consume partial results while the sweep is running.

``sweep`` is built on ``iter_sweep`` and accepts an ``on_result`` callback
invoked once per completed point.  A point whose experiment raises no longer
aborts the whole fan-out: the remaining points still execute, completed
points stay cached, and ``sweep`` raises :class:`SweepError` carrying the
partial :class:`ResultSet`.

Composite experiments (a non-empty ``consumes`` declaration, see
:mod:`repro.api.study`) execute as *staged pipelines*: the engine first runs
the distinct upstream invocations the sweep needs (deduplicated through the
parameter bindings, fanned out through the same executor), then injects the
upstream ResultSets into the downstream calls.  ``run_study`` executes a
registered :class:`~repro.api.study.Study` the same way.

Caching is content-addressed: the key is a SHA-256 over (experiment name,
experiment version, canonicalised parameters), so identical invocations are
served from disk regardless of execution mode.  For composite experiments
the key additionally chains the *content hashes* of the consumed upstream
ResultSets, so changing an upstream parameter invalidates exactly the
dependent downstream entries while downstream-only changes replay every
upstream stage from cache.  Result I/O goes through a
pluggable :class:`~repro.dist.store.ResultStore` -- ``cache_dir=`` is
shorthand for a :class:`~repro.dist.store.LocalStore`, and a
:class:`~repro.dist.store.SharedStore` makes the same directory safe to
share between machines (see :mod:`repro.dist`).  All cache I/O happens in
the coordinating process -- forked children only compute -- which keeps even
the local store free of write races.  Cache inspection and eviction live in
:mod:`repro.api.cache` (``python -m repro cache`` on the shell).

Sweeps can additionally be statically partitioned across machines with a
:class:`~repro.dist.shards.ShardPlan` (``sweep(..., shard=plan)`` runs only
the plan's slice); :func:`repro.dist.shards.merge_results` reassembles the
partial ResultSets.
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Mapping

from repro import forking
from repro.api.experiment import Consumes, Experiment, get_experiment
from repro.api.results import ResultSet
from repro.api.sweep import SweepSpec
from repro.obs import metrics
from repro.obs.trace import trace_span

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package cycle
    from repro.api.study import Study
    from repro.dist.shards import ShardPlan
    from repro.dist.store import ResultStore

EXECUTORS = ("serial", "process")

# Per-stage parameter overrides, keyed by experiment name (a Study's params).
StageParams = Mapping[str, Mapping[str, Any]]


def cache_key(
    name: str,
    version: str,
    params: Mapping[str, Any],
    upstream: Mapping[str, str] | None = None,
) -> str:
    """Content-addressed key of one experiment invocation.

    ``upstream`` maps each consumed artifact's inject name to the *content
    hash* of the upstream ResultSet it was produced from; including it chains
    invalidation through the pipeline.  An empty/absent mapping keeps the key
    byte-identical to the historical three-field key, so caches written
    before pipelines existed stay valid.
    """
    body: dict[str, Any] = {"experiment": name, "version": version, "params": params}
    if upstream:
        body["upstream"] = dict(upstream)
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# One executed sweep point before tagging: (records, error message, wall
# time).  ``records`` is None exactly when ``error`` is set; capturing the
# error as a string keeps the tuple picklable, so a forked child can send it.
_Outcome = tuple[list[dict[str, Any]] | None, str | None, float]

# One executable unit: (resolved params, injected upstream artifacts).
_Task = tuple[dict[str, Any], dict[str, Any]]

# One cacheable invocation: a task plus its upstream content hashes (the
# chaining component of its cache key).
_Unit = tuple[dict[str, Any], dict[str, Any], dict[str, str]]


def _meta(
    experiment: Experiment,
    params: Mapping[str, Any],
    elapsed: float | None,
    upstream: Mapping[str, str] | None,
    executor: str,
) -> dict[str, Any]:
    """Provenance meta of one result: what ran, with what, where and how long.

    One construction shared by the engine and the distributed worker, so
    worker-written and engine-written entries carry the same shape (meta is
    not hashed, so ``executor`` never changes a content hash).
    """
    meta: dict[str, Any] = {
        "experiment": experiment.name,
        "version": experiment.version,
        "params": dict(params),
        "executor": executor,
    }
    if elapsed is not None:
        meta["wall_time_s"] = elapsed
    if upstream:
        # Provenance of consumed artifacts: which upstream experiment fed
        # each inject, pinned by the content hash the cache key chained.
        by_inject = {dep.inject: dep.experiment for dep in experiment.consumes}
        meta["upstream"] = {
            inject: {"experiment": by_inject[inject], "content_hash": digest}
            for inject, digest in upstream.items()
        }
    return meta


def _groups(
    experiment: Experiment, tasks: Mapping[Any, _Task], pending: list, n_stacks: int
) -> list[list]:
    """Split pending task keys into execution groups.

    The points of an experiment with a ``batch_fn`` that need no injected
    inputs form at most ``n_stacks`` contiguous stacks, which
    :func:`_run_outcomes` evaluates through one ``run_batch`` call each.
    Every other point is a group of its own, so its result streams back the
    moment it finishes.
    """
    batchable = (
        [key for key in pending if not tasks[key][1]]
        if experiment.batch_fn is not None
        else []
    )
    stacked = set(batchable)
    groups = [[key] for key in pending if key not in stacked]
    if batchable:
        size = -(-len(batchable) // n_stacks)
        groups += [batchable[i : i + size] for i in range(0, len(batchable), size)]
    return groups


def _run_outcomes(experiment: Experiment, tasks: list[_Task]) -> list[_Outcome]:
    """Run one group of sweep tasks, capturing per-task failures.

    A group of several tasks is a stack (see :func:`_groups`): it runs
    as one :meth:`Experiment.run_batch` call under an ``engine.batch`` span,
    each point charged an equal share of the wall time.  If that call
    raises, the group falls back to per-point runs, so each point's error is
    attributed individually and a buggy batch function can cost speed but
    never change results.

    Each per-point run records an ``engine.point`` span.  An exception in one
    point must not poison its siblings (that is the partial-failure guarantee
    of ``sweep``), so each point's error is caught and reported as data
    rather than raised.
    """
    if len(tasks) > 1:
        start = time.perf_counter()
        try:
            with trace_span(
                "engine.batch", experiment=experiment.name, n_points=len(tasks)
            ):
                records_list = experiment.run_batch([params for params, _ in tasks])
        except Exception:
            pass  # fall back to per-point runs below
        else:
            share = (time.perf_counter() - start) / len(tasks)
            return [(records, None, share) for records in records_list]
    outcomes: list[_Outcome] = []
    for params, inputs in tasks:
        start = time.perf_counter()
        with trace_span("engine.point", experiment=experiment.name) as span:
            try:
                records = experiment.run_with_inputs(inputs, params)
            except Exception as error:
                message = f"{type(error).__name__}: {error}"
                span.set("error", message)
                outcomes.append((None, message, time.perf_counter() - start))
            else:
                outcomes.append((records, None, time.perf_counter() - start))
    return outcomes


@dataclass(frozen=True)
class SweepPoint:
    """One sweep point's outcome, yielded by :meth:`Engine.iter_sweep`.

    Attributes
    ----------
    index:
        Position of the point in ``spec.points()`` order (the order the
        combined ResultSet is assembled in, regardless of completion order).
    point:
        The sweep-axis overrides of this point (what tags its records).
    params:
        The fully resolved parameter dict the experiment ran with.
    result:
        The point's :class:`ResultSet`, or ``None`` if the point failed.
    error:
        ``"ExceptionType: message"`` when the experiment raised, else ``None``.
    cache_hit:
        True when the result was served from the on-disk cache.
    """

    index: int
    point: dict[str, Any]
    params: dict[str, Any]
    result: ResultSet | None
    error: str | None = None
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        """Whether the point completed without error."""
        return self.error is None


class UpstreamFailure(RuntimeError):
    """A memoised upstream-stage failure, replayed per dependent point.

    When a shared upstream invocation raises, the failure is recorded in the
    in-run memo under the invocation's key so every downstream point that
    depends on it reports the error *without re-executing* the doomed stage.
    The message carries the original ``ExceptionType: message`` text.
    """


class SweepError(RuntimeError):
    """One or more sweep points failed; the completed points are preserved.

    Attributes
    ----------
    partial:
        :class:`ResultSet` of every *completed* point, assembled exactly as
        the successful return value would have been (completed points are
        also already in the cache, so a re-run pays only for the failures).
    failures:
        The failed :class:`SweepPoint` objects, in sweep order.
    """

    def __init__(self, message: str, partial: ResultSet, failures: list[SweepPoint]):
        super().__init__(message)
        self.partial = partial
        self.failures = failures


def assemble_sweep(
    experiment: Experiment,
    spec: SweepSpec,
    points: list[SweepPoint],
    base_params: Mapping[str, Any] | None,
    elapsed: float | None,
    executor: str,
    shard: "ShardPlan | None" = None,
) -> ResultSet:
    """The merged ResultSet of a sweep's points, in the order given.

    ``points`` holds every selected point of ``spec`` in sweep order (the
    whole sweep, or the ``shard`` slice).  Each completed point's records
    are tagged with its sweep values (see :func:`_tag_record`); the meta
    records the run (:func:`_meta` over ``base_params``), the sweep
    descriptor under ``meta["sweep"]`` and, for a shard, the slice under
    ``meta["shard"]``.  :meth:`Engine.sweep`, the service daemon and the
    campaign runner all build merged results here, so a result assembled
    from points already in memory is record for record the one a serial
    sweep returns.

    Raises :class:`SweepError`, carrying the ResultSet of the completed
    points, when any point failed.
    """
    tagged: list[dict[str, Any]] = []
    failures: list[SweepPoint] = []
    for sweep_point in points:
        if not sweep_point.ok:
            failures.append(sweep_point)
            continue
        for record in sweep_point.result.to_records():
            tagged.append(_tag_record(record, sweep_point.point))

    meta = _meta(experiment, dict(base_params or {}), elapsed, None, executor)
    meta["sweep"] = spec.to_meta()
    if shard is not None:
        meta["shard"] = {
            "n_shards": shard.n_shards,
            "shard_index": shard.shard_index,
            "n_points": len(points),
            "point_indices": [sweep_point.index for sweep_point in points],
        }
    result = ResultSet.from_records(tagged, meta=meta)
    if failures:
        raise SweepError(
            f"{len(failures)} of {len(points)} sweep points failed; "
            f"first failure at point {failures[0].index} "
            f"({failures[0].point}): {failures[0].error}",
            partial=result,
            failures=failures,
        )
    return result


class Engine:
    """Executes experiments and sweeps, with optional memoisation.

    Parameters
    ----------
    cache_dir:
        Directory for the on-disk result cache; ``None`` disables caching.
        Created on first write.  Shorthand for
        ``store=LocalStore(cache_dir)``.
    store:
        A :class:`~repro.dist.store.ResultStore` to memoise through instead
        of ``cache_dir`` (pass one or the other, not both).  A
        :class:`~repro.dist.store.SharedStore` here makes the engine safe to
        point at a directory that distributed workers are writing into
        concurrently.  A string is resolved like the CLI's ``--store``
        option: ``"sqlite:///cache.db"`` opens a
        :class:`~repro.dist.sqlstore.SqliteStore`, a directory path a
        :class:`~repro.dist.store.SharedStore`.
    executor:
        ``"serial"`` (default) or ``"process"`` -- where sweep points run.
        ``"serial"`` executes in the coordinating process; ``"process"``
        forks up to ``max_workers`` children per sweep stage
        (:func:`repro.forking.forked`), which take its groups one at a
        time.  Under both, the pending points of an experiment that
        declares a ``batch_fn`` (and needs no injected upstream artifacts)
        are stacked into :meth:`~repro.api.experiment.Experiment.run_batch`
        calls: one stack inline, at most ``max_workers`` stacks in
        children.  Every other point is a group of its own, which is what
        lets :meth:`iter_sweep` stream point by point.  Where
        :func:`repro.forking.can_fork` refuses (another thread is alive,
        not Linux, inside a forked child), or only one child would run, a
        ``process`` sweep runs in process like ``serial``.  Single ``run``
        calls always execute inline.
    max_workers:
        Most children a ``process`` sweep forks (default: the CPUs of the
        process's affinity mask, :func:`repro.forking.cpu_count`).

    An engine holds no process between sweeps; ``close()`` and the context
    manager protocol are kept for callers that release engines explicitly.
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        executor: str = "serial",
        max_workers: int | None = None,
        store: "ResultStore | str | None" = None,
    ) -> None:
        if executor not in EXECUTORS:
            raise ValueError(f"unknown executor {executor!r}; use one of {EXECUTORS}")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be positive")
        if store is not None and cache_dir is not None:
            raise ValueError("pass either cache_dir or store, not both")
        if isinstance(store, str):
            # CLI spellings resolve here too: "sqlite:///cache.db" or a
            # shared directory path (see repro.dist.sqlstore.resolve_store).
            from repro.dist.sqlstore import resolve_store

            store = resolve_store(store)
        if store is None and cache_dir is not None:
            from repro.dist.store import LocalStore

            store = LocalStore(cache_dir)
        self.store = store
        self.cache_dir = None if store is None else store.directory
        self.executor = executor
        self.max_workers = max_workers or forking.cpu_count()
        self.cache_hits = 0
        self.cache_misses = 0

    # --- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release the engine: a no-op, since no process outlives a sweep."""

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # --- cache ------------------------------------------------------------

    def _count_cache(self, outcome: str, n: int = 1) -> None:
        """Bump both the engine's own counters and the shared cache metric."""
        if outcome == "hit":
            self.cache_hits += n
        else:
            self.cache_misses += n
        metrics.counter("repro_cache_events_total", outcome=outcome).inc(n)

    def _cache_path(
        self,
        experiment: Experiment,
        params: Mapping[str, Any],
        upstream: Mapping[str, str] | None = None,
    ) -> str | None:
        if self.store is None:
            return None
        key = cache_key(experiment.name, experiment.version, params, upstream)
        return self.store.entry_path(experiment.name, key)

    def _cache_load(self, path: str | None) -> ResultSet | None:
        if path is None:
            return None
        result = self.store.load(path)
        if result is None:
            return None  # missing or corrupt entry: recompute and overwrite
        result.meta["cache_hit"] = True
        return result

    def _cache_store(self, path: str | None, result: ResultSet) -> None:
        if path is None:
            return
        # One entry, one fsync: the store publishes atomically (tmp file +
        # fsync + os.replace), so a crashed run never leaves a truncated or
        # corrupt entry behind; a SharedStore additionally takes the store
        # lock and clears any claim lease on the entry.
        self.store.publish(path, result)

    def clear_cache(self) -> int:
        """Delete all cache entries; returns the number of files removed.

        Only files matching the engine's own ``<experiment>-<hash16>.json``
        naming are touched, so pointing ``cache_dir`` at a directory that
        also holds exported results cannot destroy them.  Finer-grained
        eviction (by experiment, version or age) lives in
        :func:`repro.api.cache.prune_cache`.
        """
        from repro.api.cache import clear_cache

        return clear_cache(self.store)

    # --- execution --------------------------------------------------------

    def run(
        self,
        name: str | Experiment,
        params: Mapping[str, Any] | None = None,
        use_cache: bool = True,
        stage_params: StageParams | None = None,
        **param_kwargs: Any,
    ) -> ResultSet:
        """Execute one experiment and return its :class:`ResultSet`.

        Parameters can be passed as a mapping, as keywords, or both
        (keywords win).  With a cache directory configured, a repeated
        invocation is served from disk (``meta["cache_hit"]`` is then True).

        A composite experiment (non-empty ``consumes``) has its upstream
        dependencies resolved first -- recursively, through this same method,
        so upstream results are memoised too -- and their ResultSets injected
        into the call.  ``stage_params`` carries per-experiment parameter
        overrides for the upstream stages (a study's ``params``); overrides
        for upstream parameters that are *bound* to this experiment's
        parameters are ignored in favour of the bound values.
        """
        experiment = name if isinstance(name, Experiment) else get_experiment(name)
        resolved = experiment.resolve_params({**(params or {}), **param_kwargs})
        return self._run_resolved(experiment, resolved, use_cache, stage_params, {})

    def _run_resolved(
        self,
        experiment: Experiment,
        resolved: dict[str, Any],
        use_cache: bool,
        stage_params: StageParams | None,
        memo: dict[str, "ResultSet | UpstreamFailure"],
    ) -> ResultSet:
        """Memoised single-invocation execution (the body of :meth:`run`).

        ``memo`` deduplicates repeated invocations *within one engine call*
        (several downstream points binding to the same upstream parameters),
        which is what keeps cache-less engines from recomputing shared
        upstream stages per point.  Failures are memoised too (as
        :class:`UpstreamFailure`), so a doomed shared stage executes once
        and its error replays per dependent downstream point.
        """
        memo_key = cache_key(experiment.name, experiment.version, resolved)
        hit = memo.get(memo_key)
        if isinstance(hit, UpstreamFailure):
            raise hit
        if hit is not None:
            return hit

        inputs, upstream = self.resolve_inputs(
            experiment, resolved, stage_params, use_cache, memo
        )
        path = self._cache_path(experiment, resolved, upstream) if use_cache else None
        cached = self._cache_load(path)
        if cached is not None:
            self._count_cache("hit")
            memo[memo_key] = cached
            return cached
        self._count_cache("miss")

        start = time.perf_counter()
        with trace_span("engine.run", experiment=experiment.name):
            try:
                records = experiment.run_with_inputs(inputs, resolved)
            except Exception as error:
                memo[memo_key] = UpstreamFailure(f"{type(error).__name__}: {error}")
                raise
        elapsed = time.perf_counter() - start

        result = ResultSet.from_records(
            records, meta=_meta(experiment, resolved, elapsed, upstream, self.executor)
        )
        self._cache_store(path, result)
        memo[memo_key] = result
        return result

    def resolve_inputs(
        self,
        experiment: Experiment,
        resolved: Mapping[str, Any],
        stage_params: StageParams | None = None,
        use_cache: bool = True,
        memo: dict[str, "ResultSet | UpstreamFailure"] | None = None,
    ) -> tuple[dict[str, ResultSet], dict[str, str]]:
        """Resolve a composite experiment's upstream artifacts.

        Returns ``(inputs, upstream)``: the ResultSets to inject (keyed by
        each dependency's ``inject`` name) and their content hashes (the
        chaining component of the downstream cache key).  Self-contained
        experiments return two empty dicts.  Upstream invocations execute
        through :meth:`run` semantics -- memoised, cached, recursive -- with
        each upstream's parameters assembled from its defaults, the
        ``stage_params`` overrides for that experiment, and the values bound
        from ``resolved`` (bound values win).

        ``memo`` may be shared across calls to deduplicate upstream work for
        many downstream points (:func:`repro.dist.worker.run_worker` does).
        """
        if not experiment.consumes:
            return {}, {}
        if memo is None:
            memo = {}
        inputs: dict[str, ResultSet] = {}
        upstream_hashes: dict[str, str] = {}
        for dep in experiment.consumes:
            upstream = get_experiment(dep.experiment)
            up_resolved = self._bound_upstream_params(
                upstream, dep, resolved, stage_params
            )
            result = self._run_resolved(
                upstream, up_resolved, use_cache, stage_params, memo
            )
            inputs[dep.inject] = result
            upstream_hashes[dep.inject] = result.content_hash
        return inputs, upstream_hashes

    @staticmethod
    def _bound_upstream_params(
        upstream: Experiment,
        dep: "Consumes",
        resolved: Mapping[str, Any],
        stage_params: StageParams | None,
    ) -> dict[str, Any]:
        """One upstream invocation's resolved parameters (overrides + binds)."""
        overrides = dict((stage_params or {}).get(dep.experiment, {}))
        for up_name, down_name in dep.bind.items():
            overrides[up_name] = resolved[down_name]
        return upstream.resolve_params(overrides)

    def run_study(
        self,
        study: "Study | str",
        stage_params: StageParams | None = None,
        sweep: SweepSpec | None = None,
        shard: "ShardPlan | None" = None,
        use_cache: bool = True,
        on_result: Callable[[SweepPoint], None] | None = None,
    ) -> ResultSet:
        """Execute a registered :class:`~repro.api.study.Study` end to end.

        Resolves (and validates) the study's pipeline, then runs the target
        experiment -- as the study's default sweep (or an explicit ``sweep``
        override) when one is declared, as a single invocation otherwise.
        Upstream stages execute first, stage by stage, exactly as
        :meth:`run` / :meth:`sweep` do for any composite experiment.
        ``stage_params`` merges over the study's own per-stage overrides.
        ``shard`` restricts a swept study to one
        :class:`~repro.dist.shards.ShardPlan` slice; the partial results
        merge through :func:`repro.dist.shards.merge_results` bit-identically
        to a serial study run.
        """
        from repro.api.study import get_study

        if isinstance(study, str):
            study = get_study(study)

        merged, study_meta = study.plan(stage_params)
        base = merged.get(study.target, {})
        spec = sweep if sweep is not None else study.sweep
        if spec is None:
            if shard is not None:
                raise ValueError(
                    f"study {study.name!r} declares no sweep; sharding needs one "
                    "(pass sweep=... or register the study with a sweep)"
                )
            result = self.run(
                study.target, params=base, use_cache=use_cache, stage_params=merged
            )
        else:
            try:
                result = self.sweep(
                    study.target,
                    spec,
                    base_params=base,
                    use_cache=use_cache,
                    on_result=on_result,
                    shard=shard,
                    stage_params=merged,
                )
            except SweepError as error:
                # Partial study results keep their provenance too.
                error.partial.meta["study"] = study_meta
                raise
        result.meta["study"] = study_meta
        return result

    def sweep(
        self,
        name: str | Experiment,
        spec: SweepSpec,
        base_params: Mapping[str, Any] | None = None,
        use_cache: bool = True,
        on_result: Callable[[SweepPoint], None] | None = None,
        shard: "ShardPlan | None" = None,
        stage_params: StageParams | None = None,
    ) -> ResultSet:
        """Fan an experiment out over every point of a sweep.

        Each sweep point is one experiment invocation with the point's
        values overriding ``base_params``; its records are tagged with the
        swept parameter values (columns named after the axes) so the
        combined ResultSet can be grouped and filtered by sweep point.
        The combined ResultSet follows ``spec.points()`` order regardless of
        executor, so serial and parallel sweeps return identical ResultSets.

        ``on_result`` is called once per sweep point *as it completes*
        (completion order, which may differ from sweep order under the
        parallel executors) -- the hook the CLI uses to render progressive
        per-point progress.  If any point fails, the remaining points still
        execute and :class:`SweepError` is raised at the end; its ``partial``
        attribute holds the ResultSet of the completed points, which are also
        already cached, so a re-run pays only for the failures.

        ``shard`` restricts the run to one deterministic slice of the sweep
        (see :class:`repro.dist.shards.ShardPlan`); the partial ResultSet
        then records the slice under ``meta["shard"]`` and
        :func:`repro.dist.shards.merge_results` reassembles all slices into
        the full-sweep ResultSet.
        """
        experiment = name if isinstance(name, Experiment) else get_experiment(name)
        points = spec.points()
        start = time.perf_counter()
        completed: dict[int, SweepPoint] = {}
        # The span wraps the consuming loop (not the generator body), so the
        # trace context never leaks across generator suspensions; every
        # engine.point span -- inline or in a forked child -- nests under it.
        with trace_span(
            "engine.sweep",
            experiment=experiment.name,
            executor=self.executor,
            n_points=len(points),
        ):
            for sweep_point in self.iter_sweep(
                experiment,
                spec,
                base_params=base_params,
                use_cache=use_cache,
                shard=shard,
                stage_params=stage_params,
            ):
                completed[sweep_point.index] = sweep_point
                if on_result is not None:
                    on_result(sweep_point)
        return assemble_sweep(
            experiment,
            spec,
            [completed[index] for index in sorted(completed)],
            base_params,
            time.perf_counter() - start,
            self.executor,
            shard=shard,
        )

    def iter_sweep(
        self,
        name: str | Experiment,
        spec: SweepSpec,
        base_params: Mapping[str, Any] | None = None,
        use_cache: bool = True,
        shard: "ShardPlan | None" = None,
        stage_params: StageParams | None = None,
    ) -> Iterator[SweepPoint]:
        """Stream a sweep: yield one :class:`SweepPoint` per point as it lands.

        Cache hits are yielded first (in sweep order, they are free), then
        executed points in completion order -- under the process executor a
        fast point is yielded while slower ones are still running (the
        points of one ``batch_fn`` stack land together).  A failed point is
        yielded with ``error`` set instead of aborting the generator, so
        consumers always see every point exactly once; ``SweepPoint.index`` maps it back to ``spec.points()`` order.
        With ``shard`` set, only the shard's slice of the sweep is streamed
        (indices still refer to the full ``spec.points()`` order).

        A composite experiment's sweep executes stage by stage: the distinct
        upstream invocations the selected points need (after parameter
        binding and deduplication) run first, fanned out through the same
        executor, then the downstream points run with their upstream
        ResultSets injected.  An upstream failure fails exactly the dependent
        downstream points, never the whole sweep.

        Unlike :meth:`sweep`, nothing is raised for failed points: streaming
        consumers decide themselves how to react.  Parameter errors (unknown
        axis names, un-coercible values) raise here, at the call site --
        every point is resolved before the stream is handed back, so the
        generator itself only ever yields.
        """
        experiment = name if isinstance(name, Experiment) else get_experiment(name)
        points = spec.points()
        selected = list(range(len(points))) if shard is None else shard.indices(points)
        # Resolve (and cache-key) only the selected slice: a 1-of-N shard of
        # a large sweep must not pay parameter resolution for all N slices.
        resolved_points = {
            index: experiment.resolve_params({**(base_params or {}), **points[index]})
            for index in selected
        }
        return self._iter_resolved(
            experiment, points, resolved_points, selected, use_cache, stage_params
        )

    def _iter_resolved(
        self,
        experiment: Experiment,
        points: list[dict[str, Any]],
        resolved_points: dict[int, dict[str, Any]],
        selected: list[int],
        use_cache: bool,
        stage_params: StageParams | None,
    ) -> Iterator[SweepPoint]:
        """The generator body of :meth:`iter_sweep` (post parameter resolution)."""
        memo: dict[str, "ResultSet | UpstreamFailure"] = {}
        if experiment.consumes and selected:
            # Stage the DAG: run the distinct upstream invocations first so
            # the per-point injection below is a memo lookup, not a compute.
            self._prefetch_upstreams(
                experiment,
                [resolved_points[index] for index in selected],
                use_cache,
                stage_params,
                memo,
            )

        units: dict[int, _Unit] = {}
        for index in selected:
            params = resolved_points[index]
            try:
                units[index] = (
                    params,
                    *self.resolve_inputs(
                        experiment, params, stage_params, use_cache, memo
                    ),
                )
            except Exception as error:
                # A failed upstream stage fails the dependent point only; the
                # prefix marks where in the pipeline the failure happened.
                # A memo-replayed UpstreamFailure already carries the original
                # "ExceptionType: message" text.
                message = (
                    str(error)
                    if isinstance(error, UpstreamFailure)
                    else f"{type(error).__name__}: {error}"
                )
                yield SweepPoint(
                    index=index,
                    point=points[index],
                    params=resolved_points[index],
                    result=None,
                    error=f"upstream: {message}",
                )
        for index, result, error, cache_hit in self._lookup_and_execute(
            experiment, units, use_cache
        ):
            yield SweepPoint(
                index=index,
                point=points[index],
                params=resolved_points[index],
                result=result,
                error=error,
                cache_hit=cache_hit,
            )

    def _prefetch_upstreams(
        self,
        experiment: Experiment,
        resolved_list: list[dict[str, Any]],
        use_cache: bool,
        stage_params: StageParams | None,
        memo: dict[str, "ResultSet | UpstreamFailure"],
    ) -> None:
        """Execute one stage's distinct upstream invocations, deepest first.

        For every dependency of ``experiment``, project the downstream
        points through the parameter bindings, deduplicate the resulting
        upstream invocations, recurse (so transitively deeper stages run
        first) and fan the still-unmemoised invocations out through
        :meth:`_lookup_and_execute` -- the exact machinery downstream points
        use, so a process engine parallelises every stage, not just the
        last one.  Failures are *not* raised here: the per-point
        injection pass re-resolves and attributes the error to exactly the
        dependent downstream points.
        """
        for dep in experiment.consumes:
            upstream = get_experiment(dep.experiment)
            distinct: dict[str, dict[str, Any]] = {}
            for resolved in resolved_list:
                try:
                    up_resolved = self._bound_upstream_params(
                        upstream, dep, resolved, stage_params
                    )
                except Exception:
                    continue  # surfaced per downstream point later
                distinct.setdefault(
                    cache_key(upstream.name, upstream.version, up_resolved),
                    up_resolved,
                )
            if not distinct:
                continue
            if upstream.consumes:
                self._prefetch_upstreams(
                    upstream, list(distinct.values()), use_cache, stage_params, memo
                )

            units: dict[str, _Unit] = {}
            for memo_key, up_resolved in distinct.items():
                if memo_key in memo:
                    continue
                try:
                    units[memo_key] = (
                        up_resolved,
                        *self.resolve_inputs(
                            upstream, up_resolved, stage_params, use_cache, memo
                        ),
                    )
                except Exception:
                    continue  # deeper-stage failure; attributed downstream
            for memo_key, result, error, _ in self._lookup_and_execute(
                upstream, units, use_cache
            ):
                # A failure is memoised too: dependent downstream points
                # report it without re-executing the doomed invocation.
                memo[memo_key] = result if error is None else UpstreamFailure(error)

    def _lookup_and_execute(
        self, experiment: Experiment, units: dict[Any, _Unit], use_cache: bool
    ) -> Iterator[tuple[Any, ResultSet | None, str | None, bool]]:
        """Serve invocations from the cache, execute and publish the misses.

        ``units`` maps a caller's key to ``(resolved params, injected inputs,
        upstream content hashes)``.  Yields ``(key, result, error,
        cache_hit)``: cache hits first, in ``units`` order, then executed
        invocations in completion order (see :meth:`_execute_pending`).

        Executed results are published in groups
        (:class:`~repro.dist.store.CommitGroup`: one durability barrier per
        group) and each is yielded only once the group that holds it has
        committed.  The last group commits when the stream ends, fails or
        is closed by its consumer.
        """
        tasks: dict[Any, _Task] = {}
        paths: dict[Any, str | None] = {}
        for key, (params, inputs, upstream) in units.items():
            path = self._cache_path(experiment, params, upstream) if use_cache else None
            cached = self._cache_load(path)
            if cached is None:
                tasks[key] = (params, inputs)
                paths[key] = path
                continue
            self._count_cache("hit")
            yield key, cached, None, True
        if tasks:
            self._count_cache("miss", len(tasks))

        if not tasks:
            return
        batch = None
        if self.store is not None:
            from repro.dist.store import CommitGroup

            batch = CommitGroup(self.store)
        try:
            for key, (records, error, elapsed) in self._execute_pending(
                experiment, tasks
            ):
                if error is not None:
                    yield key, None, error, False
                    continue
                params, _, upstream = units[key]
                meta = _meta(experiment, params, elapsed, upstream, self.executor)
                result = ResultSet.from_records(records, meta=meta)
                if paths[key] is None:
                    yield key, result, None, False
                    continue
                staged = (key, result)
                for done_key, done in batch.add(paths[key], result, elapsed, staged):
                    yield done_key, done, None, False
        except BaseException:  # GeneratorExit included: the consumer closed
            if batch is not None:
                batch.commit()  # finished points stay durable
            raise
        if batch is not None:
            for done_key, done in batch.commit():
                yield done_key, done, None, False

    # --- helpers ----------------------------------------------------------

    def _observed(
        self, group: list, outcomes: list[_Outcome]
    ) -> Iterator[tuple[Any, _Outcome]]:
        """Pair a group's outcomes with its task keys, counting each point."""
        for index, outcome in zip(group, outcomes):
            metrics.counter("repro_points_executed_total", executor=self.executor).inc()
            metrics.histogram("repro_point_wall_seconds").observe(outcome[2])
            yield index, outcome

    def _execute_pending(
        self,
        experiment: Experiment,
        tasks: dict[Any, _Task],
    ) -> Iterator[tuple[Any, _Outcome]]:
        """Yield ``(key, outcome)`` for every task.

        ``tasks`` maps each key to its ``(resolved params, injected inputs)``
        pair -- inputs are empty for self-contained experiments.
        The tasks run in the groups of :func:`_groups`: inline in group
        order, or under the ``process`` executor in forked children that
        take the groups one at a time, yielded as each group completes --
        which is what makes :meth:`iter_sweep` stream under parallel
        execution.  A child inherits the experiment instance, its inputs
        and the trace context, so ad-hoc experiments run there too.
        """
        forks = self.executor == "process" and forking.can_fork()
        groups = _groups(experiment, tasks, list(tasks), self.max_workers if forks else 1)
        stacks = [[tasks[key] for key in group] for group in groups]
        workers = min(self.max_workers, len(groups)) if forks else 1
        if workers < 2:
            for group, stack in zip(groups, stacks):
                yield from self._observed(group, _run_outcomes(experiment, stack))
            return

        start = time.perf_counter()
        run_stack = functools.partial(_run_outcomes, experiment)
        with forking.forked(run_stack, stacks, workers) as arrivals:
            for index, outcomes in arrivals:
                # Everything between the fork and holding this group's
                # results that was not its compute -- forking, waiting
                # behind other groups, the result's pickle and transfer --
                # is dispatch overhead.
                compute = sum(outcome[2] for outcome in outcomes)
                metrics.counter(
                    "repro_dispatch_overhead_seconds_total", executor=self.executor
                ).inc(max(0.0, time.perf_counter() - start - compute))
                yield from self._observed(groups[index], outcomes)


def _tag_record(record: dict[str, Any], point: Mapping[str, Any]) -> dict[str, Any]:
    """Prepend the sweep-point values as columns of the record.

    A sweep axis whose name collides with an output column of the record is
    stored under a ``param_`` prefix instead, so experiment output is never
    silently overwritten.
    """
    tags = {}
    for name, value in point.items():
        tags[f"param_{name}" if name in record else name] = value
    return {**tags, **record}
