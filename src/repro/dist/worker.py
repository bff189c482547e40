"""Sweep worker: claim pending points from a shared store, publish results.

:func:`run_worker` is the execution loop behind ``python -m repro worker``.
N workers pointed at the same :class:`~repro.dist.store.SharedStore` and
the same sweep cooperate through the store alone:

* each pending point is executed by exactly one worker -- ``claim`` grants
  a ttl-bounded lease, publish is atomic, and a point whose result already
  exists is skipped (``claim`` reports ``"done"``);
* one background heartbeat per claim round renews every lease the round
  acquired at the ttl's half-way mark, from claim time until the point is
  published, so the ttl need not exceed the slowest point (nor a queued
  point's wait) while a *dead* worker's leases still expire within one ttl;
* claimed points run through the engine's own core (``_run_outcomes``:
  ``batch_fn`` stacks with per-point fallback, ``engine.point`` spans);
* a round's results are group-committed
  (:class:`~repro.dist.store.CommitGroup`): one ``publish_many`` -- one
  durability barrier -- at the end of the round, on an exception, or once
  the oldest waiting point started ``COMMIT_INTERVAL_S`` (0.5 s) ago.  A
  point reaches ``on_result`` only after the commit that made it durable,
  and the round's heartbeat lasts until that commit;
* points the claim finds ``"done"`` are handed over with the ResultSet
  ``claim_many`` loaded to validate them (``Claims.results``), so each is
  loaded once;
* a worker killed mid-point loses its lease and the finished points of its
  round not yet committed (at most ``COMMIT_INTERVAL_S`` of work): once the
  ttl lapses, any surviving (or restarted) worker claims them again and
  re-executes them.  A point that *raises* releases its lease for siblings to
  retry and records a failure tombstone in the store
  (``python -m repro cache prune --gc`` collects them);
* composite experiments (``consumes=`` declarations) resolve their upstream
  stages through the same store before the claiming loop starts, so
  cooperating workers share upstream results exactly like downstream ones
  and the claim keys chain through the upstream content hashes;
* progress streams through the same ``on_result`` /
  :class:`~repro.api.engine.SweepPoint` path the engine's ``iter_sweep``
  uses, so the CLI progress renderer works unchanged.

Workers claim in sweep order but *complete* in completion order -- a worker
that finds every remaining point leased waits (``wait=True``) for the other
workers to publish or for their leases to expire, so a worker that outlives
its siblings still drives the sweep to completion.  With ``wait=False`` it
exits as soon as nothing is claimable, leaving leased points to their
owners.

Static sharding (:class:`~repro.dist.shards.ShardPlan`) composes with the
claiming loop: a worker given ``shard=`` only ever looks at its own slice,
which removes all lock contention between machines at the price of static
balance.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.api.engine import (
    Engine,
    SweepPoint,
    _groups,
    _meta,
    _run_outcomes,
    cache_key,
)
from repro.api.experiment import Experiment, get_experiment
from repro.api.results import ResultSet
from repro.api.sweep import SweepSpec
from repro.dist.backoff import Backoff
from repro.dist.shards import ShardPlan
from repro.dist.store import (
    CLAIM_ACQUIRED,
    CLAIM_BUSY,
    CLAIM_DONE,
    CLAIM_SKIPPED,
    DEFAULT_LEASE_TTL,
    CommitGroup,
    ResultStore,
    default_worker_id,
)
from repro.obs import metrics
from repro.obs.metrics import metrics_snapshot


class LeaseHeartbeat:
    """Background renewal of claim leases while their points wait and execute.

    Entered once per claim round over every lease it acquired (``path`` may
    be a list): a daemon thread calls ``store.renew`` every ``ttl / 2``
    seconds, so no lease expires under a live worker however slow the work,
    while a killed worker's leases still lapse within one ttl.  A path whose
    renewal fails (published, released, pruned or taken over) drops out --
    publish is atomic and content-addressed, so the worst case is
    duplicated work, never a corrupt store.
    """

    def __init__(
        self,
        store: ResultStore,
        path: "str | list[str]",
        worker_id: str,
        ttl: float,
    ):
        self.store = store
        self.paths = [path] if isinstance(path, str) else list(path)
        self.worker_id = worker_id
        self.ttl = ttl
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def _beat(self) -> None:
        live = list(self.paths)
        while live and not self._stop.wait(self.ttl / 2.0):
            live = [
                entry
                for entry in live
                if self.store.renew(entry, self.worker_id, self.ttl)
            ]
            metrics.counter("repro_lease_renewals_total").inc(len(live))

    def __enter__(self) -> "LeaseHeartbeat":
        self._thread = threading.Thread(target=self._beat, daemon=True)
        self._thread.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._stop.set()
        self._thread.join()


@dataclass(frozen=True)
class WorkerReport:
    """What one worker did with its slice of a sweep.

    All point lists hold indices into ``spec.points()`` order.  ``executed``
    are the points this worker claimed, ran and published; ``already_done``
    were found published (by anyone, including earlier runs);
    ``failed`` raised in this worker (their leases were released so other
    workers may retry); ``abandoned`` were left leased to other workers when
    the worker gave up waiting (only non-empty with ``wait=False`` or an
    exhausted ``max_wait``).

    ``claim_round_trips`` counts the ``claim_many`` calls the loop made and
    ``store_round_trips`` every coordination/IO call against the store from
    the main loop (claims, batch publishes, releases, tombstones --
    heartbeat renewals run on their own thread and are not counted).  These
    are the dispatch-overhead budget: for an uncontended sweep of N points
    of cheap work the loop stays within a handful of claim round trips and
    one batch publish per claim round, rather than N claims and N
    publishes.

    ``metrics`` carries a :func:`repro.obs.metrics.metrics_snapshot` of this
    process taken at loop exit (counters such as claim outcomes, cache
    events and solver totals) so a supervisor can aggregate worker activity
    without scraping each process.
    """

    worker_id: str
    n_points: int
    executed: list[int] = field(default_factory=list)
    already_done: list[int] = field(default_factory=list)
    failed: list[int] = field(default_factory=list)
    abandoned: list[int] = field(default_factory=list)
    wall_time_s: float = 0.0
    claim_round_trips: int = 0
    store_round_trips: int = 0
    metrics: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        """Whether every point this worker *attempted* succeeded.

        Abandoned points were never attempted -- they stay leased to their
        (live) owners, which is the normal hand-off of ``wait=False`` -- so
        only actual failures count.
        """
        return not self.failed

    def summary(self) -> str:
        """One-line human summary (what the CLI prints at exit)."""
        return (
            f"worker {self.worker_id}: {self.n_points} points -- "
            f"{len(self.executed)} executed, {len(self.already_done)} already done, "
            f"{len(self.failed)} failed, {len(self.abandoned)} abandoned "
            f"({self.wall_time_s:.3f} s, {self.claim_round_trips} claim / "
            f"{self.store_round_trips} store round trips)"
        )


def run_worker(
    name: str | Experiment,
    spec: SweepSpec,
    store: ResultStore,
    base_params: Mapping[str, Any] | None = None,
    worker_id: str | None = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    shard: ShardPlan | None = None,
    on_result: Callable[[SweepPoint], None] | None = None,
    wait: bool = True,
    poll_interval: float = 0.2,
    max_wait: float | None = None,
) -> WorkerReport:
    """Attach to a store and drive a sweep's pending points to completion.

    Each pass claims half the remaining points (at least one) in one
    ``claim_many`` round trip, runs them under one lease heartbeat through
    the engine's execution core and group-commits their results -- or
    releases the lease and records a tombstone for a point that raised.  Points past
    a pass's half come back :data:`~repro.dist.store.CLAIM_SKIPPED` and are
    claimed on the next pass at once, even with ``wait=False``.

    Parameters
    ----------
    name:
        Registered experiment name (or an :class:`Experiment` instance).
    spec:
        The sweep every cooperating worker must agree on (the store carries
        results, not the work list).
    store:
        Where results live; a :class:`~repro.dist.store.SharedStore` for
        multi-worker runs, any :class:`~repro.dist.store.ResultStore` when
        a single worker just wants the streaming loop.
    base_params:
        Fixed parameters under the sweep overrides (as in ``Engine.sweep``).
    worker_id:
        Identity used for leases; defaults to ``<hostname>-<pid>``.
    lease_ttl:
        Seconds a claimed point stays reserved between heartbeats.  A live
        worker renews its leases at the ttl's half-way mark from claim time
        on, so the ttl only bounds how long a *crashed* worker's point stays
        blocked -- it need not exceed the slowest point or a point's wait.
    shard:
        Optional static slice; the worker then ignores points owned by other
        shards entirely.
    on_result:
        Per-point callback, same contract as ``Engine.sweep(on_result=...)``
        (already-done points arrive with ``cache_hit=True``).
    wait:
        Keep polling while other workers hold leases (default).  ``False``
        exits once nothing is claimable.
    poll_interval:
        Initial sleep between passes when no point was claimable.  Idle
        passes back off geometrically (jittered, capped) from there and
        snap back to ``poll_interval`` on progress, so many waiting
        workers do not poll the store lock in lockstep.
    max_wait:
        Upper bound in seconds on waiting for other workers (``None``:
        unbounded).  On expiry the still-leased points are ``abandoned``.
    """
    experiment = name if isinstance(name, Experiment) else get_experiment(name)
    worker = worker_id if worker_id is not None else default_worker_id()
    points = spec.points()
    indices = list(range(len(points))) if shard is None else shard.indices(points)
    resolved = {
        index: experiment.resolve_params({**(base_params or {}), **points[index]})
        for index in indices
    }

    executed: list[int] = []
    already_done: list[int] = []
    failed: list[int] = []
    start = time.perf_counter()

    def emit(point_index: int, **kwargs: Any) -> None:
        if on_result is not None:
            on_result(
                SweepPoint(
                    index=point_index,
                    point=points[point_index],
                    params=resolved[point_index],
                    **kwargs,
                )
            )

    def land(committed: list[tuple[int, ResultSet]]) -> None:
        # Points reach on_result only once their group commit is durable.
        for point_index, result in committed:
            executed.append(point_index)
            emit(point_index, result=result)

    # Upstream pipeline stages resolve through the same store, so N workers
    # share upstream results exactly like downstream ones (first publisher
    # wins; a concurrent compute wastes work but cannot corrupt anything),
    # and the entry keys chain through the upstream content hashes -- the
    # same stage-aware keys a serial Engine run would use, which is what
    # makes a worker-merged pipeline run bit-identical to a serial one.
    upstream_engine = Engine(store=store)
    memo: dict[str, Any] = {}
    tasks: dict[int, tuple[dict[str, Any], dict[str, ResultSet]]] = {}
    upstream_hashes: dict[int, dict[str, str]] = {}
    paths: dict[int, str] = {}
    for index in indices:
        try:
            inputs, upstream_hashes[index] = upstream_engine.resolve_inputs(
                experiment, resolved[index], memo=memo
            )
        except Exception as error:
            failed.append(index)
            emit(index, result=None, error=f"upstream: {type(error).__name__}: {error}")
            continue
        tasks[index] = (resolved[index], inputs)
        paths[index] = store.entry_path(
            experiment.name,
            cache_key(
                experiment.name,
                experiment.version,
                resolved[index],
                upstream_hashes[index],
            ),
        )

    remaining = [index for index in indices if index in paths]
    deadline = None if max_wait is None else time.monotonic() + max_wait
    # Idle passes back off geometrically with jitter instead of sleeping a
    # fixed beat: N waiting workers polling one store in sync serialise on
    # the store lock, and jitter decorrelates them.  Any progress (a claim,
    # a publish observed) snaps the delay back to poll_interval.
    backoff = Backoff(initial=poll_interval, maximum=max(poll_interval * 16, 2.0))

    claim_round_trips = 0
    store_round_trips = 0

    while remaining:
        progressed = False
        busy: list[int] = []
        skipped: list[int] = []
        acquired: list[int] = []
        # Ask for half the remaining points per pass: a lone worker drains a
        # sweep in O(log N) claim round trips, while cooperating workers
        # still interleave instead of one fencing off the whole sweep.
        statuses = store.claim_many(
            [paths[index] for index in remaining],
            worker,
            lease_ttl,
            max_acquire=max(1, (len(remaining) + 1) // 2),
        )
        claim_round_trips += 1
        store_round_trips += 1
        for status in set(statuses):
            metrics.counter("repro_claim_outcomes_total", status=status).inc(
                statuses.count(status)
            )
        for index, status, result in zip(remaining, statuses, statuses.results):
            if status == CLAIM_BUSY:
                busy.append(index)
                continue
            if status == CLAIM_SKIPPED:
                skipped.append(index)
                continue
            if status == CLAIM_DONE:
                # The claim already loaded the entry to validate it.
                progressed = True
                already_done.append(index)
                result.meta["cache_hit"] = True
                emit(index, result=result, cache_hit=True)
                continue
            assert status == CLAIM_ACQUIRED
            acquired.append(index)

        if acquired:
            progressed = True
            # One heartbeat from claim time renews every lease of the round
            # until the round's results are committed, so a point queued
            # behind slow siblings is not re-claimed by another worker;
            # published and released paths drop out of it.
            with LeaseHeartbeat(
                store, [paths[index] for index in acquired], worker, lease_ttl
            ):
                batch = CommitGroup(store)
                try:
                    for group in _groups(experiment, tasks, acquired, 1):
                        outcomes = _run_outcomes(
                            experiment, [tasks[index] for index in group]
                        )
                        for index, (records, error, elapsed) in zip(group, outcomes):
                            if error is not None:
                                # Release so siblings may retry; this worker
                                # will not.  The tombstone keeps the failure
                                # inspectable after every worker exited
                                # (`cache prune --gc` collects it).
                                store.release(paths[index], worker)
                                store.record_failure(paths[index], worker, error)
                                store_round_trips += 2
                                failed.append(index)
                                emit(index, result=None, error=error)
                                continue
                            meta = _meta(
                                experiment,
                                resolved[index],
                                elapsed,
                                upstream_hashes[index],
                                "worker",
                            )
                            meta["worker_id"] = worker
                            result = ResultSet.from_records(records, meta=meta)
                            staged = (index, result)
                            land(batch.add(paths[index], result, elapsed, staged))
                    land(batch.commit())
                except BaseException:
                    batch.commit()  # finished points stay durable
                    raise
                finally:
                    store_round_trips += batch.commits

        remaining = sorted(busy + skipped)
        if not remaining:
            break
        if skipped:
            # Skipped points are this worker's own batch deferral, not
            # another worker's lease: go claim them immediately (even with
            # wait=False), no backoff.
            backoff.reset()
            continue
        if not wait or (deadline is not None and time.monotonic() >= deadline):
            break
        if progressed:
            backoff.reset()
        else:
            time.sleep(backoff.next_delay())

    return WorkerReport(
        worker_id=worker,
        n_points=len(indices),
        executed=executed,
        already_done=already_done,
        failed=failed,
        abandoned=remaining,
        wall_time_s=time.perf_counter() - start,
        claim_round_trips=claim_round_trips,
        store_round_trips=store_round_trips,
        metrics=metrics_snapshot(),
    )
