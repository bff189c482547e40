"""Distributed sweep execution over a shared, lock-safe result store.

The engine's cache key ``(experiment, version, params)`` is fully
content-addressed, so distributing a sweep across processes or machines
only needs the three pieces this subpackage provides:

* :mod:`repro.dist.store` -- the :class:`ResultStore` interface and
  :class:`SharedStore`, the directory store behind ``Engine(cache_dir=...)``
  (advisory locking + lease-based claims with stale-lease recovery + atomic
  publish, safe for N concurrent workers).
* :mod:`repro.dist.shards` -- :class:`ShardPlan`, a deterministic,
  coordination-free partition of any sweep by stable param-hash, and
  :func:`merge_results`, which reassembles partial results bit-identically
  to a serial run.
* :mod:`repro.dist.worker` -- :func:`run_worker`, the claim/execute/publish
  loop behind ``python -m repro worker``.
* :mod:`repro.dist.sqlstore` -- :class:`SqliteStore`, the same store seam
  over one sqlite database (transactional claims, indexed metadata, queried
  by ``python -m repro query``), :func:`resolve_store` for the CLI's
  ``--store sqlite:///path.db`` spelling and :func:`migrate_store` for
  moving an existing directory store into a database.

Quick start (two cooperating workers, one shared directory)::

    import tempfile

    from repro.api import Engine, SweepSpec
    from repro.dist import SharedStore, run_worker

    store = SharedStore(tempfile.mkdtemp())
    spec = SweepSpec.grid(length_um=[1.0, 10.0, 100.0])

    report = run_worker("table_density", spec, store, worker_id="w1")
    print(report.summary())

    # Any engine pointed at the store reassembles the full sweep from cache.
    merged = Engine(store=store).sweep("table_density", spec)
    print(len(merged), merged.content_hash[:16])

See ``docs/DISTRIBUTED.md`` for the multi-terminal walkthrough, lease/TTL
semantics and failure recovery.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "backoff": ("Backoff",),
        "shards": ("ShardPlan", "merge_results", "point_hash", "point_key", "shard_of"),
        "sqlstore": ("MigrationReport", "SqliteStore", "migrate_store", "resolve_store"),
        "store": (
            "CLAIM_ACQUIRED",
            "CLAIM_BUSY",
            "CLAIM_DONE",
            "CLAIM_SKIPPED",
            "DEFAULT_LEASE_TTL",
            "FAILED_SUFFIX",
            "LEASE_SUFFIX",
            "Lease",
            "ResultStore",
            "SharedStore",
            "StoreLockTimeout",
            "default_worker_id",
            "store_lock",
        ),
        "worker": ("LeaseHeartbeat", "WorkerReport", "run_worker"),
    },
)
