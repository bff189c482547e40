"""The benchmark's two workloads.

Each workload is a closed loop driven by one client in one process: the next
op starts when the previous one has returned.  A workload makes its op list
from the seed alone (``plan``), builds its fixtures in a fresh directory
(``open``), runs one op (``run_op``) and checks one op's result against an
independent computation (``expected_hash``), outside the timed region.

* ``paper`` -- one pass over every registered experiment at its paper
  defaults, in registry order, through the default serial ``Engine`` with a
  fresh cache directory.  The wait to reproduce the paper; it exercises the
  solvers (``circuit``, ``atomistic``, ``tcad``) and bypasses the store and
  the service.  Results are checked against ``paper_manifest.json``.
* ``service_jobs`` -- three sweep jobs to one campaign job, each submitted
  over HTTP to a server thread, executed by ``serve_queue(drain=True,
  max_jobs=1)`` in the client's thread (no idle polling, no client-side
  waiting), then read back with ``status`` and ``fetch_results``.  It
  exercises the server, queue, daemon, leases and campaign strategies, and
  through the sweep jobs (20 points over cheap compact models, about half of
  them repeats of earlier points) engine dispatch, cache keys and store
  load/publish, with almost no physics: the control workload for any solver
  change.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import threading
from typing import Any

from repro.api import Engine, SweepSpec, ensure_registered, list_experiments
from repro.api.results import content_hash

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "paper_manifest.json")

# Cheap experiments (each point well under 2 ms of physics here) and how to
# draw one point of each from a seeded generator.
CHEAP_POINTS = {
    "table_density": lambda r: {"length_um": round(r.uniform(1.0, 1000.0), 4)},
    "growth_window": lambda r: {
        "catalyst": r.choice(("Co", "Fe")),
        "duration_s": round(r.uniform(60.0, 3600.0), 2),
    },
    "em_lifetime": lambda r: {
        "current_density": round(r.uniform(1e9, 5e10), -3),
        "temperature": round(r.uniform(300.0, 450.0), 3),
        "cnt_fraction": round(r.uniform(0.05, 0.7), 4),
    },
    "self_heating": lambda r: {
        "current_ua": round(r.uniform(5.0, 80.0), 4),
        "length_um": round(r.uniform(0.5, 5.0), 4),
    },
    "table_thermal": lambda r: {
        "via_diameter_nm": round(r.uniform(50.0, 300.0), 3),
        "via_height_nm": round(r.uniform(100.0, 400.0), 3),
    },
    "wafer_uniformity": lambda r: {
        "edge_drop": round(r.uniform(0.0, 0.2), 5),
        "seed": r.randrange(10**6),
    },
    "variability": lambda r: {
        "doped_channels": round(r.uniform(2.0, 10.0), 4),
        "seed": r.randrange(10**6),
    },
    "tlm": lambda r: {
        "contact_resistance": round(r.uniform(1e3, 1e5), 2),
        "seed": r.randrange(10**6),
    },
}


class PointSource:
    """Seeded points over the cheap experiments, about half of them repeats.

    ``sweep(size)`` takes the next experiment of a shuffled cycle over all of
    them (so every seed does the same mix of work), then takes a seeded share
    (30-70%) of its points from those it handed out before and draws the rest
    new.
    """

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.seen: dict[str, list[dict[str, Any]]] = {name: [] for name in CHEAP_POINTS}
        self.cycle: list[str] = []

    def sweep(self, size: int) -> tuple[str, list[dict[str, Any]]]:
        rng = self.rng
        if not self.cycle:
            self.cycle = sorted(CHEAP_POINTS)
            rng.shuffle(self.cycle)
        name = self.cycle.pop()
        seen = self.seen[name]
        n_old = min(len(seen), round(size * rng.uniform(0.3, 0.7)))
        points = rng.sample(seen, n_old)
        keys = {json.dumps(p, sort_keys=True) for p in points}
        while len(points) < size:
            point = CHEAP_POINTS[name](rng)
            key = json.dumps(point, sort_keys=True)
            if key not in keys:
                keys.add(key)
                points.append(point)
                seen.append(point)
        rng.shuffle(points)
        return name, points


def _fresh_dir(workdir: str, prefix: str) -> str:
    return tempfile.mkdtemp(prefix=prefix, dir=workdir)


class Paper:
    name = "paper"
    ops_per_second = None  # one pass per run, whatever its length
    # The user waits for the pass: its latency is the one op latency.  The
    # per-experiment latencies (median: a ~2 ms experiment, mostly the
    # fsync of its cache entry) spread 28% over five seeds on a 2-vCPU host.
    pass_is_op = True

    def __init__(self, experiments: list[str] | None = None) -> None:
        self.experiments = experiments

    def plan(self, seed: int, n_ops: int | None = None) -> list[str]:
        ensure_registered()
        names = [experiment.name for experiment in list_experiments()]
        return names if self.experiments is None else [n for n in names if n in self.experiments]

    def open(self, workdir: str) -> Engine:
        return Engine(cache_dir=_fresh_dir(workdir, "paper-cache-"))

    def run_op(self, engine: Engine, op: str) -> Any:
        return engine.run(op)

    def close(self, engine: Engine) -> None:
        engine.close()

    def expected_hash(self, op: str, result: Any) -> str | None:
        with open(MANIFEST) as handle:
            return json.load(handle).get(op)


class _Service:
    """The service fixtures: queue, shared store, HTTP server thread, client."""

    def __init__(self, workdir: str) -> None:
        from repro.dist import SharedStore
        from repro.service import ServiceClient, make_server

        queue_dir = _fresh_dir(workdir, "queue-")
        self.store = SharedStore(_fresh_dir(workdir, "store-"))
        self.server = make_server(queue_dir, port=0)
        self.queue = self.server.queue
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self.thread.start()
        self.client = ServiceClient(self.server.url)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join()


class ServiceJobs:
    name = "service_jobs"
    pass_is_op = False
    ops_per_second = 14.0
    points_per_sweep = 20
    # Campaign jobs: a surrogate search for the best growth window over a
    # 24-temperature x 2-catalyst pool, at a seeded growth duration so that
    # no two campaigns share a point and each one executes its whole budget.
    campaign_pool = SweepSpec.grid(
        temperatures_c=[(200.0 + 25.0 * i,) for i in range(24)], catalyst=["Fe", "Co"]
    )
    campaign_budget = 24
    campaign_batch = 8

    def plan(self, seed: int, n_ops: int) -> list[dict[str, Any]]:
        rng = random.Random(seed)
        source = PointSource(rng)
        kinds: list[str] = []
        while len(kinds) < n_ops:
            block = ["sweep", "sweep", "sweep", "campaign"]
            rng.shuffle(block)
            kinds.extend(block)
        ops = []
        for kind in kinds[:n_ops]:
            if kind == "sweep":
                name, points = source.sweep(self.points_per_sweep)
                ops.append({"kind": kind, "experiment": name, "points": points})
            else:
                ops.append({
                    "kind": kind,
                    "experiment": "growth_window",
                    "params": {"duration_s": round(rng.uniform(60.0, 3600.0), 2)},
                    "seed": rng.randrange(10**6),
                })
        return ops

    def open(self, workdir: str) -> _Service:
        return _Service(workdir)

    def run_op(self, service: _Service, op: dict[str, Any]) -> Any:
        from repro.service import JOB_DONE, serve_queue

        client = service.client
        if op["kind"] == "sweep":
            job_id = client.submit_sweep(op["experiment"], SweepSpec.from_points(op["points"]))
        else:
            job_id = client.submit_campaign(
                op["experiment"], self.campaign_pool, "quality", mode="max",
                batch=self.campaign_batch, budget=self.campaign_budget,
                strategy="surrogate", seed=op["seed"], params=op["params"],
            )
        serve_queue(service.queue, service.store, drain=True, max_jobs=1)
        status = client.status(job_id)
        if status["state"] != JOB_DONE:
            raise RuntimeError(f"job {job_id} ended {status['state']}: {status.get('error')}")
        return client.fetch_results(job_id)

    def close(self, service: _Service) -> None:
        service.close()

    def expected_hash(self, op: dict[str, Any], result: Any) -> str:
        # The job's own sweep descriptor (the visited points, for a
        # campaign) recomputed without any store.
        spec = SweepSpec.from_meta(result.meta["sweep"])
        fresh = Engine().sweep(op["experiment"], spec, base_params=op.get("params"))
        return content_hash(fresh.to_records())


WORKLOADS = {cls.name: cls for cls in (Paper, ServiceJobs)}
