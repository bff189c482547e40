"""The closed-loop campaign runner: propose -> execute -> ingest -> repeat.

A :class:`Campaign` drives a :class:`~repro.campaign.strategies.Strategy`
over a finite candidate pool (a grid/zip/points
:class:`~repro.api.sweep.SweepSpec`), executing each proposed batch through
the standard engine machinery:

* every batch becomes a ``mode="points"`` SweepSpec, so batch execution IS
  ``Engine.sweep`` -- caching, provenance tagging, tracing and failure
  semantics are exactly those of a declared sweep;
* the engine's store makes re-proposed or replayed points free (a rerun of
  a finished campaign with the same seed executes **zero** new points and
  reproduces the same content hashes);
* an engine built with ``executor="process"`` forks children for each
  batch (the engine's one fan-out) -- bit-identical to the serial batch;
* the history the strategy sees is assembled from the points the batches
  returned (:func:`~repro.api.engine.assemble_sweep`, the assembly of
  ``Engine.sweep``); the store is replayed only when a campaign resumes
  from a checkpoint.

The campaign checkpoints its full decision state (strategy rng state,
visited points, round counter, history content-hash, pending batch) to a
JSON file before and after every batch, so a killed campaign resumes
*exactly*: the interrupted batch re-runs from cache and the strategy's rng
continues from the captured state, producing the same proposal sequence the
uninterrupted campaign would have.

Stopping rules (all optional, first to fire wins):

``budget``     hard cap on visited points (defaults to the pool size);
``target``     stop once the objective meets a declared value;
``patience``   stop after N rounds without improvement beyond ``tolerance``;
``exhausted``  the pool ran out (always on).

Observability: each round runs under a ``campaign.round`` span with a
nested ``campaign.propose`` span, and the counters
``repro_campaign_points_proposed_total`` /
``repro_campaign_points_ingested_total`` /
``repro_campaign_rounds_total`` (labelled by experiment and strategy)
feed the standard :mod:`repro.obs.metrics` registry.
"""

from __future__ import annotations

import json
import os
from typing import Any, Mapping

from repro.api.engine import Engine, SweepPoint, assemble_sweep
from repro.api.experiment import get_experiment
from repro.api.results import ResultSet
from repro.api.sweep import SweepSpec
from repro.campaign.report import CampaignReport
from repro.campaign.strategies import Strategy, make_strategy
from repro.obs import metrics
from repro.obs.trace import trace_span

__all__ = ["Campaign", "CampaignError", "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 1


class CampaignError(ValueError):
    """A campaign-level failure (bad config, checkpoint mismatch, ...).

    A :class:`ValueError` subclass so CLI error mapping treats it as a
    user-input rejection (exit code 2)."""


class Campaign:
    """One adaptive optimisation campaign over an experiment's pool.

    Parameters mirror the CLI (``repro campaign run``):

    experiment:
        Registered experiment name to optimise.
    space:
        The candidate pool as a :class:`SweepSpec` (its expansion is the
        set of points the strategy may propose).
    objective:
        Output column the campaign extremises.
    mode:
        ``"min"`` or ``"max"``.
    strategy:
        A :class:`Strategy` instance, or a registered strategy name
        (``random``, ``lhs``, ``refine``, ``surrogate``); names are
        instantiated with this campaign's space/objective/mode/seed.
    batch_size / budget:
        Points per round, and the hard cap on visited points (default:
        the whole pool).
    seed:
        Seeds the strategy rng; same seed => same proposal sequence.
    target / patience / tolerance:
        Optional stopping rules (see module docstring).
    checkpoint_path:
        JSON file for resumable state; if it exists the campaign resumes
        from it (and raises :class:`CampaignError` if it belongs to a
        different campaign configuration).
    engine / store / cache_dir:
        Pass a configured :class:`Engine` (``executor="process"`` runs each
        batch in forked children), or let the campaign build a serial one
        over ``store``/``cache_dir``.
    """

    def __init__(
        self,
        experiment: str,
        space: SweepSpec,
        objective: str,
        *,
        mode: str = "min",
        strategy: "Strategy | str" = "surrogate",
        batch_size: int = 8,
        budget: int | None = None,
        seed: int = 0,
        base_params: Mapping[str, Any] | None = None,
        stage_params: Mapping[str, Mapping[str, Any]] | None = None,
        target: float | None = None,
        patience: int | None = None,
        tolerance: float = 0.0,
        checkpoint_path: str | None = None,
        engine: Engine | None = None,
        store: Any = None,
        cache_dir: str | None = None,
    ) -> None:
        if mode not in ("min", "max"):
            raise CampaignError(f"unknown mode {mode!r}; use 'min' or 'max'")
        if batch_size < 1:
            raise CampaignError(f"batch_size must be >= 1, got {batch_size}")
        if patience is not None and patience < 1:
            raise CampaignError(f"patience must be >= 1, got {patience}")
        if tolerance < 0:
            raise CampaignError(f"tolerance must be >= 0, got {tolerance}")

        self.experiment = experiment
        self.space = space
        self.objective = objective
        self.mode = mode
        self.batch_size = batch_size
        self.pool_size = len(space)
        self.budget = self.pool_size if budget is None else budget
        if self.budget < 1:
            raise CampaignError(f"budget must be >= 1, got {self.budget}")
        self.budget = min(self.budget, self.pool_size)
        self.seed = seed
        self.base_params = dict(base_params or {})
        self.stage_params = (
            {k: dict(v) for k, v in stage_params.items()} if stage_params else None
        )
        self.target = target
        self.patience = patience
        self.tolerance = tolerance
        self.checkpoint_path = checkpoint_path

        if engine is None:
            engine = Engine(store=store, cache_dir=cache_dir)
        elif store is not None or cache_dir is not None:
            raise CampaignError("pass either engine or store/cache_dir, not both")
        self.engine = engine

        if isinstance(strategy, str):
            strategy = make_strategy(
                strategy, space, objective, mode=mode, seed=seed
            )
        self.strategy = strategy
        self.strategy_name = getattr(strategy, "name", type(strategy).__name__)

        # Mutable run state (reset/restored by run()).
        self._visited: list[dict[str, Any]] = []
        # The executed point of each visited entry, in visit order: the
        # history is assembled from these instead of replayed from the store.
        self._points: list[SweepPoint] = []
        self._pending: list[dict[str, Any]] | None = None
        self._round = 0
        self._n_executed = 0
        self._trajectory: list[dict[str, Any]] = []
        self._best_value: float | None = None
        self._best_point: dict[str, Any] | None = None
        self._stall_rounds = 0

    # --- config identity (checkpoint validation) --------------------------

    def _config(self) -> dict[str, Any]:
        return {
            "experiment": self.experiment,
            "space": self.space.to_meta(),
            "objective": self.objective,
            "mode": self.mode,
            "strategy": self.strategy_name,
            "batch_size": self.batch_size,
            "budget": self.budget,
            "seed": self.seed,
            "base_params": self.base_params,
            "target": self.target,
            "patience": self.patience,
            "tolerance": self.tolerance,
        }

    # --- checkpointing ----------------------------------------------------

    def _checkpoint(self, phase: str, history: ResultSet | None) -> None:
        if self.checkpoint_path is None:
            return
        state = self.strategy.rng.getstate()
        document = {
            "version": CHECKPOINT_VERSION,
            "config": self._config(),
            "phase": phase,
            "round": self._round,
            "rng_state": [state[0], list(state[1]), state[2]],
            "visited": [dict(p) for p in self._visited],
            "pending": (
                None if self._pending is None else [dict(p) for p in self._pending]
            ),
            "history_hash": None if history is None else history.content_hash,
            "n_executed": self._n_executed,
            "best": (
                None
                if self._best_value is None
                else {"point": self._best_point, "value": self._best_value}
            ),
            "stall_rounds": self._stall_rounds,
            "trajectory": list(self._trajectory),
        }
        tmp = f"{self.checkpoint_path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.checkpoint_path)

    def _load_checkpoint(self) -> dict[str, Any] | None:
        if self.checkpoint_path is None or not os.path.exists(self.checkpoint_path):
            return None
        with open(self.checkpoint_path, encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except ValueError as error:
                raise CampaignError(
                    f"checkpoint {self.checkpoint_path!r} is not valid JSON: "
                    f"{error}"
                )
        if document.get("version") != CHECKPOINT_VERSION:
            raise CampaignError(
                f"checkpoint {self.checkpoint_path!r} has version "
                f"{document.get('version')!r}; this runner writes "
                f"{CHECKPOINT_VERSION}"
            )
        theirs = json.dumps(document.get("config"), sort_keys=True, default=str)
        ours = json.dumps(self._config(), sort_keys=True, default=str)
        if theirs != ours:
            raise CampaignError(
                f"checkpoint {self.checkpoint_path!r} belongs to a different "
                "campaign configuration; delete it or match the original "
                "arguments"
            )
        return document

    def _restore(self, document: Mapping[str, Any]) -> None:
        state = document["rng_state"]
        self.strategy.rng.setstate((state[0], tuple(state[1]), state[2]))
        self._visited = [dict(p) for p in document["visited"]]
        pending = document.get("pending")
        # An "ingested" checkpoint carries no live batch even if the field
        # survived; only a "proposed" phase leaves work to re-run.
        self._pending = (
            [dict(p) for p in pending]
            if pending and document.get("phase") == "proposed"
            else None
        )
        self._round = int(document["round"])
        self._n_executed = int(document.get("n_executed", 0))
        self._stall_rounds = int(document.get("stall_rounds", 0))
        self._trajectory = [dict(t) for t in document.get("trajectory", [])]
        best = document.get("best")
        if best:
            self._best_value = best["value"]
            self._best_point = best["point"]

    # --- execution --------------------------------------------------------

    def _execute_batch(self, batch: list[dict[str, Any]]) -> list[SweepPoint]:
        """Run one proposed batch through the engine; returns its points in
        batch order (cache hits included, flagged ``cache_hit``)."""
        spec = SweepSpec.from_points(batch)
        landed: dict[int, SweepPoint] = {}

        def keep(sweep_point: SweepPoint) -> None:
            landed[sweep_point.index] = sweep_point

        self.engine.sweep(
            self.experiment,
            spec,
            base_params=self.base_params,
            on_result=keep,
            stage_params=self.stage_params,
        )
        return [landed[index] for index in sorted(landed)]

    def _assemble(self) -> ResultSet:
        """The full history over every visited point, in visit order.

        Built from the points the batches already returned, through the
        engine's own assembly, so it is the exact ResultSet a serial
        points-sweep over the visited sequence would produce.
        """
        return assemble_sweep(
            get_experiment(self.experiment),
            SweepSpec.from_points(self._visited),
            self._points,
            self.base_params,
            None,
            self.engine.executor,
        )

    # --- bookkeeping ------------------------------------------------------

    def _ingest(self, history: ResultSet) -> None:
        """Update incumbent/trajectory/stall counters from a fresh history."""
        if self.objective not in history.columns:
            raise CampaignError(
                f"objective column {self.objective!r} is not in "
                f"{self.experiment!r} output; available: {history.columns}"
            )
        record = history.best(self.objective, mode=self.mode)
        value = float(record[self.objective])
        improved = self._best_value is None or (
            value < self._best_value - self.tolerance
            if self.mode == "min"
            else value > self._best_value + self.tolerance
        )
        if improved:
            self._best_value = value
            self._best_point = self._point_of(record)
            self._stall_rounds = 0
        else:
            self._stall_rounds += 1
        self._trajectory.append(
            {
                "round": self._round,
                "n_visited": len(self._visited),
                "n_executed": self._n_executed,
                "best_value": self._best_value,
                "best_point": self._best_point,
            }
        )

    def _point_of(self, record: Mapping[str, Any]) -> dict[str, Any]:
        """Recover the sweep-point dict from a tagged record (the engine
        stores a colliding axis under ``param_<axis>``)."""
        point: dict[str, Any] = {}
        for name in self.space.axis_names:
            prefixed = f"param_{name}"
            point[name] = record[prefixed] if prefixed in record else record.get(name)
        return point

    def _met_target(self) -> bool:
        if self.target is None or self._best_value is None:
            return False
        if self.mode == "min":
            return self._best_value <= self.target
        return self._best_value >= self.target

    def _stop_reason(self, pool_empty: bool) -> str | None:
        if self._met_target():
            return "target"
        if len(self._visited) >= self.budget:
            return "budget"
        if self.patience is not None and self._stall_rounds >= self.patience:
            return "stalled"
        if pool_empty:
            return "exhausted"
        return None

    # --- the loop ---------------------------------------------------------

    def run(self, on_round: Any = None) -> CampaignReport:
        """Drive the campaign to a stopping rule; returns the report.

        Safe to call on a fresh runner pointing at an existing checkpoint:
        state restores exactly and the interrupted batch (if any) replays
        from the store.  ``on_round(n_visited, budget)`` fires after each
        ingest (the service daemon maps it onto job progress).
        """
        document = self._load_checkpoint()
        history: ResultSet | None = None
        if document is not None:
            self._restore(document)
            if self._visited:
                # A resume replays the visited points (a store-backed engine
                # serves them all) into the history later rounds extend.
                self._points = self._execute_batch(self._visited)
                history = self._assemble()
                expected = document.get("history_hash")
                if expected is not None and history.content_hash != expected:
                    raise CampaignError(
                        "checkpoint history hash does not match the "
                        "reassembled results; the store diverged from the "
                        "campaign that wrote the checkpoint"
                    )
        if history is None:
            history = ResultSet.from_records([])

        labels = {"experiment": self.experiment, "strategy": self.strategy_name}
        stop_reason: str | None = self._stop_reason(pool_empty=False)

        while stop_reason is None:
            with trace_span(
                "campaign.round",
                experiment=self.experiment,
                strategy=self.strategy_name,
                round=self._round,
                n_visited=len(self._visited),
            ) as round_span:
                if self._pending is None:
                    room = self.budget - len(self._visited)
                    with trace_span(
                        "campaign.propose", strategy=self.strategy_name
                    ) as span:
                        batch = self.strategy.propose(
                            history, min(self.batch_size, room)
                        )
                        span.set("n_proposed", len(batch))
                    if not batch:
                        stop_reason = self._stop_reason(pool_empty=True)
                        break
                    metrics.counter(
                        "repro_campaign_points_proposed_total", **labels
                    ).inc(len(batch))
                    self._pending = batch
                    self._checkpoint("proposed", history)

                points = self._execute_batch(self._pending)
                self._n_executed += sum(not point.cache_hit for point in points)
                self._points.extend(points)
                self._visited.extend(self._pending)
                n_batch = len(self._pending)
                self._pending = None
                self._round += 1
                history = self._assemble()
                self._ingest(history)
                metrics.counter(
                    "repro_campaign_points_ingested_total", **labels
                ).inc(n_batch)
                metrics.counter("repro_campaign_rounds_total", **labels).inc()
                round_span.set("best_value", self._best_value)
                self._checkpoint("ingested", history)
                if on_round is not None:
                    on_round(len(self._visited), self.budget)
                stop_reason = self._stop_reason(pool_empty=False)

        if stop_reason is None:  # pool drained via empty proposal
            stop_reason = "exhausted"

        report = CampaignReport(
            experiment=self.experiment,
            objective=self.objective,
            mode=self.mode,
            strategy=self.strategy_name,
            seed=self.seed,
            batch_size=self.batch_size,
            budget=self.budget,
            pool_size=self.pool_size,
            rounds=self._round,
            n_visited=len(self._visited),
            n_executed=self._n_executed,
            stop_reason=stop_reason,
            best_point=self._best_point,
            best_value=self._best_value,
            trajectory=list(self._trajectory),
            result=history if len(history) else None,
        )
        if report.result is not None:
            report.result.meta["campaign"] = report.to_dict()
        return report
