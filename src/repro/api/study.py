"""Composable study pipelines: dependency DAGs over registered experiments.

The paper's workloads are not independent -- process variability feeds device
resistance, which feeds circuit delay, which feeds the composite trade-off.
:class:`~repro.api.experiment.Experiment` models each link with a
``consumes=`` declaration; this module turns those declarations into
executable pipelines:

* :func:`resolve_pipeline` walks the ``consumes`` graph from a target
  experiment, validates it (registered upstreams, consistent parameter
  bindings, no cycles) and returns a :class:`Pipeline` whose stages are in
  topological (upstream-first) order;
* :class:`Study` is a *named, registered* composite run: a target experiment,
  per-stage parameter overrides, and an optional default
  :class:`~repro.api.sweep.SweepSpec` over the target's parameters.  Studies
  are registered with :func:`register_study` (done in
  :mod:`repro.analysis.studies`) and executed with ``Engine.run_study`` or
  ``python -m repro study run``.

Execution is staged: the engine runs each upstream stage's distinct
invocations first (through its usual serial/process executors), then
injects the resulting :class:`~repro.api.results.ResultSet`\\ s into the
downstream calls.  Cache keys chain through upstream *content hashes*, so
changing an upstream parameter invalidates exactly the dependent stages while
a downstream-only change replays every upstream stage from cache.

Quick start::

    from repro.api import Engine
    from repro.api.study import get_study, list_studies

    study = get_study("growth_to_wafer")
    print([stage.experiment.name for stage in study.resolve().stages])

    result = Engine().run_study(study)
    print(result.columns)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.api.experiment import (
    Consumes,
    Experiment,
    ExperimentError,
    PipelineError,
    _did_you_mean,
    ensure_registered,
    get_experiment,
)
from repro.api.sweep import SweepSpec


class StudyNotFoundError(ExperimentError, KeyError):
    """Raised when looking up a study name that is not registered."""

    # KeyError.__str__ repr-quotes the message; keep the plain text.
    __str__ = Exception.__str__


class DuplicateStudyError(ExperimentError, ValueError):
    """Raised when registering a study name twice without ``replace=True``."""


@dataclass(frozen=True)
class Stage:
    """One experiment of a resolved pipeline, with its stage-level overrides.

    ``depth`` is the stage's distance from the target along the longest
    dependency path (the target has depth 0); stages execute in increasing
    pipeline order, which is decreasing depth.
    """

    experiment: Experiment
    params: dict[str, Any] = field(default_factory=dict)
    depth: int = 0

    @property
    def name(self) -> str:
        return self.experiment.name

    @property
    def consumes(self) -> tuple[Consumes, ...]:
        return self.experiment.consumes


@dataclass(frozen=True)
class Pipeline:
    """A validated, topologically ordered dependency DAG of experiments.

    ``stages`` are in execution order: every upstream stage precedes the
    stages that consume it, and the last stage is the target.
    """

    target: str
    stages: tuple[Stage, ...]

    def stage(self, name: str) -> Stage:
        for candidate in self.stages:
            if candidate.name == name:
                return candidate
        raise KeyError(f"pipeline has no stage {name!r}; stages: {self.stage_names}")

    @property
    def stage_names(self) -> list[str]:
        """Experiment names in execution (upstream-first) order."""
        return [stage.name for stage in self.stages]

    def __iter__(self) -> Iterator[Stage]:
        return iter(self.stages)

    def __len__(self) -> int:
        return len(self.stages)

    def describe(self) -> str:
        """Multi-line human rendering of the DAG (what ``study describe`` prints)."""
        lines = []
        for stage in self.stages:
            marker = "*" if stage.name == self.target else " "
            lines.append(f"{marker} {stage.name} (depth {stage.depth})")
            for dep in stage.consumes:
                binds = ", ".join(
                    f"{up}<-{down}" for up, down in dep.bind.items()
                ) or "no bound params"
                lines.append(f"    <- {dep.experiment} as {dep.inject!r} ({binds})")
            if stage.params:
                overrides = ", ".join(f"{k}={v!r}" for k, v in stage.params.items())
                lines.append(f"    overrides: {overrides}")
        return "\n".join(lines)


def resolve_pipeline(
    target: str | Experiment,
    stage_params: Mapping[str, Mapping[str, Any]] | None = None,
) -> Pipeline:
    """Resolve a target experiment's ``consumes`` graph into a :class:`Pipeline`.

    Validates the whole DAG up front: every upstream name must be registered,
    every binding must name real parameters on both sides, and cycles are
    rejected.  ``stage_params`` carries per-experiment parameter overrides
    (a study's ``params``); overrides naming experiments outside the pipeline
    are rejected, so a typoed stage name cannot be silently ignored.
    """
    experiment = target if isinstance(target, Experiment) else get_experiment(target)
    overrides = {name: dict(params) for name, params in (stage_params or {}).items()}

    depths: dict[str, int] = {}
    resolved: dict[str, Experiment] = {}
    # upstream experiment -> {bound param: consumer experiment}; an override
    # of a bound param would be silently overwritten by the binding, so it
    # is rejected below instead of ignored.
    bound: dict[str, dict[str, str]] = {}

    def visit(exp: Experiment, depth: int, trail: tuple[str, ...]) -> None:
        if exp.name in trail:
            cycle = " -> ".join(trail[trail.index(exp.name):] + (exp.name,))
            raise PipelineError(f"dependency cycle: {cycle}")
        resolved[exp.name] = exp
        depths[exp.name] = max(depth, depths.get(exp.name, 0))
        for dep in exp.consumes:
            try:
                upstream = get_experiment(dep.experiment)
            except ExperimentError as error:
                raise PipelineError(
                    f"experiment {exp.name!r} consumes unregistered "
                    f"experiment {dep.experiment!r}: {error}"
                ) from None
            upstream_params = upstream.param_names
            for up_name in dep.bind:
                if up_name not in upstream_params:
                    raise PipelineError(
                        f"experiment {exp.name!r} binds to unknown upstream "
                        f"parameter {dep.experiment}.{up_name!r}; "
                        f"upstream declares: {upstream_params}"
                    )
                bound.setdefault(dep.experiment, {})[up_name] = exp.name
            visit(upstream, depth + 1, trail + (exp.name,))

    visit(experiment, 0, ())

    unknown = sorted(set(overrides) - set(resolved))
    if unknown:
        raise PipelineError(
            f"stage overrides name experiments outside the pipeline: {unknown}; "
            f"pipeline stages: {sorted(resolved)}"
        )
    for name, params in overrides.items():
        stage_exp = resolved[name]
        for key in params:
            stage_exp.spec(key)  # raises ParameterError on unknown names
            consumer = bound.get(name, {}).get(key)
            if consumer is not None:
                raise PipelineError(
                    f"parameter {name}.{key} is bound from {consumer!r} -- its "
                    "value always comes from the downstream parameter, so the "
                    "override would be silently ignored; override the "
                    f"corresponding parameter of {consumer!r} instead"
                )

    # Deepest stages first; ties broken by name for determinism.
    ordered = sorted(resolved.values(), key=lambda e: (-depths[e.name], e.name))
    stages = tuple(
        Stage(experiment=exp, params=overrides.get(exp.name, {}), depth=depths[exp.name])
        for exp in ordered
    )
    return Pipeline(target=experiment.name, stages=stages)


@dataclass(frozen=True)
class Study:
    """A named composite run: target experiment + stage overrides + sweep.

    Attributes
    ----------
    name:
        Unique study registry key (``"variability_to_delay"``).
    target:
        Registry name of the pipeline's final (downstream) experiment.
    description:
        One-line summary for ``python -m repro study list``.
    params:
        Per-stage parameter overrides, keyed by experiment name
        (``{"variability": {"n_devices": 200}}``).  Overrides for the target
        experiment live under its own name too.
    sweep:
        Optional default sweep over the *target's* parameters; ``study run``
        executes it (shardable with ``--shards``), and bound parameters
        propagate to the upstream stages point by point.
    tags:
        Free-form labels.
    """

    name: str
    target: str
    description: str = ""
    params: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    sweep: SweepSpec | None = None
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "params",
            {str(name): dict(values) for name, values in dict(self.params).items()},
        )
        object.__setattr__(self, "tags", tuple(self.tags))

    def resolve(self) -> Pipeline:
        """Resolve and validate the study's dependency pipeline."""
        return resolve_pipeline(self.target, self.params)

    def merged_params(
        self, overrides: Mapping[str, Mapping[str, Any]] | None = None
    ) -> dict[str, dict[str, Any]]:
        """The study's per-stage overrides with runtime ``overrides`` on top.

        Stage by stage, a runtime value wins over the study's own; stages
        only one side names are kept as they are.
        """
        merged = {name: dict(values) for name, values in self.params.items()}
        for name, values in (overrides or {}).items():
            merged.setdefault(name, {}).update(values)
        return merged

    def plan(
        self, overrides: Mapping[str, Mapping[str, Any]] | None = None
    ) -> tuple[dict[str, dict[str, Any]], dict[str, Any]]:
        """One run's merged per-stage params and its ``meta["study"]`` block.

        Resolving the pipeline with the *merged* overrides validates both the
        stage names and every override's parameter name up front, so a typo
        fails here instead of failing every sweep point downstream.
        :meth:`~repro.api.engine.Engine.run_study` takes a study's
        provenance from here.
        """
        merged = self.merged_params(overrides)
        pipeline = resolve_pipeline(self.target, merged)
        meta = {
            "name": self.name,
            "target": self.target,
            "stages": pipeline.stage_names,
            "stage_params": {k: v for k, v in merged.items() if v},
        }
        return merged, meta


# --- study registry ----------------------------------------------------------

_STUDIES: dict[str, Study] = {}


def register_study(
    name: str,
    target: str,
    *,
    description: str = "",
    params: Mapping[str, Mapping[str, Any]] | None = None,
    sweep: SweepSpec | None = None,
    tags: Sequence[str] = (),
    replace: bool = False,
) -> Study:
    """Register (and return) a named study.

    The target's pipeline is *not* resolved here -- experiments register in
    arbitrary order, so validation happens at :meth:`Study.resolve` time
    (``study describe`` / ``study run`` / the test suite all trigger it).
    """
    study = Study(
        name=name,
        target=target,
        description=description,
        params=params or {},
        sweep=sweep,
        tags=tuple(tags),
    )
    if name in _STUDIES and not replace:
        raise DuplicateStudyError(
            f"study {name!r} is already registered; pass replace=True to override"
        )
    _STUDIES[name] = study
    return study


def unregister_study(name: str) -> None:
    """Remove one study from the registry (mostly for tests)."""
    _STUDIES.pop(name, None)


def get_study(name: str) -> Study:
    """Look up a registered study, suggesting near-misses on error."""
    ensure_registered()
    try:
        return _STUDIES[name]
    except KeyError:
        raise StudyNotFoundError(
            f"no study {name!r}{_did_you_mean(name, _STUDIES)}; "
            f"registered: {sorted(_STUDIES)}"
        ) from None


def list_studies(tag: str | None = None) -> list[Study]:
    """All registered studies sorted by name, optionally tag-filtered."""
    ensure_registered()
    studies = sorted(_STUDIES.values(), key=lambda s: s.name)
    if tag is not None:
        studies = [s for s in studies if tag in s.tags]
    return studies
