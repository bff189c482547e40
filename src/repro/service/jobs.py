"""Job specs: the serialized unit of work a service client submits.

A *job* is one sweep or study execution request, written into a
:class:`~repro.service.queue.SpecQueue` as a JSON document and later claimed
by a daemon (:func:`repro.service.daemon.serve_queue`).  :class:`JobSpec` is
the typed form of that document:

* ``kind="sweep"``: fan a registered experiment out over a
  :class:`~repro.api.sweep.SweepSpec` (``params`` are the fixed base
  parameters under the sweep axes, ``stage_params`` optional per-stage
  overrides for composite experiments);
* ``kind="study"``: execute a registered :class:`~repro.api.study.Study`
  end to end -- with its default sweep, or an explicit ``sweep`` override,
  and ``stage_params`` merged over the study's own per-stage parameters;
* ``kind="campaign"``: run a closed-loop adaptive campaign
  (:class:`~repro.campaign.Campaign`) over the ``sweep`` candidate pool --
  the ``campaign`` settings mapping carries the objective column, min/max
  mode, batch size, budget, strategy name, seed and stopping rules (see
  ``docs/CAMPAIGNS.md``).

Job payloads arrive from *untrusted clients* (hand-written curl bodies, see
``docs/SERVICE.md``), so deserialisation is strict: :meth:`JobSpec.
from_payload` validates every field shape with a :class:`ValueError` naming
the bad field, and :meth:`JobSpec.validate` additionally resolves the job
against the experiment/study registry (unknown names, unknown sweep axes
and malformed stage overrides all fail *at submit time*, HTTP 400, instead
of poisoning a daemon later).

The executed results are bit-identical to a local run: a job carries only
names and parameters, and a daemon executes it on the store-backed
:class:`~repro.api.engine.Engine` -- so a result fetched through the
service API content-hash-matches the same sweep run serially.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.api.experiment import get_experiment
from repro.api.study import get_study, resolve_pipeline
from repro.api.sweep import SweepSpec

JOB_KINDS = ("sweep", "study", "campaign")

# Job lifecycle states, as reported by SpecQueue.status()/the HTTP API.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"
JOB_STATES = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED)

_PAYLOAD_FIELDS = {"kind", "name", "sweep", "params", "stage_params", "campaign"}

# The campaign-settings mapping of a kind="campaign" job, with defaults.
_CAMPAIGN_FIELDS = {
    "objective": None,  # required
    "mode": "min",
    "batch": 8,
    "budget": None,
    "strategy": "surrogate",
    "seed": 0,
    "target": None,
    "patience": None,
    "tolerance": 0.0,
}


def _checked_params(value: Any, label: str) -> dict[str, Any]:
    """A flat ``{param: value}`` mapping, or a ValueError naming ``label``."""
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ValueError(
            f"job field {label!r} must be a mapping of parameter name to "
            f"value, got {type(value).__name__}"
        )
    return {str(key): cell for key, cell in value.items()}


def _checked_stage_params(value: Any) -> dict[str, dict[str, Any]]:
    if value is None:
        return {}
    if not isinstance(value, Mapping):
        raise ValueError(
            "job field 'stage_params' must be a mapping of stage name to "
            f"parameter mapping, got {type(value).__name__}"
        )
    return {
        str(stage): _checked_params(overrides, f"stage_params[{str(stage)!r}]")
        for stage, overrides in value.items()
    }


def _checked_campaign(value: Any) -> dict[str, Any]:
    """Validate a campaign-settings mapping; defaults applied, fields typed."""
    if not isinstance(value, Mapping):
        raise ValueError(
            "job field 'campaign' must be a mapping of campaign settings, "
            f"got {type(value).__name__}"
        )
    unknown = sorted(set(map(str, value)) - set(_CAMPAIGN_FIELDS))
    if unknown:
        raise ValueError(
            f"job field 'campaign' has unknown settings {unknown}; "
            f"allowed: {sorted(_CAMPAIGN_FIELDS)}"
        )
    settings = {**_CAMPAIGN_FIELDS, **{str(k): v for k, v in value.items()}}
    objective = settings["objective"]
    if not isinstance(objective, str) or not objective:
        raise ValueError(
            "campaign setting 'objective' must be a non-empty column name, "
            f"got {objective!r}"
        )
    if settings["mode"] not in ("min", "max"):
        raise ValueError(
            f"campaign setting 'mode' must be 'min' or 'max', "
            f"got {settings['mode']!r}"
        )
    from repro.campaign.strategies import STRATEGIES

    if settings["strategy"] not in STRATEGIES:
        raise ValueError(
            f"campaign setting 'strategy' must be one of {sorted(STRATEGIES)}, "
            f"got {settings['strategy']!r}"
        )
    for name, minimum in (("batch", 1), ("budget", 1), ("patience", 1), ("seed", None)):
        cell = settings[name]
        if cell is None and name != "batch" and name != "seed":
            continue
        if not isinstance(cell, int) or isinstance(cell, bool):
            raise ValueError(
                f"campaign setting {name!r} must be an integer, got {cell!r}"
            )
        if minimum is not None and cell < minimum:
            raise ValueError(
                f"campaign setting {name!r} must be >= {minimum}, got {cell}"
            )
    for name in ("target", "tolerance"):
        cell = settings[name]
        if cell is None and name == "target":
            continue
        if not isinstance(cell, (int, float)) or isinstance(cell, bool):
            raise ValueError(
                f"campaign setting {name!r} must be a number, got {cell!r}"
            )
    if settings["tolerance"] < 0:
        raise ValueError(
            f"campaign setting 'tolerance' must be >= 0, got {settings['tolerance']}"
        )
    return settings


@dataclass(frozen=True)
class JobSpec:
    """One submitted unit of service work: a sweep or a study execution.

    Attributes
    ----------
    kind:
        ``"sweep"`` or ``"study"``.
    name:
        Registered experiment name (sweep jobs) or study name (study jobs).
    sweep:
        The sweep to expand.  Required for sweep jobs; optional for study
        jobs (``None`` falls back to the study's default sweep, or a single
        invocation when the study declares none).
    params:
        Fixed base parameters under the sweep axes (sweep jobs only --
        study-stage overrides belong in ``stage_params``).
    stage_params:
        Per-experiment parameter overrides for pipeline stages, keyed by
        experiment name (the :class:`~repro.api.study.Study` ``params``
        shape).
    campaign:
        Campaign settings for ``kind="campaign"`` jobs (objective, mode,
        batch, budget, strategy, seed, target, patience, tolerance); the
        job's ``sweep`` is then the campaign's candidate pool.
    """

    kind: str
    name: str
    sweep: SweepSpec | None = None
    params: Mapping[str, Any] = field(default_factory=dict)
    stage_params: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    campaign: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.kind not in JOB_KINDS:
            raise ValueError(
                f"job field 'kind' must be one of {JOB_KINDS}, got {self.kind!r}"
            )
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(
                f"job field 'name' must be a non-empty string, got {self.name!r}"
            )
        if self.sweep is not None and not isinstance(self.sweep, SweepSpec):
            raise ValueError(
                f"job field 'sweep' must be a SweepSpec or None, got {self.sweep!r}"
            )
        if self.kind == "sweep" and self.sweep is None:
            raise ValueError(
                "a sweep job needs a 'sweep' descriptor (a single invocation "
                "is a one-point sweep)"
            )
        object.__setattr__(self, "params", _checked_params(self.params, "params"))
        object.__setattr__(self, "stage_params", _checked_stage_params(self.stage_params))
        if self.kind == "study" and self.params:
            raise ValueError(
                "study jobs take per-stage overrides in 'stage_params' "
                "(keyed by experiment name), not flat 'params'"
            )
        if self.kind == "campaign":
            if self.sweep is None:
                raise ValueError(
                    "a campaign job needs a 'sweep' descriptor for its "
                    "candidate pool"
                )
            if self.campaign is None:
                raise ValueError(
                    "a campaign job needs a 'campaign' settings mapping "
                    "(at least {'objective': <column>})"
                )
            object.__setattr__(self, "campaign", _checked_campaign(self.campaign))
        elif self.campaign is not None:
            raise ValueError(
                f"job field 'campaign' only applies to campaign jobs, "
                f"not kind {self.kind!r}"
            )

    # --- registry validation ----------------------------------------------

    def validate(self) -> "JobSpec":
        """Resolve the job against the registry; raises on anything unknown.

        The submit-time gate: an unregistered experiment/study, a sweep axis
        or base parameter the experiment does not declare, or stage
        overrides naming stages outside the pipeline all raise here
        (:class:`~repro.api.experiment.ExperimentError` subclasses or
        :class:`ValueError`), so the HTTP server can reject the job with a
        clear 400 instead of leaving a daemon to fail it later.  Returns
        ``self`` for chaining.
        """
        if self.kind in ("sweep", "campaign"):
            experiment = get_experiment(self.name)
            for axis in self.sweep.axis_names:
                experiment.spec(axis)  # raises ParameterError on unknown axes
            for key in self.params:
                experiment.spec(key)
            if self.stage_params:
                resolve_pipeline(experiment, self.stage_params)
        else:
            study = get_study(self.name)
            if self.sweep is not None:
                target = get_experiment(study.target)
                for axis in self.sweep.axis_names:
                    target.spec(axis)
            resolve_pipeline(study.target, study.merged_params(self.stage_params))
        return self

    # --- serialisation ----------------------------------------------------

    def to_payload(self) -> dict[str, Any]:
        """The JSON document written into the queue (see :meth:`from_payload`)."""
        payload = {
            "kind": self.kind,
            "name": self.name,
            "sweep": None if self.sweep is None else self.sweep.to_meta(),
            "params": dict(self.params),
            "stage_params": {
                name: dict(values) for name, values in self.stage_params.items()
            },
        }
        if self.campaign is not None:
            payload["campaign"] = dict(self.campaign)
        return payload

    @classmethod
    def from_payload(cls, payload: Any) -> "JobSpec":
        """Rebuild a spec from a queue document, strictly validated.

        Every malformed shape raises a :class:`ValueError` naming the bad
        field; the sweep descriptor goes through the hardened
        :meth:`SweepSpec.from_meta`.
        """
        if not isinstance(payload, Mapping):
            raise ValueError(
                f"job spec must be a JSON object, got {type(payload).__name__}"
            )
        unknown = sorted(set(map(str, payload)) - _PAYLOAD_FIELDS)
        if unknown:
            raise ValueError(
                f"job spec has unknown fields {unknown}; "
                f"allowed: {sorted(_PAYLOAD_FIELDS)}"
            )
        missing = sorted({"kind", "name"} - set(payload))
        if missing:
            raise ValueError(f"job spec is missing required fields {missing}")
        raw_sweep = payload.get("sweep")
        sweep = None if raw_sweep is None else SweepSpec.from_meta(raw_sweep)
        return cls(
            kind=payload["kind"],
            name=payload["name"],
            sweep=sweep,
            params=payload.get("params"),
            stage_params=payload.get("stage_params"),
            campaign=payload.get("campaign"),
        )

    def describe(self) -> str:
        """One-line human summary (daemon logs and ``repro status``)."""
        sweep = "-" if self.sweep is None else f"{self.sweep.mode}[{len(self.sweep)}]"
        if self.kind == "campaign" and self.campaign is not None:
            return (
                f"campaign {self.name} pool={sweep} "
                f"{self.campaign['mode']}({self.campaign['objective']}) "
                f"[{self.campaign['strategy']}]"
            )
        return f"{self.kind} {self.name} sweep={sweep}"
