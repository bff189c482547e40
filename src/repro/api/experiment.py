"""Experiment abstraction and global registry.

An :class:`Experiment` wraps one reproducible computation of the paper --
a figure panel, a table, or an extension study -- behind a uniform contract:

* a unique registry name (``"fig9"``, ``"table_ampacity"``, ...),
* typed, JSON-serialisable parameters described by :class:`ParamSpec`
  (so sweeps, caching and the CLI can manipulate them generically),
* a typed output schema described by :class:`OutputSpec` (optional but
  recommended: declared outputs are validated on every run and documented in
  the generated catalog),
* optional upstream dependencies described by :class:`Consumes`: a composite
  experiment declares *which* other experiments produce its input artifacts
  and how its own parameters bind to theirs.  The engine resolves the
  resulting DAG, runs upstream stages first and injects their
  :class:`~repro.api.results.ResultSet`\\ s into the experiment function as
  keyword arguments (see :mod:`repro.api.study`),
* a callable returning a list of records (dicts of scalars).

Experiments are registered with the :func:`register_experiment` decorator and
looked up by name via :func:`get_experiment` / :func:`list_experiments`.
Registering all of the paper's drivers happens in
:mod:`repro.analysis.experiments`, which :func:`ensure_registered` imports on
demand so that engines always see a populated registry.  Registration
imports no physics: each experiment function imports its solvers when it
runs.
"""

from __future__ import annotations

import difflib
import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence


class ExperimentError(Exception):
    """Base class for registry and parameter errors."""


class ExperimentNotFoundError(ExperimentError, KeyError):
    """Raised when looking up a name that is not registered."""

    # KeyError.__str__ repr-quotes the message; keep the plain text.
    __str__ = Exception.__str__


class DuplicateExperimentError(ExperimentError, ValueError):
    """Raised when registering a name twice without ``replace=True``."""


class ParameterError(ExperimentError, ValueError):
    """Raised for unknown parameter names or un-coercible values."""


class OutputSchemaError(ExperimentError, TypeError):
    """Raised when an experiment's records violate its declared output schema."""


class PipelineError(ExperimentError, RuntimeError):
    """Raised for dependency-contract violations (missing inputs, cycles, ...)."""


def suggest_names(name: str, known: Sequence[str], n: int = 3) -> list[str]:
    """Closest registered names to a mistyped one (for error messages)."""
    return difflib.get_close_matches(name, list(known), n=n, cutoff=0.5)


def _did_you_mean(name: str, known: Sequence[str]) -> str:
    """`` (did you mean: a, b?)`` suffix, or ``""`` when nothing is close."""
    close = suggest_names(name, known)
    return f" (did you mean: {', '.join(close)}?)" if close else ""


_COERCERS: dict[str, Callable[[Any], Any]] = {
    "float": float,
    "int": int,
    "str": str,
}


def _coerce_bool(value: Any) -> bool:
    if isinstance(value, bool):
        return value
    if isinstance(value, str):
        lowered = value.strip().lower()
        if lowered in ("true", "1", "yes", "on"):
            return True
        if lowered in ("false", "0", "no", "off"):
            return False
        raise ValueError(f"not a boolean: {value!r}")
    return bool(value)


def _coerce_sequence(value: Any, item: Callable[[Any], Any]) -> tuple:
    if isinstance(value, str):
        parts = [p for p in value.split(",") if p.strip() != ""]
        return tuple(item(p.strip()) for p in parts)
    if hasattr(value, "__iter__"):
        return tuple(item(v) for v in value)
    return (item(value),)


@dataclass(frozen=True)
class ParamSpec:
    """Typed description of one experiment parameter.

    Attributes
    ----------
    name:
        Parameter name (must match a keyword of the experiment function).
    kind:
        One of ``float``, ``int``, ``bool``, ``str``, ``floats``, ``ints``,
        ``strs`` (the plural kinds are homogeneous tuples and accept
        comma-separated strings from the CLI).
    default:
        Default value; ``None`` means the parameter is required.
    help:
        One-line description shown by ``python -m repro describe``.
    choices:
        Optional closed set of allowed values (after coercion).
    """

    name: str
    kind: str = "float"
    default: Any = None
    help: str = ""
    choices: tuple | None = None

    _KINDS = ("float", "int", "bool", "str", "floats", "ints", "strs")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown param kind {self.kind!r}; use one of {self._KINDS}")

    def coerce(self, value: Any) -> Any:
        """Coerce a raw (possibly CLI string) value to the declared kind."""
        try:
            if self.kind == "bool":
                result: Any = _coerce_bool(value)
            elif self.kind == "floats":
                result = _coerce_sequence(value, float)
            elif self.kind == "ints":
                result = _coerce_sequence(value, int)
            elif self.kind == "strs":
                result = _coerce_sequence(value, str)
            else:
                result = _COERCERS[self.kind](value)
        except (TypeError, ValueError) as error:
            raise ParameterError(
                f"parameter {self.name!r} expects kind {self.kind!r}, "
                f"got {value!r} ({error})"
            ) from None
        if self.choices is not None and result not in self.choices:
            raise ParameterError(
                f"parameter {self.name!r} must be one of {self.choices}, got {result!r}"
            )
        return result


_OUTPUT_KINDS: dict[str, tuple[type, ...]] = {
    "float": (float, int),
    "int": (int,),
    "bool": (bool,),
    "str": (str,),
}


@dataclass(frozen=True)
class OutputSpec:
    """Typed description of one output column of an experiment's records.

    Declared outputs make a :class:`~repro.api.results.ResultSet` a *typed
    artifact*: every record of every run is checked to carry the declared
    columns with cells of the declared kind (records may carry extra,
    undeclared columns -- the schema is a floor, not a ceiling).  Downstream
    experiments that :class:`Consumes` the artifact can rely on the columns
    being present.

    Attributes
    ----------
    name:
        Column name in the produced records.
    kind:
        One of ``float``, ``int``, ``bool``, ``str`` (``float`` accepts
        integer cells; booleans are never accepted as numbers).
    help:
        One-line description shown by ``describe`` and the catalog.
    """

    name: str
    kind: str = "float"
    help: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _OUTPUT_KINDS:
            raise ValueError(
                f"unknown output kind {self.kind!r}; use one of {tuple(_OUTPUT_KINDS)}"
            )

    def check(self, value: Any) -> bool:
        """Whether one cell value conforms to the declared kind."""
        if isinstance(value, bool):
            return self.kind == "bool"
        return isinstance(value, _OUTPUT_KINDS[self.kind])


@dataclass(frozen=True)
class Consumes:
    """One upstream dependency of a composite experiment.

    ``Consumes("variability", inject="variability_result",
    bind={"length_um": "length_um"})`` declares: before this experiment runs,
    run the registered experiment ``"variability"`` and pass its
    :class:`~repro.api.results.ResultSet` to this experiment's function as the
    keyword argument ``variability_result``.  ``bind`` forwards parameter
    values *downstream -> upstream*: the upstream parameter named by each key
    is set to this experiment's resolved value of the parameter named by the
    corresponding value, so sweeping the downstream parameter sweeps the
    upstream invocation with it.  Unbound upstream parameters use their
    defaults (overridable per stage through a
    :class:`~repro.api.study.Study`'s ``params``).

    Attributes
    ----------
    experiment:
        Upstream registry name (resolved lazily, so registration order does
        not matter).
    inject:
        Keyword under which the upstream ResultSet is passed to the
        experiment function.  Must not collide with a declared parameter.
    bind:
        Mapping of ``upstream parameter name -> this experiment's parameter
        name`` (both sides validated when the pipeline is resolved).
    """

    experiment: str
    inject: str
    bind: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.experiment:
            raise ValueError("Consumes needs an upstream experiment name")
        if not self.inject.isidentifier():
            raise ValueError(
                f"inject name {self.inject!r} must be a valid Python identifier"
            )
        object.__setattr__(self, "bind", dict(self.bind))


@dataclass(frozen=True)
class Experiment:
    """One registered, reproducible experiment of the paper.

    Attributes
    ----------
    name:
        Unique registry key (``"fig9"``).
    fn:
        Callable accepting the declared parameters as keywords and returning
        a list of record dicts (or a single dict, which is wrapped).
    params:
        Parameter specifications; the only parameter keywords ``fn`` will
        receive (injected artifacts arrive under their ``Consumes.inject``
        names on top).
    outputs:
        Optional typed output schema; when declared, every run's records are
        validated against it (see :func:`validate_records`).
    consumes:
        Upstream dependencies; non-empty makes this a *composite* experiment
        that can only execute with its input artifacts injected (the engine
        resolves them -- see :meth:`run_with_inputs`).
    batch_fn:
        Optional batched evaluator: a callable taking a *list* of resolved
        parameter dicts and returning one record list per dict, each
        float-identical to what ``fn`` would return for that dict alone.
        Engine sweeps route their pending points through it in stacks (see
        :meth:`run_batch`); experiments without one always run point by
        point.  Only self-contained experiments (empty
        ``consumes``) may declare a ``batch_fn``.
    description:
        One-line summary for ``python -m repro list``.
    tags:
        Free-form labels (``"figure"``, ``"table"``, ``"extension"``).
    version:
        Bump when the implementation changes meaningfully; part of the
        engine's cache key so stale cache entries are never replayed.
    """

    name: str
    fn: Callable[..., Any]
    params: tuple[ParamSpec, ...] = ()
    description: str = ""
    tags: tuple[str, ...] = ()
    version: str = "1"
    outputs: tuple[OutputSpec, ...] = ()
    consumes: tuple[Consumes, ...] = ()
    batch_fn: Callable[[list[dict[str, Any]]], Any] | None = None

    def __post_init__(self) -> None:
        if self.batch_fn is not None and self.consumes:
            raise ValueError(
                f"experiment {self.name!r}: batch_fn is only supported for "
                "self-contained experiments (empty consumes)"
            )
        names = [spec.name for spec in self.params]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate parameter names in experiment {self.name!r}")
        output_names = [spec.name for spec in self.outputs]
        if len(set(output_names)) != len(output_names):
            raise ValueError(f"duplicate output names in experiment {self.name!r}")
        injects = [dep.inject for dep in self.consumes]
        if len(set(injects)) != len(injects):
            raise ValueError(f"duplicate inject names in experiment {self.name!r}")
        for dep in self.consumes:
            if dep.inject in names:
                raise ValueError(
                    f"experiment {self.name!r}: inject name {dep.inject!r} "
                    "collides with a declared parameter"
                )
            for downstream in dep.bind.values():
                if downstream not in names:
                    raise ValueError(
                        f"experiment {self.name!r} binds unknown parameter "
                        f"{downstream!r} to upstream {dep.experiment!r}; "
                        f"declared: {names}"
                    )

    @property
    def param_names(self) -> list[str]:
        return [spec.name for spec in self.params]

    def spec(self, name: str) -> ParamSpec:
        for candidate in self.params:
            if candidate.name == name:
                return candidate
        raise ParameterError(
            f"experiment {self.name!r} has no parameter {name!r}; "
            f"available: {self.param_names}"
        )

    def defaults(self) -> dict[str, Any]:
        """Default value of every parameter that has one."""
        return {spec.name: spec.default for spec in self.params if spec.default is not None}

    def resolve_params(self, overrides: Mapping[str, Any] | None = None) -> dict[str, Any]:
        """Merge defaults with coerced overrides, rejecting unknown names."""
        resolved = self.defaults()
        for name, value in (overrides or {}).items():
            resolved[name] = self.spec(name).coerce(value)
        missing = [s.name for s in self.params if s.default is None and s.name not in resolved]
        if missing:
            raise ParameterError(f"experiment {self.name!r} missing required params {missing}")
        return resolved

    def run(self, **overrides: Any) -> list[dict[str, Any]]:
        """Execute directly (no engine, no cache) and return record dicts.

        Only valid for self-contained experiments: a composite experiment
        (non-empty ``consumes``) needs its upstream artifacts resolved first,
        which is the engine's job -- use ``Engine.run`` (or pass the
        artifacts explicitly through :meth:`run_with_inputs`).
        """
        return self.run_with_inputs({}, self.resolve_params(overrides))

    def run_with_inputs(
        self,
        inputs: Mapping[str, Any],
        resolved: Mapping[str, Any],
    ) -> list[dict[str, Any]]:
        """Execute with pre-resolved parameters and injected input artifacts.

        ``inputs`` maps each dependency's ``inject`` name to its upstream
        :class:`~repro.api.results.ResultSet`; ``resolved`` is the full
        parameter dict (as returned by :meth:`resolve_params`).  Declared
        outputs are validated on the returned records.
        """
        missing = [dep.inject for dep in self.consumes if dep.inject not in inputs]
        if missing:
            raise PipelineError(
                f"experiment {self.name!r} consumes upstream results "
                f"{[d.experiment for d in self.consumes]} but inputs "
                f"{missing} were not provided; run it through Engine.run / "
                "Engine.run_study, which resolve the dependency pipeline"
            )
        unexpected = sorted(set(inputs) - {dep.inject for dep in self.consumes})
        if unexpected:
            raise PipelineError(
                f"experiment {self.name!r} received undeclared inputs {unexpected}"
            )
        records = normalize_records(self.fn(**dict(resolved), **dict(inputs)))
        validate_records(records, self.outputs, self.name)
        return records

    def run_batch(
        self, resolved_list: Sequence[Mapping[str, Any]]
    ) -> list[list[dict[str, Any]]]:
        """Execute many pre-resolved invocations through :attr:`batch_fn`.

        Returns one record list per parameter dict, in order, each
        normalised and validated exactly like a :meth:`run_with_inputs`
        return value.  Raises :class:`PipelineError` when no ``batch_fn``
        is declared or when it returns the wrong number of results --
        callers (engine sweeps) fall back to per-point
        execution on any exception, so a buggy batch function can cost
        performance but never correctness.
        """
        if self.batch_fn is None:
            raise PipelineError(
                f"experiment {self.name!r} declares no batch_fn; "
                "run its points individually"
            )
        results = self.batch_fn([dict(resolved) for resolved in resolved_list])
        if not isinstance(results, Sequence) or len(results) != len(resolved_list):
            raise PipelineError(
                f"experiment {self.name!r} batch_fn must return one record "
                f"list per parameter set ({len(resolved_list)} expected)"
            )
        records_list = [normalize_records(result) for result in results]
        for records in records_list:
            validate_records(records, self.outputs, self.name)
        return records_list


def normalize_records(result: Any) -> list[dict[str, Any]]:
    """Coerce an experiment return value into a list of record dicts.

    Accepts a list of mappings (the common case), a single mapping (wrapped
    into a one-record list) or a dataclass instance (converted via its
    fields).  Anything else is a contract violation.
    """
    if isinstance(result, Mapping):
        return [dict(result)]
    if hasattr(result, "__dataclass_fields__"):
        return [
            {name: getattr(result, name) for name in result.__dataclass_fields__}
        ]
    if isinstance(result, Sequence) and not isinstance(result, (str, bytes)):
        records = []
        for entry in result:
            if not isinstance(entry, Mapping):
                raise TypeError(
                    f"experiment records must be mappings, got {type(entry).__name__}"
                )
            records.append(dict(entry))
        return records
    raise TypeError(
        f"experiment must return records (list of dicts), got {type(result).__name__}"
    )


def validate_records(
    records: Sequence[Mapping[str, Any]],
    outputs: Sequence[OutputSpec],
    name: str,
) -> None:
    """Check records against a declared output schema (no-op when empty).

    Every record must carry every declared output column with a cell of the
    declared kind; extra columns are allowed.  Violations raise
    :class:`OutputSchemaError` naming the first offending record.
    """
    if not outputs:
        return
    for index, record in enumerate(records):
        for spec in outputs:
            if spec.name not in record:
                raise OutputSchemaError(
                    f"experiment {name!r} record {index} is missing declared "
                    f"output {spec.name!r}; got columns {sorted(record)}"
                )
            value = record[spec.name]
            if not spec.check(value):
                raise OutputSchemaError(
                    f"experiment {name!r} record {index} output {spec.name!r} "
                    f"expects kind {spec.kind!r}, got {value!r} "
                    f"({type(value).__name__})"
                )


# --- registry ---------------------------------------------------------------

_REGISTRY: dict[str, Experiment] = {}


def register_experiment(
    name: str,
    *,
    params: Sequence[ParamSpec] = (),
    description: str = "",
    tags: Sequence[str] = (),
    version: str = "1",
    outputs: Sequence[OutputSpec] = (),
    consumes: Sequence[Consumes] = (),
    batch_fn: Callable[[list[dict[str, Any]]], Any] | None = None,
    replace: bool = False,
) -> Callable[[Callable[..., Any]], Callable[..., Any]]:
    """Decorator registering a function as a named experiment.

    The decorated function is returned unchanged; the registry stores an
    :class:`Experiment` wrapper around it.  ``description`` defaults to the
    first line of the function's docstring.
    """

    def decorator(fn: Callable[..., Any]) -> Callable[..., Any]:
        doc = description
        if not doc and fn.__doc__:
            doc = inspect.cleandoc(fn.__doc__).splitlines()[0]
        experiment = Experiment(
            name=name,
            fn=fn,
            params=tuple(params),
            description=doc,
            tags=tuple(tags),
            version=version,
            outputs=tuple(outputs),
            consumes=tuple(consumes),
            batch_fn=batch_fn,
        )
        if name in _REGISTRY and not replace:
            raise DuplicateExperimentError(
                f"experiment {name!r} is already registered "
                f"(by {_REGISTRY[name].fn.__module__}.{_REGISTRY[name].fn.__qualname__}); "
                "pass replace=True to override"
            )
        _REGISTRY[name] = experiment
        return fn

    return decorator


def unregister_experiment(name: str) -> None:
    """Remove one experiment from the registry (mostly for tests)."""
    _REGISTRY.pop(name, None)


def get_experiment(name: str) -> Experiment:
    """Look up a registered experiment, with a helpful error on miss.

    A miss suggests the nearest registered names before listing everything,
    so ``get_experiment("varibility")`` points at ``variability`` instead of
    drowning the typo in a 20-name dump.
    """
    ensure_registered()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ExperimentNotFoundError(
            f"no experiment {name!r}{_did_you_mean(name, _REGISTRY)}; "
            f"registered: {sorted(_REGISTRY)}"
        ) from None


def list_experiments(tag: str | None = None) -> list[Experiment]:
    """All registered experiments sorted by name, optionally tag-filtered."""
    ensure_registered()
    experiments = sorted(_REGISTRY.values(), key=lambda e: e.name)
    if tag is not None:
        experiments = [e for e in experiments if tag in e.tags]
    return experiments


def ensure_registered() -> None:
    """Import the standard experiment definitions exactly once.

    Safe to call repeatedly; it is what makes
    ``Engine.run("fig9")`` work without the caller importing
    :mod:`repro.analysis.experiments` first.  Covers both the paper's
    figure/table drivers and the extension studies
    (:mod:`repro.analysis.studies`).  Neither module imports a solver, so
    this loads no numpy, scipy or physics package.
    """
    import repro.analysis.experiments  # noqa: F401  (import has the side effect)
    import repro.analysis.studies  # noqa: F401  (import has the side effect)
