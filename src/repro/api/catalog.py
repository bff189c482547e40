"""Generator of the experiment catalog (``docs/EXPERIMENTS.md``).

The catalog is derived purely from the registry, so it can never describe an
experiment that does not exist -- but the checked-in markdown *can* go stale
when registrations change.  ``python -m repro docs`` prints the current
catalog, ``--write PATH`` regenerates the file and ``--check PATH`` fails
when the file on disk drifts from the registry (CI and the test suite run
the check).

Quick start::

    from repro.api.catalog import catalog_markdown

    text = catalog_markdown()
    print(text.splitlines()[0])
"""

from __future__ import annotations

from repro.api.experiment import Experiment, OutputSpec, ParamSpec, list_experiments
from repro.api.study import Study, list_studies

_HEADER = """\
# Experiment catalog

<!-- Generated by `python -m repro docs --write docs/EXPERIMENTS.md`.
     Do not edit by hand: CI fails when this file drifts from the registry
     (`python -m repro docs --check docs/EXPERIMENTS.md`). -->

Every figure, table and extension study of the reproduction is a registered
experiment with a typed parameter surface.  Any of them runs through the
engine and its on-disk cache:

    python -m repro run <name> [-p key=value ...] [--cache-dir .repro-cache]
    python -m repro sweep <name> --grid key=v1,v2 [--executor process]
    python -m repro study run <study>    # composite pipelines (consumes DAGs)
    python -m repro campaign run <name> --objective col   # adaptive search
    python -m repro cache stats          # inspect the memoisation cache

Any experiment with a numeric or categorical parameter surface is
campaign-capable: declare the candidate pool as a sweep and an adaptive
strategy finds optima or worst-case corners in a fraction of the grid's
points (see `docs/CAMPAIGNS.md`).

Experiments with a **consumes** line are composite: the engine runs the
named upstream experiments first and injects their ResultSets; cache keys
chain through the upstream content hashes.  See `docs/API.md` for the
Python API (`Engine.run`, `Engine.sweep`, `Engine.run_study`) and the cache
management commands.
"""


def _default_text(spec: ParamSpec) -> str:
    if spec.default is None:
        return "*required*"
    return f"`{spec.default!r}`"


def _param_rows(experiment: Experiment) -> list[str]:
    rows = [
        "| param | kind | default | description |",
        "|---|---|---|---|",
    ]
    for spec in experiment.params:
        help_text = spec.help
        if spec.choices is not None:
            choices = ", ".join(f"`{choice!r}`" for choice in spec.choices)
            help_text = f"{help_text} (one of {choices})" if help_text else f"one of {choices}"
        rows.append(
            f"| `{spec.name}` | {spec.kind} | {_default_text(spec)} | {help_text} |"
        )
    return rows


def _output_rows(experiment: Experiment) -> list[str]:
    rows = [
        "| output | kind | description |",
        "|---|---|---|",
    ]
    for spec in experiment.outputs:
        rows.append(f"| `{spec.name}` | {spec.kind} | {spec.help} |")
    return rows


def _study_section(studies: list[Study]) -> list[str]:
    lines = [f"## Studies ({len(studies)} registered pipelines)\n"]
    lines.append(
        "A study is a named composite run: a target experiment whose "
        "`consumes` DAG the engine resolves and executes stage by stage "
        "(`python -m repro study run <name>`; `--shards N --shard-index i` "
        "runs one mergeable slice of the study's sweep).\n"
    )
    lines.append("| study | pipeline | sweep points | description |")
    lines.append("|---|---|---|---|")
    for study in studies:
        stages = " → ".join(
            f"[`{name}`](#{name})" for name in study.resolve().stage_names
        )
        points = str(len(study.sweep)) if study.sweep is not None else "—"
        lines.append(f"| `{study.name}` | {stages} | {points} | {study.description} |")
    lines.append("")
    return lines


def catalog_markdown() -> str:
    """Render the full experiment catalog as deterministic markdown."""
    experiments = list_experiments()
    studies = list_studies()
    lines = [_HEADER]

    lines.append(f"## Index ({len(experiments)} experiments)\n")
    lines.append("| name | version | tags | params | description |")
    lines.append("|---|---|---|---|---|")
    for experiment in experiments:
        tags = ", ".join(experiment.tags)
        # GFM heading anchors preserve underscores, so "## em_lifetime"
        # becomes "#em_lifetime" verbatim.
        lines.append(
            f"| [`{experiment.name}`](#{experiment.name}) "
            f"| {experiment.version} | {tags} | {len(experiment.params)} "
            f"| {experiment.description} |"
        )
    lines.append("")

    if studies:
        lines.extend(_study_section(studies))

    for experiment in experiments:
        lines.append(f"## {experiment.name}\n")
        lines.append(f"{experiment.description}\n")
        details = [f"version `{experiment.version}`"]
        if experiment.tags:
            details.append("tags: " + ", ".join(f"`{tag}`" for tag in experiment.tags))
        lines.append(" -- ".join(details) + "\n")
        if experiment.consumes:
            consumed = "; ".join(
                f"[`{dep.experiment}`](#{dep.experiment}) as `{dep.inject}`"
                + (
                    " (binds "
                    + ", ".join(f"`{up}`←`{down}`" for up, down in dep.bind.items())
                    + ")"
                    if dep.bind
                    else ""
                )
                for dep in experiment.consumes
            )
            lines.append(f"**consumes** {consumed}\n")
        if experiment.params:
            lines.extend(_param_rows(experiment))
        else:
            lines.append("*(no parameters)*")
        if experiment.outputs:
            lines.append("")
            lines.extend(_output_rows(experiment))
        lines.append("")

    return "\n".join(lines).rstrip() + "\n"


def check_catalog(path: str) -> bool:
    """True when the file at ``path`` matches the current registry."""
    try:
        with open(path) as handle:
            return handle.read() == catalog_markdown()
    except OSError:
        return False
