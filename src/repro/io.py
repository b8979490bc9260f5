"""JSON serialization for instances, schedules and results.

Lets experiments be archived and replayed: instances round-trip exactly
(including the hidden exact loads — a serialized instance is ground truth,
so treat the files accordingly), and schedules/profiles serialize enough to
recompute energies and validate feasibility offline.

The format is versioned plain JSON; no pickle anywhere.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Any

from .core.instance import Instance, QBSSInstance
from .core.job import Job
from .core.qjob import QJob

if TYPE_CHECKING:
    from .core.profile import SpeedProfile
    from .core.schedule import Schedule

FORMAT_VERSION = 1

PathLike = str | Path


# -- encoding -----------------------------------------------------------------------


def job_to_dict(job: Job) -> dict[str, Any]:
    return {
        "id": job.id,
        "release": job.release,
        "deadline": job.deadline,
        "work": job.work,
    }


def qjob_to_dict(job: QJob) -> dict[str, Any]:
    return {
        "id": job.id,
        "release": job.release,
        "deadline": job.deadline,
        "query_cost": job.query_cost,
        "work_upper": job.work_upper,
        "work_true": job.work_true,
    }


def instance_to_dict(instance: Instance) -> dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "kind": "classical",
        "machines": instance.machines,
        "jobs": [job_to_dict(j) for j in instance.jobs],
    }


def qbss_instance_to_dict(instance: QBSSInstance) -> dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "kind": "qbss",
        "machines": instance.machines,
        "jobs": [qjob_to_dict(j) for j in instance.jobs],
    }


def profile_to_dict(profile: SpeedProfile) -> dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "kind": "profile",
        "segments": [
            {"start": s.start, "end": s.end, "speed": s.speed} for s in profile
        ],
    }


def experiment_report_to_dict(report) -> dict[str, Any]:
    """Encode an :class:`~repro.analysis.experiments.ExperimentReport`.

    The cells are already JSON-coerced by ``report.to_dict()``; this adds
    the versioned envelope so the document round-trips through
    :func:`save`/:func:`load` like every other kind.
    """
    data = report.to_dict()
    data["version"] = FORMAT_VERSION
    data["kind"] = "experiment_report"
    return data


def trace_replay_report_to_dict(report) -> dict[str, Any]:
    """Encode a :class:`~repro.traces.replay.ReplayReport`.

    The report's own ``to_dict`` already carries the versioned envelope
    (``version``/``kind``), so this is a pass-through kept for symmetry
    with the other encoders.
    """
    return report.to_dict()


def schedule_to_dict(schedule: Schedule) -> dict[str, Any]:
    return {
        "version": FORMAT_VERSION,
        "kind": "schedule",
        "machines": schedule.machines,
        "slices": [
            {
                "machine": m,
                "start": s.start,
                "end": s.end,
                "speed": s.speed,
                "job_id": s.job_id,
            }
            for m in range(schedule.machines)
            for s in schedule.slices(m)
        ],
    }


# -- decoding -----------------------------------------------------------------------


class FormatError(ValueError):
    """Raised on malformed or wrong-kind documents."""


def _expect(data: dict[str, Any], kind: str) -> None:
    if not isinstance(data, dict):
        raise FormatError(f"expected a JSON object, got {type(data).__name__}")
    if data.get("version") != FORMAT_VERSION:
        raise FormatError(
            f"unsupported format version {data.get('version')!r} "
            f"(this library reads version {FORMAT_VERSION})"
        )
    if data.get("kind") != kind:
        raise FormatError(f"expected kind {kind!r}, got {data.get('kind')!r}")


def job_from_dict(data: dict[str, Any]) -> Job:
    return Job(
        release=float(data["release"]),
        deadline=float(data["deadline"]),
        work=float(data["work"]),
        id=str(data["id"]),
    )


def qjob_from_dict(data: dict[str, Any]) -> QJob:
    return QJob(
        release=float(data["release"]),
        deadline=float(data["deadline"]),
        query_cost=float(data["query_cost"]),
        work_upper=float(data["work_upper"]),
        work_true=float(data["work_true"]),
        id=str(data["id"]),
    )


def instance_from_dict(data: dict[str, Any]) -> Instance:
    _expect(data, "classical")
    return Instance(
        [job_from_dict(j) for j in data["jobs"]], machines=int(data["machines"])
    )


def qbss_instance_from_dict(data: dict[str, Any]) -> QBSSInstance:
    _expect(data, "qbss")
    return QBSSInstance(
        [qjob_from_dict(j) for j in data["jobs"]], machines=int(data["machines"])
    )


def profile_from_dict(data: dict[str, Any]) -> SpeedProfile:
    from .core.profile import Segment, SpeedProfile

    _expect(data, "profile")
    return SpeedProfile(
        Segment(float(s["start"]), float(s["end"]), float(s["speed"]))
        for s in data["segments"]
    )


def experiment_report_from_dict(data: dict[str, Any]):
    """Decode an experiment-report document (lazy import, heavy module)."""
    from .analysis.experiments import ExperimentReport

    _expect(data, "experiment_report")
    return ExperimentReport.from_dict(data)


def trace_replay_report_from_dict(data: dict[str, Any]):
    """Decode a trace-replay report (lazy import, heavy module)."""
    from .traces.replay import REPLAY_FORMAT_VERSION, ReplayReport

    if not isinstance(data, dict):
        raise FormatError(f"expected a JSON object, got {type(data).__name__}")
    if data.get("version") != REPLAY_FORMAT_VERSION:
        raise FormatError(
            f"unsupported trace-replay version {data.get('version')!r} "
            f"(this library reads version {REPLAY_FORMAT_VERSION})"
        )
    if data.get("kind") != "trace_replay_report":
        raise FormatError(
            f"expected kind 'trace_replay_report', got {data.get('kind')!r}"
        )
    return ReplayReport.from_dict(data)


def run_manifest_to_dict(manifest) -> dict[str, Any]:
    """Encode a :class:`~repro.obs.manifest.RunManifest`.

    The manifest's own ``to_dict`` carries its versioned envelope
    (``version``/``kind``); pass-through kept for encoder symmetry.
    """
    return manifest.to_dict()


def run_manifest_from_dict(data: dict[str, Any]):
    """Decode a run-manifest document (lazy import)."""
    from .obs.manifest import RunManifest

    try:
        return RunManifest.from_dict(data)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def serve_journal_record_to_dict(record) -> dict[str, Any]:
    """Encode a :class:`~repro.serve.journal.JournalRecord`.

    The record's own ``to_dict`` carries its versioned envelope
    (``version``/``kind``); pass-through kept for encoder symmetry.
    """
    return record.to_dict()


def serve_journal_record_from_dict(data: dict[str, Any]):
    """Decode a serve-journal record (lazy import)."""
    from .serve.journal import JournalRecord

    try:
        return JournalRecord.from_dict(data)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc


def schedule_from_dict(data: dict[str, Any]) -> Schedule:
    from .core.schedule import Schedule

    _expect(data, "schedule")
    schedule = Schedule(int(data["machines"]))
    for s in data["slices"]:
        schedule.add(
            float(s["start"]),
            float(s["end"]),
            float(s["speed"]),
            str(s["job_id"]),
            int(s["machine"]),
        )
    return schedule


# -- file helpers -------------------------------------------------------------------

#: Encoders by the class they serialize (``module.qualname``), so saving a
#: report imports neither the profile kernel nor the experiment stack.
_SAVERS = {
    "repro.core.instance.Instance": instance_to_dict,
    "repro.core.instance.QBSSInstance": qbss_instance_to_dict,
    "repro.core.profile.SpeedProfile": profile_to_dict,
    "repro.core.schedule.Schedule": schedule_to_dict,
    "repro.analysis.experiments.ExperimentReport": experiment_report_to_dict,
    "repro.traces.replay.ReplayReport": trace_replay_report_to_dict,
    "repro.obs.manifest.RunManifest": run_manifest_to_dict,
    "repro.serve.journal.JournalRecord": serve_journal_record_to_dict,
}


def save(obj, path: PathLike) -> None:
    """Serialize a supported object to a JSON file."""
    kind = type(obj)
    encoder = _SAVERS.get(f"{kind.__module__}.{kind.__qualname__}")
    if encoder is None:
        raise TypeError(f"cannot serialize objects of type {kind.__name__}")
    Path(path).write_text(json.dumps(encoder(obj), indent=2, sort_keys=True))


_LOADERS = {
    "classical": instance_from_dict,
    "qbss": qbss_instance_from_dict,
    "profile": profile_from_dict,
    "schedule": schedule_from_dict,
    "experiment_report": experiment_report_from_dict,
    "trace_replay_report": trace_replay_report_from_dict,
    "run_manifest": run_manifest_from_dict,
    "serve_journal_record": serve_journal_record_from_dict,
}


def load(path: PathLike):
    """Load any supported object from a JSON file (dispatch on 'kind')."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, dict) or "kind" not in data:
        raise FormatError("not a repro document (missing 'kind')")
    loader = _LOADERS.get(data["kind"])
    if loader is None:
        raise FormatError(f"unknown kind {data['kind']!r}")
    return loader(data)
