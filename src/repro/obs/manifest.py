"""Immutable run provenance: what exactly produced this result?

A :class:`RunManifest` pins down everything needed to reproduce or audit a
run after the fact — the config fingerprint, the seeds, the env knobs that
silently change behaviour (``REPRO_TRACE_INTERN``, ``REPRO_CACHE_IMPL``,
...), the git SHA of the working tree, the package version, and wall-clock
timing.  One is attached to every :class:`~repro.harness.runner.RunResult`,
:class:`~repro.harness.runner.SampledRunResult`, and matrix checkpoint, and
surfaced in ``repro report`` output.

Manifests are *observability*, not *results*: they never feed back into the
simulation, and the figure/table payloads (``figure_data()``,
``matrix_to_json``) exclude them, so results stay byte-identical whether
manifests are collected or not.  Collection is deliberately cheap — a few
``os.environ`` reads, one small sha256, and a cached ``git rev-parse`` that
runs at most once per process.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from dataclasses import asdict, dataclass, replace
from typing import Iterable, Mapping


def _package_version() -> str:
    # Imported lazily: the runner imports repro.obs while ``repro``'s own
    # __init__ is still executing, before __version__ is bound.
    try:
        from repro import __version__

        return __version__
    except ImportError:  # pragma: no cover - partial-init fallback
        return "unknown"

#: Environment knobs that change simulator behaviour.  Captured verbatim
#: (unset keys are omitted) so a manifest diff reveals "you ran with the
#: reference cache implementation" style divergences.
ENV_KNOBS = (
    "REPRO_ENGINE",
    "REPRO_TRACE_CACHE",
    "REPRO_TRACE_INTERN",
    "REPRO_INTERN_VALIDATE",
    "REPRO_CACHE_IMPL",
    "PYTHONHASHSEED",
)

_GIT_SHA_CACHE: str | None = None
_GIT_SHA_KNOWN = False


def git_sha() -> str:
    """The working tree's HEAD SHA, or ``"unknown"`` outside a repo.
    Cached so a matrix of hundreds of cells costs one subprocess."""
    global _GIT_SHA_CACHE, _GIT_SHA_KNOWN
    if not _GIT_SHA_KNOWN:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                capture_output=True,
                text=True,
                timeout=5,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            )
            sha = out.stdout.strip()
            _GIT_SHA_CACHE = sha if out.returncode == 0 and sha else "unknown"
        except (OSError, subprocess.SubprocessError):
            _GIT_SHA_CACHE = "unknown"
        _GIT_SHA_KNOWN = True
    return _GIT_SHA_CACHE


def config_fingerprint(config: Mapping[str, object]) -> str:
    """A short, stable sha256 over a JSON-able config mapping.  Keys are
    sorted and values round-tripped through JSON, so dict insertion order
    and PYTHONHASHSEED cannot change the fingerprint."""
    blob = json.dumps(config, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(frozen=True)
class RunManifest:
    """Provenance for one run.  Frozen: a manifest describes what happened
    and is never edited afterwards."""

    config_hash: str
    seed: int | None
    env: tuple[tuple[str, str], ...]
    git_sha: str
    package_version: str
    python_version: str
    platform: str
    started_at: float
    """Unix time the run began."""
    wall_seconds: float = 0.0
    config: tuple[tuple[str, str], ...] = ()
    """The fingerprinted config itself, stringified — small by design."""
    extra: tuple[tuple[str, str], ...] = ()
    engine: str = ""
    """Replay engine (``columnar`` | ``reference``) the run executed on.
    Engines are bit-identical on results, so this is provenance — but a
    cross-engine ``repro report --compare`` deserves a flag, not silence."""
    twins: tuple[tuple[str, str], ...] = ()
    """Fused twins each allocator type of the run got at construction
    (``fast+slow``, ``fast``, ``slow`` or ``none``): every type short of
    ``fast+slow`` emits some calls through the slower object path."""

    def to_dict(self) -> dict:
        payload = asdict(self)
        for key in _MAPPING_FIELDS:
            payload[key] = {k: v for k, v in payload[key]}
        return payload

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "RunManifest":
        data = dict(payload)
        for key in _MAPPING_FIELDS:
            mapping = data.get(key, {}) or {}
            data[key] = tuple(sorted((str(k), str(v)) for k, v in mapping.items()))
        known = {f.name for f in cls.__dataclass_fields__.values()}  # type: ignore[attr-defined]
        return cls(**{k: v for k, v in data.items() if k in known})

    def finished(self, wall_seconds: float, machines: Iterable = ()) -> "RunManifest":
        """A copy with the wall time filled in (manifests are frozen), and
        the twin coverage recorded on the run's simulated ``machines``."""
        twins = {k: v for machine in machines for k, v in machine.twins.items()}
        return replace(self, wall_seconds=wall_seconds, twins=tuple(sorted(twins.items())))

    def describe(self) -> str:
        """One-line human rendering for reports and logs."""
        env = ",".join(f"{k}={v}" for k, v in self.env) or "-"
        engine = f" engine={self.engine}" if self.engine else ""
        twins = ",".join(f"{k}={v}" for k, v in self.twins)
        twins = f" twins[{twins}]" if twins else ""
        return (
            f"config={self.config_hash} seed={self.seed} git={self.git_sha[:12]} "
            f"v{self.package_version}{engine}{twins} env[{env}] "
            f"wall={self.wall_seconds:.3f}s"
        )


#: Fields stored as sorted ``(key, value)`` pairs and serialized as objects.
_MAPPING_FIELDS = ("env", "config", "extra", "twins")


def collect_manifest(
    config: Mapping[str, object] | None = None,
    seed: int | None = None,
    **extra: object,
) -> RunManifest:
    """Snapshot provenance for a run that is starting now."""
    config = dict(config or {})
    env = tuple(
        (k, os.environ[k]) for k in ENV_KNOBS if k in os.environ
    )
    from repro.sim.engine import engine_name

    return RunManifest(
        engine=engine_name(),
        config_hash=config_fingerprint(config),
        seed=seed,
        env=env,
        git_sha=git_sha(),
        package_version=_package_version(),
        python_version=platform.python_version(),
        platform=platform.platform(),
        started_at=time.time(),
        config=tuple(sorted((str(k), json.dumps(v, sort_keys=True, default=str))
                            for k, v in config.items())),
        extra=tuple(sorted((str(k), str(v)) for k, v in extra.items())),
    )
