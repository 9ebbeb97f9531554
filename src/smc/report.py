"""Run reports and deterministic persistence.

``persist`` writes, into one directory:

* ``report.json`` (format "json"): the deterministic record (config echo
  and hash, version, checks, seeds); byte-identical across reruns of the
  same configuration;
* one CSV per named field path (format "csv"), header ``t,x,value``,
  floats at 17 significant digits so values round-trip exactly;
* ``manifest.json`` listing every deterministic artifact with its SHA-256
  digest;
* ``runmeta.json`` with wall-clock timings, deliberately excluded from the
  manifest because it varies run to run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import subprocess
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Sequence

from . import __version__
from .grid import FieldPath


@dataclass(frozen=True)
class CheckResult:
    """One named verification with its value, tolerance, and verdict."""

    name: str
    value: float
    tolerance: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        extra = f"  ({self.detail})" if self.detail else ""
        return f"[{status}] {self.name}: value={self.value:.6g} tolerance={self.tolerance:.6g}{extra}"


@dataclass
class RunReport:
    """Structured record of one experiment."""

    config_echo: dict
    config_hash: str
    version: str
    checks: list[CheckResult] = field(default_factory=list)
    seeds: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def deterministic_payload(self) -> dict:
        return {
            "config": self.config_echo,
            "config_hash": self.config_hash,
            "version": self.version,
            "seeds": self.seeds,
            "checks": [asdict(c) for c in self.checks],
            "all_passed": self.all_passed,
        }


def describe_version() -> str:
    """Git describe when available, else the package version."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).parent,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"v{__version__}"


class PhaseTimer:
    """Accumulates wall-clock seconds per named phase."""

    def __init__(self):
        self.phases: dict[str, float] = {}

    @contextlib.contextmanager
    def time(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + (time.perf_counter() - start)


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    digest.update(path.read_bytes())
    return digest.hexdigest()


def write_field_path_csv(path: Path, field_path: FieldPath) -> None:
    """One ``t,x,value`` line per (time, node); each time and node is formatted once."""
    lines = ["t,x,value"]
    nodes = [f",{x:.17g}," for x in field_path.grid.nodes.tolist()]
    for t, row in zip(field_path.times.tolist(), field_path.values.tolist()):
        stamp = f"{t:.17g}"
        lines += [f"{stamp}{x}{v:.17g}" for x, v in zip(nodes, row)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def persist(
    report: RunReport,
    paths: dict[str, FieldPath],
    directory: str,
    formats: Sequence[str] = ("csv", "json"),
) -> Path:
    """Write the report, the named field paths, and the digest manifest.

    ``report.json`` is written when ``formats`` lists "json", the field-path
    CSVs when it lists "csv"; the manifest lists exactly the files written.
    Returns the manifest path.  Rerunning an identical configuration
    overwrites every artifact with byte-identical content.
    """
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)

    artifacts: list[Path] = []
    if "json" in formats:
        report_path = out / "report.json"
        _write_json(report_path, report.deterministic_payload())
        artifacts.append(report_path)

    if "csv" in formats:
        for name, field_path in sorted(paths.items()):
            csv_path = out / f"{name}.csv"
            write_field_path_csv(csv_path, field_path)
            artifacts.append(csv_path)

    manifest = {
        "config_hash": report.config_hash,
        "files": [
            {"name": p.name, "sha256": _sha256(p), "bytes": p.stat().st_size}
            for p in artifacts
        ],
    }
    manifest_path = out / "manifest.json"
    _write_json(manifest_path, manifest)

    if report.timings:
        _write_json(out / "runmeta.json", {"timings": report.timings})
    return manifest_path
