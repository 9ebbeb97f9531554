"""Compare the CLI's outputs at a parent revision with this checkout's, file by file.

Usage, from the root of a checkout:

    python3 tools/cli_outputs.py [--parent REV]

The parent (``--parent``, default HEAD) is extracted with ``git archive`` into a
temporary directory; the change is this checkout's working tree.  In each tree,
with that tree's ``src`` on ``PYTHONPATH`` and at ``SMC_WORKERS`` 1 and 2, it runs
``python3 -m smc.cli`` for each of ``simulate --paths 64``, ``adjoint``,
``policy``, ``rate``, ``derivcheck --paths 64``, ``verify operators``,
``verify forward``, ``verify backward`` and ``verify control`` on the tree's
``configs/harvest.json``, each into its own ``--out`` directory.  ``verify
forward`` and ``verify backward`` step Crank-Nicolson, forward and backward,
penalize an obstacle and call the projected-SOR solver, so the comparison covers
every implicit-step solver.  ``verify control`` (criteria 08-10) steps the space
mean's CSR on bundles of 10 000 paths, so a change to the forward kernel is
compared on those reports too.  On a 2-core x86_64 host it takes 14 s at one
worker and 7.5 s at two, in each tree: about 43 s of the tool's 73 s.

It compares each run's exit code, its standard output (its ``--out`` directory
written as ``<out>``) and every file it wrote, byte for byte, except:

* ``runmeta.json``, which holds wall-clock timings;
* the ``version`` line of ``report.json``, which names the revision;
* the ``sha256`` and ``bytes`` of ``report.json`` in ``manifest.json``, which
  follow from that line.

One line is printed per compared item, ``same`` or ``DIFF``; the exit status is 1
if any item differs, else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = {
    "simulate": ["simulate", "--paths", "64"],
    "adjoint": ["adjoint"],
    "policy": ["policy"],
    "rate": ["rate"],
    "derivcheck": ["derivcheck", "--paths", "64"],
    "verify-operators": ["verify", "operators"],
    "verify-forward": ["verify", "forward"],
    "verify-backward": ["verify", "backward"],
    "verify-control": ["verify", "control"],
}
WORKERS = (1, 2)
SKIPPED = {"runmeta.json"}


def extract(rev: str, directory: Path) -> Path:
    """The files of ``rev`` under ``directory``, by ``git archive``."""
    tar_bytes = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                               check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar_bytes)) as tar:
        tar.extractall(directory, filter="data")
    return directory


def run(tree: Path, argv: list[str], workers: int, out: Path) -> tuple[int, str]:
    """Exit code and standard output of one CLI run in ``tree``, writing into ``out``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "SMC_WORKERS": str(workers)}
    config = tree / "configs" / "harvest.json"
    proc = subprocess.run([sys.executable, "-m", "smc.cli", *argv, "--config", str(config),
                           "--out", str(out)], cwd=tree, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout.replace(str(out), "<out>")


def comparable(path: Path) -> bytes:
    """A file's bytes, less what names the revision."""
    data = path.read_bytes()
    if path.name == "report.json":
        lines = data.splitlines(keepends=True)
        return b"".join(line for line in lines if not line.startswith(b'  "version": '))
    if path.name == "manifest.json":
        manifest = json.loads(data)
        for entry in manifest["files"]:
            if entry["name"] == "report.json":
                del entry["sha256"], entry["bytes"]
        return json.dumps(manifest, sort_keys=True).encode()
    return data


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    args = parser.parse_args(argv)
    differ = 0
    with tempfile.TemporaryDirectory() as scratch:
        trees = {"parent": extract(args.parent, Path(scratch, "parent")), "change": ROOT}
        for workers in WORKERS:
            for name, command in COMMANDS.items():
                outs = {side: Path(scratch, "out", side, f"w{workers}", name) for side in trees}
                results = {side: run(tree, command, workers, outs[side])
                           for side, tree in trees.items()}
                items = {"exit": {s: str(r[0]).encode() for s, r in results.items()},
                         "stdout": {s: r[1].encode() for s, r in results.items()}}
                names = {p.name for out in outs.values() if out.is_dir() for p in out.iterdir()}
                for file in sorted(names - SKIPPED):
                    items[file] = {side: comparable(out / file) if (out / file).is_file()
                                   else None for side, out in outs.items()}
                for item, sides in items.items():
                    same = sides["parent"] == sides["change"]
                    differ += not same
                    print(f"{'same' if same else 'DIFF'}  SMC_WORKERS={workers} {name} {item}")
    print(f"{differ} item(s) differ" if differ else "every compared item is identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
