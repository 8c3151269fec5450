"""What the before/after bench scripts in this directory share: the host
description and the source tree of a git revision.
"""

from __future__ import annotations

import os
import platform
import subprocess
import tarfile
import tempfile
from contextlib import contextmanager
from io import BytesIO
from pathlib import Path
from typing import Iterator

ROOT = Path(__file__).resolve().parent.parent


def host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
    }


@contextmanager
def revision_src(rev: str) -> Iterator[tuple[str, Path]]:
    """Short hash of ``rev`` and its ``src/``, extracted with ``git archive``
    into a temporary directory that is removed on exit."""
    short = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--short", rev],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", short, "src"], check=True, capture_output=True
    ).stdout
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=BytesIO(archive)) as tar:
            tar.extractall(tmp)
        yield short, Path(tmp) / "src"
