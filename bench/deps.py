"""The two dependency configurations: with scipy, and the default install.

The default install has no `fast` extra, so numpy and scipy are blocked
before ndchan is imported; ndchan's optional imports then fail exactly as
they would where the packages are absent.
"""

from __future__ import annotations

import hashlib
import importlib.abc
import importlib.metadata
import os
import subprocess
import sys

BLOCKED = ("numpy", "scipy")


class _Blocker(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.partition(".")[0] in BLOCKED:
            raise ImportError(f"{name} is blocked: default install without the fast extra")
        return None


def block_fast_extra():
    """Make numpy and scipy unimportable for the rest of this process."""
    loaded = [m for m in sys.modules if m.partition(".")[0] in BLOCKED]
    if loaded:
        raise RuntimeError(f"cannot block, already imported: {sorted(loaded)[:3]}")
    sys.meta_path.insert(0, _Blocker())


def require_fast_extra():
    """Fail loudly when the scipy configuration cannot be had."""
    try:
        import numpy  # noqa: F401
        import scipy.optimize  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"bench: this workload needs scipy and numpy ({exc})") from None


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "absent"


def environment(root) -> dict:
    """Versions, cores and source revision that a run's figures depend on;
    the source digest stands in for the commit outside a git checkout."""
    commit = ""
    if (root / ".git").exists():  # never let git search above the checkout
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                cwd=root,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "ndchan").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version.split()[0],
        "scipy": _version("scipy"),
        "numpy": _version("numpy"),
        "nproc": os.cpu_count(),
        "commit": commit or "none",
        "source": digest.hexdigest()[:12],
    }
