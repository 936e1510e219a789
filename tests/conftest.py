"""Suite-wide options.

--no-fast-extra runs the suite as an install without the `fast` extra
would: numpy and scipy are blocked before ndchan is imported, so every
optional import of theirs fails as it does where the packages are absent.

    pytest --no-fast-extra
"""

import importlib.abc
import sys

import pytest

BLOCKED = ("numpy", "scipy")


class _Blocker(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name.partition(".")[0] in BLOCKED:
            raise ModuleNotFoundError(f"{name} is blocked by --no-fast-extra", name=name)
        return None


def pytest_addoption(parser):
    parser.addoption(
        "--no-fast-extra",
        action="store_true",
        help="block numpy and scipy imports, as in an install without the fast extra",
    )


def pytest_configure(config):
    if not config.getoption("--no-fast-extra"):
        return
    loaded = sorted(
        m for m in sys.modules if m.partition(".")[0] in BLOCKED + ("ndchan",)
    )
    if loaded:
        raise pytest.UsageError(f"--no-fast-extra: already imported: {loaded[:3]}")
    sys.meta_path.insert(0, _Blocker())
