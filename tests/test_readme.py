"""Every dotted name ``safeswarm.…`` that README.md puts in backticks
resolves: its longest importable prefix as a module, the rest as
attributes in turn."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _resolve(name: str):
    parts = name.split(".")
    for k in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:k]))
        except ModuleNotFoundError:
            continue
        for attr in parts[k:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


def test_readme_names_resolve():
    names = sorted(set(re.findall(r"`(safeswarm(?:\.\w+)+)", README.read_text(encoding="utf-8"))))
    assert names  # the README names some of the package's API
    unresolved = []
    for name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError):
            unresolved.append(name)
    assert unresolved == []
