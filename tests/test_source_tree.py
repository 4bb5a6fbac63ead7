"""Invariants of the ``src/repro`` tree itself: every package declares the
names it exports, and every paper citation names a real section."""

import importlib
import inspect
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"
SECTION = r"§(\d+(?:\.\d+)*)"


def test_packages_declare_exports_that_resolve():
    problems = []
    for init in sorted((SRC / "repro").rglob("__init__.py")):
        name = ".".join(init.parent.relative_to(SRC).parts)
        package = importlib.import_module(name)
        defined = [
            attr for attr, value in vars(package).items()
            if not attr.startswith("_")
            and not (inspect.ismodule(value)
                     and value.__name__ == f"{name}.{attr}")
        ]
        if not defined:
            continue
        if "__all__" not in vars(package):
            problems.append(f"{name} defines {defined} but no __all__")
            continue
        problems += [f"{name}.__all__ names missing {attr!r}"
                     for attr in package.__all__ if not hasattr(package, attr)]
    assert problems == []


def test_section_citations_exist_in_the_paper_outline():
    """A cited ``§N.M`` must be an outline row; an outline row ``§N.M``
    also makes ``§N`` citable."""
    paper = (REPO_ROOT / "PAPER.md").read_text(encoding="utf-8")
    outline = paper.split("## Paper section outline", 1)[1]
    rows = re.findall(rf"^\| {SECTION} \|", outline, flags=re.M)
    valid = {".".join(row.split(".")[:i + 1])
             for row in rows for i in range(row.count(".") + 1)}
    assert {"3", "3.1", "4.3"} <= valid
    dangling = [
        f"{path.relative_to(SRC)}: §{token}"
        for path in sorted((SRC / "repro").rglob("*.py"))
        for token in re.findall(SECTION, path.read_text(encoding="utf-8"))
        if token not in valid
    ]
    assert dangling == []
