"""DESIGN §3's module map lists exactly the modules under ``src/repro``.

The map's "Modules" column names files as backticked paths, with brace
groups for siblings (``repro/sim/{events,kernel}.py``). Every module
under ``src/repro`` must be named there (a package's ``__init__.py`` may
be left out), and every name must be a module that exists.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def section(text, number):
    """The body of DESIGN's ``## <number>.`` section."""
    match = re.search(rf"^## {re.escape(number)}\. .*?$(.*?)(?=^## )", text, re.M | re.S)
    assert match, f"DESIGN.md has no section {number}"
    return match.group(1)


def expand(name):
    """``a/{b,c}.py`` -> ``[a/b.py, a/c.py]``; a plain name is itself."""
    match = re.fullmatch(r"(.*)\{([^}]*)\}(.*)", name)
    if not match:
        return [name]
    head, group, tail = match.groups()
    return [f"{head}{part}{tail}" for part in group.split(",")]


def mapped_modules(text):
    names = []
    for line in section(text, "3").splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if len(cells) < 3 or cells[1] in ("Modules", "---"):
            continue
        for name in re.findall(r"`([^`]+)`", cells[1]):
            names.extend(expand(name))
    return names


def source_modules():
    return {
        path.relative_to(SRC).as_posix()
        for path in (SRC / "repro").rglob("*.py")
        if "__pycache__" not in path.parts
    }


def test_every_module_is_in_the_map_and_every_mapped_module_exists():
    mapped = mapped_modules((ROOT / "DESIGN.md").read_text(encoding="utf-8"))
    modules = source_modules()
    assert sorted(set(mapped) - modules) == [], "named in DESIGN §3 but not a module"
    omitted = {m for m in modules - set(mapped) if not m.endswith("/__init__.py")}
    assert sorted(omitted) == [], "modules DESIGN §3 does not name"


def test_the_parser_reads_brace_groups_and_flags_a_wrong_name():
    table = (
        "## 3. Map\n\n| Subsystem | Modules | Role |\n|---|---|---|\n"
        "| Kernel | `repro/sim/{events,kernel}.py`, `repro/nope.py` | x |\n\n## 4. Next\n"
    )
    assert mapped_modules(table) == [
        "repro/sim/events.py", "repro/sim/kernel.py", "repro/nope.py",
    ]
    assert "repro/nope.py" not in source_modules()
