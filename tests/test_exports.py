"""
The public API carries no dead weight: every exported name is used by the
library itself, a demo or the benchmark, not only by tests.
"""

import re
from pathlib import Path

import idsa_lab

ROOT = Path(__file__).resolve().parents[1]


def _unused_exports(root: Path, names) -> list[str]:
    """Names that occur in no library module (but ``__init__.py``), demo or
    benchmark script, except on the line that defines them."""
    files = [p for p in sorted((root / "src" / "idsa_lab").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    lines = [line for p in files for line in p.read_text().splitlines()]
    unused = []
    for name in names:
        word = re.compile(rf"\b{re.escape(name)}\b")
        definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b|^{re.escape(name)}\s*[:=]")
        if not any(word.search(line) and not definition.match(line) for line in lines):
            unused.append(name)
    return unused


def test_every_export_has_a_caller_outside_tests():
    assert _unused_exports(ROOT, idsa_lab.__all__) == []
