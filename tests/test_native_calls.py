"""
Every array reaches a native kernel through ``_native.ptr``, which types
its pointer by the array's dtype: no other library module calls cffi's
``from_buffer``, which reads any buffer as whatever C type it is told.
"""

from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _from_buffer_calls(root: Path) -> list[str]:
    """The lines of library modules other than ``_native.py`` that call from_buffer."""
    files = [p for p in sorted((root / "src" / "idsa_lab").glob("*.py")) if p.name != "_native.py"]
    return [f"{p.name}:{i}: {line.strip()}" for p in files
            for i, line in enumerate(p.read_text().splitlines(), 1) if "from_buffer(" in line]


def test_only_the_loader_calls_from_buffer():
    assert _from_buffer_calls(ROOT) == []
