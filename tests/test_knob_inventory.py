"""The ``SST_*`` environment knobs in the code and in the README agree.

Every ``SST_`` name the package reads must be documented, and every
documented name must still exist in the package, so a removed knob
cannot linger in the docs and a new one cannot ship undocumented.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KNOB = re.compile(r"SST_[A-Z0-9_]+")


def _knobs(text: str) -> set[str]:
    return set(KNOB.findall(text))


def _source_knobs() -> set[str]:
    knobs: set[str] = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        knobs |= _knobs(path.read_text(encoding="utf-8"))
    return knobs


def _readme_knobs() -> set[str]:
    return _knobs((ROOT / "README.md").read_text(encoding="utf-8"))


def test_every_source_knob_is_documented():
    undocumented = _source_knobs() - _readme_knobs()
    assert not undocumented, (
        f"SST_* names read in src/repro but missing from README.md: "
        f"{sorted(undocumented)}")


def test_every_documented_knob_exists():
    stale = _readme_knobs() - _source_knobs()
    assert not stale, (
        f"SST_* names in README.md that src/repro no longer reads: "
        f"{sorted(stale)}")
