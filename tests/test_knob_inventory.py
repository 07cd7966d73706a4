"""The ``SST_*`` environment knobs and the ``sst`` flags in the code
and in the README agree.

Every ``SST_`` name the package reads must be documented, and every
documented name must still exist in the package, so a removed knob
cannot linger in the docs and a new one cannot ship undocumented.
Only deployment-level switches are environment knobs; every serve,
batch and cache setting is a flag.  ``sst serve`` is configured by
flags alone, so the README's serve section is held to the parser the
same way, and every batch and global flag must appear in the README.
"""

import argparse
import re
from pathlib import Path

from repro.cli import _add_parallel_arguments, build_parser

ROOT = Path(__file__).resolve().parent.parent
KNOB = re.compile(r"SST_[A-Z0-9_]+")
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


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


def test_only_deployment_switches_are_environment_knobs():
    assert _source_knobs() == {"SST_CACHE_DIR", "SST_FAULTS",
                               "SST_INDEX_PERSIST", "SST_TELEMETRY"}


def test_every_documented_knob_exists():
    stale = _readme_knobs() - _source_knobs()
    assert not stale, (
        f"SST_* names in README.md that src/repro no longer reads: "
        f"{sorted(stale)}")


def _flags(parser: argparse.ArgumentParser) -> set[str]:
    return {option for action in parser._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"}


def _subparsers(parser: argparse.ArgumentParser,
                ) -> dict[str, argparse.ArgumentParser]:
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


def _readme_serve_section() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("## Running as a service (`sst serve`)")
    end = text.index("\n## ", start)
    return text[start:end]


def test_every_serve_flag_is_documented():
    serve_flags = _flags(_subparsers(build_parser())["serve"])
    undocumented = serve_flags - set(FLAG.findall(_readme_serve_section()))
    assert not undocumented, (
        f"sst serve flags missing from README.md's serve section: "
        f"{sorted(undocumented)}")


def test_every_documented_serve_flag_exists():
    parser = build_parser()
    known = _flags(parser).union(
        *(_flags(sub) for sub in _subparsers(parser).values()))
    stale = set(FLAG.findall(_readme_serve_section())) - known
    assert not stale, (
        f"flags in README.md's serve section that sst no longer has: "
        f"{sorted(stale)}")


def test_every_batch_and_global_flag_is_documented():
    batch = argparse.ArgumentParser()
    _add_parallel_arguments(batch)
    flags = _flags(batch) | _flags(build_parser())
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    undocumented = flags - set(FLAG.findall(readme))
    assert not undocumented, (
        f"batch or global sst flags missing from README.md: "
        f"{sorted(undocumented)}")
