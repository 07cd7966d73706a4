"""Tests for persisted compiled-index artifacts (.sstidx files).

Covers the format round-trip (a loaded index answers every query
bit-identically to the compiled original, through lazy mmap-backed
columns), corruption handling (bad magic, truncation, bit flips, and
foreign versions all raise the typed error and never a crash), and the
self-healing :class:`~repro.soqa.indexstore.IndexStore` (quarantine +
recompile on any broken artifact, including injected ``index.corrupt``
faults; delete + rebuild, without quarantine, for a version-1
artifact).
"""

import pytest

from repro.errors import IndexArtifactError
from repro.ontologies.generator import (generate_random_dag,
                                        generate_wordnet_taxonomy)
from repro.soqa.graphindex import CompiledTaxonomy
from repro.soqa.indexstore import (
    ARTIFACT_SUFFIX,
    DEFAULT_PERSIST_THRESHOLD,
    INDEX_PERSIST_ENV,
    IndexStore,
    load_index,
    resolve_persist_threshold,
    save_index,
)

PARENTS = generate_random_dag(150, seed=4)


@pytest.fixture
def artifact(tmp_path):
    compiled = CompiledTaxonomy(PARENTS)
    path = tmp_path / f"index{ARTIFACT_SUFFIX}"
    save_index(compiled, path)
    return compiled, path


def assert_same_answers(original: CompiledTaxonomy,
                        loaded: CompiledTaxonomy,
                        pair_limit: int = 12) -> None:
    assert loaded.nodes() == original.nodes()
    assert loaded.max_depth() == original.max_depth()
    nodes = original.nodes()
    for node in nodes:
        assert loaded.depth(node) == original.depth(node)
        assert loaded.descendant_count(node) == original.descendant_count(
            node)
        assert loaded.ancestors_with_distance(node) \
            == original.ancestors_with_distance(node)
        assert loaded.path_to_root(node) == original.path_to_root(node)
    for first in nodes[:pair_limit]:
        for second in nodes[:pair_limit]:
            assert loaded.mrca(first, second) == original.mrca(first,
                                                               second)


class TestRoundTrip:
    def test_loaded_index_answers_identically(self, artifact):
        compiled, path = artifact
        assert_same_answers(compiled, load_index(path))

    def test_round_trip_on_wordnet_shape(self, tmp_path):
        compiled = CompiledTaxonomy(generate_wordnet_taxonomy(400, seed=2))
        path = tmp_path / f"wn{ARTIFACT_SUFFIX}"
        save_index(compiled, path)
        assert_same_answers(compiled, load_index(path))

    def test_export_tables_through_lazy_columns(self, artifact):
        compiled, path = artifact
        loaded = load_index(path)
        original_tables = compiled.export_tables()
        loaded_tables = loaded.export_tables()
        for index in range(len(compiled)):
            assert (loaded_tables.ancestor_distances[index]
                    == original_tables.ancestor_distances[index])
            assert (loaded_tables.descendant_bits[index]
                    == original_tables.descendant_bits[index])
        assert (list(loaded_tables.descendant_counts)
                == list(original_tables.descendant_counts))

    def test_single_node_taxonomy(self, tmp_path):
        compiled = CompiledTaxonomy({"only": []})
        path = tmp_path / f"one{ARTIFACT_SUFFIX}"
        save_index(compiled, path)
        assert_same_answers(compiled, load_index(path))

    def test_save_is_deterministic(self, tmp_path):
        first = tmp_path / f"a{ARTIFACT_SUFFIX}"
        second = tmp_path / f"b{ARTIFACT_SUFFIX}"
        save_index(CompiledTaxonomy(PARENTS), first)
        save_index(CompiledTaxonomy(PARENTS), second)
        assert first.read_bytes() == second.read_bytes()


class TestCorruption:
    def test_bad_magic(self, artifact):
        _, path = artifact
        blob = bytearray(path.read_bytes())
        blob[:4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexArtifactError, match="magic"):
            load_index(path)

    def test_foreign_version(self, artifact):
        _, path = artifact
        blob = bytearray(path.read_bytes())
        blob[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexArtifactError):
            load_index(path)

    def test_truncation(self, artifact):
        _, path = artifact
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(IndexArtifactError):
            load_index(path)

    def test_payload_bit_flip_fails_checksum(self, artifact):
        _, path = artifact
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexArtifactError):
            load_index(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / f"empty{ARTIFACT_SUFFIX}"
        path.write_bytes(b"")
        with pytest.raises(IndexArtifactError):
            load_index(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises((IndexArtifactError, OSError)):
            load_index(tmp_path / f"absent{ARTIFACT_SUFFIX}")


class TestIndexStore:
    def test_cold_compiles_and_persists(self, tmp_path):
        store = IndexStore(tmp_path)
        compiled, provenance = store.load_or_compile(PARENTS, "f" * 64)
        assert provenance["source"] == "compiled"
        assert store.artifact_path("f" * 64).exists()
        assert compiled.nodes() == list(PARENTS)

    def test_warm_loads_the_artifact(self, tmp_path):
        store = IndexStore(tmp_path)
        store.load_or_compile(PARENTS, "f" * 64)
        loaded, provenance = store.load_or_compile(PARENTS, "f" * 64)
        assert provenance["source"] == "artifact"
        assert_same_answers(CompiledTaxonomy(PARENTS), loaded)

    def test_corrupt_artifact_quarantines_and_recompiles(self, tmp_path):
        store = IndexStore(tmp_path)
        store.load_or_compile(PARENTS, "f" * 64)
        path = store.artifact_path("f" * 64)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 3] ^= 0xFF
        path.write_bytes(bytes(blob))
        compiled, provenance = store.load_or_compile(PARENTS, "f" * 64)
        assert provenance["source"] == "compiled"
        assert store.quarantined == 1
        assert compiled.nodes() == list(PARENTS)

    def test_fingerprint_mismatch_is_a_miss_not_corruption(self, tmp_path):
        store = IndexStore(tmp_path)
        store.load_or_compile(PARENTS, "f" * 64)
        other = generate_random_dag(80, seed=8)
        # Same fingerprint key, different corpus: must recompile, not
        # serve the stale artifact, and not quarantine anything.
        compiled, provenance = store.load_or_compile(other, "f" * 64)
        assert provenance["source"] == "compiled"
        assert store.quarantined == 0
        assert compiled.nodes() == list(other)

    def test_version_one_artifact_is_rebuilt_not_quarantined(self, tmp_path):
        store = IndexStore(tmp_path)
        store.load_or_compile(PARENTS, "f" * 64)
        path = store.artifact_path("f" * 64)
        blob = bytearray(path.read_bytes())
        assert blob[8] == 2  # version field follows the 8-byte magic
        blob[8] = 1
        path.write_bytes(bytes(blob))
        with pytest.raises(IndexArtifactError, match="older"):
            load_index(path)
        compiled, provenance = store.load_or_compile(PARENTS, "f" * 64)
        assert provenance["source"] == "compiled"
        assert store.quarantined == 0
        assert not list(tmp_path.glob("*.corrupt-*"))
        assert path.read_bytes()[8] == 2
        assert_same_answers(CompiledTaxonomy(PARENTS), compiled)
        _, provenance = store.load_or_compile(PARENTS, "f" * 64)
        assert provenance["source"] == "artifact"

    def test_injected_corruption_fault_self_heals(self, tmp_path):
        from repro.core.resilience import injected_faults

        store = IndexStore(tmp_path)
        store.load_or_compile(PARENTS, "f" * 64)
        with injected_faults("index.corrupt=99"):
            compiled, provenance = store.load_or_compile(PARENTS, "f" * 64)
        assert provenance["source"] == "compiled"
        assert store.quarantined == 1
        assert compiled.nodes() == list(PARENTS)


class TestThresholdResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(INDEX_PERSIST_ENV, raising=False)
        assert resolve_persist_threshold() == DEFAULT_PERSIST_THRESHOLD

    def test_off_and_numbers(self, monkeypatch):
        monkeypatch.setenv(INDEX_PERSIST_ENV, "off")
        assert resolve_persist_threshold() == -1
        monkeypatch.setenv(INDEX_PERSIST_ENV, "0")
        assert resolve_persist_threshold() == 0
        monkeypatch.setenv(INDEX_PERSIST_ENV, "2048")
        assert resolve_persist_threshold() == 2048

    def test_argument_beats_environment(self, monkeypatch):
        monkeypatch.setenv(INDEX_PERSIST_ENV, "7")
        assert resolve_persist_threshold(3) == 3

    def test_garbage_raises_typed_error(self, monkeypatch):
        monkeypatch.setenv(INDEX_PERSIST_ENV, "many")
        with pytest.raises(IndexArtifactError):
            resolve_persist_threshold()
