"""Service parity: every server response is bit-identical to the CLI.

The acceptance bar of ``sst serve``: the resident service must be a
pure transport around the exact code paths the one-shot CLI runs, so a
``/v1/similarity`` matrix response compares **byte for byte** against
``sst matrix --format json`` stdout, across all nine kernel-batchable
measures, and its cells equal both in-process batch engines (the kernel
and the per-pair ``engine="naive"`` reference); ``/v1/ksim`` reproduces
the CLI table digit for digit.  Verified over a plain ontology file, a sqlite
``.sstdb`` store, and the paper corpus.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.core.facade import SOQASimPackToolkit
from repro.core.kernel import ENGINES
from repro.core.registry import Measure
from repro.core.server import serve_in_thread
from repro.soqa.api import SOQA
from repro.viz.ascii import render_table
from tests.conftest import MINI_OWL
from tests.core.test_kernel_properties import BATCHABLE_MEASURES
from tests.server.conftest import client_for

#: The concept set both sides score (prefixed per-ontology at runtime).
CONCEPT_NAMES = ["Person", "Employee", "Professor", "Student", "Course"]


@pytest.fixture(scope="module")
def owl_path(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("parity-ontology") / "univ.owl"
    path.write_text(MINI_OWL, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def file_server(owl_path):
    soqa = SOQA()
    soqa.load_file(owl_path)
    with serve_in_thread(SOQASimPackToolkit(soqa)) as handle:
        yield handle


@pytest.fixture(scope="module")
def store_path(owl_path, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("parity-store") / "univ.sstdb"
    assert main(["import", owl_path, "-o", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def store_server(store_path):
    soqa = SOQA()
    soqa.load_file(store_path)
    with serve_in_thread(SOQASimPackToolkit(soqa)) as handle:
        yield handle


@pytest.fixture(scope="module")
def corpus_server(corpus_sst):
    with serve_in_thread(corpus_sst) as handle:
        yield handle


def cli_matrix_stdout(capsys, source_arguments, specs, measure) -> str:
    arguments = source_arguments + ["matrix", *specs,
                                    "-m", str(int(measure)),
                                    "--format", "json"]
    assert main(arguments) == 0
    output = capsys.readouterr().out
    assert output.strip()
    return output


def server_matrix_body(handle, references, measure) -> bytes:
    payload = {"concepts": [list(reference) for reference in references],
               "measure": int(measure)}
    status, _, body = client_for(handle).post_json("/v1/similarity",
                                                   payload)
    assert status == 200, body
    return body


def ksim_table_from(response: dict) -> str:
    """Rebuild the CLI's ksim table from the service JSON."""
    rows = [[str(entry["rank"]), entry["concept"], entry["ontology"],
             f"{entry['similarity']:.4f}"]
            for entry in response["entries"]]
    return render_table(["rank", "concept", "ontology", "similarity"],
                        rows) + "\n"


class TestMatrixParityEveryMeasureAndEngine:
    """9 kernel measures x 2 in-process engines: the served bytes equal
    the CLI's, and the served cells equal the engine's matrix."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("measure", BATCHABLE_MEASURES,
                             ids=lambda measure: measure.name)
    def test_file_matrix_bit_identical(self, file_server, owl_path,
                                       capsys, measure, engine):
        toolkit = file_server.service.toolkit
        ontology = toolkit.ontology_names()[0]
        specs = [f"{ontology}:{name}" for name in CONCEPT_NAMES]
        references = [(ontology, name) for name in CONCEPT_NAMES]
        expected = cli_matrix_stdout(capsys, ["--ontology-file", owl_path],
                                     specs, measure)
        body = server_matrix_body(file_server, references, measure)
        assert body.decode("utf-8") == expected
        assert json.loads(body)["matrix"] == toolkit.get_similarity_matrix(
            references, measure, engine=engine)


class TestPairParity:
    def test_pair_mode_matches_the_cli_matrix_cell(self, file_server,
                                                   owl_path, capsys):
        ontology = file_server.service.toolkit.ontology_names()[0]
        specs = [f"{ontology}:{name}" for name in CONCEPT_NAMES]
        expected = json.loads(cli_matrix_stdout(
            capsys, ["--ontology-file", owl_path], specs,
            Measure.SHORTEST_PATH))
        response = client_for(file_server).post_ok("/v1/similarity", {
            "first": [ontology, "Professor"],
            "second": [ontology, "Student"],
            "measure": int(Measure.SHORTEST_PATH)})
        row = CONCEPT_NAMES.index("Professor")
        column = CONCEPT_NAMES.index("Student")
        assert response["similarity"] == expected["matrix"][row][column]
        assert response["measure"] == expected["measure"]

    def test_batch_mode_matches_the_cli_matrix_row(self, file_server,
                                                   owl_path, capsys):
        ontology = file_server.service.toolkit.ontology_names()[0]
        specs = [f"{ontology}:{name}" for name in CONCEPT_NAMES]
        expected = json.loads(cli_matrix_stdout(
            capsys, ["--ontology-file", owl_path], specs, Measure.LIN))
        pairs = [[ontology, "Person", ontology, name]
                 for name in CONCEPT_NAMES]
        response = client_for(file_server).post_ok("/v1/similarity", {
            "pairs": pairs, "measure": int(Measure.LIN)})
        assert response["values"] == expected["matrix"][0]


class TestKsimParity:
    def test_ksim_reproduces_the_cli_table(self, file_server, owl_path,
                                           capsys):
        ontology = file_server.service.toolkit.ontology_names()[0]
        assert main(["--ontology-file", owl_path, "ksim", ontology,
                     "Professor", "-k", "4"]) == 0
        expected = capsys.readouterr().out
        response = client_for(file_server).post_ok("/v1/ksim", {
            "ontology": ontology, "concept": "Professor", "k": 4})
        assert ksim_table_from(response) == expected

    def test_kdissim_reproduces_the_cli_table(self, file_server,
                                              owl_path, capsys):
        ontology = file_server.service.toolkit.ontology_names()[0]
        assert main(["--ontology-file", owl_path, "kdissim", ontology,
                     "Person", "-k", "3"]) == 0
        expected = capsys.readouterr().out
        response = client_for(file_server).post_ok("/v1/ksim", {
            "ontology": ontology, "concept": "Person", "k": 3,
            "dissimilar": True})
        assert ksim_table_from(response) == expected

    def test_subtree_restriction_matches_the_cli(self, file_server,
                                                 owl_path, capsys):
        ontology = file_server.service.toolkit.ontology_names()[0]
        assert main(["--ontology-file", owl_path, "ksim", ontology,
                     "Professor", "-k", "3",
                     "--subtree", f"{ontology}:Person"]) == 0
        expected = capsys.readouterr().out
        response = client_for(file_server).post_ok("/v1/ksim", {
            "ontology": ontology, "concept": "Professor", "k": 3,
            "subtree": f"{ontology}:Person"})
        assert ksim_table_from(response) == expected


class TestStoreBackedParity:
    """The ``.sstdb`` sqlite store serves the exact same bytes."""

    def test_store_matrix_bit_identical(self, store_server, store_path,
                                        capsys):
        ontology = store_server.service.toolkit.ontology_names()[0]
        specs = [f"{ontology}:{name}" for name in CONCEPT_NAMES]
        expected = cli_matrix_stdout(
            capsys, ["--ontology-file", store_path], specs, Measure.EDGE)
        body = server_matrix_body(
            store_server, [(ontology, name) for name in CONCEPT_NAMES],
            Measure.EDGE)
        assert body.decode("utf-8") == expected

    def test_store_ksim_reproduces_the_cli_table(self, store_server,
                                                 store_path, capsys):
        ontology = store_server.service.toolkit.ontology_names()[0]
        assert main(["--ontology-file", store_path, "ksim", ontology,
                     "Employee", "-k", "4"]) == 0
        expected = capsys.readouterr().out
        response = client_for(store_server).post_ok("/v1/ksim", {
            "ontology": ontology, "concept": "Employee", "k": 4})
        assert ksim_table_from(response) == expected


class TestCorpusParity:
    """Spot checks over the paper's five-ontology corpus."""

    def test_corpus_matrix_bit_identical(self, corpus_server, corpus_soqa,
                                         capsys):
        names = [concept.name
                 for concept in corpus_soqa.ontology("COURSES")][:6]
        specs = [f"COURSES:{name}" for name in names]
        expected = cli_matrix_stdout(capsys, [], specs,
                                     Measure.CONCEPTUAL_SIMILARITY)
        body = server_matrix_body(corpus_server,
                                  [("COURSES", name) for name in names],
                                  Measure.CONCEPTUAL_SIMILARITY)
        assert body.decode("utf-8") == expected

    def test_corpus_ksim_reproduces_the_cli_table(self, corpus_server,
                                                  capsys):
        assert main(["ksim", "COURSES", "PROFESSOR", "-k", "5"]) == 0
        expected = capsys.readouterr().out
        response = client_for(corpus_server).post_ok("/v1/ksim", {
            "ontology": "COURSES", "concept": "PROFESSOR", "k": 5})
        assert ksim_table_from(response) == expected
