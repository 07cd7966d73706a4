"""Integration tests for the SST facade services (paper S1-S3 + helpers)."""

import pytest

from repro.core.facade import SOQASimPackToolkit
from repro.core.registry import Measure
from repro.core.results import ConceptAndSimilarity, QualifiedConcept
from repro.errors import UnknownConceptError, UnknownOntologyError
from repro.viz.charts import BarChart, GroupedBarChart
from tests.conftest import MINI_ORNITHOLOGY_OWL


class TestS1GetSimilarity:
    def test_basic_call(self, mini_sst):
        value = mini_sst.get_similarity("Professor", "univ",
                                        "Student", "univ",
                                        Measure.SHORTEST_PATH)
        assert value == pytest.approx(0.25)

    def test_paper_style_constants(self, mini_sst):
        value = mini_sst.get_similarity(
            "Professor", "univ", "Professor", "univ",
            SOQASimPackToolkit.LIN_MEASURE)
        assert value == 1.0

    def test_unknown_concept_raises(self, mini_sst):
        with pytest.raises(UnknownConceptError):
            mini_sst.get_similarity("Ghost", "univ", "Student", "univ",
                                    Measure.LIN)

    def test_unknown_ontology_raises(self, mini_sst):
        with pytest.raises(UnknownOntologyError):
            mini_sst.get_similarity("Professor", "ghosts", "Student",
                                    "univ", Measure.TFIDF)

    def test_get_similarities_defaults_to_table1(self, mini_sst):
        values = mini_sst.get_similarities("Professor", "univ",
                                           "Student", "univ")
        assert list(values) == ["Conceptual Similarity", "Levenshtein",
                                "Lin", "Resnik", "Shortest Path", "TFIDF"]

    def test_get_similarities_explicit_list(self, mini_sst):
        values = mini_sst.get_similarities(
            "Professor", "univ", "Student", "univ",
            [Measure.LIN, "TFIDF"])
        assert set(values) == {"Lin", "TFIDF"}


class TestSetServices:
    def test_similarity_to_free_set(self, mini_sst):
        results = mini_sst.get_similarity_to_set(
            "Professor", "univ",
            [("univ", "Student"), QualifiedConcept("MINI", "EMPLOYEE")],
            Measure.SHORTEST_PATH)
        assert [entry.concept_name for entry in results] == [
            "Student", "EMPLOYEE"]
        assert all(isinstance(entry, ConceptAndSimilarity)
                   for entry in results)

    def test_similarity_matrix_diagonal(self, mini_sst):
        concepts = [("univ", "Professor"), ("univ", "Student"),
                    ("MINI", "EMPLOYEE")]
        matrix = mini_sst.get_similarity_matrix(concepts,
                                                Measure.SHORTEST_PATH)
        assert len(matrix) == 3
        for index in range(3):
            assert matrix[index][index] == 1.0
        assert matrix[0][1] == matrix[1][0]


class TestS2MostSimilar:
    def test_k_limits_results(self, mini_sst):
        results = mini_sst.get_most_similar_concepts(
            "Professor", "univ", k=3, measure=Measure.SHORTEST_PATH)
        assert len(results) == 3

    def test_anchor_excluded(self, mini_sst):
        results = mini_sst.get_most_similar_concepts(
            "Professor", "univ", k=100, measure=Measure.SHORTEST_PATH)
        assert all(not (entry.concept_name == "Professor"
                        and entry.ontology_name == "univ")
                   for entry in results)

    def test_sorted_descending(self, mini_sst):
        results = mini_sst.get_most_similar_concepts(
            "Professor", "univ", k=10, measure=Measure.SHORTEST_PATH)
        values = [entry.similarity for entry in results]
        assert values == sorted(values, reverse=True)

    def test_nearest_is_taxonomic_neighbor(self, mini_sst):
        results = mini_sst.get_most_similar_concepts(
            "Professor", "univ", k=1, measure=Measure.SHORTEST_PATH)
        assert results[0].concept_name == "Employee"

    def test_subtree_restriction(self, mini_sst):
        results = mini_sst.get_most_similar_concepts(
            "Professor", "univ",
            subtree_root_concept_name="PERSON",
            subtree_ontology_name="MINI",
            k=100, measure=Measure.SHORTEST_PATH)
        assert {entry.ontology_name for entry in results} == {"MINI"}
        names = {entry.concept_name for entry in results}
        assert names == {"PERSON", "EMPLOYEE", "STUDENT"}

    def test_candidates_cover_all_ontologies_by_default(self, mini_sst):
        results = mini_sst.get_most_similar_concepts(
            "Professor", "univ", k=1000, measure=Measure.SHORTEST_PATH)
        assert len(results) == mini_sst.concept_count() - 1

    def test_candidate_list_is_reused_per_anchor_and_refreshed(self,
                                                               mini_sst):
        def ranked(concept_name):
            return {(entry.ontology_name, entry.concept_name)
                    for entry in mini_sst.get_most_similar_concepts(
                        concept_name, "univ", k=1000,
                        measure=Measure.SHORTEST_PATH)}

        professor, student = ranked("Professor"), ranked("Student")
        assert ("univ", "Professor") not in professor
        assert ("univ", "Student") in professor
        assert ("univ", "Professor") in student
        assert ("univ", "Student") not in student
        mini_sst.load_ontology_text(MINI_ORNITHOLOGY_OWL, "birds", "OWL")
        refreshed = ranked("Professor")
        assert len(refreshed) == mini_sst.concept_count() - 1
        assert ("birds", "Blackbird") in refreshed

    def test_most_dissimilar_sorted_ascending(self, mini_sst):
        results = mini_sst.get_most_dissimilar_concepts(
            "Professor", "univ", k=5, measure=Measure.SHORTEST_PATH)
        values = [entry.similarity for entry in results]
        assert values == sorted(values)

    def test_most_dissimilar_prefers_other_ontologies(self, mini_sst):
        results = mini_sst.get_most_dissimilar_concepts(
            "Professor", "univ", k=1, measure=Measure.SHORTEST_PATH)
        assert results[0].ontology_name != "univ"


class TestS3Plots:
    def test_similarity_plot_is_bar_chart(self, mini_sst):
        chart = mini_sst.get_similarity_plot("Professor", "univ",
                                             "Student", "univ")
        assert isinstance(chart, BarChart)
        assert len(chart.labels) == len(chart.values) == 6

    def test_similarity_plot_normalizes_resnik(self, mini_sst):
        chart = mini_sst.get_similarity_plot(
            "Professor", "univ", "Student", "univ", [Measure.RESNIK])
        assert chart.labels == ["Resnik (normalized)"]
        assert 0.0 <= chart.values[0] <= 1.0

    def test_most_similar_plot(self, mini_sst):
        chart = mini_sst.get_most_similar_plot("Professor", "univ", k=5)
        assert len(chart.labels) == 5
        assert chart.labels[0].startswith("univ:")

    def test_comparison_plot(self, mini_sst):
        chart = mini_sst.get_comparison_plot(
            [(("univ", "Professor"), ("univ", "Student")),
             (("univ", "Professor"), ("MINI", "EMPLOYEE"))],
            measures=[Measure.LIN, Measure.TFIDF])
        assert isinstance(chart, GroupedBarChart)
        assert len(chart.group_labels) == 2
        assert set(chart.series) == {"Lin", "TFIDF"}


class TestOntologyManagement:
    def test_load_text_refreshes_tree(self, mini_sst):
        before = mini_sst.concept_count()
        mini_sst.load_ontology_text(MINI_ORNITHOLOGY_OWL, "birds", "OWL")
        assert mini_sst.concept_count() == before + 2
        value = mini_sst.get_similarity("Professor", "univ",
                                        "Blackbird", "birds",
                                        Measure.SHORTEST_PATH)
        assert value > 0.0

    def test_load_file(self, mini_sst, tmp_path):
        path = tmp_path / "birds.owl"
        path.write_text(MINI_ORNITHOLOGY_OWL, encoding="utf-8")
        mini_sst.load_ontology_file(path)
        assert "birds" in mini_sst.ontology_names()

    def test_runner_cache_cleared_on_refresh(self, mini_sst):
        runner = mini_sst.runner(Measure.TFIDF)
        mini_sst.load_ontology_text(MINI_ORNITHOLOGY_OWL, "birds", "OWL")
        assert mini_sst.runner(Measure.TFIDF) is not runner


class TestExtensibility:
    def test_register_custom_runner(self, mini_sst):
        from repro.core.runners import MeasureRunner

        class SameNameRunner(MeasureRunner):
            name = "Same Name"
            description = "1.0 when local names match, else 0.0"

            def run(self, first, second):
                return float(first.concept_name.lower()
                             == second.concept_name.lower())

        measure_id = mini_sst.register_measure_runner(
            "Same Name", SameNameRunner)
        assert measure_id >= 1000
        assert mini_sst.get_similarity("Student", "univ",
                                       "STUDENT", "MINI",
                                       measure_id) == 1.0
        assert mini_sst.get_similarity("Student", "univ",
                                       "COURSE", "MINI",
                                       "Same Name") == 0.0
