"""Determinism: serial and process runs produce bit-identical matrices.

For every registered measure, over a mixed concept set drawn from the
bundled OWL + PowerLoom + WordNet fixtures, one worker (serial) and
several (process) must agree on every cell — parallel execution is an
implementation detail, never a semantic one.
"""

import pytest

from repro.core.facade import SOQASimPackToolkit
from repro.soqa.api import SOQA
from tests.conftest import MINI_OWL, MINI_PLOOM, MINI_WORDNET

WORKERS = 2


@pytest.fixture(scope="module")
def shared_sst() -> SOQASimPackToolkit:
    """One facade for the whole module; read-only across parameters."""
    soqa = SOQA()
    soqa.load_text(MINI_OWL, "univ", "OWL")
    soqa.load_text(MINI_PLOOM, "MINI", "PowerLoom")
    soqa.load_text(MINI_WORDNET, "wn", "WordNet")
    return SOQASimPackToolkit(soqa)


@pytest.fixture(scope="module")
def concept_set(shared_sst) -> list[tuple[str, str]]:
    """Two concepts of each language's ontology, deterministically."""
    references = []
    for name in shared_sst.ontology_names():
        ontology = shared_sst.soqa.ontology(name)
        references.extend(
            (name, concept.name) for concept in list(ontology)[:2])
    assert len(references) >= 6
    return references


def _measure_ids(sst: SOQASimPackToolkit) -> list[int]:
    return sst.registry.measure_ids()


# The registry is identical for every facade instance, so a throwaway
# one provides the parametrization ids without touching fixtures.
ALL_MEASURE_IDS = _measure_ids(SOQASimPackToolkit(SOQA()))


@pytest.mark.parametrize("measure_id", ALL_MEASURE_IDS)
def test_strategies_bit_identical(shared_sst, concept_set, measure_id):
    serial = shared_sst.get_similarity_matrix(concept_set, measure_id,
                                              workers=1)
    processed = shared_sst.get_similarity_matrix(
        concept_set, measure_id, workers=WORKERS)
    name = shared_sst.runner(measure_id).name
    assert processed == serial, f"{name}: process diverged from serial"
