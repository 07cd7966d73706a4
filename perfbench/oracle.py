"""In-process reference answers for the ``serve-mixed`` output check.

Run by ``run.py`` with the program's ``src`` on ``PYTHONPATH``:

    python perfbench/oracle.py

Loads the bundled five-ontology corpus into an uncached facade and
speaks a two-step line protocol: it first prints the corpus concepts
as one JSON line (``[[ontology, concept], ...]``), then reads one JSON
line of requests (``[[kind, body], ...]`` with the HTTP request
bodies) and prints one JSON line with the facade's answer to each, in
the shape the service returns it.
"""

from __future__ import annotations

import json
import sys


def answer(sst, kind: str, body: dict):
    measure = body.get("measure", 5)
    if kind == "pair":
        (first_ontology, first), (second_ontology, second) = (
            body["first"], body["second"])
        return sst.get_similarity(first, first_ontology, second,
                                  second_ontology, measure)
    if kind == "batch":
        return [sst.get_similarity(first, first_ontology, second,
                                   second_ontology, measure)
                for first_ontology, first, second_ontology, second
                in body["pairs"]]
    entries = sst.get_most_similar_concepts(
        body["concept"], body["ontology"], k=body["k"], measure=measure)
    return [[entry.ontology_name, entry.concept_name, entry.similarity]
            for entry in entries]


def main() -> int:
    from repro.core.facade import SOQASimPackToolkit
    from repro.ontologies import load_corpus

    sst = SOQASimPackToolkit(load_corpus(), cache=False)
    concepts = [[concept.ontology_name, concept.concept_name]
                for concept in sst.tree.all_concepts()]
    print(json.dumps(concepts), flush=True)
    requests = json.loads(sys.stdin.readline())
    print(json.dumps([answer(sst, kind, body) for kind, body in requests]),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
