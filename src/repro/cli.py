"""The ``sst`` command-line interface.

Subcommands map onto the facade services:

.. code-block:: console

    sst ontologies                      # list the bundled corpus
    sst --ontology-file my.owl sim ...  # work on your own ontology files
    sst sim base1_0_daml Professor univ-bench_owl Professor
    sst ksim univ-bench_owl Person -k 10 -m TFIDF
    sst kdissim base1_0_daml Professor -k 5
    sst matrix --from-ontology SUMO_owl_txt --limit 32 --workers 4
    sst chart base1_0_daml Professor -k 10 -o /tmp/charts
    sst table1                          # reprint the paper's Table 1
    sst query "SELECT name FROM concepts WHERE is_root = true LIMIT 5"
    sst lint                            # static analysis of all ontologies
    sst lint --soqaql "SELECT nam FROM concepts" --format json
    sst analyze src/repro               # code rules over toolkit source
    sst trace matrix --from-ontology COURSES   # span tree of any command
    sst metrics --format json ksim univ-bench_owl Person
    sst serve --port 8642               # resident HTTP/JSON service
    sst browse                          # interactive SST Browser
    sst shell                           # interactive SOQA-QL shell

By default the five-ontology corpus of the paper is loaded; pass
``--ontology FILE`` (repeatable) to work on your own ontologies instead.
"""

from __future__ import annotations

import argparse
import sys

from repro.browser.shell import run_browser
from repro.core.facade import SOQASimPackToolkit
from repro.core.registry import Measure, TABLE1_MEASURES
from repro.errors import SSTError
from repro.soqa.soqaql.evaluator import SOQAQLEngine
from repro.soqa.soqaql.shell import run_shell
from repro.viz.ascii import render_table

__all__ = ["build_parser", "main"]


def _measure_argument(value: str) -> "int | str":
    return int(value) if value.isdigit() else value


def _add_parallel_arguments(sub: argparse.ArgumentParser) -> None:
    """Attach the batch-engine worker controls to a subcommand."""
    sub.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="worker count for batch scoring: 1 runs serially, more run "
             "in forked processes (default: 1)")
    sub.add_argument(
        "--no-cache", action="store_true",
        help="disable both cache tiers for this run (cold-path "
             "benchmarking)")
    sub.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        dest="task_timeout",
        help="per-chunk timeout for batch scoring (default: none)")
    sub.add_argument(
        "--retry-budget", type=int, default=None, metavar="N",
        dest="retry_budget",
        help="pool relaunches allowed after worker crashes or timeouts "
             "before scoring the rest serially (default: 2)")


def build_parser() -> argparse.ArgumentParser:
    """The argument parser for the ``sst`` command."""
    parser = argparse.ArgumentParser(
        prog="sst",
        description="SOQA-SimPack Toolkit: ontology language independent "
                    "similarity detection in ontologies")
    parser.add_argument(
        "--ontology-file", dest="ontology_files", action="append",
        default=[], metavar="FILE",
        help="load this ontology file instead of the bundled corpus "
             "(repeatable; language inferred from the suffix)")
    parser.add_argument(
        "--cache-dir", default=None, metavar="DIR",
        help="directory of the persistent similarity cache (default: "
             "SST_CACHE_DIR, else ~/.cache/sst)")
    parser.add_argument(
        "--l1-max", type=int, default=None, metavar="N", dest="l1_max",
        help="entry cap of the in-memory similarity cache (default: "
             "100000)")
    parser.add_argument(
        "--inject-faults", default=None, metavar="SPEC",
        dest="inject_faults",
        help="arm deterministic fault injection for this run, e.g. "
             "'worker.crash=1,cache.corrupt' (sites: worker.crash, "
             "task.slow, cache.corrupt, loader.io, index.corrupt, "
             "server.slow; also via SST_FAULTS)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("ontologies", help="list loaded ontologies")

    sim = subparsers.add_parser("sim", help="similarity of two concepts")
    sim.add_argument("first_ontology")
    sim.add_argument("first_concept")
    sim.add_argument("second_ontology")
    sim.add_argument("second_concept")
    sim.add_argument("-m", "--measure", type=_measure_argument,
                     default=None,
                     help="measure id or name (default: all Table-1 "
                          "measures)")

    for name, help_text in (("ksim", "k most similar concepts"),
                            ("kdissim", "k most dissimilar concepts")):
        sub = subparsers.add_parser(name, help=help_text)
        sub.add_argument("ontology")
        sub.add_argument("concept")
        sub.add_argument("-k", type=int, default=10)
        sub.add_argument("-m", "--measure", type=_measure_argument,
                         default=int(Measure.SHORTEST_PATH))
        sub.add_argument("--subtree", default=None,
                         help="restrict candidates to this subtree root "
                              "(format ontology:Concept)")
        _add_parallel_arguments(sub)

    matrix = subparsers.add_parser(
        "matrix",
        help="pairwise similarity matrix of a concept set (batch engine)")
    matrix.add_argument(
        "concepts", nargs="*", metavar="ONTOLOGY:CONCEPT",
        help="the concept set (repeatable prefix notation)")
    matrix.add_argument(
        "--from-ontology", default=None, metavar="NAME",
        help="use every concept of this ontology as the set")
    matrix.add_argument(
        "--limit", type=int, default=None, metavar="N",
        help="cap the concept set at its first N members")
    matrix.add_argument("-m", "--measure", type=_measure_argument,
                        default=int(Measure.SHORTEST_PATH))
    matrix.add_argument("--format", choices=("text", "json"),
                        default="text", dest="output_format")
    _add_parallel_arguments(matrix)

    chart = subparsers.add_parser(
        "chart", help="chart the k most similar concepts (Fig. 5)")
    chart.add_argument("ontology")
    chart.add_argument("concept")
    chart.add_argument("-k", type=int, default=10)
    chart.add_argument("-m", "--measure", type=_measure_argument,
                       default=int(Measure.SHORTEST_PATH))
    chart.add_argument("-o", "--output", default=None, metavar="DIR",
                       help="also write SVG + Gnuplot artifacts here")

    subparsers.add_parser(
        "table1", help="recompute the paper's Table 1 on the corpus")
    subparsers.add_parser("measures", help="list available measures")

    query = subparsers.add_parser("query", help="run a SOQA-QL query")
    query.add_argument("soqaql", help="the query text")

    align = subparsers.add_parser(
        "align", help="propose a one-to-one alignment of two ontologies")
    align.add_argument("first_ontology")
    align.add_argument("second_ontology")
    align.add_argument("-m", "--measure", type=_measure_argument,
                       default=int(Measure.TFIDF))
    align.add_argument("-t", "--threshold", type=float, default=0.5)
    _add_parallel_arguments(align)

    search = subparsers.add_parser(
        "search", help="free-text semantic search over concepts")
    search.add_argument("text", help="the search query")
    search.add_argument("-k", type=int, default=10)
    search.add_argument("--scheme", choices=("tfidf", "bm25"),
                        default="tfidf")

    subparsers.add_parser(
        "stats", help="structural statistics of the loaded ontologies")

    validate = subparsers.add_parser(
        "validate", help="quality diagnostics for one ontology")
    validate.add_argument("ontology")
    validate.add_argument("--format", choices=("text", "json"),
                          default="text", dest="output_format")

    lint = subparsers.add_parser(
        "lint", help="static analysis of ontologies and SOQA-QL queries")
    lint.add_argument(
        "ontologies", nargs="*", metavar="ONTOLOGY",
        help="ontologies to lint (default: all loaded)")
    lint.add_argument(
        "--soqaql", action="append", default=[], metavar="QUERY",
        help="also statically check this SOQA-QL query (repeatable)")
    lint.add_argument("--format", choices=("text", "json"),
                      default="text", dest="output_format")
    lint.add_argument(
        "--fail-on", choices=("error", "warning"), default="error",
        dest="fail_on",
        help="exit non-zero when findings of this severity (or worse) "
             "exist (default: error)")
    lint.add_argument(
        "--rule", action="append", default=None, metavar="CODE",
        dest="rules", help="run only this rule (repeatable)")
    lint.add_argument(
        "--disable", action="append", default=[], metavar="CODE",
        help="disable this rule (repeatable)")
    lint.add_argument(
        "--list-rules", action="store_true",
        help="list all rule codes and exit")

    analyze = subparsers.add_parser(
        "analyze",
        help="static analysis of the toolkit's own source code")
    analyze.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="Python files or directories to analyze (default: the "
             "installed repro package)")
    analyze.add_argument("--format", choices=("text", "json"),
                         default="text", dest="output_format")
    analyze.add_argument(
        "--fail-on", choices=("error", "warning"), default="error",
        dest="fail_on",
        help="exit non-zero when NEW findings of this severity (or "
             "worse) exist (default: error)")
    analyze.add_argument(
        "--rule", action="append", default=None, metavar="CODE",
        dest="rules", help="run only this rule (repeatable)")
    analyze.add_argument(
        "--disable", action="append", default=[], metavar="CODE",
        help="disable this rule (repeatable)")
    analyze.add_argument(
        "--list-rules", action="store_true",
        help="list the code-family rule codes and exit")
    analyze.add_argument(
        "--baseline", default=None, metavar="FILE",
        help="baseline of accepted findings (default: "
             ".sst-analyze-baseline.json in the working directory)")
    analyze.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any baseline file; report every finding as new")
    analyze.add_argument(
        "--write-baseline", action="store_true",
        help="accept the current findings: write them to the baseline "
             "file and exit 0")

    export = subparsers.add_parser(
        "export", help="export an ontology to SOQA meta-model JSON")
    export.add_argument("ontology")
    export.add_argument("output", help="path of the .soqajson file to "
                                       "write")

    explain = subparsers.add_parser(
        "explain", help="evidence report for one concept pair")
    explain.add_argument("first_ontology")
    explain.add_argument("first_concept")
    explain.add_argument("second_ontology")
    explain.add_argument("second_concept")

    diff = subparsers.add_parser(
        "diff", help="structural diff between two ontology files")
    diff.add_argument("old_file")
    diff.add_argument("new_file")

    cache = subparsers.add_parser(
        "cache", help="inspect or clear the persistent similarity cache")
    cache.add_argument("action",
                       choices=("stats", "clear", "path", "compact",
                                "prune"),
                       help="stats: entry counts and size of the "
                            "cache file; clear: drop all stored scores; "
                            "path: print the cache directory; compact: "
                            "checkpoint and VACUUM the file; prune: evict "
                            "least-recently-written corpora until the "
                            "cache fits --max-bytes")
    cache.add_argument("--max-bytes", type=int, default=None,
                       metavar="BYTES", dest="max_bytes",
                       help="size bound for 'prune'")
    cache.add_argument("--format", choices=("text", "json"),
                       default="text", dest="output_format")

    importer = subparsers.add_parser(
        "import",
        help="import ontology files into a sqlite ontology store "
             "(one-time parse; later runs open the store lazily)")
    importer.add_argument(
        "sources", nargs="+", metavar="FILE",
        help="ontology files in any wrapper-supported language")
    importer.add_argument(
        "--output", "-o", required=True, metavar="STORE",
        help="store file to create (conventionally *.sstdb)")
    importer.add_argument(
        "--overwrite", action="store_true",
        help="replace an existing store file")

    serve = subparsers.add_parser(
        "serve",
        help="run the resident similarity service (HTTP/JSON): loads "
             "the corpus once and answers /v1/similarity, /v1/ksim, "
             "/v1/ontologies, /healthz, /readyz and /metrics; "
             "SIGTERM drains gracefully")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8642,
                       help="TCP port; 0 binds an ephemeral port "
                            "(default: 8642)")
    serve.add_argument(
        "--serve-workers", type=int, default=None, metavar="N",
        dest="serve_workers",
        help="request worker threads (default: 8)")
    serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-request deadline, answered with 504 when exceeded; "
             "also the admission wait bound (429 when the estimated "
             "queue wait is longer); 0 disables both (default: 30)")
    serve.add_argument(
        "--max-body", type=int, default=None, metavar="BYTES",
        dest="max_body",
        help="request body cap, answered with 413 beyond it "
             "(default: 1 MiB)")
    serve.add_argument(
        "--breaker-threshold", type=int, default=None, metavar="N",
        dest="breaker_threshold",
        help="consecutive failures that open the admission breaker "
             "(default: 5)")
    serve.add_argument(
        "--breaker-reset", type=float, default=None, metavar="SECONDS",
        dest="breaker_reset",
        help="open-circuit hold before the half-open probe; also the "
             "Retry-After hint (default: 30)")
    serve.add_argument(
        "--drain-timeout", type=float, default=None, metavar="SECONDS",
        dest="drain_timeout",
        help="on SIGTERM/SIGINT, how long in-flight requests may "
             "finish before the process exits (default: 10)")
    serve.add_argument(
        "--idle-timeout", type=float, default=None, metavar="SECONDS",
        dest="idle_timeout",
        help="read deadline for a request line, its header block and "
             "its body; a stalled request gets 408, an idle kept-alive "
             "connection is closed; 0 disables (default: 10)")
    serve.add_argument(
        "--max-requests-per-conn", type=int, default=None, metavar="N",
        dest="max_requests_per_conn",
        help="requests served per connection before it is closed; 1 "
             "turns keep-alive off (default: 100)")
    serve.add_argument(
        "--max-connections", type=int, default=None, metavar="N",
        dest="max_connections",
        help="concurrent connection cap, answered with 503 beyond it "
             "(default: 128)")
    serve.add_argument(
        "--queue-limit", type=int, default=None, metavar="N",
        dest="queue_limit",
        help="admitted requests that may wait behind the worker pool "
             "before new work is shed with 429 (default: four per "
             "worker)")

    trace = subparsers.add_parser(
        "trace",
        help="run any subcommand with tracing on and print its span tree")
    trace.add_argument(
        "wrapped", nargs=argparse.REMAINDER, metavar="COMMAND ...",
        help="the subcommand (plus arguments) to trace")

    metrics = subparsers.add_parser(
        "metrics",
        help="run any subcommand and print the collected metrics "
             "(the wrapped command's stdout is discarded)")
    metrics.add_argument("--format", choices=("text", "json", "prometheus"),
                         default="text", dest="output_format")
    metrics.add_argument(
        "wrapped", nargs=argparse.REMAINDER, metavar="COMMAND ...",
        help="the subcommand (plus arguments) to measure; put --format "
             "before it")

    subparsers.add_parser("browse", help="interactive SST Browser")
    subparsers.add_parser("shell", help="interactive SOQA-QL shell")
    return parser


def _load_toolkit(arguments: argparse.Namespace) -> SOQASimPackToolkit:
    """The facade over the requested ontologies.

    The facade is built, and with it every batch flag range-checked,
    before any ontology loads: a bad value fails at once, whatever
    measure the command would run.  Flags left out keep the facade
    defaults.  The CLI attaches the persistent tier by default;
    ``--no-cache`` disables both tiers.
    """
    from repro.core.diskcache import default_cache_directory
    from repro.core.parallel import check_batch_settings

    check_batch_settings(workers=getattr(arguments, "workers", None))
    flags = {"cache_capacity": arguments.l1_max,
             "task_timeout": getattr(arguments, "task_timeout", None),
             "retry_budget": getattr(arguments, "retry_budget", None)}
    sst = SOQASimPackToolkit(
        cache=not getattr(arguments, "no_cache", False),
        cache_dir=(arguments.cache_dir if arguments.cache_dir is not None
                   else default_cache_directory()),
        **{name: value for name, value in flags.items()
           if value is not None})
    if not arguments.ontology_files:
        from repro.ontologies import load_corpus

        load_corpus(sst.soqa)
    for path in arguments.ontology_files:
        sst.soqa.load_file(path)
    return sst


def _split_subtree(value: str | None) -> tuple[str | None, str | None]:
    if value is None:
        return None, None
    ontology_name, _, concept_name = value.partition(":")
    return concept_name or None, ontology_name or None


def _run(arguments: argparse.Namespace) -> int:
    command = arguments.command
    if command in ("trace", "metrics"):
        return _run_observed(arguments)
    if command == "lint" and arguments.list_rules:
        return _print_rule_list()
    if command == "analyze":
        return _run_analyze(arguments)
    if command == "cache":
        return _run_cache(arguments)
    if command == "import":
        return _run_import(arguments)
    if command == "serve":
        return _run_serve(arguments)
    sst = _load_toolkit(arguments)
    try:
        return _dispatch(sst, arguments)
    finally:
        # Persist any scores still buffered for the L2 tier, so the
        # next invocation over the same corpus warm-starts.
        sst.flush_caches()


def _run_serve(arguments: argparse.Namespace) -> int:
    """``sst serve``: bind, load the corpus, serve until drained.

    A bad serve flag or a taken port fails before the corpus loads:
    the socket is bound first and handed to the server.  The corpus is
    shared by every request, which is scored in-process.
    """
    from repro.core.server import listen, serve

    config = _serve_config(arguments)
    with listen(config) as listener:
        sst = _load_toolkit(arguments)
        try:
            serve(sst, config, log=lambda line: print(line, file=sys.stderr),
                  listener=listener)
        finally:
            sst.flush_caches()
    return 0


def _report_cache(sst: SOQASimPackToolkit) -> None:
    """One stderr line on how the persistent tier fared this run.

    Backed by the telemetry counters (which the process workers merge
    into, so serial and process runs report the same numbers);
    silent when the ``SST_TELEMETRY=off`` kill switch is set.
    """
    from repro.core import telemetry

    if not telemetry.enabled():
        return
    registry = telemetry.get_registry()
    hits = registry.value("cache.l2.hits")
    total = hits + registry.value("cache.l2.misses")
    if not total:
        return
    l2 = sst.cache_statistics().get("l2")
    if not l2:
        return
    print(f"disk cache: {hits}/{total} hits "
          f"({hits / total:.1%}) at {l2['path']}", file=sys.stderr)


def _dispatch(sst: SOQASimPackToolkit,
              arguments: argparse.Namespace) -> int:
    command = arguments.command
    if command == "ontologies":
        rows = [[name, sst.soqa.ontology(name).language,
                 str(len(sst.soqa.ontology(name)))]
                for name in sst.ontology_names()]
        print(render_table(["ontology", "language", "concepts"], rows))
    elif command == "sim":
        measures = ([arguments.measure] if arguments.measure is not None
                    else list(TABLE1_MEASURES))
        values = sst.get_similarities(
            arguments.first_concept, arguments.first_ontology,
            arguments.second_concept, arguments.second_ontology, measures)
        rows = [[name, f"{value:.4f}"] for name, value in values.items()]
        print(render_table(["measure", "similarity"], rows))
    elif command in ("ksim", "kdissim"):
        subtree_concept, subtree_ontology = _split_subtree(arguments.subtree)
        service = (sst.get_most_similar_concepts if command == "ksim"
                   else sst.get_most_dissimilar_concepts)
        entries = service(arguments.concept, arguments.ontology,
                          subtree_root_concept_name=subtree_concept,
                          subtree_ontology_name=subtree_ontology,
                          k=arguments.k, measure=arguments.measure,
                          workers=arguments.workers)
        rows = [[str(index + 1), entry.concept_name, entry.ontology_name,
                 f"{entry.similarity:.4f}"]
                for index, entry in enumerate(entries)]
        print(render_table(["rank", "concept", "ontology", "similarity"],
                           rows))
        _report_cache(sst)
    elif command == "chart":
        bar_chart = sst.get_most_similar_plot(
            arguments.concept, arguments.ontology, k=arguments.k,
            measure=arguments.measure)
        print(bar_chart.to_ascii())
        if arguments.output is not None:
            paths = bar_chart.save(arguments.output)
            print("\nwrote: " + ", ".join(str(path) for path in paths))
    elif command == "matrix":
        return _run_matrix(sst, arguments)
    elif command == "table1":
        print(_table1_text(sst))
    elif command == "measures":
        rows = [[str(info["id"]), str(info["name"]),
                 "yes" if info["normalized"] else "no",
                 str(info["description"])]
                for info in sst.available_measures()]
        print(render_table(["id", "measure", "[0,1]", "description"], rows))
    elif command == "query":
        findings = sst.soqa.check_query(arguments.soqaql)
        errors = [finding for finding in findings
                  if finding.severity == "error"]
        for finding in findings:
            print(str(finding), file=sys.stderr)
        if errors:
            return 1
        result = SOQAQLEngine(sst.soqa).execute(arguments.soqaql)
        print(result.to_text())
        print(f"({len(result)} rows)")
    elif command == "align":
        from repro.align.matcher import OntologyMatcher

        matcher = OntologyMatcher(sst, measure=arguments.measure,
                                  threshold=arguments.threshold,
                                  workers=arguments.workers)
        alignment = matcher.match(arguments.first_ontology,
                                  arguments.second_ontology)
        rows = [[str(correspondence.first), str(correspondence.second),
                 f"{correspondence.confidence:.4f}"]
                for correspondence in alignment]
        print(render_table(["first", "second", "confidence"], rows))
        print(f"({len(alignment)} correspondences)")
        _report_cache(sst)
    elif command == "search":
        hits = sst.search_concepts(arguments.text, k=arguments.k,
                                   scheme=arguments.scheme)
        rows = [[str(index + 1), hit.concept_name, hit.ontology_name,
                 f"{hit.similarity:.4f}"]
                for index, hit in enumerate(hits)]
        print(render_table(["rank", "concept", "ontology", "relevance"],
                           rows))
    elif command == "stats":
        from repro.core.statistics import (
            OntologyStatistics,
            corpus_statistics,
        )

        rows = [statistics.as_row()
                for statistics in corpus_statistics(sst.soqa)]
        print(render_table(OntologyStatistics.header(), rows))
        from repro.soqa.sqlstore import SqliteOntology

        info = sst.tree.index_info()
        print(f"\nunified tree: {info['nodes']} nodes, graph index compiled")
        provenance = sst.tree.taxonomy.index_provenance
        if provenance is not None:
            origin = ("loaded from persisted artifact"
                      if provenance["source"] == "artifact"
                      else "compiled fresh")
            print(f"graph index {origin} in "
                  f"{provenance['seconds'] * 1000:.1f} ms")
        backends: dict[str, int] = {}
        for name in sst.ontology_names():
            kind = ("sqlite" if isinstance(sst.soqa.ontology(name),
                                           SqliteOntology)
                    else "in-memory")
            backends[kind] = backends.get(kind, 0) + 1
        summary = ", ".join(f"{count} {kind}"
                            for kind, count in sorted(backends.items()))
        print(f"store backend: {summary}")
    elif command == "validate":
        from repro.analysis import render_json

        findings = sst.lint_ontology(arguments.ontology)
        if arguments.output_format == "json":
            print(render_json(findings))
        elif findings:
            for finding in findings:
                print(finding)
            print(f"({len(findings)} findings)")
        else:
            print("no findings")
        if any(finding.severity == "error" for finding in findings):
            return 1
    elif command == "export":
        from pathlib import Path

        from repro.core.resilience import atomic_write_text
        from repro.soqa.serialize import ontology_to_json

        ontology = sst.soqa.ontology(arguments.ontology)
        output_path = Path(arguments.output)
        atomic_write_text(output_path, ontology_to_json(ontology))
        print(f"wrote {output_path} ({len(ontology)} concepts)")
    elif command == "explain":
        from repro.core.explain import explain_similarity

        print(explain_similarity(
            sst, arguments.first_concept, arguments.first_ontology,
            arguments.second_concept, arguments.second_ontology).to_text())
    elif command == "diff":
        from repro.soqa.diff import diff_ontologies

        old_ontology = sst.soqa.registry.for_path(
            arguments.old_file).load(arguments.old_file)
        new_ontology = sst.soqa.registry.for_path(
            arguments.new_file).load(arguments.new_file)
        result = diff_ontologies(old_ontology, new_ontology)
        print(result.to_text())
    elif command == "lint":
        return _run_lint(sst, arguments)
    elif command == "browse":  # pragma: no cover - interactive
        run_browser(sst)
    elif command == "shell":  # pragma: no cover - interactive
        run_shell(sst.soqa)
    return 0


def _run_matrix(sst: SOQASimPackToolkit,
                arguments: argparse.Namespace) -> int:
    """The ``sst matrix`` subcommand: batch similarity matrices."""
    import json

    references: list[tuple[str, str]] = []
    for spec in arguments.concepts:
        ontology_name, separator, concept_name = spec.partition(":")
        if not separator or not ontology_name or not concept_name:
            print(f"error: malformed concept {spec!r}; expected "
                  "ONTOLOGY:CONCEPT", file=sys.stderr)
            return 1
        references.append((ontology_name, concept_name))
    if arguments.from_ontology is not None:
        ontology = sst.soqa.ontology(arguments.from_ontology)
        references.extend((arguments.from_ontology, concept.name)
                          for concept in ontology)
    if arguments.limit is not None:
        references = references[:arguments.limit]
    if not references:
        print("error: no concepts given (positional ONTOLOGY:CONCEPT or "
              "--from-ontology)", file=sys.stderr)
        return 1
    matrix = sst.get_similarity_matrix(references, arguments.measure,
                                       workers=arguments.workers)
    labels = [f"{ontology_name}:{concept_name}"
              for ontology_name, concept_name in references]
    if arguments.output_format == "json":
        print(json.dumps({
            "measure": sst.runner(arguments.measure).name,
            "labels": labels,
            "matrix": matrix,
        }, indent=2))
    else:
        rows = [[label] + [f"{value:.4f}" for value in row]
                for label, row in zip(labels, matrix)]
        print(render_table(["concept"] + labels, rows))
    _report_cache(sst)
    return 0


def _serve_config(arguments: argparse.Namespace):
    """The range-checked ``sst serve`` settings; flags left out keep
    the :class:`~repro.core.server.ServerConfig` defaults."""
    from repro.core.server import ServerConfig

    flags = {"workers": arguments.serve_workers,
             "deadline_seconds": arguments.deadline,
             "max_body_bytes": arguments.max_body,
             "breaker_threshold": arguments.breaker_threshold,
             "breaker_reset": arguments.breaker_reset,
             "drain_seconds": arguments.drain_timeout,
             "idle_timeout": arguments.idle_timeout,
             "max_requests_per_connection": arguments.max_requests_per_conn,
             "max_connections": arguments.max_connections,
             "queue_limit": arguments.queue_limit}
    return ServerConfig(host=arguments.host, port=arguments.port,
                        **{name: value for name, value in flags.items()
                           if value is not None})


def _render_metrics(output_format: str) -> str:
    """The metrics registry in the requested exposition format."""
    from repro.core import telemetry

    registry = telemetry.get_registry()
    if output_format == "json":
        return registry.render_json()
    if output_format == "prometheus":
        return registry.render_prometheus()
    return registry.render_text()


def _run_observed(arguments: argparse.Namespace) -> int:
    """``sst trace <cmd>`` / ``sst metrics <cmd>``: observe any command.

    Both wrappers force telemetry on (an explicit request to observe
    beats the ambient ``SST_TELEMETRY`` kill switch), re-parse the
    wrapped argv with the full parser, and run it through the normal
    dispatch.  ``trace`` appends the span tree and a metrics summary to
    the command's own output; ``metrics`` discards the wrapped stdout
    and prints only the exposition, so ``--format json``/``prometheus``
    stay machine-readable.
    """
    import io
    from contextlib import redirect_stdout

    from repro.core import telemetry

    wrapped = list(arguments.wrapped)
    if wrapped and wrapped[0] == "--":
        wrapped = wrapped[1:]
    if not wrapped:
        if arguments.command == "metrics":
            # Nothing to run: expose the (empty) registry as-is.
            print(_render_metrics(arguments.output_format))
            return 0
        print("error: sst trace needs a subcommand to wrap, e.g. "
              "`sst trace matrix --from-ontology COURSES`",
              file=sys.stderr)
        return 2
    inner = build_parser().parse_args(wrapped)
    if inner.command in ("trace", "metrics"):
        print(f"error: cannot nest {inner.command} inside "
              f"{arguments.command}", file=sys.stderr)
        return 2
    # Global options given before the wrapper apply to the wrapped
    # command unless it overrides them itself.
    if not inner.ontology_files:
        inner.ontology_files = arguments.ontology_files
    if inner.cache_dir is None:
        inner.cache_dir = arguments.cache_dir
    if inner.l1_max is None:
        inner.l1_max = arguments.l1_max
    telemetry.set_enabled(True)
    if arguments.command == "trace":
        with telemetry.span(f"sst.{inner.command}"):
            code = _run(inner)
        print()
        print("── trace " + "─" * 51)
        print(telemetry.render_span_tree(telemetry.get_tracer().drain()))
        print()
        print("── metrics " + "─" * 49)
        print(telemetry.get_registry().render_text())
        return code
    sink = io.StringIO()
    with redirect_stdout(sink):
        with telemetry.span(f"sst.{inner.command}"):
            code = _run(inner)
    print(_render_metrics(arguments.output_format))
    return code


def _run_cache(arguments: argparse.Namespace) -> int:
    """The ``sst cache`` subcommand: stats / clear / path / compact /
    prune over the L2 file in the cache directory."""
    import json

    from repro.core.diskcache import DiskCache

    cache = DiskCache(arguments.cache_dir)
    if arguments.action == "path":
        print(cache.directory)
    elif arguments.action == "stats":
        statistics = cache.stats()
        if arguments.output_format == "json":
            print(json.dumps(statistics, indent=2))
        else:
            rows = [[key, str(value)]
                    for key, value in statistics.items()]
            print(render_table(["key", "value"], rows))
    elif arguments.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} cached scores from {cache.directory}")
    elif arguments.action == "compact":
        result = cache.compact()
        print(f"compacted {cache.path}: "
              f"{result['before_bytes']} -> {result['after_bytes']} bytes")
    elif arguments.action == "prune":
        if arguments.max_bytes is None:
            print("cache prune requires --max-bytes", file=sys.stderr)
            return 2
        result = cache.prune(arguments.max_bytes)
        print(f"pruned {result['removed_fingerprints']} corpus "
              f"fingerprint(s), {result['removed_rows']} row(s); cache "
              f"is now {result['size_bytes']} bytes")
    return 0


def _run_import(arguments: argparse.Namespace) -> int:
    """The ``sst import`` subcommand: parse sources once, stream them
    into a sqlite ontology store.

    The store is built **crash-safely**: rows stream into a journaled
    same-directory temp file which is fsynced and ``os.replace``d over
    the target only once complete, so a ``kill -9`` at any byte offset
    leaves either the previous store or the new one — never a partial
    that would demand ``--overwrite`` on the retry.
    """
    from repro.soqa.sqlstore import SqliteOntologyStore
    from repro.soqa.wrapper import default_registry

    registry = default_registry()
    # Resolve every source to a wrapper before touching the output path:
    # a typo'd extension must not leave behind an empty store that then
    # demands --overwrite on the corrected retry.
    wrappers = [registry.for_path(source) for source in arguments.sources]
    with SqliteOntologyStore.build(arguments.output,
                                   overwrite=arguments.overwrite) as store:
        for source, wrapper in zip(arguments.sources, wrappers):
            if hasattr(wrapper, "load_all"):
                ontologies = wrapper.load_all(source)
            else:
                ontologies = [wrapper.load(source)]
            for ontology in ontologies:
                summary = store.import_ontology(ontology)
                print(f"imported {summary['ontology']} "
                      f"({summary['concepts']} concepts, "
                      f"{summary['language'] or 'unknown language'}) "
                      f"from {source}")
        totals = store.stats()
    # Printed only after the atomic promote: this line showing up means
    # the store at its final path is complete and loadable.
    print(f"store {store.path}: {len(totals['ontologies'])} "
          f"ontologies, {totals['concepts']} concepts, "
          f"{totals['size_bytes']} bytes")
    return 0


def _run_analyze(arguments: argparse.Namespace) -> int:
    """The ``sst analyze`` subcommand: code rules over toolkit source.

    Exit status mirrors ``sst lint``: 0 when no *new* finding (i.e. not
    accepted by the baseline) reaches the ``--fail-on`` severity, 1
    otherwise, 2 for unusable inputs.  Baseline-accepted findings are
    reported as a count on stderr so stdout stays schema-stable.
    """
    from pathlib import Path

    from repro.analysis import (
        CODE_RULES,
        AnalysisConfig,
        analyze_paths,
        gate,
        render_json,
        render_text,
    )
    from repro.analysis.baseline import (
        Baseline,
        DEFAULT_BASELINE_NAME,
        write_baseline,
    )

    if arguments.list_rules:
        rows = [[rule.code, rule.severity, rule.description]
                for rule in CODE_RULES.rules()]
        print(render_table(["code", "severity", "description"], rows))
        return 0
    paths = list(arguments.paths)
    if not paths:
        import repro

        paths = [str(Path(repro.__file__).parent)]
    for path in paths:
        if not Path(path).exists():
            print(f"error: no such file or directory: {path}",
                  file=sys.stderr)
            return 2
    config = AnalysisConfig.create(only=arguments.rules,
                                   disabled=arguments.disable)
    config.validate(CODE_RULES)
    findings = analyze_paths(paths, config=config)
    baseline_path = arguments.baseline or DEFAULT_BASELINE_NAME
    if arguments.write_baseline:
        written = write_baseline(baseline_path, findings)
        print(f"accepted {len(findings)} finding(s) into {written}")
        return 0
    if arguments.no_baseline:
        baseline = Baseline()
    else:
        # A user-named baseline must exist: a typo'd --baseline path
        # silently reporting everything as new defeats the gate.
        baseline = Baseline.load(
            baseline_path, required=arguments.baseline is not None)
    new, accepted = baseline.split(findings)
    if arguments.output_format == "json":
        print(render_json(new))
    else:
        print(render_text(new))
    if accepted:
        print(f"({len(accepted)} baselined finding(s) suppressed by "
              f"{baseline_path})", file=sys.stderr)
    return 1 if gate(new, arguments.fail_on) else 0


def _print_rule_list() -> int:
    """The ``sst lint --list-rules`` table."""
    from repro.analysis import all_rules

    rows = [[rule.code, rule.family, rule.severity, rule.description]
            for rule in all_rules()]
    print(render_table(["code", "family", "severity", "description"], rows))
    return 0


def _run_lint(sst: SOQASimPackToolkit, arguments: argparse.Namespace) -> int:
    """The ``sst lint`` subcommand: ontologies and/or SOQA-QL queries."""
    from repro.analysis import (
        ONTOLOGY_RULES,
        QUERY_RULES,
        AnalysisConfig,
        gate,
        render_json,
        render_text,
        sort_findings,
    )

    config = AnalysisConfig.create(only=arguments.rules,
                                   disabled=arguments.disable)
    config.validate(ONTOLOGY_RULES, QUERY_RULES)
    findings = []
    ontology_names = list(arguments.ontologies)
    if not ontology_names and not arguments.soqaql:
        ontology_names = sst.ontology_names()  # lint everything loaded
    for name in ontology_names:
        findings.extend(sst.lint_ontology(name, config=config))
    for query_text in arguments.soqaql:
        findings.extend(sst.check_query(query_text, config=config))
    findings = sort_findings(findings)
    if arguments.output_format == "json":
        print(render_json(findings))
    else:
        print(render_text(findings))
    return 1 if gate(findings, arguments.fail_on) else 0


#: The comparison rows of the paper's Table 1.
TABLE1_ROWS = (
    ("Professor", "base1_0_daml"),
    ("AssistantProfessor", "univ-bench_owl"),
    ("EMPLOYEE", "COURSES"),
    ("Human", "SUMO_owl_txt"),
    ("Mammal", "SUMO_owl_txt"),
)


def _table1_text(sst: SOQASimPackToolkit) -> str:
    """Table 1 of the paper, recomputed on the loaded corpus."""
    headers = ["Concept"] + [sst.runner(measure).name
                             for measure in TABLE1_MEASURES]
    rows = []
    for concept_name, ontology_name in TABLE1_ROWS:
        values = sst.get_similarities(
            "Professor", "base1_0_daml", concept_name, ontology_name,
            TABLE1_MEASURES)
        rows.append([f"{ontology_name}:{concept_name}"]
                    + [f"{value:.4f}" for value in values.values()])
    return render_table(headers, rows)


def main(argv: list[str] | None = None) -> int:
    """Entry point of the ``sst`` command."""
    from repro.core import resilience, telemetry

    parser = build_parser()
    arguments = parser.parse_args(argv)
    # Fresh telemetry per invocation: honor the SST_TELEMETRY kill
    # switch and drop anything a previous in-process call recorded.
    telemetry.refresh_from_env()
    telemetry.reset()
    try:
        # Fresh fault plan per invocation, same as telemetry:
        # SST_FAULTS arms injection ambiently, --inject-faults beats it.
        resilience.refresh_from_env()
        if arguments.inject_faults is not None:
            resilience.install_fault_plan(arguments.inject_faults)
        return _run(arguments)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except SSTError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Output was piped into a consumer that stopped reading
        # (e.g. ``sst table1 | head``); exit quietly like other CLIs.
        sys.stderr.close()
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
