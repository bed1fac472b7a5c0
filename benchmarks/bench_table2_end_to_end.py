"""Table 2 — Comparing SACCS to baselines (NDCG by query difficulty).

Regenerates the paper's end-to-end evaluation: IR (BM25 + query expansion),
SIM with 1 and 2 attributes (NDCG-maximising attribute filtering), and SACCS
with 6, 12 and 18 tags in the index, on Short/Medium/Long query sets scored
by crowd-estimated ``sat`` via NDCG@10.

SACCS runs its full neural pipeline: tagger trained on S1, tree-heuristic
pairing, extraction over every review, Eq.-1 indexing, Algorithm-1 ranking.

Shape assertions (DESIGN.md §4):
* SACCS-18 beats IR and both SIM variants at every difficulty level;
* SACCS improves monotonically with index size;
* every system's NDCG is higher on Long than on Short queries.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.common import (
    bench_entities,
    bench_epochs,
    bench_queries,
    bench_reviews,
    bench_scale,
    paper_reference,
    print_table,
)
from repro.bert import pretrained_encoder
from repro.core import (
    HeuristicPairer,
    IRBaseline,
    Saccs,
    SaccsConfig,
    SequenceTagger,
    SimBaseline,
    SubjectiveTag,
    TagExtractor,
    TaggerTrainer,
    TaggerTrainingConfig,
    TreePairingHeuristic,
)
from repro.data import (
    CatalogConfig,
    CrowdSimulator,
    QueryConfig,
    ReviewConfig,
    WorldConfig,
    build_tagging_dataset,
    build_world,
    generate_query_sets,
)
from repro.ir import mean_ndcg
from repro.text import ChunkParser, ConceptualSimilarity, PosLexicon, restaurant_lexicon

PAPER_TABLE2 = {
    "IR": (0.829, 0.896, 0.916),
    "SIM - 1 att": (0.828, 0.886, 0.907),
    "SIM - 2 atts": (0.837, 0.891, 0.909),
    "SACCS - 6 tags": (0.815, 0.874, 0.896),
    "SACCS - 12 tags": (0.825, 0.882, 0.902),
    "SACCS - 18 tags": (0.854, 0.911, 0.928),
}

LEVELS = ("Short", "Medium", "Long")


@pytest.fixture(scope="module")
def experiment():
    """Build the world, the systems and the query sets once."""
    world = build_world(
        WorldConfig(
            catalog=CatalogConfig(num_entities=bench_entities()),
            reviews=ReviewConfig(mean_reviews_per_entity=bench_reviews()),
        )
    )
    table = CrowdSimulator(world).build_sat_table()
    lexicon = restaurant_lexicon()
    similarity = ConceptualSimilarity(lexicon)
    dims = [d.name for d in world.dimensions]

    # Neural extraction pipeline.
    encoder = pretrained_encoder("restaurants")
    tagger = SequenceTagger(encoder, np.random.default_rng(0))
    TaggerTrainer(tagger, TaggerTrainingConfig(epochs=bench_epochs())).fit(
        build_tagging_dataset("S1", scale=bench_scale()).train
    )
    parser = ChunkParser(PosLexicon(lexicon))
    extractor = TagExtractor(
        tagger, HeuristicPairer([TreePairingHeuristic(parser, direction="opinions")])
    )

    # One extraction pass shared by all three SACCS index sizes: every
    # variant ingests through ``base``'s engine, whose content-hash memo
    # answers each review after the first pass.
    base = Saccs(world.entities, world.reviews, extractor, similarity, SaccsConfig())
    saccs_variants = {}
    for count in (6, 12, 18):
        system = Saccs(world.entities, world.reviews, extractor, similarity, SaccsConfig())
        system.extraction_engine = base.extraction_engine
        system.build_index([SubjectiveTag.from_text(d) for d in dims[:count]])
        saccs_variants[count] = system

    queries = generate_query_sets(QueryConfig(queries_per_level=bench_queries()))
    return {
        "world": world,
        "sat": table.sat,
        "all_ids": [e.entity_id for e in world.entities],
        "queries": queries,
        "ir": IRBaseline(world.entities, world.reviews, lexicon),
        "sim1": SimBaseline(world.entities, max_attributes=1),
        "sim2": SimBaseline(world.entities, max_attributes=2),
        "saccs": saccs_variants,
    }


def _scores(experiment) -> dict:
    sat = experiment["sat"]
    all_ids = experiment["all_ids"]
    results = {}
    for level in LEVELS:
        queries = [list(q.dimensions) for q in experiment["queries"][level]]
        row = {}
        ir_rankings = [[e for e, _ in experiment["ir"].rank(q)] for q in queries]
        row["IR"] = mean_ndcg(queries, ir_rankings, sat, all_ids)
        row["SIM - 1 att"] = float(
            np.mean([experiment["sim1"].rank_best(q, sat)[1] for q in queries])
        )
        row["SIM - 2 atts"] = float(
            np.mean([experiment["sim2"].rank_best(q, sat)[1] for q in queries])
        )
        for count, system in experiment["saccs"].items():
            rankings = [
                [e for e, _ in system.answer_tags([SubjectiveTag.from_text(d) for d in q])]
                for q in queries
            ]
            row[f"SACCS - {count} tags"] = mean_ndcg(queries, rankings, sat, all_ids)
        results[level] = row
    return results


def test_table2_end_to_end(benchmark, experiment):
    results = _scores(experiment)

    systems = ["IR", "SIM - 1 att", "SIM - 2 atts", "SACCS - 6 tags", "SACCS - 12 tags", "SACCS - 18 tags"]
    rows = [[s, *(f"{results[level][s]:.3f}" for level in LEVELS)] for s in systems]
    print_table("Table 2 (measured): NDCG@10 by query difficulty", ["System", *LEVELS], rows)
    paper_reference("Table 2", PAPER_TABLE2, ["System", *LEVELS])

    # --- shape assertions -------------------------------------------------
    for level in LEVELS:
        row = results[level]
        assert row["SACCS - 18 tags"] > row["IR"], level
        assert row["SACCS - 18 tags"] > row["SIM - 2 atts"], level
        assert row["SACCS - 6 tags"] <= row["SACCS - 12 tags"] + 0.02, level
        assert row["SACCS - 12 tags"] <= row["SACCS - 18 tags"] + 0.02, level
    for system in systems:
        assert results["Long"][system] > results["Short"][system] - 0.03, system

    # Timed portion: one full SACCS query (extract path is pre-built).
    saccs18 = experiment["saccs"][18]
    query = [SubjectiveTag.from_text(d) for d in ("delicious food", "nice staff", "quick service")]
    benchmark(lambda: saccs18.answer_tags(query))
