"""Quickstart: build a world, index subjective tags, answer a subjective query.

Runs in ~30 seconds.  Uses the oracle extractor (gold review annotations) so
no model training is needed — see ``conversational_search.py`` for the full
neural pipeline.

    python examples/quickstart.py
"""

from repro.core import OracleExtractor, Saccs, SaccsConfig, SubjectiveTag
from repro.data import WorldConfig, build_world
from repro.text import ConceptualSimilarity, restaurant_lexicon


def main() -> None:
    # 1. A synthetic restaurant world: entities with latent subjective
    #    quality, plus reviews whose text reflects it.
    world = build_world(WorldConfig.small(num_entities=40, mean_reviews=12))
    entity = world.entities[0]
    print(f"World: {len(world.entities)} restaurants, {world.num_reviews} reviews")
    print(f"Example entity: {entity.name} ({entity.stars} stars)")
    print(f"Example review: {world.reviews[entity.entity_id][0].text!r}\n")

    # 2. SACCS: extract subjective tags from every review and build the
    #    inverted index with degrees of truth (paper Table 1 / Eq. 1).
    similarity = ConceptualSimilarity(restaurant_lexicon())
    saccs = Saccs(world.entities, world.reviews, OracleExtractor(), similarity, SaccsConfig())
    saccs.build_index([SubjectiveTag.from_text(d.name) for d in world.dimensions])
    print("Subjective tag index (snippet, cf. paper Table 1):")
    print(saccs.index.snippet(max_tags=4, max_entities=3), "\n")

    # 3. Answer a subjective query: filter + rank by degrees of truth.
    query = [SubjectiveTag.from_text("delicious food"), SubjectiveTag.from_text("nice staff")]
    print(f"Query: {', '.join(t.text for t in query)}")
    results = saccs.answer_tags(query)
    name_of = {e.entity_id: e.name for e in world.entities}
    for rank, (entity_id, score) in enumerate(results[:5], start=1):
        truth = ", ".join(
            f"{d}={world.true_sat(d, entity_id):.2f}" for d in ("delicious food", "nice staff")
        )
        print(f"  {rank}. {name_of[entity_id]:<22} score={score:.3f}   latent: {truth}")

    # 4. Unknown tags are answered by combining similar index tags and then
    #    adopted at the next indexing round (the adaptive loop of Figure 1).
    unknown = SubjectiveTag.from_text("mouthwatering pasta")
    results = saccs.answer_tags([unknown])
    print(f"\nUnknown tag {unknown.text!r} answered via similar index tags:")
    for entity_id, score in results[:3]:
        print(f"  {name_of[entity_id]:<22} score={score:.3f}")
    round_ = saccs.run_indexing_round()
    print(f"Indexing round adopted: {[t.text for t in round_.added]}")


if __name__ == "__main__":
    main()
