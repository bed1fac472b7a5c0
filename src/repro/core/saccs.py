"""The SACCS facade (Figure 1): extraction → indexing → filtering → ranking.

Bundles the whole system behind three entry points:

* :meth:`Saccs.answer` — full conversational path: parse the utterance
  once through the dialog shim, extract subjective tags from it when the
  turn is routed subjective, probe/extend the index, filter and rank.
* :meth:`Saccs.answer_tags` — the evaluation path of Section 6.2, where the
  subjective tags are given directly.
* :meth:`Saccs.answer_many` — Algorithm 1 for a batch of requests; the
  other two, the serving runtime and conversation sessions all rank
  through it.

Unknown query tags are answered in real time by combining similar index
tags (Algorithm 1 line 10) and are remembered in the *user tag history*;
:meth:`run_indexing_round` folds the history into the index, which is how
SACCS "adapts to new user needs".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.conversation.classify import ROUTE_SUBJECTIVE, ParsedUtterance
from repro.core.dialog import DialogSystem
from repro.core.extraction_engine import ExtractionEngine
from repro.core.extractor import OracleExtractor, TagExtractor
from repro.core.filtering import FilterConfig, filter_and_rank
from repro.core.index import SubjectiveTagIndex
from repro.core.tags import SubjectiveTag
from repro.data.schema import Entity, Review
from repro.obs import tracing as obs
from repro.text.similarity import ConceptualSimilarity

if TYPE_CHECKING:
    from repro.core.fraud import FakeReviewFilter

__all__ = ["SaccsConfig", "Saccs", "IndexingRound"]

@dataclass(frozen=True)
class IndexingRound:
    """Outcome of one :meth:`Saccs.run_indexing_round`.

    Carries the post-round :attr:`generation` (what caches key invalidation
    on) and the tags adopted this round.
    """

    generation: int
    added: Tuple[SubjectiveTag, ...]


@dataclass
class SaccsConfig:
    """Thresholds and ranking behaviour."""

    theta_index: float = 0.70
    theta_filter: float = 0.60
    aggregation: str = "mean"
    top_k: Optional[int] = 10
    mode: str = "soft"
    backfill: bool = True
    review_count_mode: str = "matched"
    theta_mode: str = "static"
    #: encoder precision for the tape-free fused inference path used by
    #: bucketed extraction: ``"float64"`` (bitwise-identical default) or
    #: ``"float32"`` (tolerance-bounded, faster).  The only extraction
    #: setting; an unknown value fails when :class:`Saccs` builds its engine.
    encoder_precision: str = "float64"
    #: The tag index is one unsharded index with in-line lookups, so each
    #: of these accepts only its default.  They remain as fields because
    #: the benchmark builder passes both by name.
    index_shards: int = 1
    index_lookup_workers: int = 0

    def __post_init__(self):
        if self.index_shards != 1:
            raise ValueError("index_shards must be 1: the tag index is not sharded")
        if self.index_lookup_workers != 0:
            raise ValueError("index_lookup_workers must be 0: lookups run in-line")

    def filter_config(self) -> FilterConfig:
        return FilterConfig(
            aggregation=self.aggregation,
            top_k=self.top_k,
            mode=self.mode,
            backfill=self.backfill,
        )


class Saccs:
    """Subjectivity Aware Conversational Search Service."""

    def __init__(
        self,
        entities: Sequence[Entity],
        reviews: Mapping[str, Sequence[Review]],
        extractor: Union[TagExtractor, OracleExtractor],
        similarity: ConceptualSimilarity,
        config: Optional[SaccsConfig] = None,
        review_filter: Optional["FakeReviewFilter"] = None,
    ):
        self.entities = list(entities)
        self.reviews = reviews
        self.extractor = extractor
        self.similarity = similarity
        self.config = config or SaccsConfig()
        self.dialog = DialogSystem(self.entities)
        self.index = self._make_index()
        #: optional fake-review defence (Section 7 future work); suspicious
        #: reviews are dropped before extraction.
        self.review_filter = review_filter
        #: the corpus-wide batched extraction pass (buckets, pairing,
        #: content-hash memo).  :meth:`answer`, served utterances and
        #: session turns are extracted through it too, so they share its
        #: tagger lock and precision, and ``/metrics`` sees its counters.
        self.extraction_engine = ExtractionEngine(extractor, self.config.encoder_precision)
        self.user_tag_history: List[SubjectiveTag] = []
        #: monotonically increasing counter, bumped by every indexing round
        #: (including :meth:`build_index`).  Serving layers stamp cached
        #: rankings with the generation they were computed under, so a bump
        #: deterministically invalidates everything derived from the old
        #: index state.
        self.index_generation = 0
        self._ingested = False

    # ------------------------------------------------------------- ingestion

    def _make_index(self) -> SubjectiveTagIndex:
        """A fresh, empty index under the configured thresholds."""
        return SubjectiveTagIndex(
            self.similarity,
            theta_index=self.config.theta_index,
            review_count_mode=self.config.review_count_mode,
            theta_mode=self.config.theta_mode,
        )

    def ingest_reviews(self) -> None:
        """Extract subjective tags from every review (the extractor pass).

        The whole corpus goes through the :class:`ExtractionEngine` —
        sentences from all entities flattened, length-bucketed, batch-tagged
        and paired, with per-review results memoised by content hash.  Its
        output equals one ``extractor.extract_review`` call per review (the
        oracle the extraction tests build their reference index from).
        """
        self._register_corpus(self.index)
        self._ingested = True

    def _register_corpus(
        self,
        index: SubjectiveTagIndex,
        pace: Optional[Callable[[], None]] = None,
    ) -> None:
        """Extract the current corpus and register it into ``index``.

        ``pace`` (if given) is called between per-entity work units so a
        background rebuild can yield the interpreter to serving threads —
        without it a rebuild holds the GIL for full switch-interval
        stretches and search tail latency spikes.
        """
        entity_reviews = []
        for entity in self.entities:
            reviews = list(self.reviews.get(entity.entity_id, []))
            if self.review_filter is not None:
                reviews = self.review_filter.filter_reviews(reviews)
            entity_reviews.append((entity.entity_id, reviews))
        extracted = self.extraction_engine.extract_corpus(entity_reviews)
        if pace is not None:
            pace()
        with self.extraction_engine.timings.span("register"):
            for entity_id, per_review in extracted:
                index.register_entity(entity_id, per_review)
                if pace is not None:
                    pace()

    def build_index(self, tags: Iterable[SubjectiveTag]) -> None:
        """Index an initial tag set (ingesting reviews first if needed)."""
        if not self._ingested:
            self.ingest_reviews()
        self.index.build(tags)
        self.index_generation += 1

    def prepare_rebuild(
        self,
        reviews: Optional[Mapping[str, Sequence[Review]]] = None,
        indexed_tags: Optional[Sequence[SubjectiveTag]] = None,
        pace: Optional[Callable[[], None]] = None,
    ) -> SubjectiveTagIndex:
        """Build a replacement index off to the side (the double buffer).

        The full rebuild's first half, for corpus edits: pass the new
        ``reviews`` mapping (or ``None`` to re-read the current one) and the
        extraction engine's content-hash memo re-tags only new or edited
        reviews; an unchanged corpus makes no tagger call.  Extraction and
        degree computation run against a *fresh* index object while
        :attr:`index` keeps serving; nothing a reader can observe changes
        until :meth:`commit_rebuild` swaps the result in.
        Concurrent-serving callers snapshot ``indexed_tags`` under their own
        lock before calling and hold that lock only for the swap.

        ``pace`` is called between rebuild work units (per entity, per
        indexed tag).  Background rebuilds pass a short sleep here so the
        build never monopolises the interpreter for a full GIL switch
        interval — the same idea as rate-limited compactions in LSM stores.
        """
        if reviews is not None:
            self.reviews = reviews
        if indexed_tags is None:
            indexed_tags = list(self.index.tags)
        fresh = self._make_index()
        self._register_corpus(fresh, pace=pace)
        for tag in indexed_tags:
            fresh.add_tag(tag)
            if pace is not None:
                pace()
        return fresh

    def commit_rebuild(self, prepared: SubjectiveTagIndex) -> IndexingRound:
        """Swap a prepared index in and fold the accumulated tag history.

        The full rebuild's atomic second half: one pointer
        swap, then :meth:`run_indexing_round` folds in the user tags that
        arrived *while the buffer was being built* and bumps the generation
        once.
        """
        self.index = prepared
        self._ingested = True
        return self.run_indexing_round()

    def adopt_index(self, index: SubjectiveTagIndex) -> None:
        """Install a warm-started index (snapshot load) without re-extracting.

        Marks the corpus as ingested so a later :meth:`build_index` call
        with the same tag set no-ops instead of re-running extraction.
        """
        self.index = index
        self._ingested = True
        self.index_generation += 1

    def run_indexing_round(self) -> IndexingRound:
        """Fold the user tag history into the index (Figure 1's loop).

        Folding is idempotent — a tag already adopted by an earlier round is
        skipped — and processes the history as a *sorted set*, so the index
        ends up in the same state (same tag insertion order, bit-identical
        degree matrices) no matter the order concurrent requests appended
        their unknown tags.  Every round bumps :attr:`index_generation`,
        even when nothing new was adopted.
        """
        added = []
        for tag in sorted(set(self.user_tag_history)):
            if tag not in self.index:
                self.index.add_tag(tag)
                added.append(tag)
        self.user_tag_history.clear()
        self.index_generation += 1
        return IndexingRound(self.index_generation, tuple(added))

    # --------------------------------------------------------------- queries

    def _tag_sets_many(
        self, batches: Sequence[Sequence[SubjectiveTag]]
    ) -> List[List[Dict[str, float]]]:
        """Per-tag entity sets for a *batch of requests* with one shared fold.

        Algorithm 1 lines 7–10.  Known tags read straight from the index;
        every distinct unknown tag across the whole batch shares a single
        :meth:`SubjectiveTagIndex.lookup_similar_batch` call (one kernel
        pass, duplicates computed once) instead of per-tag index scans.
        Unknown tags are remembered in the user tag history per occurrence,
        in request order — exactly what sequential per-request calls would
        record.  Because the kernel evaluates small blocks row-stationary,
        each request's mappings are bit-identical to the ones a one-request
        call would produce, which is what lets the serving layer
        micro-batch concurrent requests safely.
        """
        with obs.span("index.lookup", requests=len(batches)):
            tag_sets: List[List[Optional[Dict[str, float]]]] = [
                [None] * len(tags) for tags in batches
            ]
            distinct: List[SubjectiveTag] = []
            distinct_of: Dict[SubjectiveTag, int] = {}
            placements: List[Tuple[int, int, int]] = []
            for request, tags in enumerate(batches):
                for position, tag in enumerate(tags):
                    if tag in self.index:
                        tag_sets[request][position] = self.index.lookup(tag)
                    else:
                        self.user_tag_history.append(tag)
                        slot = distinct_of.get(tag)
                        if slot is None:
                            slot = distinct_of[tag] = len(distinct)
                            distinct.append(tag)
                        placements.append((request, position, slot))
            obs.annotate(unknown_tags=len(distinct))
            if distinct:
                combined = self.index.lookup_similar_batch(
                    distinct, self.config.theta_filter
                )
                for request, position, slot in placements:
                    tag_sets[request][position] = combined[slot]
            return tag_sets

    def answer_many(
        self,
        tag_lists: Sequence[Sequence[SubjectiveTag]],
        api_entity_ids: Optional[Sequence[Optional[Sequence[str]]]] = None,
    ) -> List[List[Tuple[str, float]]]:
        """Algorithm 1 for many requests: lookup, one shared fold, rank.

        ``api_entity_ids`` holds one objective API restriction per request
        (``None`` — or an entry of ``None`` — ranks over every entity).
        Every request is ranked by
        :func:`~repro.core.filtering.filter_and_rank` under the configured
        filter settings, to ``SaccsConfig.top_k``; callers wanting a
        shallower depth slice the result.  Bit-identical to one call per
        request, in order, but unknown tags across the whole batch are
        resolved with a single batched ``lookup_similar`` pass (duplicates
        deduplicated) — the entry point `repro.serve`'s micro-batching
        scheduler drains concurrent ``/search`` and session requests into.
        An empty tag list ranks its API list in API order (no subjective
        signal).
        """
        if api_entity_ids is None:
            api_entity_ids = [None] * len(tag_lists)
        catalog = [entity.entity_id for entity in self.entities]
        config = self.config.filter_config()
        per_request = self._tag_sets_many(tag_lists)
        with obs.span("rank.filter_and_rank", queries=len(per_request)):
            ranked = []
            for tag_sets, api_ids in zip(per_request, api_entity_ids):
                if api_ids is None:
                    api_ids = catalog
                ranked.append(filter_and_rank(api_ids, tag_sets, config))
            return ranked

    def answer_tags(
        self,
        tags: Sequence[SubjectiveTag],
        api_entity_ids: Optional[Sequence[str]] = None,
    ) -> List[Tuple[str, float]]:
        """Rank entities for a set of subjective tags (evaluation entry point)."""
        return self.answer_many([tags], [api_entity_ids])[0]

    def understand(self, utterance: str) -> Tuple[ParsedUtterance, Tuple[str, ...]]:
        """Algorithm 1 lines 1–5 from one parse: the turn and its API ids.

        The parsed utterance carries the tokens and the subjectivity route;
        the ids are the objective search API's slot-filtered results.
        """
        parsed = self.dialog.recognizer.parse(utterance)
        api_ids = tuple(entity.entity_id for entity in self.dialog.results(parsed))
        return parsed, api_ids

    def answer(self, utterance: str) -> List[Tuple[str, float]]:
        """Full conversational path for a natural-language utterance.

        Only subjective turns reach the extraction engine (at the configured
        encoder precision, under its tagger lock — the same call
        ``SaccsRuntime.search_utterance`` makes); objective and chitchat
        turns rank their slot-filtered API list with no tag sets.
        """
        if not isinstance(self.extractor, TagExtractor):
            raise TypeError(
                "answer() needs a TagExtractor (the oracle extractor has no "
                "gold labels for arbitrary utterances); use answer_tags()"
            )
        parsed, api_ids = self.understand(utterance)
        tags = (
            self.extraction_engine.extract_token_lists([parsed.tokens])[0]
            if parsed.route == ROUTE_SUBJECTIVE
            else []
        )
        return self.answer_many([tags], [api_ids])[0]
