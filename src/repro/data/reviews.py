"""Review generation: realising entity latent quality as review text.

For each entity, reviews are sampled so that the *polarity statistics* of the
text reflect the entity's latent quality vector: an entity with
``quality["delicious food"] = 0.9`` mostly earns positive food sentences.
This is the property that makes the end-to-end experiment meaningful — a
system that reads the reviews well can recover the latent ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.data.dimensions import restaurant_dimensions
from repro.data.entities import CatalogConfig, generate_catalog
from repro.data.noise import NoiseConfig, apply_noise
from repro.data.realize import AxisSpec, RealizerConfig, SentenceRealizer, axes_from_dimensions
from repro.data.schema import Entity, LabeledSentence, Review
from repro.text.lexicon import restaurant_lexicon
from repro.utils.rng import SeedSequence, weighted_cdf, weighted_index

__all__ = ["ReviewConfig", "ReviewGenerator"]


@dataclass
class ReviewConfig:
    """Knobs of the review generator."""

    mean_reviews_per_entity: float = 25.0
    min_reviews: int = 4
    min_sentences: int = 1
    max_sentences: int = 4
    filler_prob: float = 0.15
    aspect_only_prob: float = 0.07
    neutral_prob: float = 0.06
    two_axis_prob: float = 0.28
    contrastive_prob: float = 0.06
    #: floor/ceiling of P(positive realisation) as quality goes 0 -> 1.
    polarity_floor: float = 0.08
    polarity_ceiling: float = 0.92
    #: base weight of the salience-weighted dimension draw: reviewers mostly
    #: write about the *remarkable* aspects of an entity (very good or very
    #: bad), so a dimension's mention weight is ``salience_floor +
    #: |quality - 0.5|``.  This sparsity is what makes presence/absence in
    #: the tag index informative (see DESIGN.md).
    salience_floor: float = 0.10
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    realizer: RealizerConfig = field(default_factory=RealizerConfig)
    seed: int = 2021

    def __post_init__(self):
        # Each check is written so that NaN fails it too.
        if not 0.0 <= self.mean_reviews_per_entity < float("inf"):
            raise ValueError(
                f"mean_reviews_per_entity must be finite and >= 0, got {self.mean_reviews_per_entity}"
            )
        if self.min_reviews < 0:
            raise ValueError(f"min_reviews must be >= 0, got {self.min_reviews}")
        if not 1 <= self.min_sentences <= self.max_sentences:
            raise ValueError(
                f"min_sentences must be >= 1 and <= max_sentences, got "
                f"min_sentences={self.min_sentences}, max_sentences={self.max_sentences}"
            )
        for name in (
            "filler_prob", "aspect_only_prob", "neutral_prob", "two_axis_prob",
            "contrastive_prob", "polarity_floor", "polarity_ceiling",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1], got {value}")
        # ``_sentence`` compares one roll against these running sums.
        if self.filler_prob + self.aspect_only_prob + self.neutral_prob > 1.0:
            raise ValueError("filler_prob + aspect_only_prob + neutral_prob must be <= 1")
        if self.contrastive_prob + self.two_axis_prob > 1.0:
            raise ValueError("contrastive_prob + two_axis_prob must be <= 1")
        if self.polarity_floor > self.polarity_ceiling:
            raise ValueError(
                f"polarity_floor must be <= polarity_ceiling, got "
                f"{self.polarity_floor} > {self.polarity_ceiling}"
            )
        # A negative floor makes every weight negative, and normalising flips
        # the sign: the draw would favour the *least* remarkable aspects.
        if not 0.0 <= self.salience_floor < float("inf"):
            raise ValueError(f"salience_floor must be finite and >= 0, got {self.salience_floor}")


class ReviewGenerator:
    """Generates review streams for restaurant entities."""

    def __init__(self, config: Optional[ReviewConfig] = None):
        self.config = config or ReviewConfig()
        self.lexicon = restaurant_lexicon()
        self.dimensions = restaurant_dimensions()
        self.axes = axes_from_dimensions(self.lexicon, self.dimensions)
        self._axis_by_name = {axis.name: axis for axis in self.axes}
        self._seeds = SeedSequence(self.config.seed).child("reviews")

    # ----------------------------------------------------------------- API

    def reviews_for_entity(self, entity: Entity) -> List[Review]:
        """All reviews for one entity (deterministic given entity id)."""
        rng = self._seeds.rng(entity.entity_id)
        count = max(self.config.min_reviews, int(rng.poisson(self.config.mean_reviews_per_entity)))
        salience = self._salience_cdf(entity)
        return [self._review(entity, salience, rng, i) for i in range(count)]

    def corpus(self, entities: Sequence[Entity]) -> Dict[str, List[Review]]:
        """Reviews for a whole catalog, keyed by entity id."""
        return {e.entity_id: self.reviews_for_entity(e) for e in entities}

    # ------------------------------------------------------------- internals

    def _positive_prob(self, entity: Entity, axis: AxisSpec) -> float:
        quality = entity.quality_of(axis.name)
        floor, ceiling = self.config.polarity_floor, self.config.polarity_ceiling
        return floor + (ceiling - floor) * quality

    def _sample_sign(self, entity: Entity, axis: AxisSpec, rng: np.random.Generator) -> int:
        return 1 if rng.random() < self._positive_prob(entity, axis) else -1

    def _strength(self, entity: Entity, axis: AxisSpec, sign: int) -> float:
        """Target opinion magnitude: extreme quality earns extreme words."""
        quality = entity.quality_of(axis.name)
        return quality if sign > 0 else 1.0 - quality

    def _salience_cdf(self, entity: Entity) -> np.ndarray:
        """CDF of the salience-weighted dimension draw (remarkable aspects get
        written up); fixed per entity, so built once per entity."""
        weights = np.array(
            [self.config.salience_floor + abs(entity.quality_of(a.name) - 0.5) for a in self.axes]
        )
        weights /= weights.sum()
        return weighted_cdf(weights)

    def _sample_axis(self, salience: np.ndarray, rng: np.random.Generator) -> AxisSpec:
        return self.axes[weighted_index(rng, salience)]

    def _review(self, entity: Entity, salience: np.ndarray, rng: np.random.Generator, index: int) -> Review:
        realizer = SentenceRealizer(self.lexicon, self.axes, self.config.realizer, rng)
        num_sentences = int(rng.integers(self.config.min_sentences, self.config.max_sentences + 1))
        sentences: List[LabeledSentence] = []
        for _ in range(num_sentences):
            sentences.append(self._sentence(entity, salience, realizer, rng))
        mentions: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for sentence in sentences:
            for dim, polarity in sentence.mentions.items():
                mentions[dim] = mentions.get(dim, 0.0) + polarity
                counts[dim] = counts.get(dim, 0) + 1
        mentions = {dim: value / counts[dim] for dim, value in mentions.items()}
        return Review(
            review_id=f"{entity.entity_id}-r{index:03d}",
            entity_id=entity.entity_id,
            sentences=sentences,
            mentions=mentions,
        )

    def _sentence(
        self, entity: Entity, salience: np.ndarray, realizer: SentenceRealizer, rng: np.random.Generator
    ) -> LabeledSentence:
        roll = rng.random()
        if roll < self.config.filler_prob:
            sentence = realizer.filler_sentence()
        elif roll < self.config.filler_prob + self.config.aspect_only_prob:
            sentence = realizer.aspect_only_sentence()
        elif roll < self.config.filler_prob + self.config.aspect_only_prob + self.config.neutral_prob:
            sentence = realizer.neutral_predicate_sentence()
        else:
            axis = self._sample_axis(salience, rng)
            sign = self._sample_sign(entity, axis, rng)
            strength = self._strength(entity, axis, sign)
            shape_roll = rng.random()
            if shape_roll < self.config.contrastive_prob:
                other = self._other_axis(salience, axis, rng)
                sentence = realizer.contrastive_sentence(
                    axis, sign, other, self._sample_sign(entity, other, rng)
                )
            elif shape_roll < self.config.contrastive_prob + self.config.two_axis_prob:
                other = self._other_axis(salience, axis, rng)
                other_sign = self._sample_sign(entity, other, rng)
                sentence = realizer.subjective_sentence(
                    [
                        (axis, sign, strength),
                        (other, other_sign, self._strength(entity, other, other_sign)),
                    ]
                )
            else:
                sentence = realizer.subjective_sentence([(axis, sign, strength)])
        return apply_noise(sentence, self.config.noise, rng)

    def _other_axis(self, salience: np.ndarray, axis: AxisSpec, rng: np.random.Generator) -> AxisSpec:
        for _ in range(8):
            other = self._sample_axis(salience, rng)
            if other.name != axis.name:
                return other
        candidates = [a for a in self.axes if a.name != axis.name]
        return candidates[rng.integers(len(candidates))]
