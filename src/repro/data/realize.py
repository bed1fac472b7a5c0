"""Sentence realisation: turning (axis, sign) choices into labelled text.

Shared by the review generator (restaurant world) and the S1–S4 tagging
dataset builders (all three domains).  An :class:`AxisSpec` describes one
realisable subjective axis — which aspect surfaces can express it and which
positive/negative opinion words apply; the :class:`SentenceRealizer` picks a
template, fills the slots (optionally adding intensifiers or negation) and
returns a fully labelled sentence with gold pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.dimensions import SubjectiveDimension
from repro.data.schema import LabeledSentence
from repro.data.templates import (
    ASPECT_ONLY_TEMPLATES,
    FILLER_TEMPLATES,
    MULTI_OPINION_TEMPLATES,
    SINGLE_PAIR_TEMPLATES,
    TWO_PAIR_TEMPLATES,
    Template,
    realize,
)
from repro.text.lexicon import DomainLexicon, OpinionWord
from repro.utils.rng import weighted_cdf, weighted_index

__all__ = ["AxisSpec", "RealizerConfig", "SentenceRealizer", "axes_from_dimensions", "axes_from_lexicon"]

_INTENSIFIERS = ["really", "very", "super", "quite", "extremely", "pretty"]

#: Copular complements that are *not* opinions ("the menu was new").  These
#: make the surface syntax of a subjective sentence compatible with an
#: all-O labelling, so the tagger must rely on lexical knowledge rather than
#: the template shape — the property that keeps synthetic tagging F1 off the
#: ceiling (real SemEval sentences have the same ambiguity).
_NEUTRAL_COMPLEMENTS = [
    "new", "open", "closed", "full", "empty", "ready", "available", "busy",
    "typical", "normal", "usual", "different", "unchanged", "back",
]

_NEUTRAL_TAILS = [
    ["on", "the", "table"],
    ["in", "the", "back"],
    ["near", "the", "entrance"],
    ["the", "same", "as", "before"],
    ["part", "of", "the", "deal"],
]


@dataclass(frozen=True)
class AxisSpec:
    """A realisable subjective axis for one domain."""

    name: str
    aspect_surfaces: Tuple[str, ...]
    positive: Tuple[OpinionWord, ...]
    negative: Tuple[OpinionWord, ...]

    def pool(self, sign: int) -> Tuple[OpinionWord, ...]:
        """Opinion pool for a polarity sign (+1 / -1)."""
        return self.positive if sign > 0 else self.negative


def axes_from_dimensions(
    lexicon: DomainLexicon,
    dimensions: Sequence[SubjectiveDimension],
) -> List[AxisSpec]:
    """Build axes for the restaurant world's 18 dimensions."""
    opinion_index = lexicon.opinion_index()
    axes = []
    for dim in dimensions:
        surfaces = list(lexicon.aspects[dim.aspect_concept].surfaces)
        for concept in dim.extra_aspect_concepts:
            surfaces.extend(lexicon.aspects[concept].surfaces)
        axes.append(
            AxisSpec(
                name=dim.name,
                aspect_surfaces=tuple(surfaces),
                positive=tuple(opinion_index[w] for w in dim.positive_opinions),
                negative=tuple(opinion_index[w] for w in dim.negative_opinions),
            )
        )
    return axes


def axes_from_lexicon(lexicon: DomainLexicon) -> List[AxisSpec]:
    """Build one axis per aspect concept directly from a lexicon.

    Used for the non-restaurant tagging datasets (electronics, hotels) where
    no latent-quality world is needed — any concept with at least one
    applicable opinion becomes an axis.
    """
    axes = []
    for concept in lexicon.aspects.values():
        positive = tuple(lexicon.opinions_for_topic(concept.name, positive=True))
        negative = tuple(lexicon.opinions_for_topic(concept.name, positive=False))
        if not positive and not negative:
            continue
        axes.append(
            AxisSpec(
                name=concept.name,
                aspect_surfaces=concept.surfaces,
                positive=positive,
                negative=negative,
            )
        )
    return axes


@dataclass
class RealizerConfig:
    """Probabilities steering surface variation."""

    intensifier_prob: float = 0.25
    negation_prob: float = 0.08
    multi_opinion_prob: float = 0.12


@dataclass
class _OpinionFill:
    tokens: List[str]
    polarity: float
    attributive: bool  # can appear pre-nominally ("good food")


class SentenceRealizer:
    """Realise labelled sentences for one domain."""

    def __init__(
        self,
        lexicon: DomainLexicon,
        axes: Sequence[AxisSpec],
        config: Optional[RealizerConfig] = None,
        rng: Optional[np.random.Generator] = None,
    ):
        if not axes:
            raise ValueError("need at least one axis")
        self.lexicon = lexicon
        self.axes = list(axes)
        self.config = config or RealizerConfig()
        self.rng = rng or np.random.default_rng(0)
        self.domain = lexicon.domain

    # ------------------------------------------------------------ fill logic

    def _choice(self, seq):
        return seq[self.rng.integers(len(seq))]

    def _opinion_fill(
        self,
        axis: AxisSpec,
        sign: int,
        allow_negation: bool = True,
        strength: Optional[float] = None,
    ) -> _OpinionFill:
        """Draw an opinion phrase expressing ``sign`` on ``axis``.

        ``strength`` (0..1) biases the draw toward opinion words whose
        polarity magnitude matches it — entities with outstanding quality
        earn "phenomenal", merely decent ones earn "good".
        """
        pool = axis.pool(sign)
        use_negation = (
            allow_negation
            and self.rng.random() < self.config.negation_prob
            and len(axis.pool(-sign)) > 0
        )
        if use_negation:
            # "not good" expresses the negative sign via a positive word.
            base = self._choice([op for op in axis.pool(-sign)])
            if " " in base.text:  # don't negate idioms ("not out of this world")
                use_negation = False
            else:
                return _OpinionFill(["not", base.text], -base.polarity, attributive=False)
        if not pool:
            # Sign has no direct vocabulary; fall back to negated opposite.
            base = self._choice([op for op in axis.pool(-sign) if " " not in op.text])
            return _OpinionFill(["not", base.text], -base.polarity, attributive=False)
        opinion = self._strength_weighted_choice(pool, strength)
        tokens = opinion.text.split()
        attributive = len(tokens) == 1
        if attributive and self.rng.random() < self.config.intensifier_prob:
            tokens = [self._choice(_INTENSIFIERS)] + tokens
        return _OpinionFill(tokens, opinion.polarity, attributive=attributive)

    def _strength_weighted_choice(self, pool: Sequence[OpinionWord], strength: Optional[float]):
        """Pick from ``pool``; if ``strength`` given, favour matching magnitudes."""
        if strength is None:
            return self._choice(pool)
        magnitudes = np.array([abs(op.polarity) for op in pool])
        weights = np.exp(-((magnitudes - strength) ** 2) / 0.08)
        weights /= weights.sum()
        return pool[weighted_index(self.rng, weighted_cdf(weights))]

    def _aspect_fill(self, axis: AxisSpec) -> List[str]:
        return self._choice(axis.aspect_surfaces).split()

    def _distinct_opinions(self, axis: AxisSpec, sign: int, count: int) -> List[_OpinionFill]:
        """Up to ``count`` distinct single-sign opinions (for coordination)."""
        pool = [op for op in axis.pool(sign) if " " not in op.text]
        self.rng.shuffle(pool)
        picked = pool[:count]
        return [_OpinionFill([op.text], op.polarity, attributive=True) for op in picked]

    # ------------------------------------------------------------- sentences

    @staticmethod
    def _unpack(choice) -> Tuple[AxisSpec, int, Optional[float]]:
        """(axis, sign) or (axis, sign, strength) → normalised triple."""
        if len(choice) == 2:
            return choice[0], choice[1], None
        return choice[0], choice[1], choice[2]

    def subjective_sentence(self, choices: Sequence[Tuple]) -> LabeledSentence:
        """Realise 1 or 2 (axis, sign[, strength]) choices as one sentence."""
        if len(choices) not in (1, 2):
            raise ValueError("subjective_sentence takes 1 or 2 (axis, sign) choices")
        if len(choices) == 1:
            return self._single_axis_sentence(*self._unpack(choices[0]))
        return self._two_axis_sentence(self._unpack(choices[0]), self._unpack(choices[1]))

    def _single_axis_sentence(
        self, axis: AxisSpec, sign: int, strength: Optional[float] = None
    ) -> LabeledSentence:
        # Coordinated multi-opinion realisation ("friendly, helpful and nice").
        if self.rng.random() < self.config.multi_opinion_prob:
            fills = self._distinct_opinions(axis, sign, 3)
            if len(fills) >= 2:
                template = MULTI_OPINION_TEMPLATES[1] if len(fills) == 2 else MULTI_OPINION_TEMPLATES[2]
                slot_names = ["O1", "O1b", "O1c"][: len(fills)]
                fill_map: Dict[str, List[str]] = {"A1": self._aspect_fill(axis)}
                polarity = 0.0
                for slot, fill in zip(slot_names, fills):
                    fill_map[slot] = fill.tokens
                    polarity += fill.polarity
                return realize(
                    template,
                    fill_map,
                    domain=self.domain,
                    mentions={axis.name: polarity / len(fills)},
                )
        opinion = self._opinion_fill(axis, sign, strength=strength)
        template = self._pick_single_template(opinion)
        return realize(
            template,
            {"A1": self._aspect_fill(axis), "O1": opinion.tokens},
            domain=self.domain,
            mentions={axis.name: opinion.polarity},
        )

    def _pick_single_template(self, opinion: _OpinionFill) -> Template:
        candidates = [
            t
            for t in SINGLE_PAIR_TEMPLATES
            if (not t.positive_only or opinion.polarity > 0)
            and (opinion.attributive or t.items[0] != "O1")
        ]
        return self._choice(candidates)

    def _two_axis_sentence(
        self,
        first: Tuple[AxisSpec, int, Optional[float]],
        second: Tuple[AxisSpec, int, Optional[float]],
    ) -> LabeledSentence:
        axis1, sign1, strength1 = first
        axis2, sign2, strength2 = second
        op1 = self._opinion_fill(axis1, sign1, strength=strength1)
        op2 = self._opinion_fill(axis2, sign2, strength=strength2)
        candidates = [
            t
            for t in TWO_PAIR_TEMPLATES
            if t.items[0] != "O1" or (op1.attributive and op2.attributive)
        ]
        # Contrastive "but"/"while" templates read better with opposite signs;
        # pick uniformly anyway — natural text is not that tidy.
        template = self._choice(candidates)
        return realize(
            template,
            {
                "A1": self._aspect_fill(axis1),
                "O1": op1.tokens,
                "A2": self._aspect_fill(axis2),
                "O2": op2.tokens,
            },
            domain=self.domain,
            mentions={axis1.name: op1.polarity, axis2.name: op2.polarity},
        )

    def contrastive_sentence(self, axis: AxisSpec, sign: int, other: AxisSpec, other_sign: int) -> LabeledSentence:
        """The paper's tricky shape: coordinated opinions + a second clause."""
        fills = self._distinct_opinions(axis, sign, 3)
        if len(fills) < 3:
            return self._two_axis_sentence((axis, sign, None), (other, other_sign, None))
        op2 = self._opinion_fill(other, other_sign)
        # Half sentence-separated (Figure-style), half run-on coordination.
        template = MULTI_OPINION_TEMPLATES[0] if self.rng.random() < 0.5 else MULTI_OPINION_TEMPLATES[3]
        mentions = {
            axis.name: float(np.mean([f.polarity for f in fills])),
            other.name: op2.polarity,
        }
        return realize(
            template,
            {
                "A1": self._aspect_fill(axis),
                "O1": fills[0].tokens,
                "O1b": fills[1].tokens,
                "O1c": fills[2].tokens,
                "A2": self._aspect_fill(other),
                "O2": op2.tokens,
            },
            domain=self.domain,
            mentions=mentions,
        )

    def filler_sentence(self) -> LabeledSentence:
        """A sentence with no subjective content."""
        sentence = realize(self._choice(FILLER_TEMPLATES), {}, domain=self.domain)
        return sentence

    def aspect_only_sentence(self, axis: Optional[AxisSpec] = None) -> LabeledSentence:
        """A sentence mentioning an aspect without any opinion."""
        axis = axis or self._choice(self.axes)
        template = self._choice(ASPECT_ONLY_TEMPLATES)
        return realize(template, {"A1": self._aspect_fill(axis)}, domain=self.domain)

    def neutral_predicate_sentence(self, axis: Optional[AxisSpec] = None) -> LabeledSentence:
        """A copular sentence whose complement is NOT an opinion.

        "the menu was new" — same syntax as a subjective sentence, all-O
        labels except the aspect term.  See `_NEUTRAL_COMPLEMENTS`.
        """
        from repro.text.labels import spans_to_labels

        axis = axis or self._choice(self.axes)
        aspect = self._aspect_fill(axis)
        verb = self._choice(["is", "was"])
        if self.rng.random() < 0.6:
            tail = [self._choice(_NEUTRAL_COMPLEMENTS)]
        else:
            tail = list(self._choice(_NEUTRAL_TAILS))
        tokens = ["the"] + aspect + [verb] + tail + ["."]
        aspect_span = (1, 1 + len(aspect))
        labels = spans_to_labels(len(tokens), [aspect_span], [])
        return LabeledSentence(tokens=tokens, labels=labels, domain=self.domain)
