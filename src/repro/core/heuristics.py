"""The two novel pairing heuristics of Section 5.1.

Given a sentence plus its aspect spans and opinion spans, a heuristic
proposes (aspect_span, opinion_span) pairs:

* **Tree heuristic** — greedily link each source span to the *closest*
  target span in the constituency parse tree.  Run in both directions
  (aspects→opinions and opinions→aspects), since one aspect can carry many
  opinions and vice versa.
* **Attention heuristic** — read one BERT attention head ``(layer, head)``
  and link each source span to the target span it attends to most.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.bert.encoder import BertWordEncoder
from repro.data.schema import Span
from repro.text.parser import ChunkParser
from repro.text.tree import ParseNode

__all__ = ["PairingHeuristic", "TreePairingHeuristic", "AttentionPairingHeuristic", "WordDistanceHeuristic"]

Pair = Tuple[Span, Span]


class PairingHeuristic:
    """Interface: propose pairs for (tokens, aspect_spans, opinion_spans)."""

    name: str = "heuristic"

    def pairs(
        self,
        tokens: Sequence[str],
        aspect_spans: Sequence[Span],
        opinion_spans: Sequence[Span],
    ) -> Set[Pair]:
        raise NotImplementedError


def _span_center(span: Span) -> float:
    return (span[0] + span[1] - 1) / 2.0


class WordDistanceHeuristic(PairingHeuristic):
    """The naive baseline the paper's heuristics improve upon: each source
    span links to the target span closest in raw token distance."""

    def __init__(self, direction: str = "aspects"):
        if direction not in ("aspects", "opinions"):
            raise ValueError("direction must be 'aspects' or 'opinions'")
        self.direction = direction
        self.name = f"word_distance_{direction}"

    def pairs(self, tokens, aspect_spans, opinion_spans):
        if not aspect_spans or not opinion_spans:
            return set()
        out: Set[Pair] = set()
        sources, targets = (
            (aspect_spans, opinion_spans) if self.direction == "aspects" else (opinion_spans, aspect_spans)
        )
        for source in sources:
            best = min(targets, key=lambda t: (abs(_span_center(t) - _span_center(source)), t))
            pair = (source, best) if self.direction == "aspects" else (best, source)
            out.add(pair)
        return out


class TreePairingHeuristic(PairingHeuristic):
    """Closest-in-parse-tree pairing (ties broken by word distance)."""

    def __init__(self, parser: ChunkParser, direction: str = "aspects"):
        if direction not in ("aspects", "opinions"):
            raise ValueError("direction must be 'aspects' or 'opinions'")
        self.parser = parser
        self.direction = direction
        self.name = f"tree_{'as' if direction == 'aspects' else 'op'}"

    @staticmethod
    def _span_distance(paths, span_a: Span, span_b: Span) -> int:
        # Distance between the head tokens (last token of each span: the
        # noun of an NP, the adjective of an ADJP).
        return ParseNode.path_distance(paths[span_a[1] - 1], paths[span_b[1] - 1])

    def pairs(self, tokens, aspect_spans, opinion_spans):
        if not aspect_spans or not opinion_spans:
            return set()
        sources, targets = (
            (aspect_spans, opinion_spans) if self.direction == "aspects" else (opinion_spans, aspect_spans)
        )
        if len(targets) == 1:
            # Forced choice: ``min`` over one candidate returns it whatever
            # its key, so every source links to the only target; no parse.
            (target,) = targets
            return {(s, target) if self.direction == "aspects" else (target, s) for s in sources}
        # One tree walk per sentence, not one per candidate pair.
        paths = self.parser.parse(list(tokens)).leaf_paths()
        out: Set[Pair] = set()
        for source in sources:
            best = min(
                targets,
                key=lambda t: (
                    self._span_distance(paths, source, t),
                    abs(_span_center(t) - _span_center(source)),
                    t,
                ),
            )
            pair = (source, best) if self.direction == "aspects" else (best, source)
            out.add(pair)
        return out


class AttentionPairingHeuristic(PairingHeuristic):
    """BERT attention-head pairing (Figure 5).

    The attention mass a source span assigns to each target span is the mean
    attention from the source's tokens to the target's tokens at one
    ``(layer, head)`` coordinate; each source links to its argmax target.
    """

    def __init__(
        self,
        encoder: BertWordEncoder,
        layer: int,
        head: int,
        direction: str = "aspects",
        margin: float = 1.0,
    ):
        if direction not in ("aspects", "opinions"):
            raise ValueError("direction must be 'aspects' or 'opinions'")
        if margin < 1.0:
            raise ValueError("margin must be >= 1.0")
        self.encoder = encoder
        self.layer = layer
        self.head = head
        self.direction = direction
        #: confidence gate: with several targets, link only when the best
        #: target's attention mass beats the runner-up by this factor.
        #: Makes the labeling function conservative — high precision, lower
        #: recall, the LF profile the paper reports.
        self.margin = margin
        self.name = f"bert_{layer}:{head}"

    def _attention_mass(self, attention: np.ndarray, source: Span, target: Span) -> float:
        block = attention[source[0] : source[1], target[0] : target[1]]
        return float(block.mean())

    def pairs(self, tokens, aspect_spans, opinion_spans):
        if not aspect_spans or not opinion_spans:
            return set()
        maps = self.encoder.attention(list(tokens))  # (L, H, T, T)
        attention = maps[self.layer, self.head]
        out: Set[Pair] = set()
        sources, targets = (
            (aspect_spans, opinion_spans) if self.direction == "aspects" else (opinion_spans, aspect_spans)
        )
        for source in sources:
            masses = sorted(
                ((self._attention_mass(attention, source, t), t) for t in targets),
                reverse=True,
            )
            best_mass, best = masses[0]
            if len(masses) > 1 and best_mass < self.margin * masses[1][0]:
                continue  # not confident enough: abstain from this source
            pair = (source, best) if self.direction == "aspects" else (best, source)
            out.add(pair)
        return out
