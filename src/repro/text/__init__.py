"""``repro.text`` — lexical knowledge and light NLP for the synthetic domains.

Replaces NLTK + the paper's external lexical resources: tokenisation, domain
lexicons (aspects, opinions, idioms), an is-a concept taxonomy with
Wu–Palmer similarity, the conceptual tag-similarity oracle of Section 3.1,
a POS lexicon and the chunking constituency parser used by the pairing
heuristic of Section 5.1.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "concepts": ("ConceptTaxonomy",),
        "lexicon": (
            "AspectConcept",
            "DomainLexicon",
            "OpinionWord",
            "electronics_lexicon",
            "hotel_lexicon",
            "lexicon_for_domain",
            "restaurant_lexicon",
        ),
        "parser": ("ChunkParser",),
        "pos": ("PosLexicon",),
        "similarity": ("ConceptualSimilarity", "TagFeatures"),
        "tokenize": ("detokenize", "word_tokenize"),
        "tree": ("ParseNode",),
        "vocab": ("TagVocabulary",),
    },
)
