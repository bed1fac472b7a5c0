"""``repro.ir`` — information-retrieval substrate.

Okapi BM25 retrieval, lexicon-driven synonym query expansion (for the paper's
strengthened IR baseline) and the DCG/NDCG ranking metrics of Eqs. 10–11.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "bm25": ("Bm25Index",),
        "expansion": ("QueryExpander",),
        "metrics": ("dcg", "mean_ndcg", "ndcg"),
    },
)
