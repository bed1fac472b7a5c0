"""Static analysis enforcing this repo's lock, determinism and kernel invariants.

``repro.analysis`` is a stdlib-``ast`` lint framework purpose-built for the
SACCS reproduction: the serving stack's guarantee that every fast path is
byte-identical to its scalar oracle rests on conventions (hold the lock,
create locks through the named factories, stable sorts, explicit dtypes)
that unit tests cannot police exhaustively.  The analyzer turns those
conventions into machine-checked rules with inline suppressions, wired into
the tier-1 test suite via ``repro lint``.  A finding is either fixed or
suppressed inline with a reason; a suppression that no longer covers a
finding is itself an error.

Public surface:

* :func:`run_analysis` / :func:`analyze_source` — run the rule set;
* :func:`all_rules` / :class:`Rule` / :class:`Finding` — the rule model;
* :func:`render_human` / :func:`render_json` — reporters.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "engine": (
            "AnalysisResult",
            "FileReport",
            "analyze_source",
            "iter_python_files",
            "run_analysis",
        ),
        "registry": ("Finding", "Rule", "all_rules", "get_rule", "rules_by_family"),
        "reporters": ("render_human", "render_json", "result_payload"),
        "suppressions": ("SuppressionIndex",),
    },
)
