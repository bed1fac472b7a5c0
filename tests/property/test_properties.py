"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SubjectiveTag, aggregate_scores, filter_and_rank
from repro.core.filtering import FilterConfig
from repro.nn.crf import LinearChainCRF
from repro.nn.tensor import Tensor
from repro.text import ConceptualSimilarity, restaurant_lexicon
from repro.text.labels import LABELS, labels_to_spans, spans_to_labels
from repro.utils.numerics import logsumexp, softmax
from repro.weak import ABSTAIN, MajorityVoteModel

# ---------------------------------------------------------------------------
# numerics
# ---------------------------------------------------------------------------

finite_arrays = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=12
)


@given(finite_arrays)
def test_softmax_is_a_distribution(values):
    probs = softmax(np.array(values))
    assert np.all(probs >= 0)
    assert np.isclose(probs.sum(), 1.0)


@given(finite_arrays)
def test_logsumexp_upper_bounds_max(values):
    arr = np.array(values)
    lse = logsumexp(arr, axis=0)
    assert lse >= arr.max() - 1e-9
    assert lse <= arr.max() + np.log(len(values)) + 1e-9


@given(finite_arrays, st.floats(min_value=-20, max_value=20, allow_nan=False))
def test_logsumexp_shift_invariance(values, shift):
    arr = np.array(values)
    assert np.isclose(logsumexp(arr + shift, axis=0), logsumexp(arr, axis=0) + shift, atol=1e-8)


# ---------------------------------------------------------------------------
# autodiff
# ---------------------------------------------------------------------------


@given(
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=8),
    st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=2, max_size=8),
)
def test_addition_gradient_is_ones(a_values, b_values):
    size = min(len(a_values), len(b_values))
    a = Tensor(np.array(a_values[:size]), requires_grad=True)
    b = Tensor(np.array(b_values[:size]), requires_grad=True)
    (a + b).sum().backward()
    np.testing.assert_allclose(a.grad, np.ones(size))
    np.testing.assert_allclose(b.grad, np.ones(size))


@given(st.lists(st.floats(min_value=0.1, max_value=5, allow_nan=False), min_size=1, max_size=8))
def test_log_exp_roundtrip_gradient(values):
    t = Tensor(np.array(values), requires_grad=True)
    t.log().exp().sum().backward()  # identity composite: gradient == 1
    np.testing.assert_allclose(t.grad, np.ones(len(values)), atol=1e-8)


# ---------------------------------------------------------------------------
# IOB labels
# ---------------------------------------------------------------------------

label_sequences = st.lists(st.sampled_from(LABELS), min_size=1, max_size=24)


@given(label_sequences)
def test_labels_spans_roundtrip_is_canonicalising(labels):
    """spans->labels of extracted spans reproduces itself (fixpoint)."""
    aspects, opinions = labels_to_spans(labels)
    canonical = spans_to_labels(len(labels), aspects, opinions)
    aspects2, opinions2 = labels_to_spans(canonical)
    assert aspects == aspects2
    assert opinions == opinions2


@given(label_sequences)
def test_extracted_spans_are_disjoint_and_ordered(labels):
    aspects, opinions = labels_to_spans(labels)
    spans = sorted(aspects + opinions)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2  # no overlap
    for start, end in spans:
        assert 0 <= start < end <= len(labels)


# ---------------------------------------------------------------------------
# subjective tags
# ---------------------------------------------------------------------------

words = st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=8)


@given(words, words)
def test_tag_text_parse_roundtrip(aspect, opinion):
    tag = SubjectiveTag(aspect=aspect, opinion=opinion)
    assert SubjectiveTag.from_text(tag.text) == tag


@given(words, words)
def test_tag_case_insensitivity(aspect, opinion):
    assert SubjectiveTag(aspect.upper(), opinion.upper()) == SubjectiveTag(aspect, opinion)


# ---------------------------------------------------------------------------
# aggregation / filtering
# ---------------------------------------------------------------------------

scores_strategy = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=6
)


@given(scores_strategy)
def test_aggregators_bounded_by_extremes(scores):
    for method in ("mean", "product", "min"):
        value = aggregate_scores(scores, method)
        assert value <= max(scores) + 1e-12
        assert method == "mean" or value <= min(scores) + 1e-12 or method == "product"


@given(scores_strategy)
def test_min_never_exceeds_mean(scores):
    assert aggregate_scores(scores, "min") <= aggregate_scores(scores, "mean") + 1e-12


@given(
    st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]),
                    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
                    min_size=1),
    st.dictionaries(st.sampled_from(["a", "b", "c", "d", "e"]),
                    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
                    min_size=1),
)
def test_filter_and_rank_outputs_sorted_and_within_api(set_a, set_b):
    api = ["a", "b", "c", "d", "e"]
    result = filter_and_rank(api, [set_a, set_b], FilterConfig(top_k=None))
    ids = [entity for entity, _ in result]
    scores = [score for _, score in result]
    assert scores == sorted(scores, reverse=True)
    assert set(ids) <= set(api)
    # every returned entity matched at least one tag set
    for entity in ids:
        assert entity in set_a or entity in set_b


@given(
    st.lists(st.sampled_from([0, 1, ABSTAIN]), min_size=3, max_size=3),
)
def test_majority_vote_single_row_consistency(votes):
    row = np.array([votes])
    predicted = MajorityVoteModel(tie_break=0).predict(row)[0]
    ones = votes.count(1)
    zeros = votes.count(0)
    if ones > zeros:
        assert predicted == 1
    elif zeros > ones:
        assert predicted == 0
    else:
        assert predicted == 0  # tie break


# ---------------------------------------------------------------------------
# CRF decode consistency
# ---------------------------------------------------------------------------


@settings(deadline=None, max_examples=25)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=4), st.integers(0, 10_000))
def test_crf_decode_scores_at_least_gold_path(steps, num_labels, seed):
    """Viterbi's path score must be >= the score of any fixed path."""
    rng = np.random.default_rng(seed)
    crf = LinearChainCRF(num_labels, rng)
    emissions = rng.normal(size=(1, steps, num_labels))

    def path_score(path):
        s = crf.start.data[path[0]] + emissions[0, 0, path[0]]
        for t in range(1, steps):
            s += crf.transitions.data[path[t - 1], path[t]] + emissions[0, t, path[t]]
        return s + crf.end.data[path[-1]]

    best = crf.decode(emissions)[0]
    random_path = list(rng.integers(0, num_labels, size=steps))
    assert path_score(best) >= path_score(random_path) - 1e-9


# ---------------------------------------------------------------------------
# vectorized similarity kernel ≡ scalar oracle
# ---------------------------------------------------------------------------

_KERNEL_SIM = ConceptualSimilarity(restaurant_lexicon())
_KERNEL_ASPECTS = sorted(_KERNEL_SIM.lexicon.aspect_surface_index()) + ["widget", "zzz"]
_KERNEL_OPINIONS = sorted(op.text for op in _KERNEL_SIM.lexicon.opinions) + [
    "really good",
    "very tasty",
    "meh",
    "so-so",
]

kernel_tags = st.tuples(st.sampled_from(_KERNEL_ASPECTS), st.sampled_from(_KERNEL_OPINIONS))


@settings(deadline=None, max_examples=60)
@given(
    st.lists(kernel_tags, min_size=1, max_size=6),
    st.lists(kernel_tags, min_size=1, max_size=6),
)
def test_tag_similarity_matrix_matches_scalar(tags_a, tags_b):
    """Every matrix entry equals the scalar oracle's score to ≤ 1e-9."""
    matrix = _KERNEL_SIM.tag_similarity_matrix(tags_a, tags_b)
    assert matrix.shape == (len(tags_a), len(tags_b))
    for i, tag_a in enumerate(tags_a):
        for j, tag_b in enumerate(tags_b):
            scalar = _KERNEL_SIM.tag_similarity(tag_a, tag_b)
            assert abs(matrix[i, j] - scalar) <= 1e-9
            assert 0.0 <= matrix[i, j] <= 1.0


# ---------------------------------------------------------------------------
# vectorized batch Viterbi ≡ per-sentence scalar decode
# ---------------------------------------------------------------------------


@st.composite
def viterbi_cases(draw):
    """Random (emissions, mask, transitions, beam) decode problems.

    Lengths are drawn from [0, T] so fully-masked padding rows and
    length-1 sentences are first-class citizens, not edge cases.
    """
    batch = draw(st.integers(min_value=1, max_value=5))
    steps = draw(st.integers(min_value=1, max_value=7))
    num_labels = draw(st.integers(min_value=2, max_value=6))
    finite = st.floats(min_value=-20, max_value=20, allow_nan=False, width=32)
    emissions = np.array(
        draw(
            st.lists(
                finite, min_size=batch * steps * num_labels, max_size=batch * steps * num_labels
            )
        )
    ).reshape(batch, steps, num_labels)
    lengths = draw(st.lists(st.integers(0, steps), min_size=batch, max_size=batch))
    mask = (np.arange(steps)[None, :] < np.array(lengths)[:, None]).astype(float)
    transitions = np.array(
        draw(st.lists(finite, min_size=num_labels * num_labels, max_size=num_labels * num_labels))
    ).reshape(num_labels, num_labels)
    start = np.array(draw(st.lists(finite, min_size=num_labels, max_size=num_labels)))
    end = np.array(draw(st.lists(finite, min_size=num_labels, max_size=num_labels)))
    beam = draw(st.sampled_from([None, 1, 2, num_labels]))
    return emissions, mask, transitions, start, end, beam


@settings(deadline=None, max_examples=120)
@given(viterbi_cases())
def test_batch_viterbi_equals_scalar_decode(case):
    """decode_batch returns exactly decode_scalar's paths, beam included."""
    emissions, mask, transitions, start, end, beam = case
    crf = LinearChainCRF(emissions.shape[2], np.random.default_rng(0))
    crf.transitions.data[...] = transitions
    crf.start.data[...] = start
    crf.end.data[...] = end
    batched = crf.decode_batch(emissions, mask=mask, beam=beam)
    scalar = crf.decode_scalar(emissions, mask=mask, beam=beam)
    assert batched == scalar
    for path, row_mask in zip(batched, mask):
        assert len(path) == int(row_mask.sum())


# ---------------------------------------------------------------------------
# tape-free fused inference ≡ float64 tape oracle
# ---------------------------------------------------------------------------

from repro.bert import BertWordEncoder, MiniBert, MiniBertConfig, WordPieceTokenizer
from repro.core import SequenceTagger
from repro.nn.infer import DEFAULT_TOLERANCES, equivalence_report

_INFER_CORPUS = [
    "the food is delicious".split(),
    "the staff is friendly and helpful".split(),
    "delicious pasta and friendly staff".split(),
    "the service was quick and lovely".split(),
] * 8
_INFER_TOKENIZER = WordPieceTokenizer.train(_INFER_CORPUS, vocab_size=120)
_INFER_WORDS = sorted({w for s in _INFER_CORPUS for w in s}) + ["zesty", "overcooked"]


def _random_tagger(seed):
    """A tiny tagger with fully random (untrained) weights — worst case for
    reduced precision, since no structure softens near-tie decode decisions."""
    config = MiniBertConfig(
        vocab_size=_INFER_TOKENIZER.vocab_size, dim=16, num_layers=1,
        num_heads=2, ffn_dim=32, max_positions=12, dropout=0.0,
    )
    rng = np.random.default_rng(seed)
    encoder = BertWordEncoder(_INFER_TOKENIZER, MiniBert(config, rng))
    tagger = SequenceTagger(encoder, rng, lstm_hidden=8)
    tagger.eval()
    return tagger


@settings(deadline=None, max_examples=20)
@given(
    st.integers(0, 10_000),
    st.lists(
        st.lists(st.sampled_from(_INFER_WORDS), min_size=1, max_size=10),
        min_size=1,
        max_size=4,
    ),
)
def test_fused_inference_tracks_tape_oracle(seed, sentences):
    """Random weights + random inputs: float64 bitwise, float32 within the
    default tolerance policy against the tape oracle."""
    tagger = _random_tagger(seed)
    exact = equivalence_report(tagger, sentences, "float64")
    assert exact.max_abs_error == 0.0
    assert exact.tags_identical
    report = equivalence_report(tagger, sentences, "float32")
    assert report.within_tolerance, report
    assert report.tolerance == DEFAULT_TOLERANCES["float32"]


@settings(deadline=None, max_examples=30)
@given(viterbi_cases())
def test_default_decode_is_the_batch_path(case):
    """CRF.decode dispatches to the vectorized recurrence."""
    emissions, mask, transitions, start, end, beam = case
    crf = LinearChainCRF(emissions.shape[2], np.random.default_rng(0))
    crf.transitions.data[...] = transitions
    crf.start.data[...] = start
    crf.end.data[...] = end
    assert crf.decode(emissions, mask=mask, beam=beam) == crf.decode_batch(
        emissions, mask=mask, beam=beam
    )
