"""The four workloads, the fixed correctness probes, and their request streams.

Everything here is a pure function of ``--seed``: the same seed yields
byte-identical request streams.  The server receives only these requests.

================  =========================================================
workload          why
================  =========================================================
utterance_search  the paper's served turn: free-text ``/search`` through
                  parse/classify, extraction, ``lookup_similar`` and
                  Algorithm 1, with the serving caches mostly missing
tag_search        distinct unknown-tag queries: the index similarity kernel
                  and ranking do all the work; extraction and conversation
                  are bypassed (the control for extraction changes)
session_chat      multi-turn ``/session/<id>/say``: routing, coreference,
                  ellipsis, the session store and the unbatched ``say``
                  path that holds the facade lock across extraction
reindex_mixed     hot Zipf tag reads (mostly cache hits) beside a background
                  full reindex every 2 s: writes next to reads, so a gain
                  on one side that costs the other shows
================  =========================================================
"""

from __future__ import annotations

import itertools
import json
import threading
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "PROBES",
    "RATES",
    "Plan",
    "Request",
    "plan",
]

#: intensity modifiers the similarity kernel strips ("really good" ~ "good").
MODIFIERS = ("really", "very", "super", "quite", "extremely", "pretty", "so")


@dataclass(frozen=True)
class Request:
    """One HTTP request; ``conn`` pins it to a connection (None: either)."""

    kind: str  # "utterance" | "tags" | "say" | "reindex"
    path: str
    body: bytes
    conn: Optional[int] = None

    @property
    def is_read(self) -> bool:
        return self.kind != "reindex"


def _json(payload) -> bytes:
    return json.dumps(payload).encode("utf-8")


def utterance_request(utterance: str, conn: Optional[int] = None) -> Request:
    return Request("utterance", "/search", _json({"utterance": utterance}), conn)


def tags_request(tags: Sequence[str], conn: Optional[int] = None) -> Request:
    return Request("tags", "/search", _json({"tags": list(tags)}), conn)


def say_request(session: str, utterance: str, conn: Optional[int] = None) -> Request:
    return Request("say", f"/session/{session}/say", _json({"utterance": utterance}), conn)


def reindex_request(conn: Optional[int] = None) -> Request:
    return Request("reindex", "/admin/reindex", _json({"background": True}), conn)


#: sent in this order to every fresh server before warm-up and compared
#: byte for byte against the in-process oracle (``benchmarks.e2e.oracle``).
#: The reindex in the middle checks the rebuilt index against the oracle's.
PROBES: Tuple[Request, ...] = (
    utterance_request("I am looking for a restaurant with delicious food."),
    utterance_request(
        "I am looking for a restaurant with nice staff, generous portions and great cocktails."
    ),
    utterance_request("find me a restaurant in montreal with really quick service and fair prices"),
    utterance_request("i want an italian place with a romantic ambiance and a beautiful view"),
    utterance_request("is there a restaurant with super fresh ingredients ?"),
    tags_request(["delicious food"]),
    tags_request(["really friendly staff"]),
    tags_request(["super tasty food", "quite fair prices"]),
    tags_request(["quiet atmosphere", "live music", "cozy decor"]),
    tags_request(["extremely generous portions"]),
    say_request("probe", "i want a restaurant in montreal with delicious food"),
    say_request("probe", "it should also have generous portions"),
    say_request("probe", "okay thanks"),
    say_request("probe", "what about the parking"),
    say_request("probe", "never mind the portions"),
    say_request("probe", "find me a restaurant with a romantic ambiance"),
    reindex_request(),
    tags_request(["really friendly staff"]),
    tags_request(["pretty tasty food", "fair prices"]),
    utterance_request("I am looking for a restaurant with delicious food."),
)


#: open-loop arrival rate per workload, reads per second.  Each keeps the
#: share of requests caught by the transport stall (see README) near 15-25%:
#: p50 then lies clear of the stalled requests and p90 inside them.
RATES: Dict[str, float] = {
    "utterance_search": 14.0,
    "tag_search": 15.0,
    "session_chat": 15.0,
    "reindex_mixed": 15.0,
}

WARMUP_REQUESTS = 100
#: share of ``--seconds`` spent open-loop; the rest is the closed loop.
OPEN_SHARE = 0.8
REINDEX_EVERY_S = 2.0
HOT_POOL = 64
#: steep enough that most reads hit the cache between reindex sweeps; near 1
#: the hit ratio sits at ~50% and p50 flips between the hit and miss modes.
ZIPF_S = 2.0
SESSION_TURNS = 6
#: sessions interleaved turn by turn, so one session's turns arrive ~0.4 s apart.
SESSION_GROUP = 8


class SharedStream:
    """A request iterator both load threads may draw from."""

    def __init__(self, items: Iterator[Request]):
        self._items = items
        self._lock = threading.Lock()

    def __next__(self) -> Request:
        with self._lock:
            return next(self._items)

    def __iter__(self) -> "SharedStream":
        return self


@dataclass
class Plan:
    """Everything one run sends after the probes, derived from the seed."""

    warmup: List[Request]
    #: open-loop requests with their due offsets (seconds from phase start).
    open_requests: List[Request]
    open_offsets: List[float]
    #: closed-loop source per connection (the same object when shared).
    closed: List[Iterator[Request]]


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _arrivals(seed: int, rate: float, count: int) -> List[float]:
    """Poisson arrivals at ``rate`` per second, with stratified gaps.

    The ``count`` gaps are the exponential distribution's quantiles at
    ``(i + 0.5) / count``, in a seeded order: every seed gets the same gap
    lengths in a different sequence.  Independent draws would let the share
    of short gaps, and with it how many requests queue, differ by seed.
    """
    quantiles = (_rng(seed, 0).permutation(count) + 0.5) / count
    return [float(t) for t in np.cumsum(-np.log1p(-quantiles) / rate)]


def _balanced(rng: np.random.Generator, values: Sequence) -> Iterator:
    """``values`` over and over, each round in a fresh seeded order.

    Request sizes drive the server's work per request; cycling them keeps
    each run's mix of sizes the same, so seeds vary content, not cost.
    """
    while True:
        for position in rng.permutation(len(values)):
            yield values[position]


def _distinct(items: Iterator) -> Iterator:
    seen = set()
    for item in items:
        if item not in seen:
            seen.add(item)
            yield item


# ---------------------------------------------------------------- utterances

_CARRIERS = (
    None,  # the paper's own rendering, SubjectiveQuery.utterance()
    "find me a restaurant in montreal with {}",
    "i want an italian place with {}",
    "is there a restaurant with {} ?",
)


def _utterances(seed: int, stream: int) -> Iterator[str]:
    """Distinct paper-style queries (Short/Medium/Long, 1-6 tags), reworded."""
    from repro.data import DIFFICULTY_LEVELS, QueryConfig, SubjectiveQuery, generate_query_sets

    rng = _rng(seed, stream)
    by_size: Dict[int, List] = {size: [] for size in range(1, 7)}
    chunks = itertools.count()

    def query_of_size(size: int):
        while not by_size[size]:
            sets = generate_query_sets(
                QueryConfig(queries_per_level=50, seed=seed * 1_000 + stream * 100 + next(chunks))
            )
            for level in DIFFICULTY_LEVELS:
                for query in sets[level]:
                    by_size[len(query.dimensions)].append(query)
        return by_size[size].pop()

    def rendered():
        for size, carrier in zip(_balanced(rng, range(1, 7)), _balanced(rng, _CARRIERS)):
            query = query_of_size(size)
            dimensions = tuple(
                f"{MODIFIERS[rng.integers(len(MODIFIERS))]} {name}"
                if rng.random() < 0.35
                else name
                for name in query.dimensions
            )
            text = SubjectiveQuery(dimensions, query.difficulty).utterance()
            if carrier is not None:
                body = text[len("I am looking for a restaurant with ") : -1]
                text = carrier.format(body)
            yield text

    return _distinct(rendered())


# ---------------------------------------------------------------------- tags


def _variant_pool() -> List[str]:
    """Modifier variants of every dimension's positive opinions: all unknown."""
    from repro.data import restaurant_dimensions

    dimensions = restaurant_dimensions()
    probe_tags = {
        tag for request in PROBES if request.kind == "tags"
        for tag in json.loads(request.body)["tags"]
    }
    indexed = {d.name for d in dimensions} | probe_tags
    pool = {
        f"{modifier} {opinion} {d.name.split()[-1]}"
        for d in dimensions
        for opinion in d.positive_opinions
        for modifier in MODIFIERS
    }
    return sorted(pool - indexed)


def _tag_queries(rng: np.random.Generator, pool: Sequence[str]) -> Iterator[Tuple[str, ...]]:
    def drawn():
        for size in _balanced(rng, (1, 2, 3)):
            yield tuple(pool[i] for i in rng.choice(len(pool), size=size, replace=False))

    return _distinct(drawn())


def _hot_pools(seed: int) -> Tuple[List[Tuple[str, ...]], List[Tuple[str, ...]]]:
    """Two disjoint 64-query pools mixing indexed and unknown tags."""
    from repro.data import restaurant_dimensions

    rng = _rng(seed, 5)
    names = [d.name for d in restaurant_dimensions()]
    variants = _variant_pool()

    def drawn():
        for size in _balanced(rng, (1, 2, 3)):
            yield tuple(
                names[rng.integers(len(names))]
                if rng.random() < 0.5
                else variants[rng.integers(len(variants))]
                for _ in range(size)
            )

    queries = list(itertools.islice(_distinct(drawn()), 2 * HOT_POOL))
    return queries[:HOT_POOL], queries[HOT_POOL:]


def _zipf(rng: np.random.Generator, pool: Sequence[Tuple[str, ...]]) -> Iterator[Tuple[str, ...]]:
    weights = 1.0 / np.arange(1, len(pool) + 1) ** ZIPF_S
    weights /= weights.sum()
    while True:
        yield pool[int(rng.choice(len(pool), p=weights))]


# ------------------------------------------------------------------ sessions

#: transcript archetypes; ``<dimension>`` becomes one of that dimension's
#: positive opinions plus its aspect, ``{alt}`` a city with no restaurants.
_ARCHETYPES = (
    (
        "i want a restaurant in montreal with <delicious food>",
        "it should also have <generous portions>",
        "okay thanks",
        "what about the parking",
        "find me a restaurant with a <romantic ambiance>",
        "somewhere in {alt}",
    ),
    (
        "is it good",
        "find me a place with <nice staff> in montreal",
        "what about the service",
        "hello",
        "a table in montreal",
        "is it friendly",
    ),
    (
        "what do you recommend",
        "i want a restaurant in montreal with a <beautiful view>",
        "it should be quiet",
        "sounds promising",
        "how about the music",
        "thanks",
    ),
    (
        "i am looking for an italian place with <fair prices>",
        "and <quick service>",
        "never mind the prices",
        "are the plates clean",
        "the cocktails should be great",
        "thanks, goodbye",
    ),
)

_OTHER_CITIES = ("lyon", "melbourne", "paris", "tokyo", "trento", "sydney")


def _transcripts(seed: int, stream: int) -> Iterator[List[str]]:
    from repro.data import dimension_by_name

    rng = _rng(seed, stream)

    def fill(line: str) -> str:
        while "<" in line:
            start = line.index("<")
            end = line.index(">", start)
            dimension = dimension_by_name(line[start + 1 : end])
            opinion = dimension.positive_opinions[rng.integers(len(dimension.positive_opinions))]
            line = f"{line[:start]}{opinion} {dimension.name.split()[-1]}{line[end + 1:]}"
        return line.format(alt=_OTHER_CITIES[rng.integers(len(_OTHER_CITIES))])

    for index in itertools.count():
        yield [fill(line) for line in _ARCHETYPES[index % len(_ARCHETYPES)]][:SESSION_TURNS]


def _interleaved_turns(seed: int, stream: int, prefix: str, count: int) -> List[Request]:
    """``count`` turns of groups of sessions, turn-major within a group.

    Session ``n`` is pinned to connection ``n % 2``, so each session's turns
    travel in order on one keep-alive connection.
    """
    transcripts = _transcripts(seed, stream)
    turns: List[Request] = []
    session = 0
    while len(turns) < count:
        group = [next(transcripts) for _ in range(SESSION_GROUP)]
        for turn in range(SESSION_TURNS):
            for offset, transcript in enumerate(group):
                number = session + offset
                turns.append(
                    say_request(f"{prefix}{seed}-{number}", transcript[turn], conn=number % 2)
                )
        session += SESSION_GROUP
    return turns[:count]


def _sequential_turns(seed: int, stream: int, conn: int) -> Iterator[Request]:
    for number, transcript in enumerate(_transcripts(seed, stream)):
        for utterance in transcript:
            yield say_request(f"c{seed}-{conn}-{number}", utterance, conn=conn)


# --------------------------------------------------------------------- plans


def _shared_plan(seed: int, rate: float, count: int, requests: Iterator[Request]) -> Plan:
    warmup = list(itertools.islice(requests, WARMUP_REQUESTS))
    open_requests = list(itertools.islice(requests, count))
    shared = SharedStream(requests)
    return Plan(warmup, open_requests, _arrivals(seed, rate, count), [shared, shared])


def plan(name: str, seed: int, seconds: float) -> Plan:
    """The requests one run of workload ``name`` sends after the probes."""
    rate = RATES[name]
    count = round(rate * OPEN_SHARE * seconds)
    if name == "utterance_search":
        return _shared_plan(
            seed, rate, count, map(utterance_request, _utterances(seed, 1))
        )
    if name == "tag_search":
        pool = _variant_pool()
        return _shared_plan(
            seed, rate, count, map(tags_request, _tag_queries(_rng(seed, 1), pool))
        )
    if name == "session_chat":
        warmup = _interleaved_turns(seed, 2, "w", WARMUP_REQUESTS)
        open_requests = _interleaved_turns(seed, 1, "s", count)
        closed = [_sequential_turns(seed, 3 + conn, conn) for conn in (0, 1)]
        return Plan(warmup, open_requests, _arrivals(seed, rate, count), closed)
    if name == "reindex_mixed":
        hot, cold = _hot_pools(seed)
        warmup = [
            tags_request(q) for q in itertools.islice(_zipf(_rng(seed, 2), cold), WARMUP_REQUESTS)
        ]
        reads = [tags_request(q) for q in itertools.islice(_zipf(_rng(seed, 1), hot), count)]
        offsets = _arrivals(seed, rate, count)
        timed = list(zip(offsets, reads))
        due = REINDEX_EVERY_S
        while due < offsets[-1]:
            timed.append((due, reindex_request()))
            due += REINDEX_EVERY_S
        timed.sort(key=lambda pair: pair[0])
        closed = SharedStream(map(tags_request, _zipf(_rng(seed, 3), hot)))
        return Plan(
            warmup, [r for _, r in timed], [t for t, _ in timed], [closed, closed]
        )
    raise KeyError(f"unknown workload {name!r}")
