"""Log2-bucketed histograms — the distribution primitive of telemetry.

Scalar counters (``StatGroup``) can assert totals but cannot show where
latency *mass* sits; the paper's headline claims (direct access for ~90%
of misses, Table IV late-hit columns) are distributional.  A
:class:`Histogram` records non-negative integers into fixed log2 buckets
— bucket ``i`` holds every value whose ``int.bit_length()`` is ``i``, so
bucket 0 is exactly ``{0}``, bucket 1 is ``{1}``, bucket 2 is ``{2,3}``,
bucket 3 is ``{4..7}``, and so on — giving O(1) slotted recording with
no per-record allocation, bounded memory regardless of the value range,
and ~2x relative error on percentile estimates (fine for latency-class
questions: "is p99 an L1 hit or a memory round trip?").

Histograms are mergeable (parallel sweep workers each record locally and
the parent folds them together) and JSON-serializable (they ride inside
run-cache records).
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

#: one bucket per possible bit_length of a 63-bit value, plus bucket 0
N_BUCKETS = 64

#: the percentile summary reported into run records and reports
SUMMARY_PERCENTILES = (50, 90, 99)

#: every key a non-empty digest carries (an empty digest is just {"count": 0})
DIGEST_KEYS = ("count", "mean", "max", "p50", "p90", "p99")


def bucket_of(value: int) -> int:
    """Bucket index of a value (values beyond 2**63-1 clamp to the top)."""
    if value < 0:
        raise ValueError(f"histograms record non-negative values, got {value}")
    index = value.bit_length()
    return index if index < N_BUCKETS else N_BUCKETS - 1


def bucket_bounds(index: int) -> Tuple[int, int]:
    """Inclusive ``(lo, hi)`` value range of bucket ``index``."""
    if index == 0:
        return (0, 0)
    return (1 << (index - 1), (1 << index) - 1)


class Histogram:
    """Fixed-bucket log2 histogram of non-negative integers.

    ``record`` is on simulation hot paths (one call per access when
    telemetry is enabled), so the class is slotted and recording is one
    ``bit_length`` plus three integer bumps.
    """

    __slots__ = ("name", "unit", "count", "total", "max", "_buckets")

    def __init__(self, name: str = "", unit: str = "") -> None:
        self.name = name
        self.unit = unit
        self.count = 0
        self.total = 0
        self.max = 0
        self._buckets: List[int] = [0] * N_BUCKETS

    # -- recording ---------------------------------------------------------

    def record(self, value: int) -> None:
        """Record one observation (O(1), no allocation)."""
        index = value.bit_length()
        self._buckets[index if index < N_BUCKETS else N_BUCKETS - 1] += 1
        self.count += 1
        self.total += value
        if value > self.max:
            self.max = value

    def record_many(self, value: int, times: int) -> None:
        """Record ``value`` observed ``times`` times (bulk path)."""
        if times <= 0:
            return
        self._buckets[bucket_of(value)] += times
        self.count += times
        self.total += value * times
        if value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one."""
        buckets = self._buckets
        for index, n in enumerate(other._buckets):
            if n:
                buckets[index] += n
        self.count += other.count
        self.total += other.total
        if other.max > self.max:
            self.max = other.max

    # -- queries -----------------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> int:
        """Upper bound of the bucket holding the ``p``-th percentile.

        Returns the bucket's inclusive upper bound (conservative: the
        true percentile is at most this, and at least half of it), and
        never exceeds the recorded maximum.  0 when empty.
        """
        if not self.count:
            return 0
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100], got {p}")
        rank = self.count * p / 100.0
        seen = 0
        for index, n in enumerate(self._buckets):
            seen += n
            if seen >= rank:
                return min(bucket_bounds(index)[1], self.max)
        return self.max

    def nonzero_buckets(self) -> Iterator[Tuple[int, int]]:
        """``(bucket_index, count)`` for every occupied bucket."""
        for index, n in enumerate(self._buckets):
            if n:
                yield index, n

    def summary(self) -> Dict[str, float]:
        """The percentile digest run records and reports carry.

        An empty histogram digests to ``{"count": 0.0}`` — *not* a full
        digest of zero mean/max/percentiles, which downstream comparison
        would read as a real distribution sitting at zero.
        """
        if not self.count:
            return {"count": 0.0}
        out: Dict[str, float] = {
            "count": float(self.count),
            "mean": round(self.mean, 3),
            "max": float(self.max),
        }
        for p in SUMMARY_PERCENTILES:
            out[f"p{p}"] = float(self.percentile(p))
        return out

    # -- serialization -----------------------------------------------------

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "unit": self.unit,
            "count": self.count,
            "total": self.total,
            "max": self.max,
            "buckets": {str(i): n for i, n in self.nonzero_buckets()},
        }

    @staticmethod
    def from_json(data: Mapping[str, object]) -> "Histogram":
        hist = Histogram(str(data.get("name", "")),
                         str(data.get("unit", "")))
        hist.count = int(data["count"])          # type: ignore[arg-type]
        hist.total = int(data["total"])          # type: ignore[arg-type]
        hist.max = int(data["max"])              # type: ignore[arg-type]
        buckets = data.get("buckets", {})
        assert isinstance(buckets, Mapping)
        for index, n in buckets.items():
            hist._buckets[int(index)] = int(n)   # type: ignore[arg-type]
        return hist

    def __len__(self) -> int:
        return self.count

    def __repr__(self) -> str:
        return (f"Histogram({self.name!r}, count={self.count}, "
                f"mean={self.mean:.1f}, max={self.max})")


class HistogramSet:
    """A named family of histograms, created lazily on first record.

    The telemetry layer's analogue of :class:`StatGroup`: components ask
    for ``hists.get("latency.L1")`` and record into it; reporting
    flattens every member's percentile digest.
    """

    __slots__ = ("_hists",)

    def __init__(self) -> None:
        self._hists: Dict[str, Histogram] = {}

    def get(self, name: str, unit: str = "") -> Histogram:
        """The named histogram, created empty on first use."""
        hist = self._hists.get(name)
        if hist is None:
            hist = Histogram(name, unit)
            self._hists[name] = hist
        return hist

    def peek(self, name: str) -> Optional[Histogram]:
        """The named histogram if it exists (no creation)."""
        return self._hists.get(name)

    def names(self) -> List[str]:
        return sorted(self._hists)

    def merge(self, other: "HistogramSet") -> None:
        for name, hist in other._hists.items():
            self.get(name, hist.unit).merge(hist)

    def summaries(self) -> Dict[str, Dict[str, float]]:
        """``{name: percentile digest}`` for every non-empty member."""
        return {name: hist.summary()
                for name, hist in sorted(self._hists.items()) if hist.count}

    def to_json(self) -> Dict[str, object]:
        return {name: hist.to_json()
                for name, hist in sorted(self._hists.items())}

    @staticmethod
    def from_json(data: Mapping[str, Mapping[str, object]]) -> "HistogramSet":
        hists = HistogramSet()
        for name, payload in data.items():
            hists._hists[name] = Histogram.from_json(payload)
        return hists

    def __iter__(self) -> Iterator[Histogram]:
        return iter(self._hists.values())

    def __len__(self) -> int:
        return len(self._hists)

    def __contains__(self, name: str) -> bool:
        return name in self._hists


def merge_summaries(summaries: Iterable[Mapping[str, Mapping[str, float]]]
                    ) -> Dict[str, Dict[str, float]]:
    """Pick each histogram's digest from the first summary carrying it.

    Run records store digests, not raw buckets; when aggregating rows
    for display the digests are already per-run, so "merging" is just a
    stable union keyed by histogram name.
    """
    out: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, digest in summary.items():
            out.setdefault(name, dict(digest))
    return out


def validate_digest(digest: object) -> List[str]:
    """Schema-check one percentile digest; returns problem strings.

    The contract (enforced by ``tools/lint_repro.py --schema`` on cached
    run records): an empty digest is exactly ``{"count": 0.0}``;
    a non-empty digest carries every :data:`DIGEST_KEYS` member as a
    non-negative number with ``p50 <= p90 <= p99 <= max`` and
    ``mean <= max``, and nothing else.
    """
    problems: List[str] = []
    if not isinstance(digest, Mapping):
        return [f"digest is {type(digest).__name__}, not a mapping"]
    unknown = sorted(set(digest) - set(DIGEST_KEYS))
    if unknown:
        problems.append(f"unknown digest keys: {', '.join(unknown)}")
    values: Dict[str, float] = {}
    for key in DIGEST_KEYS:
        if key not in digest:
            continue
        value = digest[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{key} is {type(value).__name__}, not a number")
        elif value < 0:
            problems.append(f"{key} is negative ({value})")
        else:
            values[key] = float(value)
    count = values.get("count")
    if "count" not in digest:
        problems.append("missing key: count")
    elif count == 0.0:
        extras = sorted(set(digest) & set(DIGEST_KEYS) - {"count"})
        if extras:
            problems.append("empty digest carries value keys: "
                            + ", ".join(extras))
    else:
        missing = sorted(set(DIGEST_KEYS) - set(digest))
        if missing:
            problems.append(f"missing keys: {', '.join(missing)}")
        if not problems:
            if not (values["p50"] <= values["p90"] <= values["p99"]
                    <= values["max"]):
                problems.append(
                    "percentiles not monotonic: "
                    f"p50={values['p50']} p90={values['p90']} "
                    f"p99={values['p99']} max={values['max']}")
            if values["mean"] > values["max"]:
                problems.append(f"mean {values['mean']} exceeds max "
                                f"{values['max']}")
    return problems
