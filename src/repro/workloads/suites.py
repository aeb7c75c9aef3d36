"""The five workload suites of the evaluation (paper §V-A), synthesized.

Each named benchmark is a :class:`WorkloadSpec` whose code footprint,
working sets, sharing pattern, and write mix are tuned to reproduce the
*shape* that drives the paper's results for its suite:

* **Parallel (Parsec)** — small code, moderate private data, a shared
  pool; canneal is a huge random-access outlier, streamcluster streams
  straight past the LLC.
* **HPC (Splash2x)** — negligible instruction misses, strided/stencil
  data; ``lu`` uses power-of-two strides (the dynamic-indexing pathology).
* **Mobile (Chrome sites)** — large instruction footprints, zipf-reused
  heaps, mostly process-private data.
* **Server (SPEC mixes)** — one single-threaded process per core: no
  sharing at all (Table V shows 100 % private misses for these).
* **Database (TPC-C/MySQL)** — the largest code footprint (8.8 % L1-I
  miss ratio in the paper), a big shared buffer pool, and hot log lines.
"""

from __future__ import annotations

import random
from typing import Dict

from repro.workloads.base import (
    CodeModel,
    DataMix,
    SHARED_BASE,
    WorkloadSpec,
    private_base,
)
from repro.workloads.synthetic import (
    HotLineStream,
    PointerChaseStream,
    ProducerConsumerStream,
    RandomStream,
    SequentialStream,
    StencilStream,
    StridedStream,
    ZipfStream,
)

KB = 1024
MB = 1024 * 1024

#: offset of the per-core hot set (stack + loop temporaries) within the
#: private heap region
_HOT_OFFSET = 0x0300_0000  # 48 MB: above the largest private tail pool


def _hot_set(size: int = 26 * KB, write_frac: float = 0.35):
    """The tight per-core reuse every real program has (stack, loop
    temporaries): absorbs most data references into L1 hits, which is what
    keeps real L1-D miss ratios in the paper's single-digit range."""
    def build(core: int, cores: int, rng: random.Random):
        del cores, rng
        return ZipfStream(private_base(core) + _HOT_OFFSET, size,
                          alpha=0.7, write_frac=write_frac)
    return build


def _warm_band(size: int = 48 * KB, write_frac: float = 0.005):
    """Reuse at LLC-band distances: every core circularly walks one shared
    read-mostly structure (dispatch tables, B-tree roots, reference data)
    slightly larger than an L1.  The aggregate touch rate keeps it
    resident in the next level — a 256 kB L2, an LLC slice, or the
    far-side LLC — but never in any single L1: the population whose
    service point separates the five systems (local slice at ~16 cycles
    vs a NoC crossing at ~59) and that the NS-R MRU heuristic replicates.
    In the per-process Server workloads the same stream is simply private
    (their address spaces are disjoint)."""
    def build(core: int, cores: int, rng: random.Random):
        del cores, rng
        return SequentialStream(SHARED_BASE + 0x4000_0000, size,
                                stride=64, write_frac=write_frac)
    return build


def _private_warm(size: int = 40 * KB, write_frac: float = 0.3):
    """Per-core LLC-band reuse (a private buffer larger than the L1 but
    far smaller than a slice).  Its slower lap rate means only part of it
    survives LLC pressure — the surviving part is what a local NS slice
    serves at ~16 cycles."""
    def build(core: int, cores: int, rng: random.Random):
        del cores, rng
        return SequentialStream(private_base(core) + 2 * _HOT_OFFSET, size,
                                stride=64, write_frac=write_frac)
    return build


def _with_hot(entries, hot_weight: float = 0.85, hot_size: int = 26 * KB,
              hot_writes: float = 0.35, warm_weight: float = 0.05,
              warm_size: int = 48 * KB,
              priv_warm_weight: float = 0.0) -> DataMix:
    """Prepend the hot set and warm bands, scaling the workload-specific
    tail streams into the remaining weight."""
    tail_total = sum(w for w, _f in entries)
    tail_weight = max(0.0, 1.0 - hot_weight - warm_weight - priv_warm_weight)
    scale = tail_weight / tail_total if tail_total else 0.0
    scaled = [(w * scale, f) for w, f in entries]
    return DataMix(
        [(hot_weight, _hot_set(hot_size, hot_writes)),
         (warm_weight, _warm_band(warm_size)),
         (priv_warm_weight, _private_warm())] + scaled
    )


def _private_zipf(size: int, alpha: float = 0.9, write_frac: float = 0.25):
    def build(core: int, cores: int, rng: random.Random):
        del cores, rng
        return ZipfStream(private_base(core), size, alpha=alpha,
                          write_frac=write_frac)
    return build


def _private_seq(size: int, write_frac: float = 0.1, stride: int = 16):
    def build(core: int, cores: int, rng: random.Random):
        del cores, rng
        return SequentialStream(private_base(core), size, stride=stride,
                                write_frac=write_frac)
    return build


def _private_strided(size: int, stride: int, write_frac: float = 0.2):
    def build(core: int, cores: int, rng: random.Random):
        del cores, rng
        return StridedStream(private_base(core), size, stride,
                             write_frac=write_frac)
    return build


def _shared_zipf(size: int, alpha: float = 0.8, write_frac: float = 0.05):
    def build(core: int, cores: int, rng: random.Random):
        del core, cores, rng
        return ZipfStream(SHARED_BASE, size, alpha=alpha,
                          write_frac=write_frac)
    return build


def _shared_random(size: int, write_frac: float = 0.1):
    def build(core: int, cores: int, rng: random.Random):
        del core, cores, rng
        return RandomStream(SHARED_BASE, size, write_frac=write_frac)
    return build


def _shared_chase(size: int, write_frac: float = 0.05):
    def build(core: int, cores: int, rng: random.Random):
        del rng
        return PointerChaseStream(SHARED_BASE, size, write_frac=write_frac,
                                  seed=11 + core)
    return build


def _stencil(rows: int, row_bytes: int, write_frac: float = 0.3):
    def build(core: int, cores: int, rng: random.Random):
        del rng
        return StencilStream(SHARED_BASE, rows, row_bytes, core, cores,
                             write_frac=write_frac)
    return build


def _pipeline(chunk: int, read_frac: float = 0.5):
    def build(core: int, cores: int, rng: random.Random):
        del rng
        return ProducerConsumerStream(SHARED_BASE + 0x4200_0000, chunk, core,
                                      cores, read_frac=read_frac)
    return build


def _locks(lines: int = 8, write_frac: float = 0.5):
    def build(core: int, cores: int, rng: random.Random):
        del core, cores, rng
        return HotLineStream(SHARED_BASE + 0x4100_0000, lines,
                             write_frac=write_frac)
    return build


def _spec(name: str, category: str, code: CodeModel, mix: DataMix,
          mem_ratio: float = 0.4, shared_space: bool = True,
          description: str = "") -> WorkloadSpec:
    return WorkloadSpec(name=name, category=category, code=code, data=mix,
                        mem_ratio=mem_ratio, shared_space=shared_space,
                        description=description)


# ---------------------------------------------------------------------------
# Parallel (Parsec)
# ---------------------------------------------------------------------------

PARSEC: Dict[str, WorkloadSpec] = {
    "blackscholes": _spec(
        "blackscholes", "Parallel",
        CodeModel(footprint=16 * KB, hot_fraction=0.995),
        _with_hot([(0.9, _private_seq(2 * MB, write_frac=0.3)),
                 (0.1, _shared_zipf(256 * KB, write_frac=0.0))]),
        description="embarrassingly parallel option pricing: streaming "
                    "private slices, read-only shared parameters",
    ),
    "bodytrack": _spec(
        "bodytrack", "Parallel",
        CodeModel(footprint=64 * KB, hot_fraction=0.97, warm_fraction=0.025),
        _with_hot([(0.55, _private_zipf(1 * MB)),
                 (0.35, _shared_zipf(2 * MB, write_frac=0.02)),
                 (0.10, _locks())]),
        description="particle-filter tracking: shared frames, private "
                    "particles, lock-based phases",
    ),
    "canneal": _spec(
        "canneal", "Parallel",
        CodeModel(footprint=24 * KB, hot_fraction=0.995),
        _with_hot([(0.85, _shared_random(48 * MB, write_frac=0.15)),
                   (0.15, _private_zipf(128 * KB))], hot_weight=0.72, warm_weight=0.06),
        description="simulated annealing over a huge netlist: random "
                    "access far beyond the LLC (the paper's traffic outlier)",
    ),
    "dedup": _spec(
        "dedup", "Parallel",
        CodeModel(footprint=48 * KB, hot_fraction=0.975, warm_fraction=0.02),
        _with_hot([(0.45, _pipeline(512 * KB)),
                 (0.35, _private_zipf(512 * KB)),
                 (0.20, _shared_zipf(4 * MB, write_frac=0.1))]),
        description="pipelined compression: producer-consumer chunks "
                    "between stages plus a shared hash table",
    ),
    "streamcluster": _spec(
        "streamcluster", "Parallel",
        CodeModel(footprint=16 * KB, hot_fraction=0.995),
        _with_hot([(0.9, _private_seq(24 * MB, write_frac=0.02)),
                   (0.1, _shared_zipf(64 * KB, write_frac=0.2))], hot_weight=0.68, warm_weight=0.04),
        mem_ratio=0.5,
        description="online clustering: streams points far beyond the LLC "
                    "(L1 misses go to memory; latency, not traffic, wins)",
    ),
    "swaptions": _spec(
        "swaptions", "Parallel",
        CodeModel(footprint=24 * KB, hot_fraction=0.995),
        _with_hot([(0.95, _private_zipf(192 * KB, write_frac=0.3)),
                 (0.05, _shared_zipf(64 * KB, write_frac=0.0))]),
        description="Monte-Carlo pricing: small hot private working sets",
    ),
    "fluidanimate": _spec(
        "fluidanimate", "Parallel",
        CodeModel(footprint=32 * KB, hot_fraction=0.99),
        _with_hot([(0.8, _stencil(rows=2048, row_bytes=2048)),
                 (0.1, _private_zipf(256 * KB)),
                 (0.1, _locks(lines=32))]),
        description="SPH fluid grid: stencil halos shared with neighbours",
    ),
    "x264": _spec(
        "x264", "Parallel",
        CodeModel(footprint=128 * KB, hot_fraction=0.95, warm_fraction=0.04),
        _with_hot([(0.4, _pipeline(1 * MB, read_frac=0.6)),
                 (0.4, _private_zipf(1 * MB)),
                 (0.2, _shared_zipf(4 * MB, write_frac=0.02))]),
        description="video encode: reference frames shared read-mostly, "
                    "per-thread macroblock state",
    ),
}

# ---------------------------------------------------------------------------
# HPC (Splash2x)
# ---------------------------------------------------------------------------

SPLASH: Dict[str, WorkloadSpec] = {
    "fft": _spec(
        "fft", "HPC",
        CodeModel(footprint=12 * KB, hot_fraction=0.999),
        _with_hot([(0.7, _private_strided(4 * MB, stride=4096)),
                   (0.3, _shared_zipf(1 * MB, write_frac=0.2))],
                  hot_weight=0.88),
        mem_ratio=0.5,
        description="radix-sqrt(N) FFT: strided transpose phases",
    ),
    "lu": _spec(
        "lu", "HPC",
        CodeModel(footprint=8 * KB, hot_fraction=0.999),
        _with_hot([(0.6, _private_strided(2 * MB, stride=64 * KB,
                                          write_frac=0.35)),
                   (0.4, _shared_zipf(256 * KB, write_frac=0.1))],
                  hot_weight=0.9),
        mem_ratio=0.5,
        description="blocked LU: power-of-two strides that thrash "
                    "conventional set indexing (dynamic-indexing showcase)",
    ),
    "radix": _spec(
        "radix", "HPC",
        CodeModel(footprint=8 * KB, hot_fraction=0.999),
        _with_hot([(0.6, _private_seq(8 * MB, write_frac=0.4)),
                   (0.4, _shared_random(4 * MB, write_frac=0.5))],
                  hot_weight=0.88),
        mem_ratio=0.5,
        description="radix sort: streaming keys, scattered histogram writes",
    ),
    "barnes": _spec(
        "barnes", "HPC",
        CodeModel(footprint=24 * KB, hot_fraction=0.995),
        _with_hot([(0.6, _shared_chase(8 * MB)),
                 (0.3, _private_zipf(512 * KB, write_frac=0.3)),
                 (0.1, _locks(lines=64))]),
        description="Barnes-Hut N-body: shared octree pointer chasing",
    ),
    "ocean": _spec(
        "ocean", "HPC",
        CodeModel(footprint=16 * KB, hot_fraction=0.995),
        _with_hot([(0.85, _stencil(rows=4096, row_bytes=4096, write_frac=0.4)),
                 (0.15, _private_zipf(128 * KB))]),
        mem_ratio=0.5,
        description="ocean currents: large stencil grids, neighbour halos",
    ),
    "water": _spec(
        "water", "HPC",
        CodeModel(footprint=20 * KB, hot_fraction=0.998),
        _with_hot([(0.7, _private_zipf(384 * KB, write_frac=0.3)),
                 (0.2, _shared_zipf(512 * KB, write_frac=0.05)),
                 (0.1, _locks(lines=16))]),
        description="molecular dynamics: mostly-private molecule state",
    ),
}

# ---------------------------------------------------------------------------
# Mobile (Chrome with Telemetry) — per-site instruction/data footprints.
# ---------------------------------------------------------------------------


def _site(name: str, code_kb: int, heap_mb: float, shared_mb: float = 2.0,
          hot: float = 0.90) -> WorkloadSpec:
    return _spec(
        name, "Mobile",
        # Chrome is multiprocess: each renderer has its own (JITed) code
        # image, so instruction misses are to private regions.
        CodeModel(footprint=code_kb * KB, hot_fraction=hot,
                  warm_fraction=min(0.12, max(0.0, 0.97 - hot)),
                  warm_functions=192, avg_block=5, shared=False),
        _with_hot([(0.6, _private_zipf(int(heap_mb * MB), alpha=0.85,
                                       write_frac=0.3)),
                   (0.3, _shared_zipf(int(shared_mb * MB), alpha=0.8,
                                      write_frac=0.05)),
                   (0.1, _locks(lines=16, write_frac=0.3))],
                  hot_weight=0.95),
        mem_ratio=0.45,
        description=f"Chrome rendering {name}: large JS/layout code "
                    f"footprint ({code_kb} kB) with zipf-reused heaps",
    )


MOBILE: Dict[str, WorkloadSpec] = {
    spec.name: spec for spec in [
        _site("amazon", 384, 2.0),
        _site("booking", 352, 1.5),
        _site("cnn", 512, 2.5, hot=0.86),
        _site("facebook", 448, 2.0),
        _site("google", 224, 1.0, hot=0.93),
        _site("reddit", 288, 1.5),
        _site("twitter", 320, 1.5),
        _site("wikipedia", 192, 1.0, hot=0.93),
        _site("youtube", 352, 2.0),
        _site("techcrunch", 384, 1.5),
    ]
}

# ---------------------------------------------------------------------------
# Server (SPEC CPU2006 mixes) — one process per core, nothing shared.
# ---------------------------------------------------------------------------


def _spec_app(kind: str):
    """Per-core data stream factory emulating one SPEC component."""
    def build(core: int, cores: int, rng: random.Random):
        del cores
        base = private_base(core)
        if kind == "mcf":
            return RandomStream(base, 24 * MB, write_frac=0.15)
        if kind == "libquantum":
            return SequentialStream(base, 16 * MB, write_frac=0.25)
        if kind == "gcc":
            return ZipfStream(base, 3 * MB, alpha=0.8, write_frac=0.25)
        if kind == "bzip2":
            return ZipfStream(base, 1 * MB, alpha=0.9, write_frac=0.35)
        if kind == "omnetpp":
            return PointerChaseStream(base, 8 * MB, write_frac=0.2,
                                      seed=31 + core)
        if kind == "hmmer":
            return ZipfStream(base, 512 * KB, alpha=1.0, write_frac=0.3)
        raise ValueError(f"unknown SPEC component {kind!r}")
    return build


def _mix(name: str, assignment, code_kb: int = 128,
         hot: float = 0.95) -> WorkloadSpec:
    def pick(core: int, cores: int, rng: random.Random):
        return _spec_app(assignment[core % len(assignment)])(core, cores, rng)
    return _spec(
        name, "Server",
        CodeModel(footprint=code_kb * KB, hot_fraction=hot,
                  warm_fraction=0.04, warm_functions=192, shared=False),
        _with_hot([(1.0, pick)], hot_weight=0.9),
        mem_ratio=0.45,
        shared_space=False,
        description=f"multiprogrammed SPEC mix {assignment}: separate "
                    f"processes, zero sharing",
    )


SERVER: Dict[str, WorkloadSpec] = {
    "mix1": _mix("mix1", ["mcf", "gcc", "libquantum", "bzip2"] * 2),
    "mix2": _mix("mix2", ["gcc", "gcc", "hmmer", "bzip2"] * 2, code_kb=192,
                 hot=0.94),
    "mix3": _mix("mix3", ["mcf", "omnetpp", "mcf", "omnetpp"] * 2,
                 code_kb=96),
    "mix4": _mix("mix4", ["libquantum", "hmmer", "bzip2", "gcc"] * 2),
}

# ---------------------------------------------------------------------------
# Database (TPC-C on MySQL/InnoDB)
# ---------------------------------------------------------------------------

DATABASE: Dict[str, WorkloadSpec] = {
    "tpcc": _spec(
        "tpcc", "Database",
        CodeModel(footprint=1536 * KB, hot_fraction=0.80, warm_fraction=0.14,
                  warm_functions=256, avg_block=4),
        _with_hot([(0.45, _shared_zipf(24 * MB, alpha=0.75, write_frac=0.12)),
                 (0.35, _private_zipf(1 * MB, alpha=0.85, write_frac=0.35)),
                 (0.12, _shared_zipf(4 * MB, alpha=0.9, write_frac=0.4)),
                 (0.08, _locks(lines=32, write_frac=0.55))], hot_weight=0.87),
        mem_ratio=0.5,
        description="OLTP: a huge instruction footprint (the paper's 8.8 % "
                    "L1-I miss ratio), a shared buffer pool, hot index "
                    "pages and log/latch lines",
    ),
}
