"""Workload framework: instruction streams + data mixes per core.

A :class:`SyntheticWorkload` interleaves per-core execution
round-robin, one instruction at a time.  Each instruction yields one
IFETCH (instruction boundaries drive the per-core clocks and all
per-kilo-instruction metrics) and, per the workload's memory ratio, data
operations drawn from a weighted mix of streams.

Address-space model: parallel workloads (Parsec/Splash2x/Mobile/TPC-C)
run as one multithreaded process sharing one address space; the Server
SPEC mixes run one single-threaded process per core, each with its own
address space (so nothing is physically shared — the paper's Table V
shows 100 % private misses for them).
"""

from __future__ import annotations

import os
import random
import threading
from array import array
from bisect import bisect
from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterator, List, Sequence, Tuple

from repro.common.types import (CODE_KIND, IFETCH_CODE, LOAD_CODE,
                                STORE_CODE, Access)
from repro.mem.address import (AddressMap, AddressSpace, PageAllocator,
                               translate_chunk)
from repro.workloads.synthetic import Stream

#: standard virtual layout
CODE_BASE = 0x1000_0000
SHARED_BASE = 0x2000_0000
PRIVATE_BASE = 0x4000_0000
PRIVATE_SPACING = 0x0800_0000

#: factory: (core, cores, rng) -> Stream
StreamFactory = Callable[[int, int, random.Random], Stream]

#: one chunk of a translated stream: ``(cores, kinds, vaddrs, paddrs)``
Chunk = Tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]]

#: the replay cache holds at most this many accesses over all its
#: streams (18 bytes each), evicting the least recently used stream
REPLAY_CAP = 1 << 20


class _Recording:
    """One fully drained translated stream: the compact chunks it yielded.

    A replay yields those same tuples.  The spec reference keeps the
    spec's ``id`` in the cache key from being reused.
    """

    __slots__ = ("spec", "chunks", "accesses")

    def __init__(self, spec: "WorkloadSpec", chunks: List[Chunk],
                 accesses: int) -> None:
        self.spec = spec
        self.chunks = chunks
        self.accesses = accesses

    def __len__(self) -> int:
        return self.accesses


_replays: "OrderedDict[Tuple[int, ...], _Recording]" = OrderedDict()
_replay_lock = threading.Lock()


def _reset_replay_lock() -> None:
    # A child forked while another thread held the lock must not
    # inherit it held.
    global _replay_lock
    _replay_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_replay_lock)


def _store(key: Tuple[int, ...], recording: _Recording) -> None:
    with _replay_lock:
        _replays[key] = recording
        _replays.move_to_end(key)
        total = sum(map(len, _replays.values()))
        while total > REPLAY_CAP:
            _old_key, old = _replays.popitem(last=False)
            total -= len(old)


def private_base(core: int) -> int:
    """Base address of one core's private heap region."""
    return PRIVATE_BASE + core * PRIVATE_SPACING


@dataclass
class DataMix:
    """Weighted mixture of data streams for one workload."""

    entries: Sequence[Tuple[float, StreamFactory]]

    def build(self, core: int, cores: int,
              rng: random.Random) -> Tuple[List[float], List[Stream]]:
        weights = [w for w, _f in self.entries]
        streams = [f(core, cores, rng) for _w, f in self.entries]
        return weights, streams


@dataclass
class CodeModel:
    """Instruction-fetch behaviour: footprint, block length, hot/cold mix.

    The PC walks sequentially through basic blocks; a block end jumps,
    with probability ``hot_fraction``, into a hot code set (inner loops,
    hot library functions — resident in the L1-I) and otherwise to a
    uniformly chosen cold function within the full footprint.  The steady
    L1-I miss ratio is therefore approximately
    ``(1 - hot_fraction) / avg_block`` — directly controllable, which is
    how each suite is calibrated to its paper profile (Mobile ~2 %,
    Database ~9 %, everything else near zero).
    """

    footprint: int = 32 * 1024
    avg_block: int = 6          # fetch groups per basic block
    hot_fraction: float = 0.97  # jumps landing in the hot code set
    hot_functions: int = 96     # size of the hot set, in function slots
    #: jumps landing in a warm tier — code reused at LLC-band distance
    #: (libraries, less-hot paths); what a browser or database keeps
    #: bouncing between the L1-I and the next level
    warm_fraction: float = 0.0
    warm_functions: int = 192   # warm tier size (192 slots = 48 kB)
    function_size: int = 256    # bytes per function start slot
    fetch_bytes: int = 16       # one modeled IFETCH covers a fetch group
    shared: bool = True         # one code image for all cores?

    def build(self, core: int, rng: random.Random) -> "_CodeStream":
        # A non-shared code image gets a per-core virtual base (e.g. JITed
        # renderer code in a multiprocess browser); a shared one is a
        # single image whose physical sharing is decided by the workload's
        # address-space model.
        base = CODE_BASE if self.shared else CODE_BASE + core * 0x0200_0000
        return _CodeStream(self, base, rng)


class _CodeStream:
    def __init__(self, model: CodeModel, base: int,
                 rng: random.Random) -> None:
        del rng
        self.model = model
        self.base = base
        self._pc = base
        self._functions = max(1, model.footprint // model.function_size)
        self._hot = min(model.hot_functions, self._functions)
        self._warm = min(model.warm_functions, self._functions - self._hot)
        # next_pc runs once per simulated instruction: precompute every
        # derived constant (same float math as the inline expressions).
        self._jump_prob = 1.0 / model.avg_block
        self._hot_fraction = model.hot_fraction
        self._warm_threshold = model.hot_fraction + model.warm_fraction
        self._function_size = model.function_size
        self._fetch_bytes = model.fetch_bytes
        self._wrap_limit = base + model.footprint

    def next_pc(self, rng: random.Random) -> int:
        if rng.random() < self._jump_prob:
            roll = rng.random()
            if roll < self._hot_fraction:
                slot = rng.randrange(self._hot)
            elif self._warm and roll < self._warm_threshold:
                slot = self._hot + rng.randrange(self._warm)
            else:
                slot = rng.randrange(self._functions)
            pc = self.base + slot * self._function_size
        else:
            pc = self._pc + self._fetch_bytes
            if pc >= self._wrap_limit:
                pc = self.base
        self._pc = pc
        return pc


@dataclass
class WorkloadSpec:
    """Everything that defines one named benchmark."""

    name: str
    category: str
    code: CodeModel
    data: DataMix
    mem_ratio: float = 0.4          # data ops per instruction
    shared_space: bool = True       # threads of one process vs processes
    description: str = ""


class SyntheticWorkload:
    """A runnable instance of a :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec, nodes: int,
                 amap: AddressMap, seed: int = 0) -> None:
        self.spec = spec
        self.nodes = nodes
        self.amap = amap
        self._spaces = self._new_spaces()
        self._seed = seed

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def category(self) -> str:
        return self.spec.category

    def translate(self, core: int, vaddr: int) -> int:
        return self._spaces[core].translate(vaddr)

    def _new_spaces(self) -> List[AddressSpace]:
        """Empty per-core address spaces over one fresh allocator.

        A shared-space workload maps every core to one space (asid 0);
        otherwise each core gets its own (asid ``core + 1``).
        """
        allocator = PageAllocator()
        if self.spec.shared_space:
            return [AddressSpace(self.amap, asid=0,
                                 allocator=allocator)] * self.nodes
        return [AddressSpace(self.amap, asid=core + 1, allocator=allocator)
                for core in range(self.nodes)]

    def generate(self, n_instructions: int, seed: int = 0) -> Iterator[Access]:
        """Interleaved access stream totalling ``n_instructions``.

        The reference loop's input: the draws :meth:`generate_batch`
        translates, one untranslated :class:`Access` at a time.  The
        workload's address spaces start empty when the stream does, so
        :meth:`translate` maps the stream's pages as
        :meth:`generate_batch` does.
        """
        self._spaces = self._new_spaces()
        for cores, kinds, vaddrs in self._draws(n_instructions,
                                                seed or self._seed, 4096):
            for core, kind, vaddr in zip(cores, kinds, vaddrs):
                yield Access(core, CODE_KIND[kind], vaddr)

    def generate_batch(self, n_instructions: int, seed: int = 0,
                       chunk: int = 4096) -> Iterator[Chunk]:
        """The :meth:`generate` stream, translated, as chunked flat arrays.

        Yields ``(cores, kinds, vaddrs, paddrs)`` tuples of equal-length
        sequences covering consecutive slices of the access sequence
        :meth:`generate` produces (both drain :meth:`_draws`).  ``kinds``
        holds the compact codes from :mod:`repro.common.types`
        (``IFETCH_CODE``/``LOAD_CODE``/``STORE_CODE``); ``paddrs`` is
        what :meth:`translate` gives for each access while
        :meth:`generate` runs, translated per chunk in stream order
        through address spaces this stream builds empty (the workload's
        own are neither read nor written).  Chunk boundaries always fall
        between the data ops of one instruction and the next IFETCH, but
        consumers must not rely on that — a chunk is just a flush point.
        Chunks are read-only: a replay hands the same tuples to every
        consumer.

        A stream is therefore a pure function of the spec, the node
        count, the effective seed, ``n_instructions``, ``chunk``, the
        page geometry and the address-space model, so a process keeps
        the streams it fully drained (up to :data:`REPLAY_CAP` accesses,
        least recently used evicted first) and replays them.  A drain
        that records or replays yields compact chunks — ``bytes``
        (cores, kinds) and ``array('q')`` (addresses) — which the
        batched driver wraps in numpy without a copy; any other drain
        yields lists.

        This is the batched driver's (``repro.sim.batch``) native input.
        """
        seed = seed or self._seed
        key = (id(self.spec), self.nodes, seed, n_instructions, chunk,
               self.amap.page_bits, int(self.spec.shared_space))
        with _replay_lock:
            recording = _replays.get(key)
            if recording is not None:
                _replays.move_to_end(key)
        if recording is not None:
            yield from recording.chunks
            return
        keep = n_instructions <= REPLAY_CAP and self.nodes <= 256
        kept: List[Chunk] = []
        accesses = 0
        spaces = self._new_spaces()
        for cores, kinds, vaddrs in self._draws(n_instructions, seed, chunk):
            paddrs = translate_chunk(spaces, cores, vaddrs)
            if not keep:
                yield cores, kinds, vaddrs, paddrs
                continue
            compact = (bytes(cores), bytes(kinds), array("q", vaddrs),
                       array("q", paddrs))
            kept.append(compact)
            accesses += len(cores)
            yield compact
            if accesses > REPLAY_CAP:
                keep = False
                kept = []
        if keep:
            _store(key, _Recording(self.spec, kept, accesses))

    def _draws(self, n_instructions: int, seed: int, chunk: int
               ) -> Iterator[Tuple[List[int], List[int], List[int]]]:
        """The untranslated stream as ``(cores, kinds, vaddrs)`` lists.

        Instructions interleave round-robin over the cores, each core
        drawing from its own RNG; an op's data stream is picked by the
        one ``rng.random()`` + ``bisect`` that
        ``rng.choices(streams, weights)`` would make.
        """
        rngs = [random.Random(seed * 1_000_003 + core)
                for core in range(self.nodes)]
        code = [self.spec.code.build(core, rngs[core])
                for core in range(self.nodes)]
        mixes = [self.spec.data.build(core, self.nodes, rngs[core])
                 for core in range(self.nodes)]
        choice_tables = []
        for weights, streams in mixes:
            cum = list(accumulate(weights))
            choice_tables.append(
                (streams, cum, cum[-1] + 0.0, len(streams) - 1))
        debt = [0.0] * self.nodes
        mem_ratio = self.spec.mem_ratio
        nodes = self.nodes

        cores: List[int] = []
        kinds: List[int] = []
        vaddrs: List[int] = []
        issued = 0
        core = 0
        while issued < n_instructions:
            rng = rngs[core]
            cores.append(core)
            kinds.append(IFETCH_CODE)
            vaddrs.append(code[core].next_pc(rng))
            issued += 1
            owed = debt[core] + mem_ratio
            if owed >= 1.0:
                streams, cum, total, hi = choice_tables[core]
                while owed >= 1.0:
                    owed -= 1.0
                    stream = streams[bisect(cum, rng.random() * total, 0, hi)]
                    vaddr, is_write = stream.next_op(rng)
                    cores.append(core)
                    kinds.append(STORE_CODE if is_write else LOAD_CODE)
                    vaddrs.append(vaddr)
            debt[core] = owed
            core = (core + 1) % nodes
            if len(cores) >= chunk:
                yield cores, kinds, vaddrs
                cores = []
                kinds = []
                vaddrs = []
        if cores:
            yield cores, kinds, vaddrs
