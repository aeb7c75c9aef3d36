"""Trace-file workloads: run the simulators on externally captured traces.

Users with real traces (from Pin, DynamoRIO, gem5, ...) can feed them to
every system in this package through a simple text format, one access
per line::

    <core> <I|L|S> <hex-or-dec vaddr>

``#`` starts a comment.  Translation uses the same on-demand address
spaces as the synthetic workloads: ``shared_space=True`` treats all
cores as threads of one process, ``False`` as separate processes.

:func:`record_trace` captures any workload's access stream into this
format, so synthetic traces can be exported, edited, and replayed.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, List, Tuple, Union

from repro.common.errors import TraceError
from repro.common.types import Access, AccessKind
from repro.mem.address import AddressMap, AddressSpace, PageAllocator

_KIND_CODES = {
    "I": AccessKind.IFETCH,
    "L": AccessKind.LOAD,
    "S": AccessKind.STORE,
}
_CODE_OF = {kind: code for code, kind in _KIND_CODES.items()}


def parse_trace_line(line: str, lineno: int = 0) -> Access:
    """One trace line -> :class:`Access` (raises TraceError on garbage)."""
    parts = line.split()
    if len(parts) != 3:
        raise TraceError(f"line {lineno}: expected 'core kind vaddr', "
                         f"got {line!r}")
    try:
        core = int(parts[0])
        kind = _KIND_CODES[parts[1].upper()]
        vaddr = int(parts[2], 0)
    except (ValueError, KeyError) as exc:
        raise TraceError(f"line {lineno}: {exc}") from exc
    return Access(core, kind, vaddr)


def _parsed_lines(path: Path) -> Iterator[Tuple[int, Access]]:
    """Yield ``(lineno, access)`` for every payload line of a trace file.

    The one comment-stripping / blank-skipping / parsing loop shared by
    :meth:`TraceFileWorkload.generate` and :func:`load_trace`.
    """
    with path.open() as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, parse_trace_line(line, lineno)


class TraceFileWorkload:
    """A workload that replays a trace file.

    Implements the same interface as :class:`SyntheticWorkload`
    (``generate``/``translate``), so it plugs into ``Simulator`` and
    ``run_workload`` unchanged.  ``generate`` stops after the requested
    instruction count or at end-of-trace, whichever comes first.
    """

    def __init__(self, path: Union[str, Path], nodes: int,
                 amap: AddressMap | None = None,
                 shared_space: bool = True) -> None:
        self.path = Path(path)
        self.nodes = nodes
        self.amap = amap if amap is not None else AddressMap()
        allocator = PageAllocator()
        if shared_space:
            shared = AddressSpace(self.amap, asid=0, allocator=allocator)
            self._spaces = [shared] * nodes
        else:
            self._spaces = [
                AddressSpace(self.amap, asid=core + 1, allocator=allocator)
                for core in range(nodes)
            ]
        self.name = self.path.stem
        self.category = "Trace"

    def translate(self, core: int, vaddr: int) -> int:
        return self._spaces[core].translate(vaddr)

    def generate(self, n_instructions: int, seed: int = 0) -> Iterator[Access]:
        """Replay the trace's first ``n_instructions`` instruction windows.

        The instruction-window convention matches the synthetic
        generators exactly: an IFETCH opens a window and the data
        accesses that follow it (up to the next IFETCH) belong to it, so
        the Nth instruction's trailing data ops are replayed before the
        cutoff — which is what makes a ``record_trace`` round trip
        bit-identical to its originating synthetic run.  Data lines
        *before* the first IFETCH belong to no instruction window and
        are skipped (after validation), and a non-positive budget
        replays nothing — previously both leaked leading data accesses.
        """
        del seed  # a recorded trace is already fully determined
        if n_instructions <= 0:
            return
        issued = 0
        for lineno, access in _parsed_lines(self.path):
            if access.core >= self.nodes:
                raise TraceError(
                    f"line {lineno}: core {access.core} outside the "
                    f"{self.nodes}-node machine"
                )
            if access.is_instruction:
                if issued >= n_instructions:
                    return
                issued += 1
            elif issued == 0:
                continue  # data before the first instruction window
            yield access


def record_trace(workload, n_instructions: int, path: Union[str, Path],
                 seed: int = 0) -> int:
    """Capture ``workload``'s access stream into a trace file.

    Returns the number of accesses written.
    """
    path = Path(path)
    count = 0
    with path.open("w") as handle:
        handle.write(f"# trace of {getattr(workload, 'name', 'workload')} "
                     f"({n_instructions} instructions, seed {seed})\n")
        for access in workload.generate(n_instructions, seed):
            handle.write(f"{access.core} {_CODE_OF[access.kind]} "
                         f"{access.vaddr:#x}\n")
            count += 1
    return count


def load_trace(path: Union[str, Path]) -> List[Access]:
    """Eagerly parse a whole trace file (validation helper)."""
    return [access for _lineno, access in _parsed_lines(Path(path))]
