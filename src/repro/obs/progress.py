"""Live sweep progress: worker heartbeats + an in-place progress line.

Sweep workers run in other processes, so mid-run progress needs a
channel.  The parent creates a heartbeat directory and names it on each
run's spec (``RunSpec.progress_dir``); each worker's :class:`Heartbeat`
(a run observer beating at chunk boundaries) periodically rewrites one small JSON file — ``hb-<pid>.json`` — with
the run it is on, accesses completed, and its simulation rate.
Heartbeat writes are rate-limited (wall clock) and atomic-enough
(single small ``write``) that the parent tolerates torn reads by
treating unparsable files as absent.

The parent's :class:`SweepProgress` folds per-run completions and the
live heartbeats into

* an **in-place progress line** on stderr when it is a TTY (plain
  per-run lines otherwise, so logs and tests stay clean), and
* a machine-readable **``progress.jsonl``** stream (one record per run
  completion plus sweep start/end markers) for dashboards and CI.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from pathlib import Path
from typing import IO, Dict, List, Optional

#: default ``progress.jsonl`` rotation threshold (bytes)
PROGRESS_JSONL_MAX_BYTES = 4 * 1024 * 1024

#: minimum seconds between two heartbeat writes of one worker
HEARTBEAT_INTERVAL_S = 0.5

#: a heartbeat file untouched this long is stale even if its PID lives
#: (a wedged worker holds its PID but stops beating)
STALE_HEARTBEAT_S = 30.0


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    if pid <= 0:
        return False  # never signal process groups / invalid pids
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except (OSError, OverflowError):
        return False
    return True


class Heartbeat:
    """Worker-side progress beats, written to one per-process file.

    As a run observer (:mod:`repro.common.observe`) it beats at every
    chunk boundary — the wall-clock rate limit throttles the writes —
    with the stream accesses simulated so far (warm-up included), and
    always writes a final beat when the run finalizes.
    """

    __slots__ = ("path", "label", "trace", "_started", "_last_write",
                 "_min_interval", "_streamed")

    def __init__(self, path: str, label: str,
                 min_interval_s: float = HEARTBEAT_INTERVAL_S,
                 trace: str = "") -> None:
        self.path = path
        self.label = label
        #: serve-layer correlation id; "" outside a traced request
        self.trace = trace
        self._started = time.monotonic()
        self._last_write = 0.0
        self._min_interval = min_interval_s
        self._streamed = 0

    def beat(self, accesses: int, force: bool = False) -> None:
        """Rewrite the heartbeat file (rate-limited unless ``force``)."""
        now = time.monotonic()
        if not force and now - self._last_write < self._min_interval:
            return
        self._last_write = now
        elapsed = now - self._started
        payload = {
            "pid": os.getpid(),
            "run": self.label,
            "accesses": accesses,
            "elapsed_s": round(elapsed, 3),
            "ips": round(accesses / elapsed, 1) if elapsed > 0 else 0.0,
            "ts": round(time.time(), 3),
        }
        if self.trace:
            payload["trace"] = self.trace
        try:
            with open(self.path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload))
        except OSError:
            pass  # progress must never kill a run

    def finish(self, accesses: int) -> None:
        """Final beat at run end (always written)."""
        self.beat(accesses, force=True)

    def on_chunk(self, instructions: int, accesses: int,
                 streamed: int) -> None:
        del instructions, accesses
        self._streamed = streamed
        self.beat(streamed)

    def finalize(self) -> None:
        self.finish(self._streamed)


def heartbeat_in_directory(directory: str, label: str,
                           trace: str = "") -> Optional[Heartbeat]:
    """This process's heartbeat in ``directory``; None when unset or
    missing (the run then beats nowhere)."""
    if not directory or not os.path.isdir(directory):
        return None
    path = os.path.join(directory, f"hb-{os.getpid()}.json")
    return Heartbeat(path, label, trace=trace)


def read_heartbeats(directory: str,
                    stale_after_s: float = STALE_HEARTBEAT_S
                    ) -> List[Dict[str, object]]:
    """Every parsable heartbeat record in ``directory``.

    Each record gains a ``"stale"`` flag: True when the writing process
    is gone (a worker killed mid-sweep leaves its file behind forever)
    or the file's mtime is older than ``stale_after_s`` (a live but
    wedged worker).  Stale lanes render as ``stalled`` and are excluded
    from the aggregate rate.
    """
    out: List[Dict[str, object]] = []
    try:
        names = sorted(os.listdir(directory))
    except OSError:
        return out
    now = time.time()
    for name in names:
        if not name.startswith("hb-") or not name.endswith(".json"):
            continue
        path = Path(directory, name)
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
            mtime = path.stat().st_mtime
        except (OSError, ValueError):
            continue  # torn write or vanished file: skip this poll
        if not isinstance(record, dict):
            continue
        pid = record.get("pid")
        dead = isinstance(pid, int) and not _pid_alive(pid)
        record["stale"] = bool(dead or now - mtime > stale_after_s)
        out.append(record)
    return out


class SweepProgress:
    """Parent-side sweep progress rendering + ``progress.jsonl`` export.

    ``inplace=None`` auto-detects: the single updating line is used only
    when ``stream`` is a TTY; otherwise each completion prints its own
    line (CI logs and captured test output stay diff-friendly).
    """

    def __init__(self, total: int, stream: Optional[IO[str]] = None,
                 jsonl_path: Optional[str] = None,
                 heartbeat_dir: Optional[str] = None,
                 inplace: Optional[bool] = None,
                 refresh_s: float = 1.0,
                 jsonl_max_bytes: int = PROGRESS_JSONL_MAX_BYTES) -> None:
        self.total = total
        self.done = 0
        self.stream = stream if stream is not None else sys.stderr
        self.jsonl_path = jsonl_path
        self.jsonl_max_bytes = jsonl_max_bytes
        self.heartbeat_dir = heartbeat_dir
        if inplace is None:
            inplace = bool(getattr(self.stream, "isatty", lambda: False)())
        self.inplace = inplace
        self._started = time.monotonic()
        self._refresh_s = refresh_s
        self._ticker: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._record({"event": "sweep.start", "total": total})

    # ------------------------------------------------------------- lifecycle

    def start(self) -> "SweepProgress":
        """Start the live refresh ticker (TTY mode only)."""
        if self.inplace and self.heartbeat_dir and self._ticker is None:
            self._ticker = threading.Thread(target=self._tick_loop,
                                            name="sweep-progress",
                                            daemon=True)
            self._ticker.start()
        return self

    def close(self) -> None:
        """Stop the ticker, terminate the line, drop heartbeat files."""
        self._stop.set()
        if self._ticker is not None:
            self._ticker.join(timeout=2.0)
            self._ticker = None
        if self.inplace:
            with self._lock:
                self.stream.write("\n")
                self.stream.flush()
        self._record({"event": "sweep.end", "done": self.done,
                      "total": self.total,
                      "elapsed_s": round(self.elapsed, 3)})
        # Heartbeat files of killed workers would otherwise outlive the
        # sweep (the tempdir cleanup in the runner can miss adopted
        # directories, and callers may pass a persistent one).
        if self.heartbeat_dir:
            try:
                for name in os.listdir(self.heartbeat_dir):
                    if name.startswith("hb-") and name.endswith(".json"):
                        try:
                            os.unlink(os.path.join(self.heartbeat_dir, name))
                        except OSError:
                            pass
            except OSError:
                pass

    def __enter__(self) -> "SweepProgress":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------- updates

    @property
    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def eta_s(self) -> Optional[float]:
        """Completion-rate ETA (None until one run has finished)."""
        if not self.done or self.done >= self.total:
            return None
        return self.elapsed / self.done * (self.total - self.done)

    def run_done(self, done: int, total: int, workload: str,
                 config: str) -> None:
        """One run landed (parent-side callback from the executor)."""
        self.done = done
        self.total = total
        self._record({
            "event": "run.done", "done": done, "total": total,
            "workload": workload, "config": config,
            "elapsed_s": round(self.elapsed, 3),
            "eta_s": (round(self.eta_s(), 3)
                      if self.eta_s() is not None else None),
        })
        if self.inplace:
            self.render()
        else:
            with self._lock:
                self.stream.write(f"[{done:3d}/{total}] {workload} on "
                                  f"{config}{self._rate_suffix()}\n")
                self.stream.flush()

    # ------------------------------------------------------------- rendering

    def _rate_suffix(self) -> str:
        beats = (read_heartbeats(self.heartbeat_dir)
                 if self.heartbeat_dir else [])
        ips = sum(float(b.get("ips", 0.0)) for b in beats  # type: ignore[arg-type]
                  if not b.get("stale"))
        parts = []
        if ips > 0:
            parts.append(f"{ips / 1000.0:.1f}k acc/s")
        eta = self.eta_s()
        if eta is not None:
            parts.append(f"eta {_format_eta(eta)}")
        return f"  ({', '.join(parts)})" if parts else ""

    def render(self) -> str:
        """Compose (and, in TTY mode, draw) the one-line progress view."""
        beats = (read_heartbeats(self.heartbeat_dir)
                 if self.heartbeat_dir else [])
        running = [str(b.get("run", "?")) for b in beats
                   if not b.get("stale")]
        stalled = [str(b.get("run", "?")) for b in beats if b.get("stale")]
        ips = sum(float(b.get("ips", 0.0)) for b in beats  # type: ignore[arg-type]
                  if not b.get("stale"))
        parts = [f"[{self.done}/{self.total}]"]
        if running:
            shown = ", ".join(sorted(running)[:3])
            if len(running) > 3:
                shown += f" +{len(running) - 3}"
            parts.append(f"running {shown}")
        if stalled:
            shown = ", ".join(sorted(stalled)[:3])
            if len(stalled) > 3:
                shown += f" +{len(stalled) - 3}"
            parts.append(f"stalled {shown}")
        if ips > 0:
            parts.append(f"{ips / 1000.0:.1f}k acc/s")
        eta = self.eta_s()
        if eta is not None:
            parts.append(f"eta {_format_eta(eta)}")
        line = " · ".join(parts)
        if self.inplace:
            with self._lock:
                self.stream.write("\r\x1b[2K" + line)
                self.stream.flush()
        return line

    def _tick_loop(self) -> None:
        while not self._stop.wait(self._refresh_s):
            self.render()

    # ------------------------------------------------------------- jsonl

    def _record(self, payload: Dict[str, object]) -> None:
        if not self.jsonl_path:
            return
        record = dict(payload)
        record.setdefault("ts", round(time.time(), 3))
        try:
            rotate_jsonl(self.jsonl_path, self.jsonl_max_bytes)
            with open(self.jsonl_path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
        except OSError:
            pass


def rotate_jsonl(path: str, max_bytes: int) -> bool:
    """Rotate ``path`` to ``path + ".1"`` once it exceeds ``max_bytes``.

    Keeps at most the current file plus one rotated generation, so a
    long-running daemon's progress stream is bounded by ``2 *
    max_bytes`` (plus one record) instead of growing forever.  Returns
    True when a rotation happened.  ``max_bytes <= 0`` disables
    rotation.
    """
    if max_bytes <= 0:
        return False
    try:
        if os.path.getsize(path) < max_bytes:
            return False
        os.replace(path, path + ".1")
        return True
    except OSError:
        return False  # absent file, or a racing rotator won; both fine


def _format_eta(seconds: float) -> str:
    seconds = max(0, int(seconds))
    if seconds >= 3600:
        return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"
    return f"{seconds // 60}:{seconds % 60:02d}"
