"""Repo-specific AST lint: enforce the central stats-key registry.

Every counter name passed as a string literal to a ``StatGroup`` method
(``add``/``set``/``get``/``total``/``ratio`` on a receiver named
``stats``, ``events``, or ``_stats``) must appear in
``repro.common.stats.STAT_KEYS``.  A typo'd key would otherwise create a
dead counter silently — reads return 0.0 and writes land in a counter
nobody reports.  Bound-method aliases are tracked too: after
``stats_add = stats.add`` (a hot loop may hoist the lookup), calls
through the alias are linted like the method itself.

Accepted key expressions:

* a string literal present in the registry;
* a conditional expression whose both arms are registered literals
  (``"l2.i.hits" if instr else "l2.d.hits"``);
* a subscript of a module-level ``_KEY_*`` dict table whose **values**
  are validated against the registry at the table's definition;
* any other dynamic expression (a variable, an attribute) — assumed to
  be derived from registered keys upstream;
* an f-string **only** when the line carries the waiver comment
  ``# lint: allow-dynamic-stat-key``.

Usage::

    python -m tools.lint_repro [paths...]   # default: src/repro
    python -m tools.lint_repro --trace-schema trace.jsonl [...]
    python -m tools.lint_repro --digest-schema .repro_cache/runs [...]
    python -m tools.lint_repro --timeline-schema .repro_cache/runs [...]
    python -m tools.lint_repro --serve-schema payloads/ [...]
    python -m tools.lint_repro --metrics-schema [metrics.txt ...]
    python -m tools.lint_repro --protocol

The default (path-lint) mode additionally fails when git tracks
compiled-bytecode noise (``*.pyc`` / ``__pycache__``) — ``.gitignore``
keeps new litter out, this catches litter that was force-added.

``--trace-schema`` switches to validating JSONL trace exports (from
``repro trace --format jsonl``) against the schema in
:data:`repro.obs.trace.TRACE_FIELDS` — CI runs it on the smoke trace.

``--digest-schema`` validates the histogram-digest payloads (``hists``)
of cached run records — files or directories of ``*.json`` — against
:func:`repro.obs.histogram.validate_digest`: an empty digest is exactly
``{"count": 0.0}``; a non-empty one carries count/mean/max/p50/p90/p99
with monotonic percentiles and nothing else.  The records' ``profile``
and ``timeline`` payloads are validated alongside.

``--timeline-schema`` validates epoch time-series documents — cached
run records (their ``timeline`` field) or bare timeline JSON files —
against :func:`repro.obs.timeline.validate_timeline`: absent/empty
means sampling was off, ``{"epochs": 0}`` is the sampled-but-empty
contract, anything else must carry aligned integer series columns under
known names.

``--serve-schema`` validates captured ``repro serve`` response payloads
(health / job / record / error, sniffed by shape) against
:mod:`repro.serve.schema` — the machine-checkable half of
``docs/SERVING.md``; CI's serve-smoke job runs it on live responses.

``--metrics-schema`` first self-checks the declared metric registry
(:data:`repro.obs.metrics.METRIC_SCHEMA`), then validates any given
``/metrics`` scrapes (Prometheus text exposition 0.0.4 files) against
it via :func:`repro.obs.metrics.validate_exposition` — every sample
must belong to a declared metric with declared labels, counters must
end in ``_total``, histograms must carry monotonic cumulative buckets.
CI's serve-smoke job runs it on a live scrape.

``--protocol`` reconciles the coherence-protocol implementations against
the declarative transition tables in :mod:`repro.verify.spec` (see
``docs/VERIFICATION.md``): every protocol-visible effect the AST
extractor recovers must be claimed by a spec transition or waived, and
every spec claim must match real code.

Exit status 1 when any violation is found.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from typing import Iterator, List, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_PATHS = [REPO_ROOT / "src" / "repro"]

#: StatGroup methods whose string arguments are counter keys.
KEY_METHODS = {"add": 1, "set": 1, "get": 1, "total": 1, "ratio": 2}
#: Receiver names treated as StatGroup instances.
STAT_RECEIVERS = {"stats", "events", "_stats"}
WAIVER = "lint: allow-dynamic-stat-key"


def _load_registry() -> frozenset:
    """Import STAT_KEYS without requiring the package to be installed."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.common.stats import STAT_KEYS
    return STAT_KEYS


def _receiver_name(node: ast.expr) -> str:
    """Terminal name of a call receiver (``self.stats`` -> ``stats``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return ""


def _is_key_table_subscript(node: ast.expr) -> bool:
    """Whether ``node`` is ``_KEY_FOO[...]`` (a validated key table)."""
    return (isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id.startswith("_KEY_"))


class StatKeyLinter(ast.NodeVisitor):
    """Collects registry violations for one module."""

    def __init__(self, path: Path, source: str, registry: frozenset) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.registry = registry
        self.errors: List[Tuple[int, str]] = []
        #: bare name -> aliased StatGroup method (``stats_add`` -> ``add``)
        self.aliases: dict = {}

    # -- helpers -----------------------------------------------------------

    def _waived(self, lineno: int) -> bool:
        line = self.lines[lineno - 1] if lineno <= len(self.lines) else ""
        return WAIVER in line

    def _error(self, lineno: int, message: str) -> None:
        self.errors.append((lineno, message))

    def _check_key(self, arg: ast.expr) -> None:
        if isinstance(arg, ast.Constant):
            if not isinstance(arg.value, str):
                self._error(arg.lineno,
                            f"stat key must be a string, got {arg.value!r}")
            elif arg.value not in self.registry:
                self._error(arg.lineno,
                            f'unregistered stat key "{arg.value}" '
                            f"(add it to repro.common.stats.STAT_KEYS)")
        elif isinstance(arg, ast.IfExp):
            self._check_key(arg.body)
            self._check_key(arg.orelse)
        elif isinstance(arg, ast.JoinedStr):
            if not self._waived(arg.lineno):
                self._error(arg.lineno,
                            "dynamic (f-string) stat key; derive it from "
                            "registered keys or add the waiver comment "
                            f"'# {WAIVER}'")
        # Other expressions (names, attributes, _KEY_* subscripts) pass.

    # -- visitors ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        method = ""
        if (isinstance(func, ast.Attribute)
                and func.attr in KEY_METHODS
                and _receiver_name(func.value) in STAT_RECEIVERS):
            method = func.attr
        elif isinstance(func, ast.Name) and func.id in self.aliases:
            method = self.aliases[func.id]
        if method:
            for arg in node.args[:KEY_METHODS[method]]:
                self._check_key(arg)
        self.generic_visit(node)

    def visit_Assign(self, node: ast.Assign) -> None:
        # Module-level `_KEY_FOO = {...: "literal"}` tables: validate the
        # values once here so subscripts of the table are trusted later.
        if (len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id.startswith("_KEY_")
                and isinstance(node.value, ast.Dict)):
            for value in node.value.values:
                self._check_key(value)
        # Bound-method aliases (`stats_add = stats.add`): calls through
        # the bare name are linted like the method itself.  A later
        # rebind to anything else clears the alias.
        if len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            target = node.targets[0].id
            value = node.value
            if (isinstance(value, ast.Attribute)
                    and value.attr in KEY_METHODS
                    and _receiver_name(value.value) in STAT_RECEIVERS):
                self.aliases[target] = value.attr
            else:
                self.aliases.pop(target, None)
        self.generic_visit(node)


def iter_python_files(paths: List[Path]) -> Iterator[Path]:
    for path in paths:
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def lint_paths(paths: List[Path]) -> List[str]:
    """Lint the given files/directories; returns formatted violations."""
    registry = _load_registry()
    problems: List[str] = []
    for path in iter_python_files(paths):
        source = path.read_text()
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            problems.append(f"{path}:{exc.lineno}: syntax error: {exc.msg}")
            continue
        linter = StatKeyLinter(path, source, registry)
        linter.visit(tree)
        try:
            shown = path.relative_to(REPO_ROOT)
        except ValueError:
            shown = path
        problems.extend(f"{shown}:{lineno}: {message}"
                        for lineno, message in sorted(linter.errors))
    return problems


def check_trace_schema(paths: List[Path]) -> List[str]:
    """Validate JSONL trace files; returns formatted violations."""
    import json

    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.obs.trace import validate_trace_record

    problems: List[str] = []
    for path in paths:
        count = 0
        try:
            lines = path.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            problems.append(f"{path}: unreadable: {exc}")
            continue
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            count += 1
            try:
                record = json.loads(line)
            except ValueError as exc:
                problems.append(f"{path}:{lineno}: not JSON: {exc}")
                continue
            error = validate_trace_record(record)
            if error:
                problems.append(f"{path}:{lineno}: {error}")
        if count == 0:
            problems.append(f"{path}: empty trace (no records)")
    return problems


def check_digest_schema(paths: List[Path]) -> List[str]:
    """Validate run-record histogram + profile digests; returns
    violations."""
    import json

    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.obs.histogram import validate_digest
    from repro.obs.profile import validate_profile
    from repro.obs.timeline import validate_timeline

    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.glob("*.json")))
        else:
            files.append(path)
    problems: List[str] = []
    checked = 0
    for path in files:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            problems.append(f"{path}: unreadable: {exc}")
            continue
        except ValueError as exc:
            problems.append(f"{path}: not JSON: {exc}")
            continue
        if not isinstance(payload, dict):
            problems.append(f"{path}: record is not a JSON object")
            continue
        hists = payload.get("hists", {})
        if not isinstance(hists, dict):
            problems.append(f"{path}: 'hists' is "
                            f"{type(hists).__name__}, not an object")
            continue
        for name, digest in sorted(hists.items()):
            checked += 1
            for issue in validate_digest(digest):
                problems.append(f"{path}: hists[{name!r}]: {issue}")
        # records persisted before RUN_FORMAT 8 carry no 'profile' key;
        # an absent key is as valid as the empty (unprofiled) digest
        for issue in validate_profile(payload.get("profile", {})):
            problems.append(f"{path}: profile: {issue}")
        # likewise 'timeline' arrived with RUN_FORMAT 9
        for issue in validate_timeline(payload.get("timeline", {})):
            problems.append(f"{path}: timeline: {issue}")
    if not files:
        problems.append("--digest-schema matched no record files")
    return problems


def check_timeline_schema(paths: List[Path]) -> List[str]:
    """Validate epoch time-series payloads; returns violations.

    Each path is a ``*.json`` file or a directory of them; a file that
    looks like a run record (has ``workload``) contributes its
    ``timeline`` field, anything else is treated as a bare timeline
    document.
    """
    import json

    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.obs.timeline import validate_timeline

    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.glob("*.json")))
        else:
            files.append(path)
    problems: List[str] = []
    for path in files:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            problems.append(f"{path}: unreadable: {exc}")
            continue
        except ValueError as exc:
            problems.append(f"{path}: not JSON: {exc}")
            continue
        if not isinstance(payload, dict):
            problems.append(f"{path}: not a JSON object")
            continue
        timeline = (payload.get("timeline", {})
                    if "workload" in payload else payload)
        problems.extend(f"{path}: timeline: {issue}"
                        for issue in validate_timeline(timeline))
    if not files:
        problems.append("--timeline-schema matched no files")
    return problems


def check_tracked_bytecode() -> List[str]:
    """Fail when git tracks compiled-bytecode noise; returns violations.

    ``.gitignore`` keeps new ``__pycache__``/``*.pyc`` litter out of
    ``git add``; this catches files that were force-added (or predate
    the ignore rule).  Outside a git checkout — or without git — the
    check is vacuous.
    """
    import subprocess

    try:
        proc = subprocess.run(["git", "-C", str(REPO_ROOT), "ls-files"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return []
    if proc.returncode != 0:
        return []
    return [f"tracked bytecode: {name} (git rm --cached it)"
            for name in proc.stdout.splitlines()
            if name.endswith(".pyc") or "__pycache__" in name.split("/")]


def check_serve_schema(paths: List[Path]) -> List[str]:
    """Validate captured serving-API response payloads.

    Each path is a JSON file (or a directory of ``*.json``) holding one
    response body from the ``repro serve`` daemon; the kind (health /
    job / record / error) is sniffed from its shape and the payload is
    validated against :mod:`repro.serve.schema` — the machine-checkable
    half of ``docs/SERVING.md``.  CI's serve-smoke job curls the live
    endpoints into files and runs this over them.
    """
    import json

    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.serve.schema import classify_payload, validate_payload

    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.glob("*.json")))
        else:
            files.append(path)
    problems: List[str] = []
    for path in files:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except OSError as exc:
            problems.append(f"{path}: unreadable: {exc}")
            continue
        except ValueError as exc:
            problems.append(f"{path}: not JSON: {exc}")
            continue
        kind = classify_payload(payload)
        if kind is None:
            problems.append(f"{path}: unrecognizable payload shape "
                            f"(not health/job/record/error)")
            continue
        for issue in validate_payload(kind, payload):
            problems.append(f"{path}: {issue}")
    if not files:
        problems.append("--serve-schema matched no payload files")
    return problems


def check_metrics_schema(paths: List[Path]) -> List[str]:
    """Self-check the metric registry, then validate any ``/metrics``
    scrapes against it.

    With no paths the mode still checks
    :data:`repro.obs.metrics.METRIC_SCHEMA` for well-formedness (valid
    names and labels, counters ending in ``_total``); each given file is
    additionally parsed as Prometheus text exposition and every sample
    matched against the declarations.  CI's serve-smoke job runs it on
    the ``metrics.txt`` it scrapes from the live daemon.
    """
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.obs.metrics import validate_exposition, validate_schema

    problems = [f"METRIC_SCHEMA: {issue}" for issue in validate_schema()]
    for path in paths:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            problems.append(f"{path}: unreadable: {exc}")
            continue
        if not text.strip():
            problems.append(f"{path}: empty exposition")
            continue
        problems.extend(f"{path}: {issue}"
                        for issue in validate_exposition(text))
    return problems


def check_protocol() -> List[str]:
    """Reconcile the protocol implementations against their specs."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.verify.extract import extract_facts, reconcile
    from repro.verify.spec import SPECS, WAIVERS

    transitions = [t for spec in SPECS.values() for t in spec.transitions]
    return [str(finding)
            for finding in reconcile(transitions, WAIVERS, extract_facts())]


def main(argv: List[str]) -> int:
    if argv and argv[0] == "--protocol":
        if argv[1:]:
            print("lint_repro: --protocol takes no further arguments",
                  file=sys.stderr)
            return 2
        problems = check_protocol()
        for problem in problems:
            print(problem)
        if problems:
            print(f"lint_repro: {len(problems)} problem(s)", file=sys.stderr)
            return 1
        print("lint_repro: protocol spec and implementation agree")
        return 0
    if argv and argv[0] == "--digest-schema":
        record_paths = [Path(arg) for arg in argv[1:]]
        if not record_paths:
            print("lint_repro: --digest-schema needs at least one record "
                  "file or directory (e.g. .repro_cache/runs)",
                  file=sys.stderr)
            return 2
        problems = check_digest_schema(record_paths)
        for problem in problems:
            print(problem)
        if problems:
            print(f"lint_repro: {len(problems)} problem(s)", file=sys.stderr)
            return 1
        print(f"lint_repro: digest schemas valid in "
              f"{len(record_paths)} path(s)")
        return 0
    if argv and argv[0] == "--timeline-schema":
        timeline_paths = [Path(arg) for arg in argv[1:]]
        if not timeline_paths:
            print("lint_repro: --timeline-schema needs at least one record "
                  "file, timeline JSON, or directory "
                  "(e.g. .repro_cache/runs)", file=sys.stderr)
            return 2
        problems = check_timeline_schema(timeline_paths)
        for problem in problems:
            print(problem)
        if problems:
            print(f"lint_repro: {len(problems)} problem(s)", file=sys.stderr)
            return 1
        print(f"lint_repro: timeline schemas valid in "
              f"{len(timeline_paths)} path(s)")
        return 0
    if argv and argv[0] == "--serve-schema":
        payload_paths = [Path(arg) for arg in argv[1:]]
        if not payload_paths:
            print("lint_repro: --serve-schema needs at least one response "
                  "payload file or directory", file=sys.stderr)
            return 2
        problems = check_serve_schema(payload_paths)
        for problem in problems:
            print(problem)
        if problems:
            print(f"lint_repro: {len(problems)} problem(s)", file=sys.stderr)
            return 1
        print(f"lint_repro: serve payloads valid in "
              f"{len(payload_paths)} path(s)")
        return 0
    if argv and argv[0] == "--metrics-schema":
        metric_paths = [Path(arg) for arg in argv[1:]]
        problems = check_metrics_schema(metric_paths)
        for problem in problems:
            print(problem)
        if problems:
            print(f"lint_repro: {len(problems)} problem(s)", file=sys.stderr)
            return 1
        print(f"lint_repro: metric schema valid"
              + (f"; {len(metric_paths)} scrape(s) conform"
                 if metric_paths else ""))
        return 0
    if argv and argv[0] == "--trace-schema":
        trace_paths = [Path(arg) for arg in argv[1:]]
        if not trace_paths:
            print("lint_repro: --trace-schema needs at least one "
                  "trace.jsonl path", file=sys.stderr)
            return 2
        problems = check_trace_schema(trace_paths)
        for problem in problems:
            print(problem)
        if problems:
            print(f"lint_repro: {len(problems)} problem(s)", file=sys.stderr)
            return 1
        print(f"lint_repro: {len(trace_paths)} trace file(s) schema-valid")
        return 0
    paths = [Path(arg) for arg in argv] if argv else DEFAULT_PATHS
    missing = [p for p in paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"lint_repro: no such path: {path}", file=sys.stderr)
        return 2
    problems = lint_paths(paths) + check_tracked_bytecode()
    for problem in problems:
        print(problem)
    if problems:
        print(f"lint_repro: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
