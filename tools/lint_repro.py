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
    python -m tools.lint_repro --schema PATH [PATH ...]
    python -m tools.lint_repro --metrics-schema [metrics.txt ...]
    python -m tools.lint_repro --protocol

The default (path-lint) mode additionally fails when git tracks
compiled-bytecode noise (``*.pyc`` / ``__pycache__``) — ``.gitignore``
keeps new litter out, this catches litter that was force-added.

``--schema`` validates machine-readable artifacts, each path a file or
a directory of them.  A ``*.jsonl`` file is a protocol trace export
(``repro run --view trace``): every line must satisfy
:data:`repro.obs.trace.TRACE_FIELDS`.  A ``*.json`` file is classified
by shape with :func:`repro.serve.schema.classify_payload` — a serve
response (health / job / timeline / error), a cached run record, or a
bare epoch time-series — and checked by
:func:`repro.serve.schema.validate_payload`.  A run record's histogram
digests, slow-tail profile and timeline are all checked there, so a
record has one validator whether it came from the cache directory or
from ``GET /records/<key>``.

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
    _import_src()
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


def _import_src() -> None:
    """Make ``repro`` importable without installing the package."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)


def check_schema(paths: List[Path]) -> List[str]:
    """Validate trace exports and JSON artifacts; returns violations."""
    import json

    _import_src()
    from repro.obs.trace import validate_trace_record
    from repro.serve.schema import classify_payload, validate_payload

    files: List[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(p for p in path.iterdir()
                                if p.suffix in (".json", ".jsonl")))
        else:
            files.append(path)
    problems: List[str] = []
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            problems.append(f"{path}: unreadable: {exc}")
            continue
        trace = path.suffix == ".jsonl"
        documents = ([(f"{path}:{lineno}", line) for lineno, line
                      in enumerate(text.splitlines(), start=1)
                      if line.strip()] if trace else [(str(path), text)])
        if trace and not documents:
            problems.append(f"{path}: empty trace (no records)")
        for where, document in documents:
            try:
                payload = json.loads(document)
            except ValueError as exc:
                problems.append(f"{where}: not JSON: {exc}")
                continue
            if trace:
                error = validate_trace_record(payload)
                issues = [error] if error else []
            else:
                kind = classify_payload(payload)
                issues = (validate_payload(kind, payload) if kind else
                          ["unrecognizable payload shape (not a serve "
                           "response, run record or timeline)"])
            problems.extend(f"{where}: {issue}" for issue in issues)
    if not files:
        problems.append("--schema matched no *.json or *.jsonl files")
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
    _import_src()
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
    _import_src()
    from repro.verify.extract import extract_facts, reconcile
    from repro.verify.spec import SPECS, WAIVERS

    transitions = [t for spec in SPECS.values() for t in spec.transitions]
    return [str(finding)
            for finding in reconcile(transitions, WAIVERS, extract_facts())]


def _report(problems: List[str], success: str = "") -> int:
    """Print violations (exit 1) or the success line (exit 0)."""
    for problem in problems:
        print(problem)
    if problems:
        print(f"lint_repro: {len(problems)} problem(s)", file=sys.stderr)
        return 1
    if success:
        print(f"lint_repro: {success}")
    return 0


def main(argv: List[str]) -> int:
    mode, rest = (argv[0], argv[1:]) if argv else ("", [])
    paths = [Path(arg) for arg in rest]
    if mode == "--protocol":
        if rest:
            print("lint_repro: --protocol takes no further arguments",
                  file=sys.stderr)
            return 2
        return _report(check_protocol(),
                       "protocol spec and implementation agree")
    if mode == "--schema":
        if not paths:
            print("lint_repro: --schema needs at least one file or "
                  "directory (e.g. .repro_cache/runs)", file=sys.stderr)
            return 2
        return _report(check_schema(paths),
                       f"schemas valid in {len(paths)} path(s)")
    if mode == "--metrics-schema":
        return _report(check_metrics_schema(paths), "metric schema valid"
                       + (f"; {len(paths)} scrape(s) conform"
                          if paths else ""))
    paths = [Path(arg) for arg in argv] if argv else DEFAULT_PATHS
    missing = [p for p in paths if not p.exists()]
    if missing:
        for path in missing:
            print(f"lint_repro: no such path: {path}", file=sys.stderr)
        return 2
    return _report(lint_paths(paths) + check_tracked_bytecode())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
