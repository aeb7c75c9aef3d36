"""Verification report: orchestrate spec reconcile / model check / coverage.

``repro verify`` and ``tools/lint_repro.py --protocol`` both funnel
through :func:`run_verification`; CI's ``verify`` job keys on the exit
code and archives the JSON report.  The three passes are independent —
the spec reconcile is always run (it is static and fast), the model
check and the runtime coverage pass are opt-in because they simulate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.verify.coverage import CoverageReport, run_coverage
from repro.verify.extract import Finding, extract_facts, reconcile
from repro.verify.model import ModelResult, check_all
from repro.verify.spec import SPECS, WAIVERS


@dataclass
class VerificationReport:
    """Everything one ``repro verify`` invocation established."""

    spec_findings: List[Finding] = field(default_factory=list)
    fact_count: int = 0
    transition_count: int = 0
    model_results: List[ModelResult] = field(default_factory=list)
    model_checked: bool = False
    coverage: Optional[CoverageReport] = None

    @property
    def model_violations(self) -> int:
        return sum(len(r.violations) for r in self.model_results)

    @property
    def unfired(self) -> Dict[str, List[str]]:
        """Spec transitions the model checker never fired, per protocol.

        The exhaustive BFS should reach every transition of its own
        shadow model; a transition it cannot fire is a spec/model drift.
        """
        missing: Dict[str, List[str]] = {}
        fired: Dict[str, set] = {}
        for result in self.model_results:
            fired.setdefault(result.protocol, set()).update(result.fired)
        for name, spec in SPECS.items():
            if name not in fired:
                continue
            modeled = {t.tid for t in spec.transitions if t.model}
            gone = sorted(modeled - fired[name])
            if gone:
                missing[name] = gone
        return missing

    @property
    def ok(self) -> bool:
        if self.spec_findings:
            return False
        if self.model_checked and (self.model_violations or self.unfired):
            return False
        if self.coverage is not None and not self.coverage.ok:
            return False
        return True

    def to_json(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "ok": self.ok,
            "spec": {
                "facts": self.fact_count,
                "transitions": self.transition_count,
                "findings": [
                    {"kind": f.kind, "module": f.module,
                     "qualname": f.qualname, "fact": f.fact,
                     "detail": f.detail}
                    for f in self.spec_findings
                ],
            },
        }
        if self.model_checked:
            payload["model"] = {
                "configs": [
                    {"protocol": r.protocol, "cores": r.cores,
                     "lines": r.lines, "states": r.states,
                     "steps": r.steps,
                     "violations": [
                         {"invariant": v.invariant, "detail": v.detail,
                          "path": list(v.path)}
                         for v in r.violations
                     ]}
                    for r in self.model_results
                ],
                "unfired": self.unfired,
            }
        if self.coverage is not None:
            payload["coverage"] = self.coverage.to_json()
        return payload

    def render(self) -> str:
        lines: List[str] = []
        lines.append(f"spec reconcile: {self.fact_count} facts vs "
                     f"{self.transition_count} transitions -> "
                     f"{len(self.spec_findings)} finding(s)")
        for finding in self.spec_findings:
            lines.append(f"  {finding}")
        if self.model_checked:
            for result in self.model_results:
                lines.append(
                    f"model check [{result.protocol}] {result.cores} cores x "
                    f"{result.lines} line(s): {result.states} states, "
                    f"{result.steps} steps, "
                    f"{len(result.violations)} violation(s)")
                for violation in result.violations:
                    lines.append(f"  {violation.invariant}: "
                                 f"{violation.detail}")
                    for step in violation.path:
                        lines.append(f"    {step}")
            for protocol, tids in self.unfired.items():
                lines.append(f"model check [{protocol}] never fired: "
                             f"{', '.join(tids)}")
        if self.coverage is not None:
            summary = self.coverage.to_json()["summary"]
            assert isinstance(summary, dict)
            lines.append(
                f"coverage: {summary['exercised']}/{summary['total']} "
                f"transitions exercised over {len(self.coverage.runs)} "
                f"run(s), {summary['cold']} cold-annotated")
            for t in self.coverage.findings:
                lines.append(f"  NEVER EXERCISED: {t.tid} ({t.protocol}) — "
                             f"add a workload/probe or annotate cold")
            compared = len(self.coverage.compared)
            lines.append(
                f"equivalence: {compared - len(self.coverage.divergent)}/"
                f"{compared} run(s) batched driver == reference loop")
            for label in self.coverage.divergent:
                lines.append(f"  DIVERGED: {label} — the batched driver's "
                             "statistics differ from the reference loop's")
        lines.append("verify: " + ("OK" if self.ok else "FAILED"))
        return "\n".join(lines)


def run_verification(model_check: bool = False,
                     coverage: bool = False) -> VerificationReport:
    """Run the requested verification passes and collect the report."""
    extraction = extract_facts()
    transitions = [t for spec in SPECS.values() for t in spec.transitions]
    report = VerificationReport(
        spec_findings=reconcile(transitions, WAIVERS, extraction),
        fact_count=len(extraction.facts),
        transition_count=len(transitions),
    )
    if model_check:
        report.model_results = check_all()
        report.model_checked = True
    if coverage:
        report.coverage = run_coverage()
    return report


def write_json(report: VerificationReport, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_json(), handle, indent=2)
        handle.write("\n")
