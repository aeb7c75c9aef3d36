"""Static protocol verification: spec, extractor, model checker, coverage.

The declarative transition tables in :mod:`repro.verify.spec` are the
single source of truth for both coherence protocols:

* :mod:`repro.verify.extract` recovers the *implemented* transition
  relation from the AST of the protocol modules (message sends, event
  taxonomy bumps, state/role writes, tracer emits, curated stat bumps)
  and diffs it against the spec's evidence anchors — undeclared facts,
  spec claims with no implementation, and dangling anchors are findings.
* :mod:`repro.verify.model` explores every interleaving of small
  configurations over the spec with a BFS to fixpoint, checking SWMR,
  data-value consistency, MD-tracking/inclusion, and stuck-freedom.
* :mod:`repro.verify.coverage` maps runtime tracer/stat streams from the
  pinned matrix (plus stress probes) onto spec transition ids and
  gates on never-exercised transitions that are not annotated cold,
  and on any of those runs whose batched driver diverges from the
  reference loop.

``repro verify`` and ``tools/lint_repro.py --protocol`` are the entry
points; CI's ``verify`` job runs both.
"""

from repro.verify.spec import (  # noqa: F401
    D2M_SPEC,
    MESI_SPEC,
    SPECS,
    Evidence,
    Transition,
    spec_transitions,
)
from repro.verify.extract import Finding, extract_facts, reconcile  # noqa: F401
