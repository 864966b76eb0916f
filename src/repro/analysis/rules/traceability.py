"""RPR106 — paper traceability of public math functions.

``repro.core`` and ``repro.bounds`` implement numbered equations,
lemmas, and algorithms from the paper; reviewers check an
implementation *against its reference*, so every public module-level
function in those packages must cite one in its docstring — ``Eq. 5``,
``Eqs. 8/13/15``, ``Lemma 4.4``, ``Theorem 1``, ``Algorithm 2``,
``Section 3.3``, ``Table 1``, or ``Figure 6``.  Engineering helpers
with no paper anchor are recorded in the committed baseline instead of
being force-fitted with a citation.
"""

from __future__ import annotations

import ast
import re
from typing import List

from repro.analysis.findings import Finding, Severity
from repro.analysis.rules.base import Rule

#: packages whose public functions must cite the paper.
TRACEABLE_PARTS = frozenset({"core", "bounds"})

_TAG = re.compile(
    r"(?:\bEqs?\.\s*\d)"
    r"|(?:\b(?:Lemma|Theorem|Corollary|Algorithm|Section|Table|Figure)\s+\d)"
)


class TraceabilityRule(Rule):
    rule_id = "RPR106"
    name = "paper-traceability"
    severity = Severity.INFO
    description = (
        "Public functions in core/ and bounds/ must cite an Eq./Lemma/"
        "Algorithm/Section tag in their docstring."
    )

    def check(self, ctx) -> List[Finding]:
        if not TRACEABLE_PARTS & set(ctx.path_parts):
            return []
        findings: List[Finding] = []
        for node in ctx.tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            doc = ast.get_docstring(node)
            if doc is None:
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"public function {node.name!r} has no docstring "
                        "(and therefore no paper reference)",
                    )
                )
            elif not _TAG.search(doc):
                findings.append(
                    self.finding(
                        ctx,
                        node,
                        f"public function {node.name!r} cites no paper "
                        "reference (Eq./Lemma/Theorem/Algorithm/Section "
                        "tag) in its docstring",
                    )
                )
        return findings
