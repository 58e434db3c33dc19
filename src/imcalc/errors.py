"""Exception types shared across the library."""

from __future__ import annotations


class AlgebroidError(ValueError):
    """Malformed algebroid data or incompatible arguments."""


class AxiomError(AlgebroidError):
    """Construction-time axiom validation failed; carries the CheckReport."""

    def __init__(self, report):
        self.report = report
        lines = [f"{v.condition} at {v.witness}: {v.residual}" for v in report.violations[:4]]
        more = "" if len(report.violations) <= 4 else f" (+{len(report.violations) - 4} more)"
        super().__init__("algebroid axioms fail: " + "; ".join(lines) + more)


class CrossCheckError(RuntimeError):
    """Two independent evaluation routes inside one operation disagreed.

    This always indicates a library defect, never bad user data.
    """


class OracleDisagreement(RuntimeError):
    """The two sides of a theorem oracle returned different verdicts.

    The underlying equivalence is a proved theorem, so disagreement certifies
    a bug in one of the independent code paths.  `outcome` holds the
    reports and verdicts of the routes (an `algebroid.OracleOutcome`).
    """

    def __init__(self, message: str, outcome=None):
        super().__init__(message)
        self.outcome = outcome
