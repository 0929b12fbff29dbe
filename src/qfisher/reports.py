"""Named scalar diagnostics for identity and inequality checks."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class VerificationReport:
    """One identity/inequality check: LHS vs RHS, gap, and a verdict.

    For identities `gap` is the relative error |lhs-rhs|/max(|rhs|, tiny);
    for inequalities it is lhs - rhs (>= -slack means the inequality holds).
    `extras` carries any additional named scalars (equality residuals,
    discrepancy factors, fitted exponents, ...).
    """

    lhs: float
    rhs: float
    gap: float
    passed: bool
    extras: dict = field(default_factory=dict)


def identity_report(lhs, rhs, rel_tol, extras=None) -> VerificationReport:
    scale = max(abs(lhs), abs(rhs), 1e-300)
    gap = abs(lhs - rhs) / scale
    return VerificationReport(float(lhs), float(rhs), float(gap), bool(gap <= rel_tol),
                              extras or {})


def inequality_report(lhs, rhs, slack, extras=None) -> VerificationReport:
    """Checks lhs >= rhs - slack."""
    gap = float(lhs - rhs)
    return VerificationReport(float(lhs), float(rhs), gap, bool(gap >= -slack), extras or {})
