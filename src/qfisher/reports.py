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

    name: str
    lhs: float
    rhs: float
    gap: float
    tolerance: float
    passed: bool
    extras: dict = field(default_factory=dict)


def identity_report(name, lhs, rhs, rel_tol, extras=None) -> VerificationReport:
    scale = max(abs(lhs), abs(rhs), 1e-300)
    gap = abs(lhs - rhs) / scale
    return VerificationReport(name, float(lhs), float(rhs), float(gap), float(rel_tol),
                              bool(gap <= rel_tol), extras or {})


def inequality_report(name, lhs, rhs, slack, extras=None) -> VerificationReport:
    """Checks lhs >= rhs - slack."""
    gap = float(lhs - rhs)
    return VerificationReport(name, float(lhs), float(rhs), gap, float(slack),
                              bool(gap >= -slack), extras or {})
