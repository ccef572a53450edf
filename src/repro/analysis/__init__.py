"""Static correctness tooling: overflow certificates + determinism lint.

Two pillars, both offline (no model execution):

* :mod:`repro.analysis.certify` — abstract interpretation over a
  compiled kernel's netlist that proves the widened ``int64``
  accumulators cannot wrap for *any* representable input, persisted as
  an :class:`OverflowCertificate` artifact (``repro compile`` emits
  one; ``repro verify-kernel`` re-derives and cross-checks it).
* :mod:`repro.analysis.lint` — an AST pass (``repro lint``) rejecting
  nondeterminism-prone code: unseeded RNGs, wall-clock entropy in mask
  or fingerprint paths, unordered iteration/accumulation, post-fork
  shared-memory mutation outside the sanctioned rebind path.
"""

from repro.analysis.certify import (
    CERTIFICATE_ARTIFACT,
    CERTIFICATE_VERSION,
    CertificationError,
    LayerCertificate,
    OverflowCertificate,
    VERDICT_SATURATION_ONLY,
    VERDICT_WRAP_POSSIBLE,
    VerificationResult,
    certify_kernel,
    certify_plan,
    kernel_fingerprint,
    verify_kernel,
)
from repro.analysis.intervals import (
    INT64_MAX,
    INT64_MIN,
    Interval,
    affine_bounds,
    format_interval,
    required_bits,
    shifted_magnitude,
)
from repro.analysis.lint import (
    LintFinding,
    RULES,
    lint_file,
    lint_paths,
    lint_source,
    render_findings,
)

__all__ = [
    "CERTIFICATE_ARTIFACT",
    "CERTIFICATE_VERSION",
    "CertificationError",
    "INT64_MAX",
    "INT64_MIN",
    "Interval",
    "LayerCertificate",
    "LintFinding",
    "OverflowCertificate",
    "RULES",
    "VERDICT_SATURATION_ONLY",
    "VERDICT_WRAP_POSSIBLE",
    "VerificationResult",
    "affine_bounds",
    "certify_kernel",
    "certify_plan",
    "format_interval",
    "kernel_fingerprint",
    "lint_file",
    "lint_paths",
    "lint_source",
    "render_findings",
    "required_bits",
    "shifted_magnitude",
    "verify_kernel",
]
