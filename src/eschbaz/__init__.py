"""Exact-integer tools for Eschenburg and Bazaikin parameter spaces.

Verifies freeness and positive-curvature conditions, constructs and checks
shift-parameterized totally geodesic embedding candidates, and searches
parameter boxes for positively curved Eschenburg spaces with no positively
curved Bazaikin host.
"""

from .arith import FactorizationIncomplete, InternalError, factorize
from .bazaikin import (
    BazParams,
    freeness_failures,
    h6_order,
    host_facts,
    is_free_baz,
    is_pc_baz,
    submanifolds,
)
from .embedding import (
    EmbeddingCertificate,
    WindowReport,
    candidate_q,
    certified_shift,
    dual_embedding,
    homotopy_distinct_embeddings,
    make_certificate,
    nonsingular_shift,
    pc_shift_window,
    window_scan,
)
from .eschenburg import (
    EschParams,
    admits_positive_curvature,
    canonicalize,
    family_cohomogeneity_one,
    family_cohomogeneity_two,
    h4_order,
    is_free,
    is_pc_metric,
    kernel_order,
    pc_normal_form,
    shift,
)
from .survey import (
    ScanStats,
    SurveyRow,
    VerificationFailure,
    scan_box,
    verify_cohomogeneity_one,
    verify_infinite_families,
    verify_known_counterexamples,
)

__version__ = "0.1.0"
