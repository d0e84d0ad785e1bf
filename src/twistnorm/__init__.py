"""Twisted Orlicz sequence-space norms, envelopes and renorming toolkit.

Layers, bottom up:

- ``sampling``  — one keyed seeded stream per purpose, read by rows, and
  the sampling laws behind every randomized certificate;
- ``seqspace``  — finitely supported sequences and Luxemburg norms of any
  map with ``dim``, ``evaluate`` and ``radially_monotone``, and
  optionally ``degree`` (p for a map of degree p, solved in closed form);
  it imports only ``errors``;
- ``scalarfn``  — scalar Orlicz functions and their certified constants;
- ``youngmap``  — even maps on R^n, the twisted two-variable map, grid
  convex envelopes, quasi-convexity certificates, mollification;
- ``twisted``   — the quasi-linear map F, the twisted quasi-norm, and
  the norm-equivalence certificates;
- ``renorm``    — gauges, the extension, star-iterated norms, and the
  finite-support invariants behind the renorming;
- ``cli``       — the ``twistnorm`` command.
"""

from .errors import BracketError, NumericSignal, UnboundedConstant
from .scalarfn import (OrliczFn, ScalarConstants, certify, delta2_constant,
                       derive_M_prime, estimate_indices,
                       estimate_type_constant, extend, power, power_log,
                       subadditivity_constant)
from .seqspace import VecSeq, luxemburg_norm, luxemburg_norm_batch, modular
from .youngmap import (EnvelopeGrid, GridMap, LipschitzTheta, MollifyResult,
                       QuasiconvexityResult, YoungMap, convex_envelope,
                       identity_theta, kalton_peck_map, kp_theoretical_bound,
                       mollify, quasiconvexity_constant, radial_power,
                       soft_clip_theta)
from .twisted import (PairSeq, QuasiLinearityResult, TwistedSpace,
                      build_space, equivalence_certificate, from_preset,
                      kp_F, parse_preset, quasi_linearity_constant,
                      quasi_triangle_constant, twisted_norm,
                      twisted_norm_batch)
from .renorm import (BlockSeq, GaugeSpec, RenormPipeline, StarNorm,
                     SubstitutionReport, SuffReport, build_phitilde,
                     build_pipeline, build_star_norm, lambda_norm,
                     level_constant, match_lambda_norm,
                     prefix_substitution_check, select_alpha, star_iterate,
                     substitution_differences, suff_criterion_check,
                     suff_margins, triangle_violation)

__version__ = "0.1.0"
