"""The paper's primary contribution: PCAPS and CAP.

- :class:`~repro.core.pcaps.PCAPSScheduler` — Algorithm 1: a carbon-
  awareness filter over any probabilistic (Definition 4.1) scheduler, built
  on the relative-importance metric (Definition 4.2) and the threshold
  function ``Ψ_γ``.
- :class:`~repro.core.cap.CAPProvisioner` — Section 4.2: a k-search-derived,
  time-varying executor quota that wraps any carbon-agnostic scheduler.
- :mod:`~repro.core.threshold` — the ``Ψ_γ`` family and the CAP threshold
  set ``Φ`` (with its ``α`` root-solver).
- :mod:`~repro.core.analysis` — carbon stretch factors (Theorems 4.3/4.5),
  carbon-savings decompositions (Theorems 4.4/4.6), and the supporting
  quantities (``D(γ,c)``, ``M(B,c)``, Graham's bound).
"""

from repro._lazy import lazy_exports

_SUBMODULE_OF = {
    "CAPProvisioner": "cap",
    "PCAPSScheduler": "pcaps",
    **dict.fromkeys(
        ("CAPThresholds", "cap_quota", "cap_thresholds", "psi", "solve_alpha"),
        "threshold",
    ),
    **dict.fromkeys(
        (
            "SavingsDecomposition",
            "average_step_savings",
            "cap_stretch_factor",
            "carbon_savings",
            "deferral_fraction",
            "graham_bound",
            "min_quota_from_trace",
            "pcaps_stretch_factor",
            "savings_decomposition",
            "utilization_by_intensity",
        ),
        "analysis",
    ),
}
__getattr__ = lazy_exports(__name__, _SUBMODULE_OF)
__all__ = sorted(_SUBMODULE_OF)
