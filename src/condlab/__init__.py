"""Exact verification toolkit for randomized voting rules on majority domains.

Everything computes with rational arithmetic; all checks are exhaustive over
explicitly enumerated domains.

The public names below load on first access (PEP 562), so importing the
package, or one of its modules, loads only the modules that are used.
"""

from importlib import import_module

_EXPORTS = {
    "core": (
        "PreferenceRelation", "Profile", "all_profiles", "all_relations",
        "alternative_index", "alternative_name", "condorcet_winner",
        "majority_margin", "parse_profiles", "swap",
    ),
    "lottery": (
        "Lottery", "NegativeProbabilityError", "affine_combine", "mix", "sd_compare",
    ),
    "domains": (
        "CapExceededError", "CondorcetDomain", "CondorcetForDomain", "Domain",
        "ExplicitDomain", "ExtendedDomain", "FullDomain", "OutOfDomainError",
        "ParityMismatchError", "TieBreakingCondorcetDomain",
        "beyond_unilateral_reach", "find_profiles_beyond_unilateral_reach",
        "is_connected", "is_weakly_connected", "majority_cycle_profile",
        "parse_domain",
    ),
    "sds": (
        "SDS", "Borda", "CondorcetRule", "Dictatorship", "Mixture", "Plurality",
        "RandomDictatorship", "SignedMixture", "TableMissError", "TableSDS",
        "TieBreakingCondorcetRule", "parse_sds", "signed_mixture_counterexample",
    ),
    "axioms": (
        "Verdict", "check_ex_post_efficient", "check_group_strategyproof",
        "check_localized", "check_non_imposition", "check_non_perverse",
        "check_strategyproof", "checker_for", "implication_suite", "replay_witness",
    ),
    "analysis": (
        "FeasibilityResult", "InfeasibleModelError", "MixtureCoefficients",
        "extension_feasibility", "max_dictatorial_weight", "probe_coefficients",
        "probe_profile", "verify_extension_witness", "verify_mixture",
    ),
    "adpath": (
        "AdPath", "PreconditionViolatedError", "build_adpath",
        "build_adpath_fixing", "validate_adpath",
    ),
    "theorems": ("catalog", "coefficient_grid", "mixture_sds", "run_battery"),
    "ratlp": (),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted([*_EXPORTS, *_ORIGIN])


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
