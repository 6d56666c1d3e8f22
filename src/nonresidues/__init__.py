"""Explicit bounds for small prime nonresidues of Dirichlet characters.

The package has seven modules:

  primes      sieves, the one shared small-prime table, primality tests,
              factorization and totients
  rounding    directed comparisons on exact integer ratios over mpmath
              interval endpoints (certify)
  bounds      the constants g(n, p) in interval arithmetic, validity
              conditions, the frozen-constant table and its certificate
  characters  exact character arithmetic mod a prime: primitive roots,
              root-of-unity values, kernel tests, smallest prime
              nonresidues
  lemmas      exact brute-force oracles for every inequality the bound
              rests on, with directed-rounding certificates
  scan        deterministic, checkpointable verification of the frozen
              bound over prime ranges
  cli         the `nonres` command: table, bound, nonresidues, verify and
              scan, with JSON outputs that the schemas/ files describe

Importing the package loads bounds, characters and scan (with primes,
rounding and _shortest); lemmas loads on first use of one of its names,
and cli only when the command runs.

See the demos/ directory for narrative walkthroughs and the `nonres` CLI
for machine-readable output.
"""

from importlib import import_module

from .bounds import (
    BurgessParameters,
    burgess_params,
    certify_freeze,
    compute_bound,
    enclose_g,
    make_table,
    reference_g,
)
from .characters import (
    CharacterSpec,
    find_primitive_root,
    is_kernel,
    prime_nonresidues,
)
from .scan import Aggregate, OrderPolicy, ScanRecord, ScanTask, run_scan, scan_records

__version__ = "0.1.0"


def __getattr__(name: str):
    """lemmas and its exported names, imported on first access (PEP 562):
    lemmas takes about 19 ms to import and a scan never calls it.  They are
    the names of __all__ that the imports above do not define."""
    if name != "lemmas" and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    lemmas = import_module(".lemmas", __name__)
    return lemmas if name == "lemmas" else getattr(lemmas, name)


__all__ = [
    "Aggregate",
    "BurgessParameters",
    "CharacterSpec",
    "FareyInterval",
    "HypothesisError",
    "NonresidueFactorization",
    "OrderPolicy",
    "ScanRecord",
    "ScanTask",
    "SumStats",
    "burgess_params",
    "certify_freeze",
    "check_S_upper",
    "check_convexity_bound",
    "check_interval_disjointness",
    "check_proposition_lower",
    "check_shifted_sum_lower",
    "check_stirling_ratio",
    "check_totient_inequality",
    "compute_bound",
    "enclose_g",
    "exact_sum_S",
    "farey_interval",
    "find_primitive_root",
    "is_kernel",
    "make_table",
    "nonresidue_factorization",
    "prime_nonresidues",
    "reference_g",
    "run_scan",
    "run_verification",
    "sandwich_report",
    "scan_records",
]
