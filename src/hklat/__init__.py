"""Exact lattice arithmetic for hyperbolic Picard-type lattices.

Everything is integer and Fraction arithmetic; the only deliberate
exceptions are the Decimal log10 fields of logarithmic bound values
and the float negative infinity used by the log-discrepancy module.

Importing ``hklat`` executes none of its submodules. The first read of
a name in ``__all__`` (``hklat.make_lattice``, ``from hklat import
...``) imports every submodule and binds all of those names, so a
library caller pays once what an eager import would cost; reading a
submodule (``hklat.cones``) imports that one. This is the package's
one deferred import: the command line imports ``cli`` and ``jsonio``,
and ``jsonio`` reads each kernel module off the package, so a kernel
module executes only when a subcommand first uses it.
"""

import importlib

__version__ = "0.1.0"

# the CLI's flag defaults; cones and bounds read them from here, so the
# CLI states them without executing either module
DEFAULT_EXACT_THRESHOLD = 10**6
DEFAULT_ORBIT_BUDGET = 1000

# each public name, by the submodule that defines it
_HOMES = {
    "bounds": ("BoundQuery", "BoundValue", "birationality_bound", "factorial_of_power",
               "factorial_or_log", "moduli_bound", "moduli_dimension"),
    "cones": ("ConeContext", "WallVerdict", "WallWitness", "chamber_signature",
              "enumerate_negative_classes", "in_fe_chamber", "in_positive_cone",
              "is_integral_reflection", "is_wall_divisor", "make_cone_context",
              "monodromy_orbit", "reflect"),
    "errors": ("DomainError",),
    "lattice": ("DiscriminantGroup", "Frame", "FramedVector", "Lattice", "SmithDecomposition",
                "discriminant_group", "divisibility", "dual", "dual_class", "dual_pairing",
                "is_primitive", "make_lattice", "primal", "primal_of_dual", "q_eval",
                "smith_normal_form"),
    "mld": ("AccReport", "LogPairTable", "NEG_INFINITY", "TableRow", "check_sequence_acc",
            "log_discrepancy", "make_table", "mld_along", "mld_at"),
    "zariski": ("DenominatorAudit", "VerificationReport", "ZariskiDecomposition",
                "denominator_audit", "ruling_curve_class", "verify_decomposition",
                "zariski_decompose"),
}

__all__ = sorted(["DEFAULT_EXACT_THRESHOLD", "DEFAULT_ORBIT_BUDGET",
                  *(name for names in _HOMES.values() for name in names)])


def __getattr__(name: str):
    if name in _HOMES or name == "linalg":
        return importlib.import_module(f"{__name__}.{name}")
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for home, names in _HOMES.items():
        module = importlib.import_module(f"{__name__}.{home}")
        globals().update((n, getattr(module, n)) for n in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})

