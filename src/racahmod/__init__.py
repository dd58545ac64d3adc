"""Exact Racah-Wigner recoupling machinery and the uniserial modules of the
perfect Lie algebra sl(2) acting on V(m).

The modules split along the natural layers: `exact` (rational and surd
arithmetic, exact linear algebra, the triangle condition), `wigner`
(Delta/CGC/6j and the three-term recurrence), `sl2` (irreducible modules,
tensor embeddings, decomposition), `gmod` (representations of sl(2)
semidirect V(m), socle series, uniseriality), `constructions` (explicit
uniserial module builders) and `classify` (admissibility decision and the
lambda = C * 6j verification).  The `cli` module exposes everything as
subcommands.

Importing the package loads no layer.  Each name in `__all__` is looked up
in its home module on every access (PEP 562), so `from racahmod import sixj`
loads `exact` and `wigner` only, and the package never holds a copy that
could go stale when a module attribute is replaced.
"""

import importlib

_EXPORTS = {
    "classify": (
        "compute_I_J",
        "is_admissible",
        "lambda_phi",
        "verify_recoupling",
        "verify_scalar_theorem",
    ),
    "constructions": (
        "build_exceptional_len3",
        "build_from_sequence",
        "build_symmetric_power",
        "build_z",
        "build_z_dual",
        "build_z_family",
    ),
    "exact": ("QMatrix", "SqrtRational", "binomial", "factorial", "triangle"),
    "gmod": ("GRep", "check_rep", "dual_rep", "is_uniserial", "socle_series"),
    "wigner": ("cgc", "delta", "find_sixj_zeros", "sixj"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{home}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
