"""Exact measure transfer for subshifts under non-erasing free-monoid morphisms.

Each submodule below sits in sys.modules from the start as a lazy module
(importlib.util.LazyLoader): its code runs when one of its attributes is first
used.  A public name resolves on first use too, so a process runs only the
modules it uses.
"""

import importlib.util
import sys

# submodule -> its public names; __all__ is all of them, sorted
_PUBLIC = {
    "diagnostics": ("ViolationReport", "check_period_preservation", "check_periodic_orbit_injectivity",
                    "prolongation_split"),
    "language": ("FactorLanguage", "complexity", "factorial_closure", "full_shift_language", "image_language",
                 "periodic_orbit_language", "union"),
    "measure": ("FrequencyVector", "MeasureTable", "Violation", "characteristic_measure", "frequency_vector",
                "linear_combination", "support_words", "validate"),
    "morphism": ("DepthError", "IncidenceMatrix", "Morphism", "SubdivisionData", "apply", "candidate_lengths",
                 "canonical_decomposition", "compose", "essential_occurrences", "incidence_matrix", "norms",
                 "required_input_depth", "subdivision_morphism"),
    "textio": ("ParseError", "parse_language", "parse_measure", "parse_morphism", "parse_word", "render_language",
               "render_measure", "render_morphism"),
    "transfer": ("pushforward_letter_to_letter", "subdivision_measure", "transfer_eval", "transfer_table",
                 "transfer_via_decomposition"),
    "words": ("Alphabet", "PreconditionError", "Word", "count_occurrences", "factors", "is_proper_power",
              "is_rotation", "iter_words", "min_rotation", "primitive_root", "rotations"),
}
__all__ = sorted(name for names in _PUBLIC.values() for name in names)
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}


def _lazy(name: str):
    """The submodule `name`, in sys.modules and not yet run (the importlib.util.LazyLoader recipe)."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


globals().update({name: _lazy(name) for name in _PUBLIC})


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_HOME[name]], name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
