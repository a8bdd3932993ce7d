"""Exact arithmetic for multidimensional figurate numbers.

The kernel evaluates the numbers themselves (two independent routes) and
their gnomon decompositions; :mod:`hypersolids.triangle` arranges them into
fixed-difference triangles and exposes the triangle's structural rules;
:mod:`hypersolids.sums` handles sums over the simplex v + d + n = s and the
underlying binomial identities; :mod:`hypersolids.search` inverts the value
map; :mod:`hypersolids.verify` sweeps every identity over finite grids.

Each submodule is imported on first use of one of its names (PEP 562), so
``import hypersolids`` and a command that needs only the kernel stay cheap.
"""

from importlib import import_module

__version__ = "0.1.0"

# The public names, by the submodule that defines them.
_HOMES = {
    "kernel": (
        "COORD_LIMIT", "METHODS", "SUITES", "IndexTriple", "RangeError", "binomial",
        "d_gnomon", "gnomon_term", "hyper4", "hypersolid", "n_gnomon", "permutation",
        "polygonal", "pyramidal", "sequence_slice", "v_gnomon",
    ),
    "search": ("RepresentationHit", "rank_of", "representations"),
    "sums": (
        "LEMMAS", "SumReport", "enumerate_triples", "lemma_check", "sum_fixed_s",
        "sum_fixed_sd", "sum_fixed_sn", "sum_fixed_sv",
    ),
    "triangle": (
        "Triangle", "build_triangle", "compile_row", "diagonal_sum", "pascal_entry_check",
        "recurrence_sequence", "row_sum",
    ),
    "verify": ("GridBounds", "VerifyOutcome", "run_suite", "run_suites"),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = ["__version__", *sorted(_HOME_OF)]


def __getattr__(name: str) -> object:
    try:
        module = _HOME_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups find it without calling here
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
