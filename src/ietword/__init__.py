"""Symbolic codings of interval exchange transformations.

Exact generation of coding words, Rauzy-graph admissibility analysis,
induced-order checks, and reconstruction of an exchange from its word.
"""
__version__ = "0.1.0"

__all__ = ["ExactScalar", "Interval", "parse_scalar", "format_scalar", "__version__"]


def __getattr__(name):
    # the scalar layer loads on first use, so `--help` does not load it
    if name in ("ExactScalar", "Interval", "parse_scalar", "format_scalar"):
        from . import exact
        return getattr(exact, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
