"""Exact operator algebra for the reflection-extended Weyl algebra."""

__version__ = "0.1.0"

__all__ = ["__version__"]
