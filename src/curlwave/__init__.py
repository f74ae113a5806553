"""Curl eigenframes on the 3-sphere, their hyperbolic deformations, linking
invariants of field lines, and Monte Carlo scaling laws in the hyperbolic
plane, with a reproducible experiment runner.

The package re-exports nothing; import its modules, as in
``from curlwave import hypermc``."""

__version__ = "0.1.0"
