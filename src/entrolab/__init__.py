"""Certified topological-entropy bounds for one-dimensional dynamics.

Exact rationals and integer-mantissa enclosures with outward dyadic
rounding underneath; every reported bound is a rigorous enclosure.
"""

__version__ = "0.1.0"
