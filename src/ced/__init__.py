"""Chase-escape with death on d-ary trees.

Red particles spread to white children at rate lambda, blue particles
overtake red parents-to-children at rate 1, and red particles die at
rate rho.  This package computes the associated weighted Catalan
numbers and continued fractions exactly, decides whether a death rate
sits below or above the coexistence threshold with machine-checkable
certificates, brackets it by estimating, then certifying (or bisecting),
and cross-validates the analytic renewal probabilities by Monte Carlo.
"""

__version__ = "0.1.0"
