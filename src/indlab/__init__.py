"""Quantum-coin sequences, algorithmic-randomness measurement, and the
hidden-variable experiments they feed."""

__version__ = "0.1.0"

from . import bell, born, hv, ks, machine, randomness, sequences

__all__ = ["bell", "born", "hv", "ks", "machine", "randomness", "sequences"]
