"""Two-way relay exchange over AWGN with structured (lattice and linear) codes."""

__version__ = "0.1.0"
