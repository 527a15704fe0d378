"""Fibonacci partition counts, their second moment, and exact variance asymptotics."""

__version__ = "0.1.0"
