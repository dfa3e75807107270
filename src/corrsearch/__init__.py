"""Correlation-factor energy decomposition and variational search toolkit.

Every name is imported from the module that owns it (``corrsearch.domain``,
``corrsearch.ansatz`` and so on); the package root holds only the version.
"""

__version__ = "0.1.0"
