"""Exception types shared across the library.

The split matters for the CLI exit codes: configuration problems are
``ConfigError`` (exit 2), failed mathematical verifications are
``VerificationError`` (exit 1), and precision exhaustion is
``PrecisionError`` (a computation that cannot be completed honestly at
the requested modulus / q-precision).

Each range rule has one owner, which raises ``ConfigError``: among
them ``padic._check_pm`` for the ring Z/p^m (m >= 1, p a prime >= 3),
``hecke.check_prime`` for a Hecke prime, ``forms.check_theory_prime``
for the primes of the p-adic theory and ``coleman.katz_basis`` for the
twist depth.  ``ConfigError`` is a ``ValueError``, so a caller that
catches ``ValueError`` sees every refusal.
"""


class PrecisionError(ArithmeticError):
    """Requested result is not determined at the available precision."""


class VerificationError(RuntimeError):
    """An internal mathematical consistency check failed."""


class ConfigError(ValueError):
    """Invalid job configuration (bad flags, unsatisfiable preconditions)."""
