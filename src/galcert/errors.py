"""Error taxonomy shared across the package.

Three failure classes matter to callers: bad input, a numeric certificate
that could not be established, and a mathematical assertion that failed.
The CLI maps them to distinct exit codes.
"""


class InputError(ValueError):
    """Malformed or out-of-domain input (parse errors, wrong degree, ...)."""


class CertificationError(RuntimeError):
    """A rigorous numeric certificate could not be obtained."""


class TheoremError(RuntimeError):
    """An exact mathematical check that should always hold has failed."""
