"""Exception types, and the integer check, shared across the package."""

import numbers


class InputError(ValueError):
    """Invalid argument or malformed input data."""


def require_integer(name: str, value) -> int:
    """value as an int; InputError unless it is an integer (numpy's too), not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InputError(f"{name} must be an integer, got {value!r}")
    return int(value)


class ConfigError(InputError):
    """Bad run configuration (unknown key, wrong type, missing file)."""


class NumericalFlowError(RuntimeError):
    """Non-finite energy or gradient encountered during gradient flow."""

    def __init__(self, step: int):
        super().__init__(f"non-finite energy or gradient during flow (step {step})")
        self.step = step


class CensusFailureError(RuntimeError):
    """Census flow failure rate exceeded the validity threshold."""
