"""Exception types shared across the package."""


class InputError(ValueError):
    """Invalid argument or malformed input data."""


class ConfigError(InputError):
    """Bad run configuration (unknown key, wrong type, missing file)."""


class NumericalFlowError(RuntimeError):
    """Non-finite energy or gradient encountered during gradient flow."""

    def __init__(self, step: int):
        super().__init__(f"non-finite energy or gradient during flow (step {step})")
        self.step = step


class CensusFailureError(RuntimeError):
    """Census flow failure rate exceeded the validity threshold."""
