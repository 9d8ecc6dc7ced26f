"""Exception hierarchy shared across the package."""


class ViscoshearError(Exception):
    """Base class for all package-specific errors."""


class NonConvergence(ViscoshearError):
    """A refinement or iteration loop failed to reach its tolerance."""


class BracketFailure(ViscoshearError):
    """A root bracket could not be established."""


class StepFailure(ViscoshearError):
    """The adaptive ODE integrator underflowed its step size."""


class TailDominance(ViscoshearError):
    """A closed-form tail beyond the integrated domain does not hold: a
    Wronskian pass's cut lies where b' is not 1.0 or phi does not grow, or
    the neutral mode's box is too short for its decay."""


class MultipleRoots(ViscoshearError):
    """More than one sign change found where a unique root is expected."""


class ConfigError(ViscoshearError):
    """Base class for configuration problems (CLI exit code 2)."""


class ParseError(ConfigError):
    """Malformed config text; carries a line number."""

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno


class ValidationError(ConfigError):
    """A config value violates an invariant."""
