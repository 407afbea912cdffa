"""Exception hierarchy shared across the TAPAS reproduction toolchain."""


class TapasError(Exception):
    """Base class for all errors raised by this package."""


class IRError(TapasError):
    """Malformed IR: type mismatch, bad operand, broken invariant."""


class VerificationError(IRError):
    """Raised by the IR verifier with a description of every violation."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class FrontendError(TapasError):
    """Base class for errors in the Cilk-like language frontend."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}:{column or 0}: {message}"
        super().__init__(message)


class LexError(FrontendError):
    """Unrecognised character or malformed token."""


class ParseError(FrontendError):
    """Syntax error while parsing the Cilk-like language."""


class SemanticError(FrontendError):
    """Type error or misuse of a name in an otherwise well-formed parse."""


class PassError(TapasError):
    """A compiler pass was applied to IR it cannot handle."""


class AnalysisError(TapasError):
    """The static-analysis stage refused the program (e.g. a determinacy
    race at an analysis level that gates synthesis)."""

    def __init__(self, message, diagnostics=None):
        self.diagnostics = list(diagnostics or [])
        super().__init__(message)


class SynthesisError(TapasError):
    """The HLS toolchain could not generate an accelerator."""


class SimulationError(TapasError):
    """The cycle-level simulator reached an inconsistent state."""


class DeadlockError(SimulationError):
    """No component made progress for an entire settling window.

    ``postmortem`` (when the engine can produce one) is a dict with the
    per-component stall attribution (``components``/``stalled``: name,
    state, reason) and every channel holding stuck data (``channels``) —
    see :func:`repro.obs.stall_snapshot`.
    """

    def __init__(self, cycle, detail="", postmortem=None):
        self.cycle = cycle
        self.postmortem = postmortem
        message = f"simulation deadlocked at cycle {cycle}"
        if detail:
            message += f": {detail}"
        super().__init__(message)


class MemoryError_(SimulationError):
    """Out-of-range or misaligned access in the simulated memory system."""


class ConfigError(TapasError):
    """Invalid hardware parameterisation (Stage 3)."""


def check_int(name: str, value, least: int) -> None:
    """Stage-3 sizes are integers (a ``bool`` is not one) of at least
    ``least``; anything else is a :class:`ConfigError` naming ``name``."""
    if type(value) is not int or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, "
                          f"not {value!r}")


class CacheError(TapasError):
    """The sweep result cache cannot store an entry under its root."""
