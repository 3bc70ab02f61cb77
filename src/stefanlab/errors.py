"""Exception hierarchy shared across the solver modules; a class's
``exit_code`` is the exit code of the command-line run it ends."""


class StefanLabError(Exception):
    """Base class for all stefanlab errors (exit 4: an invariant breach)."""
    exit_code = 4


class NumericalError(StefanLabError):
    """A computation that failed or did not converge (exit 3)."""
    exit_code = 3


# --- expression language ---

class ExprError(StefanLabError):
    exit_code = 2


class ExprSyntaxError(ExprError):
    def __init__(self, offset, expected, message=None):
        self.offset = offset
        self.expected = tuple(expected)
        msg = message or "syntax error at offset %d, expected one of %s" % (
            offset, ", ".join(self.expected))
        super().__init__(msg)


class UnknownIdentifier(ExprError):
    def __init__(self, name, offset=None):
        self.name = name
        self.offset = offset
        super().__init__("unknown identifier %r" % name)


class EvalDomainError(ExprError):
    def __init__(self, node, value, message):
        self.node = node
        self.value = value
        super().__init__(message)


# --- time stepping ---

class StepSizeTooLarge(NumericalError):
    pass


class SolverSingular(NumericalError):
    pass


class FrontRetreat(NumericalError):
    pass


class NoConvergence(NumericalError):
    def __init__(self, iterations, residual, message=None):
        self.iterations = iterations
        self.residual = residual
        super().__init__(message or "no convergence after %d iterations (residual %.3e)"
                         % (iterations, residual))


class NonPositiveIterate(NumericalError):
    pass


class NonPositive(NumericalError):
    pass


class DomainNotLargeEnough(NumericalError):
    pass


class TruncationTooSmall(NumericalError):
    pass


# --- root finding / thresholds ---

class BracketInvalid(NumericalError):
    pass


class NoSignChange(NumericalError):
    def __init__(self, sign):
        self.sign = sign
        super().__init__("eigenvalue keeps sign %+d over the whole scan" % sign)


class TooManyUndecided(NumericalError):
    pass


class BoundViolated(NumericalError):
    pass


class HypothesisHFailed(NumericalError):
    pass


# --- configuration ---

class ConfigError(StefanLabError):
    exit_code = 2


class MissingKey(ConfigError):
    def __init__(self, key):
        self.key = key
        super().__init__("missing required key %r" % key)


class UnknownKey(ConfigError):
    def __init__(self, key):
        self.key = key
        super().__init__("unknown key %r" % key)


class TypeMismatch(ConfigError):
    def __init__(self, key, expected, value):
        self.key = key
        self.expected = expected
        self.value = value
        super().__init__("key %r: expected %s, got %r" % (key, expected, value))


class ExpressionError(ConfigError):
    def __init__(self, key, cause):
        self.key = key
        self.cause = cause
        self.offset = getattr(cause, "offset", None)
        super().__init__("key %r: %s" % (key, cause))
