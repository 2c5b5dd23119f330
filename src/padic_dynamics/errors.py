"""Exception hierarchy shared by all modules."""


class PadicDynamicsError(Exception):
    """Base class for all package errors."""


# --- arithmetic / representation ---

class AlphabetViolation(PadicDynamicsError):
    """A digit is outside {0, ..., p-1}."""


class WindowViolation(PadicDynamicsError):
    """A base exponent falls outside the context's exponent window."""


class BudgetExceeded(PadicDynamicsError):
    """An enumeration would produce more residues than the configured budget."""


class ParseError(PadicDynamicsError):
    """Malformed canonical text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# --- map catalog ---

class UnknownMap(PadicDynamicsError):
    """Catalog name not recognised."""


class BadParams(PadicDynamicsError):
    """Catalog parameters invalid for the requested map."""


class DeltaTooSmall(PadicDynamicsError):
    """Requested perturbation bound is below the context resolution."""


class DeltaTooLarge(PadicDynamicsError):
    """Perturbation bound violates a construction's smallness hypothesis."""


class NotIsometry(PadicDynamicsError):
    """Supplied map is not an isometry at the context resolution."""


class NotBijective(PadicDynamicsError):
    """Supplied map is not a bijection at the context resolution."""


# --- solvers / builders ---

class CoveringViolation(PadicDynamicsError):
    """No right-inverse image contains the required point."""


class NonConvergence(PadicDynamicsError):
    """A contraction iteration failed to stabilise; precondition violated."""


class NotInjective(PadicDynamicsError):
    """Map is not injective at the context resolution."""


class NotProper(PadicDynamicsError):
    """Sequence terms are not pairwise distinct at resolution."""


class NotClose(PadicDynamicsError):
    """Paired sequences are not within the required distance."""


# --- subshift chart ---

class ChartExhausted(PadicDynamicsError):
    """Cannot split a cylinder class into p nonempty groups at this depth."""


class DepthInsufficient(PadicDynamicsError):
    """Chart depth too small for the requested context budget."""


class NoWitnessFound(PadicDynamicsError):
    """No non-shadowing witness at this resolution; try a deeper chart."""
