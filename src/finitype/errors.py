"""Exception hierarchy shared by all finitype modules.

Every error that can surface through the CLI derives from FinitypeError so
the entry point can map failures onto exit codes in one place.
"""


class FinitypeError(Exception):
    """Base class for all finitype errors."""


# --- exact field construction -------------------------------------------------

class FieldError(FinitypeError):
    pass


class NotSquareFree(FieldError):
    """The defining polynomial shares a factor with its derivative."""


class NoRootInInterval(FieldError):
    pass


class MultipleRootsInInterval(FieldError):
    pass


class RootNotInUnitInterval(FieldError):
    pass


class NotIrreducible(FieldError):
    """A nonzero element vanishes at rho: rho is a root of a proper factor."""


# --- IFS validation -----------------------------------------------------------

class ValidationIssue:
    """One violated model invariant, with the offending index when there is one."""

    def __init__(self, code: str, message: str, index=None):
        self.code = code
        self.message = message
        self.index = index

    def __repr__(self):
        where = f" at index {self.index}" if self.index is not None else ""
        return f"{self.code}{where}: {self.message}"


class ValidationError(FinitypeError):
    """Raised when an IFS violates the model invariants; carries all issues."""

    def __init__(self, issues):
        self.issues = list(issues)
        super().__init__("; ".join(repr(i) for i in self.issues))


SUPPORT_NOT_INTERVAL = "SupportNotInterval"
NOT_RESCALED = "NotRescaled"
IRREGULAR_PROBABILITIES = "IrregularProbabilities"
PROBABILITIES_NOT_NORMALIZED = "ProbabilitiesNotNormalized"


# --- graph construction -------------------------------------------------------

class InternalInconsistency(FinitypeError):
    """A generated child vector violates its own invariants (bug or bad model)."""


class CapExceeded(FinitypeError):
    """Vertex cap hit during graph closure.

    Inconclusive on its own: either the system is not of finite type or the
    cap is too small. Only the user can tell which.
    """

    def __init__(self, cap, message=None):
        self.cap = cap
        super().__init__(message or (
            f"more than {cap} reduced characteristic vectors; the system may "
            f"not be of finite type (contraction reciprocals that are Pisot "
            f"numbers with rational translations are guaranteed finite type), "
            f"or the cap is too small"))


# --- loop classes -------------------------------------------------------------

class EssentialClassNotUnique(FinitypeError):
    """Zero or several candidate essential classes: the graph is malformed."""


# --- dimension computations ---------------------------------------------------

class ZeroRow(FinitypeError):
    pass


class NotACycle(FinitypeError):
    pass


class EdgesNotAdmissible(FinitypeError):
    pass


class SubsetInvalidForClass(FinitypeError):
    pass


# --- oracle -------------------------------------------------------------------

class BudgetExceeded(FinitypeError):
    pass


class Mismatch(FinitypeError):
    """Graph expansion disagrees with brute-force enumeration."""

    def __init__(self, path, expected, actual):
        self.path = path
        self.expected = expected
        self.actual = actual
        super().__init__(f"mismatch along path {path}: expected {expected}, got {actual}")


# --- closed forms -------------------------------------------------------------

class PreconditionViolated(FinitypeError):
    pass


# --- document handling --------------------------------------------------------

class InputDocumentError(FinitypeError):
    """Input JSON does not conform to the document schema; message names the field."""
