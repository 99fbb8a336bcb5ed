"""Exception hierarchy shared by all finhyp modules."""


class FinHypError(Exception):
    """Base class for all errors raised by this package."""


class MalformedValue(FinHypError):
    """A value is not well formed, such as a fraction "1/0" or a degree 0."""


class LengthMismatch(FinHypError):
    """Lists that must match in length do not, one that must not be empty is,
    or a list has fewer entries than requested."""


class NotDisjointModZ(FinHypError):
    """Some upper and lower parameter coincide modulo Z."""


class NotCoprime(FinHypError):
    """A multiplier is not coprime to the relevant modulus."""


class DoesNotSplit(FinHypError):
    """Multiplication by p does not permute the parameters modulo Z."""


class DivisionByZero(FinHypError):
    """Inversion of an exact zero."""


class NotDivisor(FinHypError):
    """Expected one conductor to divide the other."""


class NotPrime(FinHypError):
    """A prime was required."""


class FieldTooLarge(FinHypError):
    """Requested finite field exceeds the fixed bound finfield.MAX_FIELD_SIZE."""


class NotSubfield(FinHypError):
    """Requested base is not a subfield (degree does not divide)."""


class FieldMismatch(FinHypError):
    """Objects that must live on one field, base field or algebra do not."""


class ZeroElement(FinHypError):
    """A nonzero field element was required."""


class InternalInconsistency(FinHypError):
    """An identity the implementation guarantees failed to hold exactly."""


class AssumptionFails(FinHypError):
    """A hypothesis of a sum or a check fails: q-1 is not divisible by all
    parameter denominators, or a check for dim A = dim B gets other dims."""


class ZeroArgument(FinHypError):
    """The hypergeometric argument t must be a unit."""


class OutOfRange(FinHypError):
    """An integer code lies outside its range, such as a --t code outside
    1..q-1, which would otherwise be read mod q."""


class BadPrime(FinHypError):
    """The prime divides a parameter denominator."""


class ExponentNotIntegral(FinHypError):
    """A pi-exponent that must be an integer multiple of p-1 is not."""


class NotPAdicInteger(FinHypError):
    """Argument has a denominator divisible by p."""


class ConductorNotDividing(FinHypError):
    """Cyclotomic conductor does not divide p-1, so no Teichmuller embedding."""


class BoundExceeded(FinHypError):
    """A fixed resource bound, such as the Gamma_p work cap, was exceeded."""


class BadPrecision(FinHypError):
    """A p-adic precision must be a positive integer."""
