"""Exception types shared across the package."""


class PairCommitError(Exception):
    """Base class for all library errors."""


class NotInvertible(PairCommitError):
    """Raised when a modular inverse does not exist.

    Carries the offending gcd: when the modulus is a composite n = p*q,
    a non-trivial gcd is a factor of n, which is worth surfacing rather
    than burying in a message string.
    """

    def __init__(self, value: int, modulus: int, gcd: int):
        super().__init__(f"{value} is not invertible mod {modulus} (gcd {gcd})")
        self.value = value
        self.modulus = modulus
        self.gcd = gcd


class NotExtractable(PairCommitError):
    """No message below the search bound matches the commitment.

    Signals either a message at or above the bound, or an element that is
    not a commitment under the key at all.
    """


class ContextMismatch(PairCommitError):
    """Group elements from different group contexts were mixed."""


class KeyMismatch(PairCommitError):
    """Commitments or proofs made under different keys were mixed."""


class DeserializeError(PairCommitError):
    """Base class for failures while reading serialized material."""


class MalformedText(DeserializeError):
    """The input text does not parse as the expected format."""


class OffCurvePoint(DeserializeError):
    """A deserialized point does not satisfy the curve equation."""


class WrongOrderElement(DeserializeError):
    """A deserialized element is not in the expected order-n subgroup."""


class InvalidKey(DeserializeError):
    """Key material that parses but is not the key it claims to be: an
    extraction key whose h is the identity or outside the order-q
    subgroup, or a transparent key whose g is not G:1."""


class SecretKeyMismatch(DeserializeError):
    """A secret key file's secret does not belong to the public key in it."""


class DegeneratePairing(PairCommitError):
    """A Miller-loop line evaluation hit the paired point exactly.

    Cannot occur for elements of the odd-order subgroup; kept as a
    defensive signal for hand-built inputs.
    """
