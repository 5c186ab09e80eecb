"""Exception hierarchy shared across the stack."""


class VitalinkError(Exception):
    """Base class for all protocol and crypto errors."""


class ConfigurationError(VitalinkError):
    """Local key material is inconsistent; raised at startup, before any peer."""


class InvalidPeerKey(VitalinkError):
    """Peer public key is off-curve, the identity, or yields a degenerate secret."""


class MalformedPoint(VitalinkError):
    """Point encoding has a bad prefix, bad length, or off-curve coordinates."""


class AuthFailure(VitalinkError):
    """AEAD tag mismatch. Carries no plaintext and no cause detail."""


class PayloadTooLarge(VitalinkError):
    """Plaintext exceeds the per-record cap."""


class InvalidLength(VitalinkError):
    """Requested output length outside the allowed range."""


class MalformedSignature(VitalinkError):
    """Signature bytes cannot be parsed (distinct from verification returning false)."""


class InvalidCredentialFields(VitalinkError):
    """Credential fields violate invariants before signing."""


class MalformedCredential(VitalinkError):
    """Credential bytes cannot be parsed."""


class HandshakeError(VitalinkError):
    """Handshake aborted. Subclasses name the cause for local logs only."""


class UnsupportedSuite(HandshakeError):
    pass


class BadServerCredential(HandshakeError):
    pass


class BadClientCredential(HandshakeError):
    pass


class BadTranscriptSignature(HandshakeError):
    pass


class BadFinishedMac(HandshakeError):
    pass


class ProtocolStateError(HandshakeError):
    """Handshake step invoked out of phase order."""


class MalformedFrame(VitalinkError):
    """Frame violates the wire layout."""


class BadMagic(MalformedFrame):
    pass


class BadVersion(MalformedFrame):
    pass


class OversizeFrame(MalformedFrame):
    pass


class FrameTimeout(VitalinkError):
    """No complete frame arrived within the inactivity window."""


class SequenceExhausted(VitalinkError):
    """Per-direction sequence counter reached its limit; connection must close."""


class MalformedReading(VitalinkError):
    """Telemetry payload has wrong length or out-of-range fields."""


class StoreError(VitalinkError):
    """The server's store could not write a line: a fault of the server, not the peer."""


class EndOfStream(VitalinkError):
    """Peer closed the stream without an authenticated Close frame."""


class ConnectionAborted(VitalinkError):
    """Peer sent an Abort frame or tore the connection down."""
