"""Uniform signer/verifier interface over concrete signature algorithms.

Schemes in :mod:`repro.schemes` only need four things from a signature
algorithm: ``sign``, ``verify``, the signature size ``l_sign`` (which
drives the paper's overhead model, Eq. 3) and a name.  This module
defines that protocol and adapters for the two algorithms shipped with
the library (from-scratch RSA and Lamport one-time signatures), plus a
fast insecure stand-in for large Monte Carlo simulations where we model
loss, not forgery.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

from repro.crypto.hashing import HashFunction, sha256
from repro.crypto.lamport import LamportKeyPair
from repro.crypto.rsa import RsaPrivateKey, generate_keypair
from repro.exceptions import CryptoError

__all__ = [
    "Signer",
    "RsaSigner",
    "LamportSigner",
    "HmacStubSigner",
    "default_signer",
]


@runtime_checkable
class Signer(Protocol):
    """The signature-algorithm interface consumed by schemes.

    Attributes
    ----------
    name:
        Human-readable algorithm name for reports.
    signature_size:
        ``l_sign`` in bytes — the per-signature wire overhead.
    """

    name: str
    signature_size: int

    def sign(self, message: bytes) -> bytes:
        """Sign ``message``; the result has length ``signature_size``.

        The result must be a deterministic function of ``message``: a
        compiled block plan keeps the packets of its last block and
        hands them out again for the same block and signer object
        (:meth:`repro.schemes.base.BlockPlan.packetize`).
        """
        ...

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Check ``signature`` over ``message``; never raises on bad input."""
        ...


@dataclass
class RsaSigner:
    """Adapter exposing :mod:`repro.crypto.rsa` through :class:`Signer`."""

    private_key: RsaPrivateKey
    hash_function: HashFunction = sha256
    name: str = "rsa"

    @property
    def signature_size(self) -> int:
        """Signatures are exactly one modulus in size."""
        return self.private_key.size_bytes

    @classmethod
    def generate(cls, bits: int = 1024) -> "RsaSigner":
        """Generate a fresh key pair and wrap it."""
        return cls(private_key=generate_keypair(bits))

    def sign(self, message: bytes) -> bytes:
        return self.private_key.sign(message, self.hash_function)

    def verify(self, message: bytes, signature: bytes) -> bool:
        return self.private_key.public_key.verify(
            message, signature, self.hash_function
        )


@dataclass
class LamportSigner:
    """One-time Lamport signatures behind the :class:`Signer` interface.

    Lamport signatures are *one-time*: signing two different messages
    with the same key leaks the key.  :meth:`sign` therefore enforces a
    single use.  They illustrate the other end of the ``l_sign``
    spectrum — enormous signatures, hash-only assumptions.
    """

    keypair: LamportKeyPair
    name: str = "lamport"
    _used: bool = field(default=False, repr=False)

    @property
    def signature_size(self) -> int:
        return self.keypair.signature_size

    @classmethod
    def generate(cls, seed: bytes = b"") -> "LamportSigner":
        """Generate a fresh one-time key pair (optionally seeded)."""
        return cls(keypair=LamportKeyPair.generate(seed or None))

    def sign(self, message: bytes) -> bytes:
        if self._used:
            raise CryptoError("Lamport key already used; one-time signatures only")
        self._used = True
        return self.keypair.sign(message)

    def verify(self, message: bytes, signature: bytes) -> bool:
        return self.keypair.verify(message, signature)


@dataclass(frozen=True)
class HmacStubSigner:
    """A keyed-hash stand-in for a signature, for high-volume simulation.

    Monte Carlo experiments sign thousands of blocks; real RSA would
    dominate runtime without changing any loss-related observable.
    This signer produces an HMAC tag padded to a configurable
    ``signature_size`` so the *overhead accounting* still matches a real
    algorithm.  It is NOT a signature (any key holder can forge) and is
    clearly named to avoid misuse.
    """

    key: bytes
    signature_size: int = 128
    name: str = "hmac-stub"

    def sign(self, message: bytes) -> bytes:
        tag = hmac.new(self.key, message, "sha256").digest()
        if self.signature_size < len(tag):
            return tag[: self.signature_size]
        return tag + b"\x00" * (self.signature_size - len(tag))

    def verify(self, message: bytes, signature: bytes) -> bool:
        if len(signature) != self.signature_size:
            return False
        return hmac.compare_digest(self.sign(message), signature)


def default_signer(fast: bool = True) -> Signer:
    """Return a reasonable default signer.

    Parameters
    ----------
    fast:
        When ``True`` (default) return an :class:`HmacStubSigner` with
        RSA-1024-sized output, suitable for loss simulation.  When
        ``False`` generate a real RSA-1024 signer.
    """
    if fast:
        return HmacStubSigner(key=b"repro-default-simulation-key")
    return RsaSigner.generate(1024)
