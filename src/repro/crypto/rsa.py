"""Textbook RSA signatures implemented from scratch.

The paper's signature-amortization schemes assume "a digital signature
algorithm" with a key pair held by the sender and distributed public
key; the concrete algorithm only matters through its signature length
``l_sign`` and its cost (which motivates amortization in the first
place).  No third-party crypto package is available offline, so this
module implements RSA end to end:

* Miller–Rabin probabilistic primality testing,
* random prime generation with a small-prime sieve prefilter,
* key generation (two distinct primes, ``e = 65537``),
* deterministic PKCS#1 v1.5-style signature padding over SHA-256,
* sign (with CRT parameters computed once per key) and verify.

This is a faithful *functional* substitute, not a hardened production
implementation — no blinding or constant-time arithmetic — which is
fine for a research reproduction where the adversary model is packet
loss, not side channels.
"""

from __future__ import annotations

import math
import secrets
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple

from repro.crypto.hashing import HashFunction, sha256
from repro.exceptions import CryptoError

__all__ = ["RsaPublicKey", "RsaPrivateKey", "generate_keypair", "is_probable_prime"]

# Primes below 1000, used to cheaply reject most composite candidates
# before the Miller-Rabin rounds.
_SMALL_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
    139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277,
    281, 283, 293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359,
    367, 373, 379, 383, 389, 397, 401, 409, 419, 421, 431, 433, 439,
    443, 449, 457, 461, 463, 467, 479, 487, 491, 499, 503, 509, 521,
    523, 541, 547, 557, 563, 569, 571, 577, 587, 593, 599, 601, 607,
    613, 617, 619, 631, 641, 643, 647, 653, 659, 661, 673, 677, 683,
    691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769, 773,
    787, 797, 809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863,
    877, 881, 883, 887, 907, 911, 919, 929, 937, 941, 947, 953, 967,
    971, 977, 983, 991, 997,
]

# ASN.1 DigestInfo prefix for SHA-256, as in PKCS#1 v1.5 (RFC 8017).
_SHA256_DIGEST_INFO = bytes.fromhex("3031300d060960864801650304020105000420")


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller–Rabin primality test.

    Parameters
    ----------
    n:
        Candidate integer.
    rounds:
        Number of random bases; the error probability is at most
        ``4**-rounds`` for composite ``n``.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n-1 = d * 2^r with d odd.
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        a = secrets.randbelow(n - 3) + 2
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def _random_prime(bits: int) -> int:
    """Generate a random prime with exactly ``bits`` bits, odd and with
    the top two bits set (so products of two such primes have full size)."""
    if bits < 8:
        raise CryptoError(f"prime size too small: {bits} bits")
    while True:
        candidate = secrets.randbits(bits)
        candidate |= (1 << (bits - 1)) | (1 << (bits - 2)) | 1
        if is_probable_prime(candidate):
            return candidate


def _pad_digest(digest: bytes, size: int) -> int:
    """EMSA-PKCS1-v1_5 encoding of a SHA-256 ``digest`` into ``size`` bytes."""
    payload = _SHA256_DIGEST_INFO + digest
    if size < len(payload) + 11:
        raise CryptoError(
            f"modulus too small for PKCS#1 padding: need {len(payload) + 11} bytes"
        )
    padding = b"\xff" * (size - len(payload) - 3)
    return int.from_bytes(b"\x00\x01" + padding + b"\x00" + payload, "big")


@dataclass(frozen=True)
class RsaPublicKey:
    """An RSA public key ``(n, e)``."""

    n: int
    e: int

    @property
    def size_bytes(self) -> int:
        """Size of the modulus (and thus of signatures) in bytes."""
        return (self.n.bit_length() + 7) // 8

    def verify(self, message: bytes, signature: bytes,
               hash_function: HashFunction = sha256) -> bool:
        """Return ``True`` iff ``signature`` is valid for ``message``.

        A wrong-length signature returns ``False`` rather than raising:
        in the packet-loss setting, corrupt authentication data must be
        handled as a verification failure, not a crash.
        """
        if len(signature) != self.size_bytes:
            return False
        s = int.from_bytes(signature, "big")
        if s >= self.n:
            return False
        expected = _pad_digest(hash_function.digest(message), self.size_bytes)
        return pow(s, self.e, self.n) == expected


@dataclass(frozen=True)
class RsaPrivateKey:
    """An RSA private key with CRT parameters for fast signing."""

    n: int
    e: int
    d: int
    p: int
    q: int

    @property
    def public_key(self) -> RsaPublicKey:
        """The corresponding public key."""
        return RsaPublicKey(self.n, self.e)

    @property
    def size_bytes(self) -> int:
        """Size of the modulus (and thus of signatures) in bytes."""
        return (self.n.bit_length() + 7) // 8

    @cached_property
    def _crt(self) -> Tuple[int, int, int]:
        """``(d mod (p-1), d mod (q-1), q^-1 mod p)``, computed once per key."""
        return (self.d % (self.p - 1), self.d % (self.q - 1),
                pow(self.q, -1, self.p))

    def sign(self, message: bytes, hash_function: HashFunction = sha256) -> bytes:
        """Produce a deterministic PKCS#1 v1.5 signature of ``message``."""
        m = _pad_digest(hash_function.digest(message), self.size_bytes)
        # CRT: compute m^d mod p and mod q separately, then recombine.
        dp, dq, q_inv = self._crt
        sp = pow(m % self.p, dp, self.p)
        sq = pow(m % self.q, dq, self.q)
        h = (q_inv * (sp - sq)) % self.p
        s = sq + h * self.q
        return s.to_bytes(self.size_bytes, "big")


def generate_keypair(bits: int = 1024, e: int = 65537,
                     _primes: Optional[Tuple[int, int]] = None) -> RsaPrivateKey:
    """Generate an RSA key pair with a ``bits``-bit modulus.

    Parameters
    ----------
    bits:
        Modulus size.  1024 is plenty for tests and simulation; use
        2048+ if you care about actual security margins.
    e:
        Public exponent (default 65537).
    _primes:
        Test hook: a fixed ``(p, q)`` pair, bypassing prime generation.
    """
    if bits < 256:
        raise CryptoError(f"modulus too small: {bits} bits (need >= 256)")
    if e < 3 or e % 2 == 0:
        raise CryptoError(f"invalid public exponent: {e}")
    while True:
        if _primes is not None:
            p, q = _primes
        else:
            p = _random_prime(bits // 2)
            q = _random_prime(bits - bits // 2)
        if p == q:
            if _primes is not None:
                raise CryptoError("p and q must be distinct")
            continue
        phi = (p - 1) * (q - 1)
        if math.gcd(e, phi) != 1:
            if _primes is not None:
                raise CryptoError("e shares a factor with phi(n)")
            continue
        n = p * q
        d = pow(e, -1, phi)
        return RsaPrivateKey(n=n, e=e, d=d, p=p, q=q)
