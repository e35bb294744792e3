"""Unit tests for the from-scratch RSA implementation."""

import hashlib

import pytest

from repro.crypto.rsa import (
    RsaPrivateKey,
    RsaPublicKey,
    generate_keypair,
    is_probable_prime,
)
from repro.exceptions import CryptoError

# Fixed 256-bit primes for fast deterministic key construction.
P_256 = 0xFA651CFF40EA484A266434DEC86887DCB1720D988394C2E916C6B67063409313
Q_256 = 0xF9FB86AB12AB0758D3DD15B9B6296A4FDD68120837252BDB8CEFE94CD0926DF1


def _is_prime_slow(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@pytest.fixture(scope="module")
def keypair():
    return generate_keypair(512)


class TestMillerRabin:
    def test_agrees_with_trial_division_small(self):
        for n in range(2, 2000):
            assert is_probable_prime(n) == _is_prime_slow(n), n

    def test_known_large_prime(self):
        # 2^127 - 1 is a Mersenne prime.
        assert is_probable_prime(2 ** 127 - 1)

    def test_known_large_composite(self):
        assert not is_probable_prime((2 ** 127 - 1) * 3)

    def test_carmichael_number(self):
        # 561 = 3 * 11 * 17 fools Fermat but not Miller-Rabin.
        assert not is_probable_prime(561)

    def test_edge_values(self):
        assert not is_probable_prime(0)
        assert not is_probable_prime(1)
        assert not is_probable_prime(-7)


class TestKeyGeneration:
    def test_modulus_size(self, keypair):
        assert 511 <= keypair.n.bit_length() <= 512

    def test_key_identity(self, keypair):
        # d*e == 1 mod phi(n) implies m^(ed) == m for random m.
        m = 0x1234567890ABCDEF
        assert pow(pow(m, keypair.e, keypair.n), keypair.d, keypair.n) == m

    def test_rejects_tiny_modulus(self):
        with pytest.raises(CryptoError):
            generate_keypair(128)

    def test_rejects_even_exponent(self):
        with pytest.raises(CryptoError):
            generate_keypair(512, e=4)

    def test_rejects_equal_primes(self):
        with pytest.raises(CryptoError):
            generate_keypair(512, _primes=(P_256, P_256))

    def test_fixed_primes_deterministic(self):
        key1 = generate_keypair(512, _primes=(P_256, Q_256))
        key2 = generate_keypair(512, _primes=(P_256, Q_256))
        assert key1 == key2

    def test_rejects_exponent_sharing_a_factor_with_phi(self):
        # 13 divides (P_256 - 1) * (Q_256 - 1).
        with pytest.raises(CryptoError):
            generate_keypair(512, e=13, _primes=(P_256, Q_256))


class TestSignVerify:
    def test_roundtrip(self, keypair):
        signature = keypair.sign(b"message")
        assert keypair.public_key.verify(b"message", signature)

    def test_signature_length(self, keypair):
        assert len(keypair.sign(b"m")) == keypair.size_bytes

    def test_deterministic_signatures(self, keypair):
        assert keypair.sign(b"m") == keypair.sign(b"m")

    def test_rejects_wrong_message(self, keypair):
        signature = keypair.sign(b"message")
        assert not keypair.public_key.verify(b"other", signature)

    def test_rejects_bitflipped_signature(self, keypair):
        signature = bytearray(keypair.sign(b"message"))
        signature[5] ^= 0x40
        assert not keypair.public_key.verify(b"message", bytes(signature))

    def test_rejects_wrong_length_signature(self, keypair):
        signature = keypair.sign(b"message")
        assert not keypair.public_key.verify(b"message", signature[:-1])
        assert not keypair.public_key.verify(b"message", signature + b"\x00")

    def test_rejects_signature_ge_modulus(self, keypair):
        too_big = (keypair.n).to_bytes(keypair.size_bytes, "big")
        assert not keypair.public_key.verify(b"message", too_big)

    def test_cross_key_rejection(self, keypair):
        other = generate_keypair(512, _primes=(P_256, Q_256))
        signature = other.sign(b"message")
        if other.size_bytes == keypair.size_bytes:
            assert not keypair.public_key.verify(b"message", signature)

    def test_empty_message(self, keypair):
        signature = keypair.sign(b"")
        assert keypair.public_key.verify(b"", signature)

    def test_large_message(self, keypair):
        message = b"x" * 100_000
        assert keypair.public_key.verify(message, keypair.sign(message))

    @pytest.mark.parametrize("message", [b"", b"m", b"block-7" * 40])
    def test_crt_sign_matches_textbook_exponentiation(self, message):
        key = generate_keypair(512, _primes=(P_256, Q_256))
        size = key.size_bytes
        digest_info = bytes.fromhex(
            "3031300d060960864801650304020105000420"
        ) + hashlib.sha256(message).digest()
        padded = (b"\x00\x01" + b"\xff" * (size - len(digest_info) - 3)
                  + b"\x00" + digest_info)
        textbook = pow(int.from_bytes(padded, "big"), key.d, key.n)
        assert key.sign(message) == textbook.to_bytes(size, "big")
        # The second call runs on the cached CRT parameters.
        assert key.sign(message) == textbook.to_bytes(size, "big")
