"""Unit tests for the hash-function registry."""

import hashlib

import pytest

from repro.crypto.hashing import (
    HashFunction,
    available_hashes,
    get_hash,
    register_hash,
    sha1,
    sha256,
    truncated,
)
from repro.exceptions import CryptoError


class TestDigest:
    def test_sha256_matches_hashlib(self):
        data = b"multicast authentication"
        assert sha256.digest(data) == hashlib.sha256(data).digest()

    def test_sha1_matches_hashlib(self):
        data = b"dependence graph"
        assert sha1.digest(data) == hashlib.sha1(data).digest()

    def test_hexdigest(self):
        assert sha256.hexdigest(b"x") == hashlib.sha256(b"x").hexdigest()

    def test_digest_size_attributes(self):
        assert sha256.digest_size == 32
        assert sha1.digest_size == 20

    def test_empty_input(self):
        assert sha256.digest(b"") == hashlib.sha256(b"").digest()


class TestChain:
    def test_chain_equals_concatenation(self):
        parts = [b"a", b"bb", b"ccc"]
        assert sha256.chain(parts) == sha256.digest(b"abbccc")

    def test_chain_of_nothing(self):
        assert sha256.chain([]) == sha256.digest(b"")

    def test_chain_respects_truncation(self):
        short = sha256.truncated(10)
        assert short.chain([b"a", b"b"]) == sha256.digest(b"ab")[:10]


class TestTruncation:
    def test_truncated_digest_is_prefix(self):
        short = sha256.truncated(10)
        full = sha256.digest(b"payload")
        assert short.digest(b"payload") == full[:10]
        assert short.digest_size == 10

    def test_truncate_to_full_size_returns_same_object(self):
        assert sha256.truncated(32) is sha256

    def test_truncate_out_of_range(self):
        with pytest.raises(CryptoError):
            sha256.truncated(0)
        with pytest.raises(CryptoError):
            sha256.truncated(33)

    def test_truncated_name(self):
        assert sha256.truncated(10).name == "sha256/10"

    def test_helper_function(self):
        assert truncated("sha256", 12).digest_size == 12


class TestRegistry:
    def test_lookup_by_name(self):
        assert get_hash("sha256") is sha256

    def test_lookup_truncated_on_the_fly(self):
        fn = get_hash("sha256/10")
        assert fn.digest_size == 10
        # Second lookup returns the cached registration.
        assert get_hash("sha256/10") is fn

    def test_unknown_name(self):
        with pytest.raises(CryptoError):
            get_hash("keccak-foo")

    def test_malformed_truncation_suffix(self):
        with pytest.raises(CryptoError):
            get_hash("sha256/banana")

    def test_available_hashes_reports_sizes(self):
        table = available_hashes()
        assert table["sha256"] == 32
        assert table["sha1"] == 20

    def test_register_custom(self):
        # A factory takes hashlib's constructor signature, factory(data).
        custom = HashFunction("sha256d", 32,
                              lambda data: hashlib.sha256(b"prefix" + data))
        register_hash(custom)
        assert get_hash("sha256d") is custom
        assert custom.digest(b"x") == hashlib.sha256(b"prefixx").digest()
        assert get_hash("sha256d/8").digest(b"x") == (
            hashlib.sha256(b"prefixx").digest()[:8])
