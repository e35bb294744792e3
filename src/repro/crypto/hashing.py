"""Hash-function registry used throughout the library.

Hash-chained authentication schemes amortize one signature over a block
of packets by embedding packet hashes in other packets.  The *length*
of the hash (``l_hash`` in the paper's Eq. 3) is a first-class modeling
parameter: the paper's overhead analysis depends on it, and deployed
schemes frequently truncate hashes (e.g. EMSS in Perrig et al. uses
80-bit truncated hashes).

This module exposes a small, explicit registry of hash functions with
optional truncation.  All hashing in the library goes through
:class:`HashFunction` so that analysis code and wire-format code agree
on sizes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable

from repro.exceptions import CryptoError

__all__ = [
    "HashFunction",
    "get_hash",
    "register_hash",
    "available_hashes",
    "sha256",
    "sha1",
    "truncated",
]

_DigestFactory = Callable[[bytes], "hashlib._Hash"]


@dataclass(frozen=True)
class HashFunction:
    """A named hash function with a fixed digest size.

    Parameters
    ----------
    name:
        Registry name, e.g. ``"sha256"`` or ``"sha256/10"`` for a
        truncated variant.
    digest_size:
        Size of the produced digest in bytes.  For truncated variants
        this is the truncated size.
    _factory:
        Callable with hashlib's constructor signature, ``factory(data)``,
        returning a hashlib-style object already fed ``data`` (e.g.
        ``hashlib.sha256``).

    :meth:`digest` is one ``factory(data).digest()`` call; only a
    variant shorter than the factory's own digest slices the result.
    """

    name: str
    digest_size: int
    _factory: _DigestFactory

    def __post_init__(self) -> None:
        # Not a field: equality, hashing and repr ignore it.
        whole = len(self._factory(b"").digest()) <= self.digest_size
        object.__setattr__(self, "_whole", whole)

    def digest(self, data: bytes) -> bytes:
        """Return the (possibly truncated) digest of ``data``."""
        if self._whole:
            return self._factory(data).digest()
        return self._factory(data).digest()[: self.digest_size]

    def hexdigest(self, data: bytes) -> str:
        """Return the digest of ``data`` as a hex string."""
        return self.digest(data).hex()

    def chain(self, parts: Iterable[bytes]) -> bytes:
        """Hash the concatenation of ``parts``.

        This is the "hash-and-concatenate" primitive of the paper's
        Section 2.2: the hash of a packet is computed over its payload
        concatenated with the hashes it carries.
        """
        return self.digest(b"".join(parts))

    def truncated(self, size: int) -> "HashFunction":
        """Return a truncated variant of this hash function.

        Parameters
        ----------
        size:
            Truncated digest size in bytes; must satisfy
            ``1 <= size <= self.digest_size``.
        """
        if not 1 <= size <= self.digest_size:
            raise CryptoError(
                f"cannot truncate {self.name} ({self.digest_size} B) to {size} B"
            )
        if size == self.digest_size:
            return self
        base = self.name.split("/", 1)[0]
        return HashFunction(f"{base}/{size}", size, self._factory)


_REGISTRY: Dict[str, HashFunction] = {}


def register_hash(function: HashFunction) -> None:
    """Add ``function`` to the global registry under its own name."""
    _REGISTRY[function.name] = function


def get_hash(name: str) -> HashFunction:
    """Look up a hash function by registry name.

    Truncated variants may be requested on the fly with the
    ``"<base>/<bytes>"`` syntax, e.g. ``get_hash("sha256/10")`` for an
    80-bit truncated SHA-256 as used by EMSS.
    """
    if name in _REGISTRY:
        return _REGISTRY[name]
    if "/" in name:
        base_name, _, size_text = name.partition("/")
        try:
            size = int(size_text)
        except ValueError as exc:
            raise CryptoError(f"malformed truncated hash name: {name!r}") from exc
        base = get_hash(base_name)
        function = base.truncated(size)
        register_hash(function)
        return function
    raise CryptoError(f"unknown hash function: {name!r}")


def available_hashes() -> Dict[str, int]:
    """Return a mapping of registered hash names to digest sizes."""
    return {name: fn.digest_size for name, fn in sorted(_REGISTRY.items())}


sha256 = HashFunction("sha256", 32, hashlib.sha256)
sha1 = HashFunction("sha1", 20, hashlib.sha1)
_md5 = HashFunction("md5", 16, hashlib.md5)

register_hash(sha256)
register_hash(sha1)
register_hash(_md5)


def truncated(base: str, size: int) -> HashFunction:
    """Convenience wrapper: ``truncated("sha256", 10)``."""
    return get_hash(base).truncated(size)
