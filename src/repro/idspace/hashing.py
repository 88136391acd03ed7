"""Member-to-identifier mapping.

The paper maps hosts onto the ring with a hash function "such as
SHA-1" and relies on ``N`` being large enough that collisions are
negligible.  We implement exactly that, but — because a simulation can
not tolerate "negligible" — we also provide deterministic collision
resolution so that any member set maps to distinct identifiers.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

from repro.idspace.ring import IdentifierSpace


def hash_to_identifier(name: str, space: IdentifierSpace, salt: int = 0) -> int:
    """Hash an endpoint name (e.g. ``"10.0.0.7:9000"``) onto the ring.

    ``salt`` supports collision resolution: re-hash with an incremented
    salt until the identifier is free.
    """
    material = name.encode("utf-8") if not salt else f"{name}#{salt}".encode("utf-8")
    digest = hashlib.sha1(material).digest()
    return int.from_bytes(digest, "big") % space.size


def assign_identifiers(
    names: Iterable[str], space: IdentifierSpace
) -> dict[str, int]:
    """Map every member name to a distinct identifier.

    Collisions are resolved by salted re-hashing, preserving
    determinism: the same member set always produces the same mapping.

    Raises ``ValueError`` when the group is larger than the identifier
    space (no injective mapping exists).
    """
    names = list(names)
    return settle_collisions(
        names, [hash_to_identifier(name, space) for name in names], space
    )


def settle_collisions(
    names: Sequence[str],
    hashes: Sequence[int],
    space: IdentifierSpace,
    prefix: str = "",
) -> dict[str, int]:
    """The one collision-resolution loop: ``hashes`` holds each name's
    unsalted hash of ``prefix + name``, in ``names`` order, and a name
    whose hash an earlier name already took is re-hashed with salt 1,
    2, ... until its identifier is free.  Returns name -> identifier in
    ``names`` order.

    Raises ``ValueError`` for a repeated name or more names than
    identifiers (no injective mapping exists).
    """
    if len(names) > space.size:
        raise ValueError(
            f"cannot map {len(names)} members into a space of {space.size} identifiers"
        )
    taken: set[int] = set()
    mapping: dict[str, int] = {}
    for name, identifier in zip(names, hashes):
        if name in mapping:
            raise ValueError(f"duplicate member name: {name!r}")
        salt = 0
        while identifier in taken:
            salt += 1
            identifier = hash_to_identifier(prefix + name, space, salt=salt)
        taken.add(identifier)
        mapping[name] = identifier
    return mapping
