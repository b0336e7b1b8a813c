"""Deterministic named random streams.

Every source of randomness in the library draws from a
:class:`RandomStreams` object: a root seed plus a stream *name* yields a
NumPy :class:`~numpy.random.Generator` whose state is a pure function of
``(seed, name)``.  Two experiments with the same seed therefore see the
same query arrivals, slowdown coin-flips, etc., regardless of the order in
which subsystems ask for their streams — the key property for reproducible
(and diffable) benchmark runs.
"""

from __future__ import annotations

import hashlib
from typing import Dict, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["RandomStreams"]


def _name_to_words(name: str) -> tuple:
    """Hash a stream name into a tuple of 32-bit words for SeedSequence."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=16).digest()
    return tuple(
        int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
    )


class RandomStreams:
    """Factory of independent, reproducible random generators.

    Parameters
    ----------
    seed:
        Root seed.  Same seed + same stream name → identical stream.

    Examples
    --------
    >>> rs = RandomStreams(42)
    >>> a = rs.stream("queries").random()
    >>> b = RandomStreams(42).stream("queries").random()
    >>> a == b
    True
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self._cache: Dict[str, np.random.Generator] = {}

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it on first use.

        Repeated calls with the same name return the *same* generator
        object (its state advances as it is consumed); call
        :meth:`fresh_stream` for a rewound copy.
        """
        gen = self._cache.get(name)
        if gen is None:
            gen = self.fresh_stream(name)
            self._cache[name] = gen
        return gen

    def fresh_stream(self, name: str) -> np.random.Generator:
        """A brand-new generator for *name*, ignoring the cache."""
        import numpy as np

        seq = np.random.SeedSequence((self.seed,) + _name_to_words(name))
        return np.random.default_rng(seq)

    def spawn(self, name: str) -> "RandomStreams":
        """A child :class:`RandomStreams` rooted at ``(seed, name)``.

        Useful for giving each repetition of an experiment its own
        namespace of streams.
        """
        words = _name_to_words(name)
        child_seed = (self.seed * 0x9E3779B1 + words[0]) & 0xFFFFFFFFFFFFFFFF
        return RandomStreams(child_seed)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<RandomStreams seed={self.seed} streams={sorted(self._cache)}>"
