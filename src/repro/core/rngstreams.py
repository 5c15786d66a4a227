"""Named random streams derived from one run seed.

A simulator historically drove everything — the arbitrary initial
configuration, the scheduler's draws, and any randomized actions — from
one ``random.Random(seed)``.  That makes runs replayable, but it also
means *any* new consumer of randomness (a fault script, a churn event)
would shift every subsequent draw and change the whole execution.

:class:`RngStreams` splits the run's randomness into *named streams*:

* ``scheduler`` and ``protocol`` — the two historical consumers.  They
  deliberately **share the root generator**, seeded exactly like the
  old single run RNG (``random.Random(seed)``): scheduler draws and
  randomized-action draws have always interleaved on one stream, and
  keeping that wiring preserves byte-identical traces for every
  pre-scenario run (the no-op-scenario regression tests pin this).
* ``scenario`` (and any other name) — an independent generator whose
  seed is derived from ``(seed, name)`` by SHA-256.  Drawing from a
  derived stream never perturbs the root sequence, which is the whole
  point: attaching a scenario to a run must not change what the
  scheduler or the protocol would have drawn.
* ``topology`` — no stream object: :func:`derive_seed` of
  ``(seed, "topology")`` is the seed an experiment spec hands a random
  topology builder that was given none, so a spec names one graph.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Optional


def derive_seed(seed: Optional[int], name: str) -> int:
    """A stable substream seed for ``(seed, name)`` (SHA-256 based).

    ``None`` seeds are hashed as the literal string ``"None"`` — such
    runs are not replayable anyway, but the substreams stay distinct
    from each other and from the root.
    """
    digest = hashlib.sha256(f"{seed}/{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """The named random streams of one run.

    ``scheduler`` and ``protocol`` alias the root generator (see the
    module docstring for why); every other name lazily materializes an
    independent :class:`random.Random` seeded by :func:`derive_seed`.
    """

    __slots__ = ("seed", "root", "_streams")

    #: names served by the shared root generator (historical wiring)
    ROOT_STREAMS = ("scheduler", "protocol")

    def __init__(self, seed: Optional[int]):
        self.seed = seed
        self.root = random.Random(seed)
        self._streams: Dict[str, random.Random] = {
            name: self.root for name in self.ROOT_STREAMS
        }

    def stream(self, name: str) -> random.Random:
        """The generator behind ``name`` (created on first use)."""
        rng = self._streams.get(name)
        if rng is None:
            rng = self._streams[name] = random.Random(
                derive_seed(self.seed, name)
            )
        return rng

    @property
    def scheduler(self) -> random.Random:
        """The scheduler's stream (the shared root generator)."""
        return self._streams["scheduler"]

    @property
    def protocol(self) -> random.Random:
        """The randomized-action stream (the shared root generator)."""
        return self._streams["protocol"]

    @property
    def scenario(self) -> random.Random:
        """The scenario/fault-script stream (independent of the root)."""
        return self.stream("scenario")

    def __repr__(self) -> str:
        return f"RngStreams(seed={self.seed!r}, named={sorted(self._streams)})"
