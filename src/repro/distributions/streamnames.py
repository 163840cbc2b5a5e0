"""Canonical registry of named random-stream identifiers.

Every byte-identity guarantee in this repository — cross-backend op-stream
equality, shard-invariant fleet merges, bit-for-bit resume — reduces to one
rule: a quantity's randomness comes from exactly one *named* stream
(:class:`repro.distributions.rng.RandomStreams`), and every consumer spells
that name identically.  The single most frequent historical cause of a
byte-identity break has been a backend drawing from a *misspelled* stream
name: ``derive_seed`` happily hashes any string, so ``"writemix"`` silently
yields a different (but internally consistent) generator than
``"write-mix"`` and the bug only surfaces later as a golden-test diff.

This module is the machine-checked source of truth.  The static-analysis
pass ``python -m repro.devtools.detlint`` (rule ``stream-name-registry``)
collects every string literal passed to ``RandomStreams.get`` / ``fork`` /
``spawn_seed`` (and to the lazy ``_stream_factory`` helper) across the
source tree, and fails the build when a name is not registered
here.  Adding a new stream therefore *requires* touching this file, which is
exactly the review visibility the determinism contract needs.

Fixed names are matched exactly; dynamic families (per-user forks,
per-category samplers, per-shard seeds) are matched by their static
f-string prefix.
"""

from __future__ import annotations

__all__ = ["STREAM_NAMES", "STREAM_PREFIXES", "is_registered_stream"]

# Exact stream names, by consumer.  Keep the comments: they are the map
# from a name to the code that owns it.
STREAM_NAMES = frozenset(
    {
        # -- per-user family: SessionGenerator (core/synthesis.py) --------
        "select",      # usage-entry fraction gates + pool choice
        "slot",        # plan-interleave slot uniforms (one per op)
        "chunk",       # per-access chunk sizes
        "think",       # think times
        "write-mix",   # read-vs-write uniforms for RD_WRT categories
        "seek",        # random-access seek offsets
        "phase",       # PhaseModel transition uniforms
        # -- per-user family: ArrivalModel (core/arrivals.py) --------------
        "first-login",  # first-session offset from run start
        "session-gap",  # inter-session idle gaps
        # -- root family: FileSystemCreator (core/fsc.py) ------------------
        "fsc",          # initial file-system sizes, fixed file order
    }
)

# Dynamic stream families: a name built with an f-string must start with
# one of these static prefixes.
STREAM_PREFIXES = (
    "user-",   # RandomStreams.fork(f"user-{user_id}") — per-user family root
    "shard-",  # spawn_seed(f"shard-{index}") — shard-local randomness only
    "count:",  # per-category file-count sampler   (count:{category.key})
    "apb:",    # per-category accesses-per-byte    (apb:{category.key})
    "size:",   # per-category new-file sizes       (size:{category.key})
)


def is_registered_stream(name: str) -> bool:
    """True when ``name`` is a registered stream name or family member."""
    return name in STREAM_NAMES or name.startswith(STREAM_PREFIXES)
