"""Content identity: the digests every cache in the repository keys by.

One module decides what makes two states "the same" (ARCHITECTURE.md
§11, §12).  A content key is the SHA-256 digest of a canonicalized
description, so two requests -- in one process, in different service
workers, or across a restart -- that would build the same state resolve
to the same address:

* :func:`content_key` -- the address of any tuple of key parts;
* :func:`profile_digest`, :func:`program_digest`,
  :func:`machine_digest` -- the machine profile, an assembled program
  and a machine's full live state, the components of every replay,
  snapshot-store and leak-state scope;
* :func:`input_digest`, :func:`cache_digest`, :func:`trace_key` -- the
  architectural input and data-cache state a captured
  :class:`~repro.isa.trace.ArchTrace` is valid for.

The module sits below every consumer (primitives, AES, JPEG, the batch
engine and the service), so identity never needs an upward import.
Machines, configs and caches are read duck-typed.  It imports only the
standard library: the attacks that key by it never load numpy.
"""

from __future__ import annotations

import dataclasses
import hashlib
from array import array
from typing import Any, Optional

from repro.isa.interpreter import CpuState
from repro.isa.memory import Memory

__all__ = [
    "ContentKeyError",
    "cache_digest",
    "check_key",
    "content_key",
    "input_digest",
    "machine_digest",
    "profile_digest",
    "program_digest",
    "trace_key",
]


class ContentKeyError(ValueError):
    """A value that cannot take part in, or stand for, a content key."""


_KEY_CHARS = set("0123456789abcdef")


def check_key(key: str, error: type = ContentKeyError) -> str:
    """``key`` if it is a 64-char hex content digest; else raise ``error``."""
    if not (isinstance(key, str) and len(key) == 64
            and set(key) <= _KEY_CHARS):
        raise error(
            f"cache keys are 64-char hex content digests "
            f"(use content_key()), got {key!r}")
    return key


def _canonical(value: Any) -> str:
    """A stable, type-tagged text form of a key part.

    Deliberately tiny: stores are keyed by tuples/strs/ints/bytes
    (profile digests, program digests, checkpoint-chain keys), and the
    canonical form must not depend on dict ordering or object identity.
    """
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(_canonical(part) for part in value) + ")"
    if isinstance(value, dict):
        items = sorted((_canonical(k), _canonical(v))
                       for k, v in value.items())
        return "{" + ",".join(f"{k}:{v}" for k, v in items) + "}"
    if isinstance(value, (bytes, bytearray)):
        return "b:" + bytes(value).hex()
    if isinstance(value, bool):
        return f"B:{value}"
    if isinstance(value, int):
        return f"i:{value}"
    if isinstance(value, float):
        return f"f:{value!r}"
    if isinstance(value, str):
        return f"s:{value}"
    if value is None:
        return "none"
    raise ContentKeyError(
        f"cannot canonicalize a {type(value).__name__} into a content key")


def content_key(*parts: Any) -> str:
    """The SHA-256 content address of a key-part tuple."""
    text = _canonical(tuple(parts))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def profile_digest(config) -> str:
    """Content identity of a :class:`~repro.cpu.config.MachineConfig`.

    Covers every field (not just the name): two profiles that differ in
    any predictor parameter must never share checkpoints.
    """
    fields = {f.name: getattr(config, f.name)
              for f in dataclasses.fields(config)}
    return content_key("machine-config", fields)


def program_digest(program) -> str:
    """Content identity of an assembled :class:`~repro.isa.program.Program`.

    Hashes the placed instruction stream and the label map; two programs
    with identical layout digest equal regardless of how they were built.
    """
    body = tuple((address, repr(instruction))
                 for address, instruction in program.items())
    labels = tuple(sorted(program.labels.items()))
    return content_key("program", body, labels, program.entry)


def machine_digest(machine) -> str:
    """Content identity of a machine's full *live* state.

    Digest of the versioned snapshot serialization, so two machines with
    bit-identical predictor/cache/perf state digest equal and any state
    divergence -- however small -- separates them.  Used as the root-state
    component of replay store scopes: checkpoints built from different
    starting states must never share a content address.

    Memoized against :attr:`Machine.state_epoch`: service request loops
    digest the same untouched machine once per job, and serializing a
    full trained snapshot for every call was the store's hottest single
    line.  Any state mutation moves the epoch and forces a recompute;
    machines without an epoch (duck-typed stand-ins, machines whose
    predictors were swapped out) always take the full recompute path.
    """
    epoch = getattr(machine, "state_epoch", None)
    if epoch is not None:
        memo = getattr(machine, "_digest_cache", None)
        if memo is not None and memo[0] == epoch:
            return memo[1]
    value = hashlib.sha256(machine.snapshot().to_bytes()).hexdigest()
    if epoch is not None:
        machine._digest_cache = (epoch, value)
    return value


def _digest_memory(digest, memory: Memory) -> None:
    """Fold a memory's populated bytes into ``digest``.

    Bytes are folded in dict-insertion order: deterministic provisioning
    produces a deterministic order, and including the addresses means an
    equal digest implies equal content.  Two memories holding the same
    bytes written in a different order digest *differently* -- a spurious
    cache miss, which is safe; a false hit is not possible.
    """
    data = memory._bytes
    count = len(data)
    digest.update(count.to_bytes(8, "little"))
    if not count:
        return
    digest.update(array("q", data.keys()).tobytes())  # native int64
    digest.update(bytes(data.values()))


def input_digest(state: Optional[CpuState], memory: Memory) -> str:
    """Content identity of one architectural input ``(state, memory)``.

    Covers every field the interpreter reads or carries through --
    registers, flags, the call stack, both latency trackers, and the
    populated memory bytes.  Latencies matter because the captured final
    state carries them verbatim.
    """
    digest = hashlib.sha256()
    if state is None:
        digest.update(b"S-")
    else:
        digest.update(repr(sorted(state.regs.items())).encode("utf-8"))
        digest.update(repr(state.flags).encode("utf-8"))
        digest.update(repr(state.call_stack).encode("utf-8"))
        digest.update(repr(sorted(state.reg_latency.items())).encode("utf-8"))
        digest.update(repr(state.flags_latency).encode("utf-8"))
    _digest_memory(digest, memory)
    return digest.hexdigest()


def cache_digest(cache) -> str:
    """Content identity of a data cache's current state.

    Load latencies (hit vs miss) land in ``CpuState.reg_latency``, so a
    trace captured against one cache state is only valid for replicas in
    the same cache state.  The digest is memoized against the cache's
    mutation counter, so the common trial-loop shape -- restore to a
    pristine (usually empty) cache before every block -- pays the hash
    once per restore, not once per replica.
    """
    epoch = getattr(cache, "mutations", None)
    if epoch is not None:
        memo = getattr(cache, "_digest_memo", None)
        if memo is not None and memo[0] == epoch:
            return memo[1]
        # Right after a restore the state equals the restored snapshot's
        # state, so the digest only depends on the snapshot object --
        # the restore-per-trial loop hashes it once, not once per trial.
        if getattr(cache, "_restored_epoch", None) == epoch:
            source_memo = getattr(cache, "_source_digest_memo", None)
            if (source_memo is not None
                    and source_memo[0] is cache._restore_source):
                value = source_memo[1]
                cache._digest_memo = (epoch, value)
                return value
    lines, hits, misses = cache.snapshot()
    digest = hashlib.sha256()
    digest.update(f"{hits}:{misses};".encode("utf-8"))
    for index in sorted(lines):
        digest.update(f"{index}={lines[index]};".encode("utf-8"))
    value = digest.hexdigest()
    if epoch is not None:
        cache._digest_memo = (epoch, value)
        if getattr(cache, "_restored_epoch", None) == epoch:
            cache._source_digest_memo = (cache._restore_source, value)
    return value


def trace_key(program: str, entry: Optional[int], trace_mode: str,
              inputs: str, cache_state: str) -> str:
    """The content address a cached :class:`~repro.isa.trace.ArchTrace`
    lives under (``program`` is a :func:`program_digest`)."""
    text = f"arch-trace:{program}:{entry}:{trace_mode}:{inputs}:" \
           f"{cache_state}"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
