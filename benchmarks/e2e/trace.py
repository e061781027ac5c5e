"""Bench-owned span tracing: time each layer from outside its public calls.

Nothing under ``src/`` knows this module exists.  A :class:`Tracer`
wraps *callables* — the driver's own calls (``Envelope.to_bytes``, a
shard's ``enqueue``/``pump``, a member's ``handle``), public methods
replaced on single instances (``GroupLeader.handle``, ``Journal.
record_mutation``, ``BoundedMailbox.offer`` …), a delegating
:class:`~repro.crypto.provider.CryptoProvider` and a delegating disk —
so the untraced run executes the raw functions with zero added cost and
the traced run records one span per call.

A span is ``(layer, name, start, end, parent, op, n)``: ``parent`` is
the index of the span that was open when this one started (-1 for the
root), ``op`` the driver's current operation id, ``n`` an optional size
(bytes sealed, frames in a batch).  Everything runs on one thread and no
span is ever held open across an ``await``, so a plain stack gives the
parent.  A layer's **self time** is the sum over its spans of duration
minus the time covered by child spans; the self times of all layers
partition the root span, which is the traced wall.
"""

from __future__ import annotations

import json
from array import array
from collections import defaultdict
from time import perf_counter

from repro.crypto.provider import CryptoProvider

class Tracer:
    """In-memory span recorder (see module docstring).

    Spans live in parallel typed arrays, not objects: a traced repetition
    records a few hundred thousand of them, and that many tracked
    containers would make the garbage collector part of the measurement.
    """

    def __init__(self) -> None:
        self.kinds: list[tuple[str, str]] = []  # (layer, name) per kind id
        self._kind = array("H")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._op = array("l")
        self._size = array("q")
        self._stack: list[int] = []
        #: Operation id stamped on spans; the driver sets it per op.
        self.op = -1
        #: Spans recorded when the root closed; later ones (the gate's
        #: crypto, teardown) are not part of the traced region.
        self._closed = 0

    def _kind_id(self, layer: str, name: str) -> int:
        if (layer, name) not in self.kinds:
            self.kinds.append((layer, name))
        return self.kinds.index((layer, name))

    def _open(self, kind: int, size: int) -> int:
        stack = self._stack
        index = len(self._start)
        self._kind.append(kind)
        self._parent.append(stack[-1] if stack else -1)
        self._op.append(self.op)
        self._size.append(size)
        self._end.append(0.0)
        stack.append(index)
        self._start.append(perf_counter())
        return index

    def reset(self) -> None:
        """Forget everything recorded so far (set-up is not traced)."""
        if self._stack:
            raise RuntimeError("reset with spans still open")
        for column in (self._kind, self._start, self._end, self._parent,
                       self._op, self._size):
            del column[:]

    def begin(self, layer: str, name: str) -> None:
        """Open the root span around the timed region."""
        self._open(self._kind_id(layer, name), 0)

    def end(self) -> None:
        now = perf_counter()
        self._end[self._stack.pop()] = now
        self._closed = len(self._start)

    def wrap(self, fn, layer: str, name: str, size=None):
        """``fn`` with a span around every call.  ``size(*args)`` gives
        the span's ``n`` (bytes, batch length) when supplied."""
        kind = self._kind_id(layer, name)
        begin, ends, stack = self._open, self._end, self._stack

        def traced(*args, **kwargs):
            index = begin(kind, size(*args) if size is not None else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()

        return traced

    def wrap_method(self, obj, attr: str, layer: str, size=None) -> None:
        """Replace ``obj.attr`` on this one instance with a traced copy."""
        setattr(obj, attr, self.wrap(
            getattr(obj, attr), layer, f"{type(obj).__name__}.{attr}", size
        ))

    # -- output ----------------------------------------------------------------

    def rows(self):
        """``(layer, name, start, end, parent, op, n)`` per traced span."""
        kinds = self.kinds
        for i in range(self._closed):
            layer, name = kinds[self._kind[i]]
            yield (layer, name, self._start[i], self._end[i],
                   self._parent[i], self._op[i], self._size[i])

    def summary(self) -> "TraceSummary":
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        return TraceSummary(self)

    def write_jsonl(self, path) -> None:
        keys = ("layer", "name", "start", "end", "parent", "op", "n")
        with open(path, "w") as out:
            for index, row in enumerate(self.rows()):
                out.write(json.dumps({"id": index, **dict(zip(keys, row))}))
                out.write("\n")


class TraceSummary:
    """Per-layer and per-span-name totals of one traced repetition."""

    def __init__(self, tracer: Tracer) -> None:
        n = tracer._closed
        start, end, parent = tracer._start, tracer._end, tracer._parent
        covered = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                covered[parent[i]] += end[i] - start[i]
        self.layer_self: dict[str, float] = defaultdict(float)
        self.name_self: dict[str, float] = defaultdict(float)
        self.name_total: dict[str, float] = defaultdict(float)
        self.name_calls: dict[str, int] = defaultdict(int)
        self.name_size: dict[str, int] = defaultdict(int)
        for i, (layer, name, t0, t1, _up, _op, size) in enumerate(
                tracer.rows()):
            duration = t1 - t0
            self.layer_self[layer] += duration - covered[i]
            self.name_self[name] += duration - covered[i]
            self.name_total[name] += duration
            self.name_calls[name] += 1
            self.name_size[name] += size

    def self_of(self, *names: str) -> float:
        return sum(self.name_self.get(n, 0.0) for n in names)

    def calls_of(self, *names: str) -> int:
        return sum(self.name_calls.get(n, 0) for n in names)


# -- delegating crypto provider and disk -------------------------------------

#: Provider entry points the stack reaches through ``get_provider()``,
#: each with the span size it records (bytes for single frames, items
#: for batches).
_PROVIDER_CALLS = {
    "seal": lambda _e, _m, _n, plaintext, *_: len(plaintext),
    "open": lambda _e, _m, _n, ciphertext, *_: len(ciphertext),
    "seal_many": lambda _e, _m, items: len(items),
    "open_many": lambda _e, _m, items: len(items),
    "hmac_sha256": None,
    "sha256": None,
    "hkdf_extract": None,
    "hkdf_expand": None,
    "pbkdf2_hmac_sha256": None,
}


class TracingProvider(CryptoProvider):
    """A :class:`CryptoProvider` that delegates every entry point to
    ``inner`` with a ``crypto`` span around it.

    It answers to the inner backend's ``name`` so key objects keep using
    the subkeys cached for that backend, and produces byte-identical
    output — it only measures.  Calls the inner provider makes to itself
    (the HMAC inside a seal) stay inside the outer span: the seam is
    ``get_provider()``, which is what the layers above pay for.
    """

    def __init__(self, inner: CryptoProvider, tracer: Tracer) -> None:
        super().__init__()
        self.name = inner.name
        self.aes_backend = inner.aes_backend
        self._inner = inner
        for call, size in _PROVIDER_CALLS.items():
            setattr(self, call, tracer.wrap(
                getattr(inner, call), "crypto", f"crypto.{call}", size
            ))
        for call in ("ctr_transform", "cbc_encrypt", "cbc_decrypt",
                     "aes", "aes_encrypt_block", "aes_decrypt_block"):
            setattr(self, call, getattr(inner, call))

    def sha256(self, data):  # abstract in the base; replaced per instance
        return self._inner.sha256(data)

    def sha256_new(self, data=b""):
        return self._inner.sha256_new(data)

    def hmac_sha256(self, key, data):
        return self._inner.hmac_sha256(key, data)

    def hmac_new(self, key, data=b""):
        return self._inner.hmac_new(key, data)

    def _make_aes(self, key):
        return self._inner._make_aes(key)


class TracingDisk:
    """Hands every call to the wrapped disk; the write path (``append``,
    ``fsync``, ``replace``, ``delete``) gets a ``storage`` span."""

    def __init__(self, disk, tracer: Tracer) -> None:
        self._disk = disk
        self.append = tracer.wrap(
            disk.append, "storage", "disk.append",
            lambda _path, data: len(data),
        )
        for call in ("fsync", "replace", "delete"):
            setattr(self, call, tracer.wrap(
                getattr(disk, call), "storage", f"disk.{call}"
            ))

    def __getattr__(self, name):
        return getattr(self._disk, name)
