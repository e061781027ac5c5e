"""Shared fixture for the data-plane suite: a provider that keeps a log."""

from dataclasses import dataclass, field

import pytest

from repro.crypto.provider import (
    CryptoProvider,
    available_backends,
    using_provider,
)

_LOGGED = ("seal", "open", "_tag", "hmac_sha256", "hmac_sha256_many",
           "hkdf_extract", "hkdf_expand")


@dataclass
class ProviderLog:
    provider: CryptoProvider | None = None
    #: ``(method, positional args, keyword args)`` per call, in order —
    #: including the calls a provider makes to itself (the tag inside a
    #: seal), which is why tests count KDF calls, not HMACs.
    calls: list = field(default_factory=list)

    def count(self, *methods):
        return sum(name in methods for name, _args, _kwargs in self.calls)

    def enc_keys(self, *, reuse):
        """Encryption keys that crossed ``seal``/``open`` declared
        long-lived (``reuse=True``) or one-time (``reuse=False``)."""
        return {args[0] for name, args, kwargs in self.calls
                if name in ("seal", "open")
                and kwargs.get("reuse", False) is reuse}

    def mac_keys(self, *, reuse):
        """MAC keys that crossed ``_tag`` — every seal, open and MAC-only
        tag (an ACK) — declared long-lived or one-time."""
        return {args[0] for name, args, kwargs in self.calls
                if name == "_tag"
                and (args[4] if len(args) > 4
                     else kwargs.get("reuse", False)) is reuse}

    def chain_keys(self):
        """Keys a ratchet step MAC'd its three labels under."""
        return {args[0] for name, args, _kwargs in self.calls
                if name == "hmac_sha256_many"}


@pytest.fixture(params=sorted(available_backends()))
def provider_log(request):
    """Run the test under each backend, on a subclass of its provider
    that records every logged entry point."""
    log = ProviderLog()
    with using_provider(request.param) as plain:
        base = type(plain)

    def logged(name):
        def method(self, *args, **kwargs):
            log.calls.append((name, args, kwargs))
            return getattr(base, name)(self, *args, **kwargs)
        return method

    logging_cls = type(f"Logging{base.__name__}", (base,),
                       {name: logged(name) for name in _LOGGED})
    with using_provider(logging_cls()) as provider:
        log.provider = provider
        yield log
