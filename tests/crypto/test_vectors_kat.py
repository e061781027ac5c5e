"""Known-answer tests from published vector files, under every backend.

The vectors live as JSON under ``tests/crypto/vectors/`` so they are
data, not code: each file names its source (FIPS 197 Appendix C,
RFC 4231 §4, RFC 5869 Appendix A, FIPS 180-4 examples; the data-plane
ratchet's own schedule beside them) and the loader
test below replays every vector against the *active* provider.  The
``backend`` fixture (tests/crypto/conftest.py) runs each test once per
registered backend, so a fast-path implementation can never drift from
the published answers without failing here.
"""

import hashlib
import hmac
import json
from pathlib import Path

import pytest

from repro.crypto.keys import GroupKey
from repro.crypto.provider import get_provider
from repro.dataplane.channel import DataChannel, data_ad, decode_data_body
from repro.dataplane.ratchet import SenderState, seed_chain

VECTOR_DIR = Path(__file__).parent / "vectors"

EXPECTED_FILES = {
    "fips197_aes.json",
    "ratchet_chain.json",
    "rfc4231_hmac_sha256.json",
    "rfc5869_hkdf_sha256.json",
    "sha256_fips180.json",
}


def load(name):
    with open(VECTOR_DIR / name) as f:
        return json.load(f)


def message_bytes(vector):
    """Decode a vector's message, honoring the ``repeat`` encoding used
    for the million-byte FIPS 180-4 case."""
    if "repeat" in vector:
        unit, count = vector["repeat"]
        return bytes.fromhex(unit) * count
    return bytes.fromhex(vector["message"])


class TestLoader:
    def test_every_expected_file_is_present_and_sourced(self):
        found = {p.name for p in VECTOR_DIR.glob("*.json")}
        assert found == EXPECTED_FILES
        for name in sorted(found):
            blob = load(name)
            assert blob["source"], name
            assert blob["vectors"], name

    def test_vectors_decode_as_hex(self):
        hex_fields = ("key", "plaintext", "ciphertext", "data", "mac",
                      "ikm", "salt", "info", "prk", "okm", "message",
                      "digest", "group_key", "ck0", "payload",
                      "data_msg_body")
        for name in sorted(EXPECTED_FILES):
            for vector in load(name)["vectors"]:
                assert vector["name"]
                for field in hex_fields:
                    if field in vector:
                        bytes.fromhex(vector[field])


class TestFips197Aes:
    @pytest.mark.parametrize(
        "vector", load("fips197_aes.json")["vectors"],
        ids=lambda v: v["name"])
    def test_encrypt_block(self, backend, vector):
        provider = get_provider()
        got = provider.aes_encrypt_block(
            bytes.fromhex(vector["key"]), bytes.fromhex(vector["plaintext"])
        )
        assert got.hex() == vector["ciphertext"]

    @pytest.mark.parametrize(
        "vector", load("fips197_aes.json")["vectors"],
        ids=lambda v: v["name"])
    def test_decrypt_block(self, backend, vector):
        provider = get_provider()
        got = provider.aes_decrypt_block(
            bytes.fromhex(vector["key"]), bytes.fromhex(vector["ciphertext"])
        )
        assert got.hex() == vector["plaintext"]


class TestRfc4231Hmac:
    @pytest.mark.parametrize(
        "vector", load("rfc4231_hmac_sha256.json")["vectors"],
        ids=lambda v: v["name"])
    def test_hmac_sha256(self, backend, vector):
        provider = get_provider()
        mac = provider.hmac_sha256(
            bytes.fromhex(vector["key"]), bytes.fromhex(vector["data"])
        )
        want = bytes.fromhex(vector["mac"])
        assert mac[: vector.get("truncate", len(mac))] == want


class TestRfc5869Hkdf:
    @pytest.mark.parametrize(
        "vector", load("rfc5869_hkdf_sha256.json")["vectors"],
        ids=lambda v: v["name"])
    def test_extract_then_expand(self, backend, vector):
        provider = get_provider()
        prk = provider.hkdf_extract(
            bytes.fromhex(vector["salt"]), bytes.fromhex(vector["ikm"])
        )
        assert prk.hex() == vector["prk"]
        okm = provider.hkdf_expand(
            prk, bytes.fromhex(vector["info"]), vector["length"]
        )
        assert okm.hex() == vector["okm"]


class TestSha256:
    @pytest.mark.parametrize(
        "vector", load("sha256_fips180.json")["vectors"],
        ids=lambda v: v["name"])
    def test_digest(self, backend, vector):
        provider = get_provider()
        assert provider.sha256(message_bytes(vector)).hex() == \
            vector["digest"]


def _oracle_hmac(key, data):
    """HMAC-SHA256 from the standard library only — no repro.crypto."""
    return hmac.new(key, data, hashlib.sha256).digest()


class TestRatchetChain:
    """The data plane's key schedule, pinned like a published one:
    ``ck_0`` from (K_g, sender, epoch), then ``(enc_i, mac_i, ck_{i+1})``
    per position and one sealed frame.  The JSON, the stdlib oracle and
    the active backend must all agree."""

    VECTORS = load("ratchet_chain.json")["vectors"]

    @pytest.mark.parametrize("vector", VECTORS, ids=lambda v: v["name"])
    def test_chain_matches_file_and_oracle(self, backend, vector):
        group_key = bytes.fromhex(vector["group_key"])
        sender, epoch = vector["sender"], vector["epoch"]
        # RFC 5869 with one output block, spelled out.
        prk = _oracle_hmac(b"repro-dataplane-v1", group_key)
        info = b"chain|" + sender.encode() + b"|" + epoch.to_bytes(8, "big")
        chain = _oracle_hmac(prk, info + b"\x01")
        assert chain.hex() == vector["ck0"]
        assert seed_chain(GroupKey(group_key), epoch, sender) == chain
        state = SenderState(chain)
        for seq, step in enumerate(vector["steps"]):
            want = (_oracle_hmac(chain, b"msg|enc")[:16],
                    _oracle_hmac(chain, b"msg|mac"))
            chain = _oracle_hmac(chain, b"next")
            assert (want[0].hex(), want[1].hex(), chain.hex()) == \
                (step["enc"], step["mac"], step["next"])
            assert state.next_key() == (seq, want)

    @pytest.mark.parametrize("vector", VECTORS, ids=lambda v: v["name"])
    def test_sealed_data_msg(self, backend, vector):
        group_key = GroupKey(bytes.fromhex(vector["group_key"]))
        sender, epoch = vector["sender"], vector["epoch"]
        payload = bytes.fromhex(vector["payload"])
        alice = DataChannel(sender)
        alice.rebind(group_key, epoch)
        seq, envelope = alice.seal(payload, vector["recipient"])
        assert (seq, envelope.body.hex()) == (0, vector["data_msg_body"])
        # The tag is the oracle's HMAC under mac_0 over the frame's AD,
        # nonce (= seq) and ciphertext; the layout is nonce|tag|ct.
        _, _, _, box = decode_data_body(envelope.body)
        nonce, tag, ciphertext = box[:8], box[8:40], box[40:]
        ad = data_ad(sender, epoch, seq)
        assert nonce == seq.to_bytes(8, "big")
        assert len(ciphertext) == len(payload)
        assert tag == _oracle_hmac(
            bytes.fromhex(vector["steps"][0]["mac"]),
            len(ad).to_bytes(4, "big") + ad + nonce + ciphertext,
        )
        bob = DataChannel("bob")
        bob.rebind(group_key, epoch)
        assert bob.open(envelope) == (sender, 0, payload)
