"""Block-cipher chaining modes: CBC and CTR.

The original Enclaves used CBC with explicit initialization vectors (the
``I.V.`` field in the paper's messages); the improved stack defaults to
CTR inside encrypt-then-MAC.  Both are provided and tested against NIST
SP 800-38A vectors.
"""

from __future__ import annotations

import struct

from repro.crypto.aes import AES, BLOCK_SIZE
from repro.util.bytesops import pkcs7_pad, pkcs7_unpad, xor_bytes


def cbc_encrypt(cipher: AES, iv: bytes, plaintext: bytes) -> bytes:
    """CBC-encrypt with PKCS#7 padding."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError("IV must be one block")
    data = pkcs7_pad(plaintext, BLOCK_SIZE)
    out = bytearray()
    prev = iv
    for i in range(0, len(data), BLOCK_SIZE):
        block = cipher.encrypt_block(xor_bytes(data[i:i + BLOCK_SIZE], prev))
        out += block
        prev = block
    return bytes(out)


def cbc_decrypt(cipher: AES, iv: bytes, ciphertext: bytes) -> bytes:
    """CBC-decrypt and strip PKCS#7 padding."""
    if len(iv) != BLOCK_SIZE:
        raise ValueError("IV must be one block")
    if len(ciphertext) % BLOCK_SIZE != 0:
        raise ValueError("ciphertext is not block-aligned")
    out = bytearray()
    prev = iv
    for i in range(0, len(ciphertext), BLOCK_SIZE):
        block = ciphertext[i:i + BLOCK_SIZE]
        out += xor_bytes(cipher.decrypt_block(block), prev)
        prev = block
    return pkcs7_unpad(bytes(out), BLOCK_SIZE)


def _ctr_keystream(cipher: AES, nonce: bytes, n_blocks: int) -> bytes:
    """Generate CTR keystream: nonce (8 bytes) || big-endian counter."""
    stream = bytearray()
    for counter in range(n_blocks):
        stream += cipher.encrypt_block(nonce + struct.pack(">Q", counter))
    return bytes(stream)


def ctr_transform(cipher: AES, nonce: bytes, data: bytes) -> bytes:
    """CTR mode (encryption and decryption are the same operation).

    ``nonce`` is 8 bytes; the remaining 8 bytes of each counter block are
    a big-endian block counter, so a single nonce is safe for messages up
    to 2**64 blocks.
    """
    if len(nonce) != 8:
        raise ValueError("CTR nonce must be 8 bytes")
    n = len(data)
    stream = _ctr_keystream(cipher, nonce, (n + BLOCK_SIZE - 1) // BLOCK_SIZE)
    # One XOR over the whole message as integers: ``to_bytes(n)`` keeps
    # the leading zero bytes the integers drop.
    return (int.from_bytes(data, "big")
            ^ int.from_bytes(stream[:n], "big")).to_bytes(n, "big")


def ctr_transform_full_iv(cipher: AES, iv: bytes, data: bytes) -> bytes:
    """CTR mode with a full 16-byte initial counter block (NIST style).

    Used by the NIST SP 800-38A conformance tests; the protocol stack
    uses :func:`ctr_transform`.
    """
    if len(iv) != BLOCK_SIZE:
        raise ValueError("initial counter block must be 16 bytes")
    counter = int.from_bytes(iv, "big")
    out = bytearray()
    for i in range(0, len(data), BLOCK_SIZE):
        block = counter.to_bytes(BLOCK_SIZE, "big")
        ks = cipher.encrypt_block(block)
        chunk = data[i:i + BLOCK_SIZE]
        out += bytes(d ^ s for d, s in zip(chunk, ks))
        counter = (counter + 1) % (1 << 128)
    return bytes(out)
