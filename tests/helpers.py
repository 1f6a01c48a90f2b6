"""Shared test helpers."""

import zlib
from typing import Callable, Mapping

from polycode.codes import ChecksumMismatchError, MissingBlockError


def make_checked_reader(blocks: Mapping[int, bytes]) -> Callable[[int], bytes]:
    """Accessor over an in-memory block map that snapshots CRC32s at
    creation and verifies them on every read."""
    crcs = {b: zlib.crc32(data) for b, data in blocks.items()}

    def reader(block_id: int) -> bytes:
        if block_id not in blocks:
            raise MissingBlockError(f"block {block_id} not available")
        data = blocks[block_id]
        if zlib.crc32(data) != crcs[block_id]:
            raise ChecksumMismatchError(f"block {block_id} failed its CRC check")
        return data

    return reader
