#!/usr/bin/env python3
"""Write or check the golden wire vectors of ``WIRE_VERSION`` 2.

``tests/core/golden_wire_v2.json`` holds the hex of ``encode_message(m)``
for every entry of ``tests/core/test_codec.ALL_MESSAGES`` (with the hash
of every block the message carries) plus the standalone
``encode_checkpoint``.  The file was generated before the table-driven
codec replaced the hand-written one and is committed unchanged: byte
equality against it is the argument that two builds interoperate.

Without arguments the file is (re)written; ``--check`` compares what this
checkout encodes against the committed file and exits 1 on any difference.
Needs no ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "core" / "golden_wire_v2.json"


def _block_hashes(msg: object) -> list[str]:
    """Hex hashes of the blocks ``msg`` carries, in field order."""
    blocks = []
    if hasattr(msg, "block"):
        blocks.append(msg.block)
    blocks.extend(getattr(msg, "blocks", ()))
    return [block.hash.hex() for block in blocks]


def vectors() -> dict[str, object]:
    """What this checkout puts on the wire for the whole catalogue."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from repro.core.codec import WIRE_VERSION, encode_checkpoint, encode_message
    from tests.core.test_codec import ALL_MESSAGES, checkpoint

    return {
        "wire_version": WIRE_VERSION,
        "messages": [
            {
                "index": index,
                "type": type(msg).__name__,
                "hex": encode_message(msg).hex(),
                "block_hashes": _block_hashes(msg),
            }
            for index, msg in enumerate(ALL_MESSAGES)
        ],
        "checkpoint": encode_checkpoint(checkpoint()).hex(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed file instead of writing it")
    args = parser.parse_args()
    current = vectors()
    if not args.check:
        GOLDEN.write_text(json.dumps(current, indent=1) + "\n")
        print(f"wrote {len(current['messages'])} messages + checkpoint to {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text())
    if golden == current:
        print(f"wire_golden: {len(golden['messages'])} messages + checkpoint byte-identical")
        return 0
    for want, got in zip(golden["messages"], current["messages"], strict=False):
        if want != got:
            print(f"wire_golden: message {want['index']} ({want['type']}) differs")
    if len(golden["messages"]) != len(current["messages"]):
        print("wire_golden: catalogue length differs")
    if golden["checkpoint"] != current["checkpoint"]:
        print("wire_golden: standalone checkpoint differs")
    if golden["wire_version"] != current["wire_version"]:
        print("wire_golden: WIRE_VERSION differs")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
