#!/usr/bin/env python3
"""Write or check the golden wire vectors of ``WIRE_VERSION`` 2.

``tests/core/golden_wire_v2.json`` holds the hex of ``encode_message(m)``
for every entry of ``tests/core/test_codec.ALL_MESSAGES`` (with the hash
of every block the message carries), the standalone checkpoint row, the
durable records (``encode_record`` of ``test_codec.RECORDS``), the
``Step`` row and the connection hello's row.  The messages and the
checkpoint were generated before the table-driven codec replaced the
hand-written one and are committed unchanged: byte equality against them
is the argument that two builds interoperate.  The records, the step,
the hello and the two packed client rows (``ClientRequests``,
``ClientReplies``) were added later, each addition leaving every earlier
entry byte-identical.

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
    from repro.core.codec import WIRE_VERSION, encode_fields, encode_message, encode_record
    from repro.core.phases import Step
    from repro.runtime.framing import Hello
    from repro.tee.checkpoint import Checkpoint
    from tests.core.test_codec import ALL_MESSAGES, RECORDS, STEP, checkpoint

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
        "checkpoint": encode_fields((Checkpoint,), (checkpoint(),)).hex(),
        "records": [
            {"type": type(record).__name__, "hex": encode_record(record).hex()}
            for record in RECORDS
        ],
        "step": encode_fields((Step,), (STEP,)).hex(),
        "hello": encode_fields((Hello,), (Hello(3, WIRE_VERSION),)).hex(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed file instead of writing it")
    args = parser.parse_args()
    current = vectors()
    if not args.check:
        GOLDEN.write_text(json.dumps(current, indent=1) + "\n")
        print(f"wrote {len(current['messages'])} messages + checkpoint + records + step + "
              f"hello to {GOLDEN}")
        return 0
    golden = json.loads(GOLDEN.read_text())
    if golden == current:
        print(f"wire_golden: {len(golden['messages'])} messages + checkpoint + "
              f"{len(golden['records'])} records + step + hello byte-identical")
        return 0
    for want, got in zip(golden["messages"], current["messages"], strict=False):
        if want != got:
            print(f"wire_golden: message {want['index']} ({want['type']}) differs")
    if len(golden["messages"]) != len(current["messages"]):
        print("wire_golden: catalogue length differs")
    for key in ("checkpoint", "records", "step", "hello", "wire_version"):
        if golden.get(key) != current[key]:
            print(f"wire_golden: {key} differs")
    return 1


if __name__ == "__main__":
    raise SystemExit(main())
