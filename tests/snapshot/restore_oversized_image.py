#!/usr/bin/env python3
"""`ringsim --restore` refuses an image that declares a huge core store.

Writes a snapshot of ``--program``, then rewrites the ``memory_words``
field of its meta section to 2^40 and recomputes that section's CRC
(zlib.crc32 is the image's CRC-32), the way the CI corrupted-image smoke
forges CRC-valid images. The image still verifies, so only ringsim's
store-size check stands between it and a 2^40-word allocation: the
restore must fail with ``ringsim: restore:`` and exit 2.

Prints ``oversized image: OK`` on success.
"""

import argparse
import os
import struct
import subprocess
import sys
import zlib

HEADER_BYTES = 16  # magic, version, section count, header CRC
META_SECTION_ID = 1  # first section; its payload starts with memory_words (u64 LE)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--ringsim", required=True)
    parser.add_argument("--program", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()

    image_path = os.path.join(args.workdir, "oversized.snapshot")
    subprocess.run(
        [args.ringsim, "--max-cycles=2000", "--snapshot-out=" + image_path, args.program],
        capture_output=True,
    )
    with open(image_path, "rb") as f:
        image = bytearray(f.read())

    # Section frame: id (u32), payload length (u64), payload CRC (u32).
    section_id, length = struct.unpack_from("<IQ", image, HEADER_BYTES)
    if section_id != META_SECTION_ID or length < 8:
        print("oversized image: unexpected first section %d (%d bytes)" % (section_id, length))
        return 1
    payload = HEADER_BYTES + 16
    struct.pack_into("<Q", image, payload, 1 << 40)
    struct.pack_into("<I", image, HEADER_BYTES + 12, zlib.crc32(image[payload : payload + length]))
    with open(image_path, "wb") as f:
        f.write(image)

    out = subprocess.run(
        [args.ringsim, "--restore=" + image_path], capture_output=True, text=True
    )
    if out.returncode != 2 or "ringsim: restore:" not in out.stderr:
        print(
            "oversized image: not rejected (exit %d): %s%s"
            % (out.returncode, out.stdout, out.stderr)
        )
        return 1
    print("oversized image: OK (%s)" % out.stderr.strip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
