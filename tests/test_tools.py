import os
import subprocess
import sys
import time
from pathlib import Path

DIGEST = Path(__file__).resolve().parents[1] / "tools" / "outcome_digest.py"


def test_outcome_digest_reader_gone():
    # the read end is closed before the tool prints its first line, as when
    # `outcome_digest.py | head -1` loses the race; the tool must stop at
    # that first line, long before its digests are done
    r, w = os.pipe()
    os.close(r)
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(DIGEST)], stdout=w,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(w)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert time.monotonic() - start < 5.0
