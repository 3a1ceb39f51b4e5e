"""Time one cold set-up in a fresh interpreter: `import planmark` plus
`load_kb` of a workload's KB text, bracketed by runs of the host speed
reference.  Prints the set-up seconds and the mean reference seconds.

    python3 bench/setup_probe.py SRC_DIR KB_FILE
"""

import sys
import time

import hostspeed

src, kb_file = sys.argv[1], sys.argv[2]
sys.path.insert(0, src)
with open(kb_file, encoding="utf-8") as fh:
    kb_text = fh.read()

before = hostspeed.reference_s()
start = time.perf_counter()
import planmark  # noqa: E402  (the import is what is being timed)

planmark.load_kb(kb_text)
setup_s = time.perf_counter() - start
after = hostspeed.reference_s()
print(repr(setup_s), repr((before + after) / 2))
