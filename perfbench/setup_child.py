"""Set-up cost as a CLI user pays it: a fresh interpreter's `import decadapt`
plus the first `build_oscillator` (which runs the finite-difference spec
validation).  Usage: python3 setup_child.py <src-dir>; prints one JSON line.
"""

import json
import sys
import time

sys.path.insert(0, sys.argv[1])
before = len(sys.modules)
t0 = time.perf_counter()
import decadapt  # noqa: E402

t1 = time.perf_counter()
decadapt.build_oscillator(decadapt.OscillatorScenario())
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1,
                  "modules": len(sys.modules) - before, "file": decadapt.__file__}))
