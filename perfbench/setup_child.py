"""Time one fresh interpreter's set-up: ``import heatchern`` and one parse.

    python3 perfbench/setup_child.py SCENARIO

Prints two numbers: the set-up's seconds as measured, and the same scaled to
the reference speed.  As in ``reference.py``, a ``SIGALRM`` handler runs a
small reference chunk while the set-up runs, every ``INTERVAL_S`` seconds,
and the handler's own time is left out.  The chunk here uses builtins only:
one that needs numpy or ``fractions`` would import them before the timing
starts and take their import out of the set-up.  Over twelve runs of seven
set-ups each on a 2-vCPU machine the medians spread 27% as measured and 11%
scaled.  ``NOMINAL_S`` is what one chunk takes there at the fast speed.
"""

import signal
import sys
import time

NOMINAL_S = 0.00008
INTERVAL_S = 0.005
CAP = 3.0


def _chunk() -> int:
    terms = {}
    for i in range(150):
        key = ((i * 2654435761) & 255, i & 7)
        terms[key] = terms.get(key, 0) + i * 3 // 7
    return len(terms)


def main(scenario: str) -> None:
    samples = []

    def handler(signum, frame):
        start = time.perf_counter()
        _chunk()
        samples.append(time.perf_counter() - start)

    for _ in range(30):   # first calls, outside the samples
        _chunk()
    signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    start = time.perf_counter()
    import heatchern
    heatchern.parse_scenario(scenario)
    elapsed = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    measured = elapsed - sum(samples)
    mean = (sum(min(s, CAP * NOMINAL_S) for s in samples) / len(samples)
            if samples else NOMINAL_S)
    print(measured, measured * NOMINAL_S / mean)


if __name__ == "__main__":
    main(sys.argv[1])
