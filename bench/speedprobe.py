"""The speed probe: a fixed piece of interpreter work, timed.

A shared virtual machine runs the same code at speeds that differ by up to
2x within minutes.  Times divided by this probe's time, taken in the same
process next to what they measure, cancel most of that drift.  The module
imports nothing heavy, so a worker can take the probe before it imports
indlab, and set-up time can be normalised the same way as step times.
"""

from time import perf_counter

# The probe's median time on the machine the first baseline was taken on
# (2-vCPU shared x86_64 Linux VM).  A time in probes times this constant is
# a time in seconds at that reference speed.
REFERENCE_PROBE_S = 1.8e-3


def reference_s() -> float:
    """Time of one run of the probe.

    Of the probes tried, this tuple-, set- and list-building loop tracked the
    workloads best; a plain arithmetic loop or a numpy sort tracked worse.
    """
    t0 = perf_counter()
    seen = set()
    state = (0, 0, 0, 0)
    out = []
    for i in range(5000):
        state = (state[1], state[2], state[3], (state[0] * 31 + i) % 1009)
        seen.add(state)
        out.append(state[3] & 1)
    tuple(out)
    return perf_counter() - t0


def probe_s() -> float:
    """The probe's median time over three runs."""
    return sorted(reference_s() for _ in range(3))[1]
