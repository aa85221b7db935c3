"""Speed probe: a fixed piece of work, independent of bosegas, timed between
ops so that latencies can be put on one machine-speed scale.

On a small shared VM the speed of a vCPU drifts by up to 1.75x, in spells
that last from under a second to about a minute.  The process's CPU time
drifts with its wall time, so this is slower execution, not time spent
descheduled, and it sets most of the run-to-run spread of a wall-clock
latency.  The probe does the kinds of work the program does (complex dense
LU and slogdet at the Nystrom size, a Cauchy-type broadcast sum and an
interpreted loop), so it slows down when the program's ops do.

A probe reading is taken before the first op and after every op.  A latency
``dt`` is reported as ``dt * (REFERENCE_S / p) ** ELASTICITY``, where ``p`` is
the mean of the readings just before and just after the op: the latency at
the speed where the probe takes REFERENCE_S.  The speed can change within a
second, so readings farther from the op tell less about it.  ELASTICITY is
the slope of log(op time) against log(probe time) over the host's own speed
swings, fitted for a workload at a fixed input by running this file; op
times swing less than the probe's, by about that power.  Only the probe's
time enters the factor, so a change to the program moves the scaled latency
in the same proportion as the raw one.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Probe seconds that define the reference speed: about the probe's median on
# the 2-core Xeon VM where ELASTICITY was fitted, so scaled and raw latencies
# are close there.
REFERENCE_S = 1.8e-3
# Fitted slopes at fixed inputs on that VM: curve 0.79, scan 0.69, excited
# and verify 0.36 (in quieter spells, where the probe moved little).  Over
# two sets of ten seeds, 0.8 kept the spread of every timing within 0.083 on
# every workload; 0.7 did not on curve, 0.9 did not on verify.
ELASTICITY = 0.8
# Probe repetitions per reading, at least; the reading is their mean.
REPEATS = 3
# A reading after an op lasts at least this share of the op's time, so that
# after a long op it averages over a fair sample of the speed.
SHARE = 0.05

_rng = np.random.default_rng(12345)
_M = _rng.standard_normal((96, 96)) + 1j * _rng.standard_normal((96, 96))
_Z = 2.0 * np.exp(1j * _rng.uniform(0.0, 2.0 * np.pi, 256))
_X = _rng.uniform(-1.0, 1.0, 96)
_F = _rng.standard_normal(96)


def _work():
    acc = 0.0
    for _ in range(2):
        acc += np.linalg.slogdet(_M)[1]
        acc += np.linalg.solve(_M, _M[:, 0])[0].real
    for _ in range(3):
        acc += (_F / (_Z[:, None] - _X[None, :])).sum(axis=1)[0].real
    for i in range(1500):
        acc += i * 1e-9
    return acc


def reading(op_seconds=0.0):
    """Mean probe seconds over REPEATS probes or more, run until
    SHARE * op_seconds have passed.  A mean, not a median: an op is slowed
    by the short slow spells in its span in proportion to their length."""
    count = 0
    start = perf_counter()
    while count < REPEATS or perf_counter() - start < SHARE * op_seconds:
        _work()
        count += 1
    return (perf_counter() - start) / count


def factor(probe_s):
    """Multiplier that puts a latency measured at ``probe_s`` on the
    reference speed."""
    return (REFERENCE_S / probe_s) ** ELASTICITY


def fit_elasticity(workload, seconds, workdir):
    """Slope of log(op seconds) against log(probe seconds around the op)
    when one fixed input of ``workload`` runs for ``seconds``, and the op
    count."""
    from workloads import run_op
    inp = next(workload.inputs(0))
    workload.anchor(workdir)
    readings, ops = [reading()], []
    stop = perf_counter() + seconds
    while perf_counter() < stop:
        ops.append(run_op(workload, inp, workdir)[1])
        readings.append(reading(ops[-1]))
    probe_s = [(a + b) / 2.0 for a, b in zip(readings, readings[1:])]
    return float(np.polyfit(np.log(probe_s), np.log(ops), 1)[0]), len(ops)


if __name__ == "__main__":
    # Refit ELASTICITY: python3 bench/probe.py <workload> [seconds], run
    # from the repository root; a fit needs the host's speed to swing.
    import os
    import sys
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    import workloads
    out_dir = os.path.join(os.getcwd(), ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    name = sys.argv[1]
    seconds = float(sys.argv[2]) if len(sys.argv) > 2 else 60.0
    slope, n = fit_elasticity(workloads.WORKLOADS[name], seconds, out_dir)
    print(f"{name}: elasticity {slope:.3f} over {n} ops")
