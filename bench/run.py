"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload thm1-conjugacy --seed 1 --seconds 30 --trace 0

The workload's inputs are built from --seed (set-up), then whole rounds
of the same certificates run one after another until the next round
would end past --seconds of measured time (at least one round).  The
first round's outputs go through the workload's independent checks
outside the timed region; every later round must reproduce them exactly.

The shared machine's speed drifts by tens of percent over seconds to
minutes, so every time is scaled to a nominal machine speed: a speed
probe (a fixed reference loop, common.speed_probe) runs right after
set-up and, outside the timed region, between certificates about every
PROBE_EVERY seconds of a round.  A segment of a round measured as t
seconds, between probes that took r1 and r2 seconds, counts as
t * REF_S / ((r1 + r2) / 2): the time it would take where the probe
takes REF_S.  A round's time is the sum of its scaled segments.  The raw
times go to standard error.

--trace 0 reports the end-to-end metrics: setup_s (process start to the
end of set-up), batch_s and cpu_s (median scaled wall-clock and CPU time
of a round) and peak_rss_mb.  --trace 1 alternates untraced and traced
rounds and reports the per-layer metrics of the traced ones (medians of
raw times) with the tracing overhead (scaled); the spans of the first
traced round are written to bench/out/.  The last line of standard
output is the result object.
"""

import time

_T0 = time.perf_counter()

import argparse                                              # noqa: E402
import hashlib                                               # noqa: E402
import json                                                  # noqa: E402
import os                                                    # noqa: E402
import resource                                              # noqa: E402
import statistics                                            # noqa: E402
import sys                                                   # noqa: E402

from common import REF_S, ROOT, load_program, speed_probe     # noqa: E402

OUT_DIR = ROOT / "bench" / "out"
PROBE_EVERY = 0.5    # seconds of a round between two speed probes


def _process_age() -> float:
    """Seconds since this process started, read at the script's first line.

    Linux reports the start in clock ticks since boot; elsewhere the
    interpreter's own start-up is left out.
    """
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(time.clock_gettime(time.CLOCK_BOOTTIME) - started
                   - (time.perf_counter() - _T0), 0.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


def _workloads():
    from contraction_metrics import ContractionMetrics
    from non_shadowing import NonShadowing
    from thm1_conjugacy import Thm1Conjugacy
    return {w.name: w for w in (Thm1Conjugacy, ContractionMetrics, NonShadowing)}


class _RoundClock:
    """Times a round in segments split at the workload's tick() calls,
    with a speed probe between segments."""

    def __init__(self, probe):
        self.probe = probe               # (wall, cpu) of the last probe
        self.probes = [probe[0]]

    def start(self):
        self.raw_wall = self.wall = self.cpu = 0.0
        self._begin()

    def tick(self):
        if time.perf_counter() - self.w0 >= PROBE_EVERY:
            self.stop()
            self._begin()

    def stop(self):
        w, c = time.perf_counter() - self.w0, time.process_time() - self.c0
        after = speed_probe()
        self.raw_wall += w
        self.wall += w * 2 * REF_S / (self.probe[0] + after[0])
        self.cpu += c * 2 * REF_S / (self.probe[1] + after[1])
        self.probe = after
        self.probes.append(after[0])

    def _begin(self):
        self.c0, self.w0 = time.process_time(), time.perf_counter()


def _digest(out) -> str:
    return hashlib.sha256(repr(out).encode()).hexdigest()


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    age = _process_age()
    load_program()
    wl = _workloads()[workload](seed)
    setup_raw = age + time.perf_counter() - _T0
    probe = speed_probe()
    setup_s = setup_raw * REF_S / probe[0]
    clock = _RoundClock(probe)

    tracer = None
    if trace:
        from tracing import LAYER_METRICS, Tracer
        tracer = Tracer()
    walls = {False: [], True: []}          # traced? -> raw round wall times
    scaled = {False: [], True: []}         # traced? -> scaled round wall times
    cpus = []
    layers = []
    attempted = failed = 0
    reference = None
    problems = []
    measured = 0.0
    while True:
        traced = trace and len(walls[False]) > len(walls[True])
        if traced:
            tracer.install()
        clock.start()
        out, n_attempted, n_failed = wl.run_round(clock.tick)
        clock.stop()
        if traced:
            tracer.uninstall()
            tracer.finish()
            layers.append(tracer.layer_metrics())
            if len(layers) == 1:
                OUT_DIR.mkdir(parents=True, exist_ok=True)
                tracer.write_csv(OUT_DIR / f"trace-{workload}-seed{seed}.csv")
            tracer.reset()
        else:
            cpus.append(clock.cpu)
        walls[traced].append(clock.raw_wall)
        scaled[traced].append(clock.wall)
        measured += clock.raw_wall
        attempted += n_attempted
        failed += n_failed

        digest = _digest(out)
        if reference is None:
            reference = digest
            problems += [f"{name}: {msg}" for name, msg in wl.check(out).items()
                         if msg]
        elif digest != reference:
            problems.append(f"round {len(cpus) + len(layers)} differs from round 1")
        del out

        if trace and not walls[True]:
            continue
        upcoming = statistics.median(walls[trace and not traced])
        if measured + upcoming > seconds:
            break

    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted,
              "failed": failed}
    if trace:
        untraced = statistics.median(scaled[False])
        overhead = statistics.median(scaled[True]) - untraced
        values = {name: statistics.median(m[name] for m in layers)
                  for name in layers[0]}
        values["trace.overhead_s"] = overhead
        values["trace.overhead_pct"] = 100.0 * overhead / untraced
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, unit in LAYER_METRICS}
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["metrics"] = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "batch_s": {"value": statistics.median(scaled[False]), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpus), "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(f"{workload} seed {seed}: raw setup {setup_raw:.3f} s, probe ms: "
          + " ".join(f"{1000 * p:.2f}" for p in clock.probes), file=sys.stderr)
    for traced in (False, True):
        if walls[traced]:
            print(f"{workload} seed {seed}: {len(walls[traced])} "
                  f"{'traced' if traced else 'untraced'} rounds of "
                  f"{n_attempted} certificates, raw wall s: "
                  + " ".join(f"{w:.3f}" for w in walls[traced])
                  + ", scaled s: "
                  + " ".join(f"{w:.3f}" for w in scaled[traced]),
                  file=sys.stderr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("thm1-conjugacy", "contraction-metrics",
                             "non-shadowing"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ImportError as exc:
        print(f"bench: cannot load the program: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(result)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(text + "\n")
    print(text)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
