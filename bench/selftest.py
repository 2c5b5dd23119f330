"""Self-test of the benchmark: every correctness check can fail.

    python3 bench/selftest.py [workload ...]

For each workload (all three by default) this runs one round from seed 1
and requires every check to pass on the real outputs.  Then, for each
check, it corrupts one output the way that check guards against (flip a
residue of h, perturb a correction, swap a best point, ...) and requires
that check to report it.  It also requires the tracer to restore every
function it wraps and BENCHMARK.json to list the metrics the runs print.
Exit code 0 when all of this holds.
"""

import json
import sys

from common import ROOT, load_program


def check_workload(cls) -> list:
    wl = cls(1)
    out, attempted, failed = wl.run_round()
    problems = [f"{failed} of {attempted} certificates failed"] if failed else []
    clean = wl.check(out)
    mutations = wl.mutations()
    if set(mutations) != set(clean):
        problems.append(f"checks {sorted(clean)} but mutations {sorted(mutations)}")
    for name, msg in clean.items():
        if msg:
            problems.append(f"{name} fails on real outputs: {msg}")
    for name, mutate in mutations.items():
        msg = wl.check(mutate(out))[name]
        print(f"  {wl.name} {name}: {'caught: ' + msg if msg else 'MISSED'}")
        if not msg:
            problems.append(f"{name} does not catch its corruption")
    if wl.check(out) != clean:
        problems.append("a corruption changed the real outputs")
    return problems


def check_tracer() -> list:
    from tracing import TARGETS, Tracer
    before = [getattr(owner, attr) for owner, attr, *_ in TARGETS]
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    after = [getattr(owner, attr) for owner, attr, *_ in TARGETS]
    return [] if before == after else ["the tracer left a wrapper installed"]


def check_benchmark_json(workloads) -> list:
    from tracing import LAYER_METRICS
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads):
        problems.append("BENCHMARK.json workloads differ from the runner's")
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != list(LAYER_METRICS):
        problems.append("BENCHMARK.json per_layer differs from LAYER_METRICS")
    want = [("setup_s", "s"), ("batch_s", "s"), ("cpu_s", "s"),
            ("peak_rss_mb", "MB")]
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != want:
        problems.append("BENCHMARK.json end_to_end differs from run.py")
    return problems


def main(argv) -> int:
    load_program()
    from run import _workloads
    workloads = _workloads()
    problems = check_tracer() + check_benchmark_json(workloads)
    for name in argv or list(workloads):
        print(f"{name}:")
        problems += [f"{name}: {p}" for p in check_workload(workloads[name])]
    for p in problems:
        print(f"FAIL {p}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
