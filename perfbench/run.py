"""Seeded benchmark of the permit_games engine.

    python3 perfbench/run.py --workload cores-n5 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout; the engine is imported from ``src/``.
Each workload runs in its own process, single-threaded, as a closed loop:
the next analysis starts when the previous one has returned.  Every
economy in a run is distinct, so no analysis profits from a cache that a
fresh CLI process would not have.

``--trace 0`` times analyses until ``--seconds`` of analysis time is spent
and reports the end-to-end metrics.  ``--trace 1`` runs the workload's fixed
traced batch with every layer wrapped and reports the per-layer metrics.
Either way every result is checked exactly (reference digests for the
default seed, invariants for every seed), human-readable lines go first,
and the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

SETUP_PROBES = 9


def _use_checkout_source() -> None:
    """Import the engine from this checkout's source tree and nowhere else."""
    if not (SOURCE / "permit_games" / "__init__.py").is_file():
        sys.exit(f"error: no engine source at {SOURCE / 'permit_games'}")
    sys.path[:0] = [str(SOURCE), str(HERE)]
    import permit_games
    if Path(permit_games.__file__).resolve().parent != SOURCE / "permit_games":
        sys.exit(f"error: permit_games imported from {permit_games.__file__}")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="import the engine, build the first input and exit")
    return parser.parse_args(argv)


def _setup_probe(workload, seed) -> None:
    import permit_games.cli  # noqa: F401  (part of what a CLI user pays)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload.make_input(seed, 0, workdir)


def _setup_seconds(name, seed) -> tuple[float, float]:
    """Median wall time, (normalised, raw), of fresh interpreters that import
    the engine and build input 0."""
    scaled, raw = [], []
    speed = calibrate.HostSpeed(every=0)
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-probe"], check=True)
        raw.append(time.perf_counter() - start)
        scaled.append(speed.normalise(raw[-1]))
    return statistics.median(scaled), statistics.median(raw)


class Batch:
    """Feeds distinct inputs to a workload and checks every result."""

    def __init__(self, workload, seed, workdir, reference):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.reference = reference
        self.next_index = 0
        self.seen = set()
        self.attempted = 0
        self.failed = 0

    def next_input(self):
        while True:
            index = self.next_index
            self.next_index += 1
            inp = self.workload.make_input(self.seed, index, self.workdir)
            economies = getattr(inp, "situations", (inp,))
            if self.seen.isdisjoint(economies):
                self.seen.update(economies)
                return index, inp

    def verify(self, index, inp, result) -> None:
        import verify
        problems = self.workload.check(inp, result)
        expected = self.reference[index] if index < len(self.reference) else None
        if expected is not None:
            got = verify.digest(self.workload.lines(result))
            if got != expected:
                problems.append(f"digest {got} differs from reference {expected}")
        if problems:
            self.fail(index, "; ".join(problems))

    def fail(self, index, why) -> None:
        self.failed += 1
        print(f"FAILED {self.workload.name} seed {self.seed} input {index}: {why}",
              file=sys.stderr)

    def run_one(self, index, inp, timer):
        """One attempted analysis: (wall time, whether it returned)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with timer():
                result = self.workload.analyse(inp)
        except Exception as exc:  # a raising analysis is a counted failure
            self.fail(index, f"{type(exc).__name__}: {exc}")
            return time.perf_counter() - start, False
        elapsed = time.perf_counter() - start
        self.verify(index, inp, result)
        return elapsed, True


def _reference(name, seed) -> list:
    data = json.loads(REFERENCE.read_text())
    return data["digests"].get(name, []) if data["seed"] == seed else []


def _percentile(values, p):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(p * len(ordered)))]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _timed(batch, seconds):
    """Analysis times (normalised, raw) until ``seconds`` of raw time is spent,
    and the peak RSS once the workload's fixed batch is done (or at the end)."""
    scaled, raw, spent, rss = [], [], 0.0, None
    speed = calibrate.HostSpeed()
    while spent < seconds:
        index, inp = batch.next_input()
        elapsed, ok = batch.run_one(index, inp, nullcontext)
        spent += elapsed
        normalised = speed.normalise(elapsed)
        if ok:
            raw.append(elapsed)
            scaled.append(normalised)
        if batch.attempted == batch.workload.batch:
            rss = _peak_rss_mb()
    return scaled, raw, rss if rss is not None else _peak_rss_mb()


def _traced(batch, name, seed):
    import tracer
    inputs = [batch.next_input() for _ in range(batch.workload.batch)]
    t = tracer.Tracer()
    t.install()
    try:
        times = []
        speed = calibrate.HostSpeed()
        for index, inp in inputs:
            elapsed, ok = batch.run_one(index, inp, t.recording)
            normalised = speed.normalise(elapsed)
            if ok:
                times.append(normalised)
    finally:
        t.uninstall()
    metrics = tracer.layer_metrics(t)
    metrics["traced.analysis_s.p50"] = (statistics.median(times) if times else 0.0, "s")
    t.spans.write(OUT / f"trace-{name}-{seed}.json")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    _use_checkout_source()
    from workloads import WORKLOADS
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose one of {', '.join(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        _setup_probe(workload, args.seed)
        return 0

    setup = None if args.trace else _setup_seconds(workload.name, args.seed)
    workdir = tempfile.mkdtemp(dir=OUT)
    try:
        batch = Batch(workload, args.seed, workdir, _reference(workload.name, args.seed))
        if args.trace:
            metrics = _traced(batch, workload.name, args.seed)
        else:
            times, raw, rss = _timed(batch, args.seconds)
            if not times:
                sys.exit("error: every analysis raised")
            metrics = {
                "setup_s": (setup[0], "s"),
                "analyses_per_s": (len(times) / sum(times), "1/s"),
                "analysis_s.p50": (statistics.median(times), "s"),
                "peak_rss_mb": (rss, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = batch.failed / batch.attempted
    print(f"{workload.name} seed {args.seed}: {batch.attempted} analyses, "
          f"{batch.failed} failed (failed_frac {failed_frac:.4f} ratio)")
    for key, (value, unit) in metrics.items():
        print(f"  {key:42} {value:14.6f} {unit}")
    if not args.trace:
        if len(times) >= 100:
            p90 = _percentile(times, 0.9)
            above = sum(t > p90 for t in times)
            print(f"  {'analysis_s.p90':42} {p90:14.6f} s  ({len(times)} samples, "
                  f"{above} above)")
        print(f"  raw wall clock: setup_s {setup[1]:.6f} s, analysis_s.p50 "
              f"{statistics.median(raw):.6f} s, analyses_per_s {len(raw) / sum(raw):.6f} 1/s")
    print(json.dumps({
        "correct": batch.failed == 0,
        "attempted": batch.attempted,
        "failed": batch.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
