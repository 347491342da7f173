"""ncosc benchmark: one command, one process generating all load.

    python3 perfbench/run.py --workload kernel-grid --seed 1 --seconds 25 --trace 0

Runs whole rounds of one workload (see workloads.py and README.md) on the
package under src/ of the checkout this file sits in, checks every output,
and prints one JSON object as its last line of standard output: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics of
a traced run. The run record and, for a traced run, its spans are written
under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# median wall time of one round on the reference machine (README); the
# round count of a run is fixed from --seconds with these, so that every
# run of a workload does the same operations the same number of times
ROUND_SECONDS = {"verify-all": 7.0, "kernel-grid": 0.6, "spectrum-tables": 0.5}
MIN_ROUNDS = 3
SETUP_STARTS = 7
IMPORT_PROBE = ("import time; t = time.perf_counter(); import ncosc; "
                "print(time.perf_counter() - t, ncosc.__file__)")


def _pin_threads() -> int:
    """Cap OpenBLAS/OpenMP threads at the cores this process may use."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        cur = os.environ.get(var, "")
        if not cur.isdigit() or not 0 < int(cur) <= cores:
            os.environ[var] = str(cores)
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _setup_seconds() -> list[float]:
    """`import ncosc` timed in fresh interpreters, one after another."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_STARTS):
        res = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=60, check=True)
        seconds, path = res.stdout.split()
        if not Path(path).resolve().is_relative_to(SRC):
            raise RuntimeError(f"fresh interpreter imported ncosc from {path}, not from {SRC}")
        times.append(float(seconds))
    return times


def _known(op, exc: BaseException) -> bool:
    if op.known_fault is None or not isinstance(exc, op.known_fault[0]):
        return False
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_name == op.known_fault[1]:
            return True
        tb = tb.tb_next
    return False


class Rounds:
    """Timed rounds of one operation list: every operation's latency in
    every round, and the failures."""

    def __init__(self, ops) -> None:
        self.ops = ops
        self.seconds: list[list[float]] = [[] for _ in ops]
        self.ok = [True] * len(ops)            # the operation never failed
        self.round_clock: list[float] = []     # wall clock of each round, checks included
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.cli_bytes: list[int] = []

    def run(self, count: int, tracer=None) -> None:
        clock = time.perf_counter
        for _ in range(count):
            if tracer is not None:
                tracer.reset_keys()
            cli_bytes = 0
            r0 = clock()
            for j, op in enumerate(self.ops):
                self.attempted += 1
                t0 = clock()
                try:
                    out = op.call()
                except Exception as exc:  # a failed operation is counted, not fatal
                    self.seconds[j].append(clock() - t0)
                    self.failed += 1
                    self.ok[j] = False
                    if not _known(op, exc):
                        self.unexpected.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                    continue
                self.seconds[j].append(clock() - t0)
                if op.kind.startswith("cli-"):
                    cli_bytes += len(out[1].encode())
                try:
                    problem = op.check(out)
                except Exception as exc:  # output the check cannot even read
                    problem = f"unreadable output: {type(exc).__name__}: {exc}"
                if problem is not None:
                    self.failed += 1
                    self.ok[j] = False
                    self.unexpected.append(f"{op.kind}: {problem}")
            self.round_clock.append(clock() - r0)
            self.cli_bytes.append(cli_bytes)
            if tracer is not None:
                tracer.round_fracs.append(tracer.distinct_frac())

    def best(self) -> list[float]:
        """Each operation's best latency over the rounds.

        The machine's cores are shared: neighbours slow every operation by
        up to half for seconds at a time, and the slowdown moves from run
        to run. The best of several repeats of the same operation measures
        the program rather than its neighbours."""
        return [min(s) for s in self.seconds]

    def ok_best(self) -> list[float]:
        return [b for b, ok in zip(self.best(), self.ok) if ok]

    def kind_best(self) -> dict[str, list[float]]:
        out: dict[str, list[float]] = {}
        for op, b, ok in zip(self.ops, self.best(), self.ok):
            if ok:
                out.setdefault(op.kind, []).append(b)
        return out


def _verify_metrics(rounds: Rounds) -> dict[str, float]:
    """Per-suite and per-check seconds: each check's best over the rounds."""
    from workloads import VERIFY_CHECKS

    best = {k: v[0] for k, v in rounds.kind_best().items()}
    out = {f"verify.{suite}.s": sum(best.get(f"{suite}/{name}", 0.0) for name in names)
           for suite, names in VERIFY_CHECKS}
    for name in ("radial-spectrum-agreement", "semigroup", "lattice-accuracy", "lattice-order"):
        suite = "oracle" if name.startswith("radial") else "propagator"
        out[f"verify.check.{name}.s"] = best.get(f"{suite}/{name}", 0.0)
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=tuple(ROUND_SECONDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    threads = _pin_threads()
    if not (SRC / "ncosc" / "__init__.py").is_file():
        print(f"error: no ncosc package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    setup = _setup_seconds()

    import numpy as np
    import scipy

    import ncosc
    import ncosc.cli  # noqa: F401  (the package does not import its CLI)
    import reference as ref
    import spans
    import workloads

    wl = workloads.WORKLOADS[args.workload](ncosc, args.seed)
    problems = [p for p in (check() for check in wl.spot_checks) if p is not None]
    if wl.warmup_round:
        Rounds(wl.ops).run(1)

    n_rounds = max(MIN_ROUNDS, round(args.seconds / ROUND_SECONDS[args.workload]))
    plain = Rounds(wl.ops)
    tracer = None
    traced = Rounds(wl.ops)
    if args.trace:
        n_plain = max(1, n_rounds // 2)
        plain.run(n_plain)
        tracer = spans.Tracer()
        tracer.install([m for name, m in sys.modules.items() if name == "ncosc" or name.startswith("ncosc.")])
        try:
            traced.run(max(1, n_rounds - n_plain), tracer)
        finally:
            tracer.uninstall()
    else:
        plain.run(n_rounds)

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    unexpected = problems + plain.unexpected + traced.unexpected
    wall = sum(plain.best())
    per_round_ok = (plain.attempted - plain.failed) / len(plain.round_clock)
    ok_seconds = [s for secs, ok in zip(plain.seconds, plain.ok) if ok for s in secs]
    tail = ref.tail_percentile(ok_seconds)
    # reported, not gated: on verify-all it is the best time of two
    # few-millisecond checks, sampled once per 7-second pass
    op_ms_p50 = 1e3 * ref.median(plain.ok_best())

    if args.trace:
        metrics = _layer_metrics(tracer, plain, traced, args.workload)
    else:
        metrics = {
            "setup_s": (ref.median(setup), "s"),
            "wall_s": (wall, "s"),
            "ops_per_s": (per_round_ok / wall, "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "rounds": n_rounds, "ops_per_round": len(wl.ops),
        "cores": len(os.sched_getaffinity(0)), "blas_threads": threads,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "attempted": attempted, "failed": failed, "unexpected_failures": unexpected[:20],
        "setup_s_samples": setup, "round_clock_s": plain.round_clock,
        "op_ms_p50": op_ms_p50,
        "op_ms_tail": None if tail is None else {"percentile": tail[0], "ms": 1e3 * tail[1],
                                                 "samples": len(ok_seconds)},
        "kind_best_ms_p50": {k: 1e3 * ref.median(v) for k, v in sorted(plain.kind_best().items())},
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracer.save(OUT / f"{stem}-spans.npz")
    for line in unexpected[:20]:
        print(f"failed: {line}", file=sys.stderr)

    correct = not unexpected
    print("run " + json.dumps({k: record[k] for k in ("workload", "seed", "rounds", "ops_per_round", "cores",
                                                      "blas_threads", "python", "numpy", "scipy",
                                                      "attempted", "failed", "op_ms_p50", "op_ms_tail")}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


def _layer_metrics(tracer, plain: Rounds, traced: Rounds, workload: str) -> dict:
    n = len(traced.round_clock)
    totals = tracer.totals()

    def calls(name):
        return totals[name][0] / n

    def self_s(*names):
        return sum(totals[x][2] for x in names) / n

    layers = {}
    for name, (_, _, own) in totals.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + own / n
    enum_incl = totals["spectrum.enumerate_states"][1]
    fracs = {k: sum(f[k] for f in tracer.round_fracs) / n for k in tracer.round_fracs[0]}

    m = {
        "specfun.bessel_i.calls": (calls("specfun.bessel_i"), "count"),
        "specfun.bessel_i.self_s": (self_s("specfun.bessel_i"), "s"),
        "specfun.laguerre_all.self_s": (self_s("specfun.laguerre_all"), "s"),
        "specfun.jacobi_all.self_s": (self_s("specfun.jacobi_all"), "s"),
        "specfun.self_s": (layers["specfun"], "s"),
        "model.effective_ell.calls": (calls("model.effective_ell"), "count"),
        "model.effective_ell.distinct_frac": (fracs["model.effective_ell"], "ratio"),
        "model.angular_mode.calls": (calls("model.angular_mode"), "count"),
        "model.self_s": (layers["model"], "s"),
        "spectrum.enumerate_states.self_s": (self_s("spectrum.enumerate_states"), "s"),
        "spectrum.states_per_s": (
            tracer.returned_items.get("spectrum.enumerate_states", 0) / enum_incl if enum_incl else 0.0, "1/s"),
        "spectrum.full_wavefunction.self_s": (self_s("spectrum.full_wavefunction"), "s"),
        "spectrum.radial_profiles.self_s": (self_s("spectrum.radial_profiles"), "s"),
        "spectrum.self_s": (layers["spectrum"], "s"),
        "oracle.radial_eigenvalues_fd.calls": (calls("oracle.radial_eigenvalues_fd"), "count"),
        "oracle.radial_eigenvalues_fd.self_s": (self_s("oracle.radial_eigenvalues_fd"), "s"),
        "oracle.inner_product.self_s": (self_s("oracle.inner_product_radial", "oracle.inner_product_angular"), "s"),
        "oracle.self_s": (layers["oracle"], "s"),
        "propagator.lattice_kernel_grid.calls": (calls("propagator.lattice_kernel_grid"), "count"),
        "propagator.lattice_kernel_grid.distinct_frac": (fracs["propagator.lattice_kernel_grid"], "ratio"),
        "propagator.lattice_kernel_grid.self_s": (self_s("propagator.lattice_kernel_grid"), "s"),
        "propagator.radial_kernel_closed.self_s": (self_s("propagator.radial_kernel_closed"), "s"),
        "propagator.radial_kernel_spectral.calls": (calls("propagator.radial_kernel_spectral"), "count"),
        "propagator.radial_kernel_spectral.self_s": (self_s("propagator.radial_kernel_spectral"), "s"),
        "propagator.full_kernel_spectral.self_s": (self_s("propagator.full_kernel_spectral"), "s"),
        "propagator.self_s": (layers["propagator"], "s"),
        "verify.self_s": (layers["verify"], "s"),
    }
    verify_s = _verify_metrics(plain) if workload == "verify-all" else {}
    for name in ("verify.specfun.s", "verify.spectrum.s", "verify.oracle.s", "verify.propagator.s",
                 "verify.check.radial-spectrum-agreement.s", "verify.check.semigroup.s",
                 "verify.check.lattice-accuracy.s", "verify.check.lattice-order.s"):
        m[name] = (verify_s.get(name, 0.0), "s")
    wall = sum(traced.round_clock) / n
    m.update({
        "cli.main.self_s": (layers["cli"], "s"),
        "cli.bytes_out": (float(traced.cli_bytes[0]), "B"),
        "trace.wall_s": (wall, "s"),
        "trace.bench_s": (wall - tracer.top_level_seconds() / n, "s"),
        "trace.spans_per_round": (len(tracer.start) / n, "count"),
        "trace.overhead_s": (sum(traced.best()) - sum(plain.best()), "s"),
    })
    return m


if __name__ == "__main__":
    sys.exit(main())
