"""Verdict benchmark for stellar.

    python3 perfbench/run.py --workload cc_join --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from the repository root; the library is imported from ./src.  One
process, one thread.  Set-up (a fresh import of the package plus corpus
generation) is repeated SETUP_REPEATS times and its median reported.
Then passes over the corpus run until --seconds have gone by; a pass
calls the workload's entry point once per input, and the last pass stops
at the deadline.  corpus_s is the sum over inputs of each input's median
time.  Every verdict is judged against the answer known from how the
input was built, and the library's own cross-checks run after the timed
passes.

The end-to-end times are seconds at a reference speed: a speed probe
(speed.py) runs around and inside every timed call and set-up, and each
wall time is scaled by the probe's reference time over its measured
time, because a shared host's speed drifts by tens of percent within
seconds.  The readable report also gives the unscaled corpus_wall_s.

--trace 0 reports the end-to-end metrics BENCHMARK.json declares.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics; the spans of the last traced pass are written to .bench_out/.
The last line of stdout is the JSON result; the lines before it are a
readable report, which also gives certified_share, failed_share, the seed
and the fingerprint of the inputs.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

sys.dont_write_bytecode = True  # keep the checkout clean and imports comparable

import corpora  # noqa: E402
import spans as tracing  # noqa: E402
import speed  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
MODULES = ("complexes", "errors", "moves", "manifold", "homology", "quotient",
           "structure", "group", "lens", "invariants", "io", "cli")


def load_library() -> SimpleNamespace:
    """Import stellar afresh, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "stellar" or n.startswith("stellar.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    importlib.import_module("stellar")
    return SimpleNamespace(**{m: importlib.import_module(f"stellar.{m}") for m in MODULES})


def set_up(workload, seed: int, gauge: speed.Gauge):
    """Returns (median seconds at the reference speed, library, items,
    fingerprint)."""
    times, prints = [], set()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        with gauge.measure() as reading:
            lib = load_library()
            items = workload.build(lib, seed)
        times.append(reading.scaled)
        prints.add(corpora.fingerprint(items))
    if len(prints) != 1:
        raise RuntimeError(f"set-up is not deterministic: fingerprints {sorted(prints)}")
    return statistics.median(times), lib, items, prints.pop()


class Stopwatch:
    """Wall seconds of a `with` block, also when it raises."""

    seconds = None

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        self.seconds = time.perf_counter() - self._start
        return False


@dataclass(frozen=True)
class CallError:
    """The raw result of a call that raised; `refused` for a StellarError."""

    refused: bool
    text: str


@dataclass
class Pass:
    """One pass over the corpus, possibly cut short by a deadline.

    `times[i]` is the wall time of the call on input i, `raws[i]` its raw
    result.  An untraced pass has the times at the reference speed in
    `scaled`; a traced one has span `totals` and `counts` instead."""

    times: list = field(default_factory=list)
    raws: list = field(default_factory=list)
    scaled: list = field(default_factory=list)
    totals: Optional[dict] = None
    counts: Optional[dict] = None

    @property
    def seconds(self) -> float:
        return sum(self.times)


def one_pass(workload, lib, items, gauge=None, tracer=None, deadline=None) -> Pass:
    """Time one call per input, in order, stopping before the first input
    that would start after `deadline`.  Untraced passes time the calls
    with `gauge`, traced passes with a plain clock, so that no probe runs
    inside a span."""
    gc.collect()
    result = Pass()
    for item in items:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.input_id = item.ident
            root = tracer.open("bench.input")
        clock = gauge.measure() if gauge is not None else Stopwatch()
        try:
            with clock:
                raw = workload.call(lib, item)
        except lib.errors.StellarError as exc:
            raw = CallError(True, f"{type(exc).__name__}: {exc}")
        except Exception:
            raw = CallError(False, traceback.format_exc(limit=3))
        result.times.append(clock.seconds)
        if gauge is not None:
            result.scaled.append(clock.scaled)
        if tracer is not None:
            tracer.close(root)
        result.raws.append(raw)
    return result


def traced_pass(workload, lib, items, tracer) -> Pass:
    """One whole pass with the tracing probes installed."""
    tracer.reset()
    tracer.install(lib)
    try:
        result = one_pass(workload, lib, items, tracer=tracer)
    finally:
        tracer.uninstall()
    result.totals = tracing.span_totals(tracer.spans)
    result.counts = dict(tracer.counts)
    return result


def judge(workload, item, raw) -> Outcome:
    if isinstance(raw, CallError):
        if raw.refused:
            return Outcome("undecided", key=raw)
        return Outcome("error", problem=raw.text.strip().splitlines()[-1], key=raw)
    return workload.judge(item, raw)


def audit(workload, lib, items, untraced, traced):
    """Judge the first pass, require every later pass (traced or not) to
    agree with it, and run the cross-checks.  Returns (outcomes, failure
    reasons by input, whether anything unsound was found)."""
    outcomes = [judge(workload, item, raw) for item, raw in zip(items, untraced[0].raws)]
    problems = {}
    unsound = False

    def fail(item, reason, is_unsound):
        nonlocal unsound
        problems.setdefault(item.ident, []).append(reason)
        unsound |= is_unsound

    for item, out in zip(items, outcomes):
        if out.problem:
            fail(item, out.problem, out.unsound)
    for label, passes in (("untraced", untraced[1:]), ("traced", traced)):
        for p in passes:
            for item, out, raw in zip(items, outcomes, p.raws):
                if judge(workload, item, raw).key != out.key:
                    fail(item, f"a {label} pass gave another verdict", True)
    for item, out in zip(items, outcomes):
        if out.kind != "error":
            for reason in workload.cross_check(lib, item, out):
                fail(item, reason, True)
    return outcomes, problems, unsound


def tail(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it; with ten or fewer samples, the maximum (percentile 100)."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    k = n - 10  # 1-based rank; n - k = 10 samples lie beyond it
    return xs[k - 1], 100.0 * k / n


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


COUNT_METRICS = (
    "complexes.init_calls", "complexes.link_calls", "complexes.residual_calls",
    "moves.subdivide_calls", "moves.weld_calls", "moves.recognize_calls",
    "moves.recognize_unknown", "moves.weld_factor_calls", "manifold.links",
    "structure.steps", "quotient.from_structure_calls", "quotient.cells",
    "homology.snf_calls", "homology.snf_entries", "group.degree_calls",
    "group.order_of_calls", "group.face_classes_calls", "group.p0_calls",
)
TIME_METRICS = (
    "moves.recognize_s", "manifold.check_s", "structure.build_s", "structure.verify_s",
    "quotient.from_structure_s", "quotient.boundary_matrices_s", "quotient.h1_s",
    "homology.h1_s", "homology.snf_s", "group.degree_s", "group.gamma_s",
    "invariants.report_self_s", "invariants.collapse_s", "invariants.classify_s",
    "invariants.workflow_self_s", "io.parse_s", "io.dumps_s", "cli.main_self_s",
) + tuple(f"{layer}.self_s" for layer in tracing.LAYERS if layer != "lens")


def layer_metrics(traced, untraced, setup_totals):
    """Per-layer metrics of one pass: counts of the first traced pass (they
    repeat exactly), medians of times over the traced passes, and the lens
    build time of one traced set-up."""
    med = statistics.median

    def count(name):
        return traced[0].counts.get(name, 0)

    def seconds(name):
        return med([p.totals.get(name, 0.0) for p in traced])

    def ratio(a, b):
        return a / b if b else 0.0

    out = {name: (count(name), "count") for name in COUNT_METRICS}
    out.update({name: (seconds(name), "s") for name in TIME_METRICS})
    out["moves.weld_yield"] = (
        ratio(count("moves.weld_factor_ok"), count("moves.weld_factor_calls")), "ratio")
    out["structure.build_s_per_step"] = (
        ratio(seconds("structure.build_s"), count("structure.steps")), "s")
    out["group.degree_calls_per_report"] = (
        ratio(count("group.degree_calls"), count("invariants.report_calls")), "count")
    out["lens.build_s"] = (setup_totals.get("lens.build_s", 0.0), "s")
    out["trace.overhead_s"] = (med([p.seconds for p in traced]) - med([p.seconds for p in untraced]), "s")
    return out


def declared(section: str, values: dict) -> dict:
    """The metrics BENCHMARK.json declares in `section`, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[section]
    out = {}
    for entry in spec:
        value, unit = values[entry["name"]]
        if unit != entry["unit"]:
            raise RuntimeError(f"{entry['name']}: measured in {unit}, declared in {entry['unit']}")
        out[entry["name"]] = {"value": value, "unit": unit}
    return out


def run(args) -> int:
    workload = WORKLOADS[args.workload]
    gauge = speed.Gauge()
    setup_s, lib, items, fp = set_up(workload, args.seed, gauge)
    print(f"workload {workload.name}  seed {args.seed}  inputs {len(items)}  fingerprint {fp}")
    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:  # one more corpus build, traced, for the set-up layers
        tracer.input_id = "setup"
        tracer.install(lib)
        try:
            rebuilt = corpora.fingerprint(workload.build(lib, args.seed))
        finally:
            tracer.uninstall()
        if rebuilt != fp:
            raise RuntimeError("the traced set-up built other inputs")
        setup_totals = tracing.span_totals(tracer.spans)

    # The first pass is whole.  Untraced runs cut the last pass at the
    # deadline; traced runs alternate whole untraced and traced passes.
    untraced, traced = [], []
    deadline = time.perf_counter() + args.seconds
    while not untraced or time.perf_counter() < deadline:
        cut = deadline if untraced and tracer is None else None
        untraced.append(one_pass(workload, lib, items, gauge, deadline=cut))
        if tracer is not None:
            traced.append(traced_pass(workload, lib, items, tracer))

    outcomes, problems, unsound = audit(workload, lib, items, untraced, traced)
    attempted, failed = len(items), len(problems)
    certified = sum(1 for o in outcomes if o.certified)
    kinds = {}
    for o in outcomes:
        kinds[o.kind] = kinds.get(o.kind, 0) + 1
    def per_input_medians(column):
        samples = [[] for _ in items]
        for p in untraced:
            for i, t in enumerate(column(p)):
                samples[i].append(t)
        return [statistics.median(s) for s in samples]

    per_input = per_input_medians(lambda p: p.scaled)
    tail_s, tail_pct = tail(per_input)
    end_to_end = {
        "corpus_s": (sum(per_input), "s"),
        "verdict_s.p50": (statistics.median(per_input), "s"),
        "verdict_s.tail": (tail_s, "s"),
        "certified_share": (certified / attempted, "share"),
        "failed_share": (failed / attempted, "share"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }

    print(f"passes {len(untraced)} untraced, {len(traced)} traced; verdict_s.tail is "
          f"p{tail_pct:.1f} of {len(per_input)} per-input medians; corpus_wall_s "
          f"{sum(per_input_medians(lambda p: p.times)):.3f} s unscaled; speed probe median "
          f"{statistics.median(gauge.history):.4f} s, reference {speed.REFERENCE_S} s")
    print("pass seconds " + " ".join(f"{p.seconds:.3f}" for p in untraced)
          + (" | traced " + " ".join(f"{p.seconds:.3f}" for p in traced) if traced else ""))
    print("outcomes " + ", ".join(f"{k} {v}" for k, v in sorted(kinds.items()))
          + f"; certified {certified}, failed {failed} of {attempted}")
    for ident, reasons in problems.items():
        print(f"  failed {ident}: {'; '.join(reasons)}")
    for name, (value, unit) in end_to_end.items():
        print(f"  {name:<18} {value:12.6f} {unit}")

    if tracer is None:
        metrics = declared("end_to_end", end_to_end)
    else:
        layers = layer_metrics(traced, untraced, setup_totals)
        for name, (value, unit) in layers.items():
            print(f"  {name:<34} {value:14.6f} {unit}")
        s = {k: layers[k][0] for k in ("structure.build_s", "quotient.h1_s", "group.degree_s",
                                       "group.gamma_s", "invariants.collapse_s")}
        print(f"stages per pass: build {s['structure.build_s']:.3f} s, H1 {s['quotient.h1_s']:.3f} s, "
              f"degree/Gamma {s['group.degree_s'] + s['group.gamma_s']:.3f} s, "
              f"collapse {s['invariants.collapse_s']:.3f} s; degree calls per report "
              f"{layers['group.degree_calls_per_report'][0]:g}")
        metrics = declared("per_layer", layers)
        out_dir = Path.cwd() / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracing.write_spans(spans_path, tracer.spans)
        print(f"spans of the last traced pass written to {spans_path}")

    print(json.dumps({"correct": not unsound, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn, each in its own process")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stellar" / "__init__.py").is_file():
        print(f"stellar sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            sys.stdout.flush()
            child = subprocess.run([sys.executable, __file__, "--workload", name,
                                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                                    "--trace", str(args.trace)])
            status = status or child.returncode
        return status
    sys.path.insert(0, str(ROOT / "src"))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
