"""kronthick's benchmark: build, verify and exact-search workloads.

Run from the repository root:

    python3 perfbench/run.py --workload build --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

Each workload is a closed loop with one caller in one process.  After an
untimed set-up (imports, inputs, an untimed warm-up pass) the timed window
issues passes over the workload's ops for ``--seconds``, checking every
output against its reference outside the timed region.
``--trace 1`` runs a second window with spans around the calls between
kronthick's modules and reports per-layer metrics instead of end-to-end
ones.  The last line of stdout is one JSON object: correct, attempted,
failed and metrics.  ``--workload all`` runs each workload in a fresh
process, one after the other.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

PROCESS_START = time.perf_counter()

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

WORKLOADS = ("build", "verify", "search")
WORK_DIR = os.path.join(wl.ROOT, ".perfbench_work")

# Within a pass, an op is repeated until it has used this much time (at
# most REPEAT_MAX calls).  build's mid-sized ops sit close together, so
# they get more calls; search's eight millisecond ops get the least time,
# because its two whole passes of K8xK2 already fill the window.
REPEAT_SLOT_S = {"build": 1.0, "verify": 0.5, "search": 0.1}
REPEAT_MAX = 50

# Passes of an untraced window that are always whole, so that every op,
# K8xK2's 12-16 s search included, gets at least this many calls.
WHOLE_PASSES = 2

# Set-up repetitions; setup_s is the median.  verify's set-up builds a
# 10 MB corpus, so it is repeated fewer times to keep a run short.
SETUP_REPEATS = {"build": 3, "verify": 2, "search": 3}

# (name, unit, in the result line).  op_tail_s and edges_per_s are only
# logged: the slowest op is most of wall_s on every workload, and
# edges_per_s is a fixed edge count over wall_s, so as bounded metrics they
# would add no information, only the host's noise a second time.
END_TO_END = (
    ("setup_s", "s", True),
    ("wall_s", "s", True),
    ("op_p50_s", "s", False),
    ("op_tail_s", "s", False),
    ("edges_per_s", "1/s", False),
    ("decided_ratio", "ratio", True),
    ("peak_rss_mb", "MB", True),
)


def log(line: str) -> None:
    print(f"# {line}", flush=True)


# ============================================================
# Run context
# ============================================================


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha() -> str:
    if not os.path.exists(os.path.join(wl.ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        res = subprocess.run(["git", "-C", wl.ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() or "unknown"


def host_speed_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs now."""
    def loop():
        t = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        return (time.perf_counter() - t) * 1000

    return statistics.median(loop() for _ in range(5))


def run_context(seed: int) -> dict:
    import networkx

    return {
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
        "networkx": networkx.__version__,
    }


# ============================================================
# Set-up
# ============================================================


def corpus_dir(seed: int) -> str:
    return os.path.join(WORK_DIR, f"verify-seed{seed}")


def prepare(workload: str, seed: int, ref: dict) -> tuple[list, int]:
    """The workload's ops; returns (ops, inputs that failed their reference)."""
    if workload == "build":
        return wl.build_ops(seed, ref), 0
    if workload == "search":
        return wl.search_ops(seed, ref), 0
    # The corpus is written by a child process, so that building it does
    # not count toward this process's peak memory.
    corpus = corpus_dir(seed)
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--prepare-verify", corpus, "--seed", str(seed)],
        check=True, timeout=170,
    )
    with open(os.path.join(corpus, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    return wl.verify_ops(manifest, seed), len(manifest["mismatched"])


def warm_up(ops) -> None:
    for op in ops:
        if op.warmup:
            wl.issue(op)


def set_up(workload: str, seed: int, ref: dict):
    """Import kronthick, then prepare inputs and warm up several times.

    Returns (ops, mismatched inputs, setup_s) where setup_s is the import
    time plus the median of the repeated prepare-and-warm-up times.
    """
    t0 = time.perf_counter()
    sys.path.insert(0, wl.SRC)
    import kronthick  # noqa: F401
    import kronthick.cli  # noqa: F401
    import networkx  # noqa: F401

    if not os.path.abspath(kronthick.__file__).startswith(os.path.abspath(wl.SRC)):
        raise RuntimeError(f"kronthick imported from {kronthick.__file__}, not {wl.SRC}")
    import_s = time.perf_counter() - t0 + (t0 - PROCESS_START)
    reps = []
    for _ in range(SETUP_REPEATS[workload]):
        gc.collect()
        t = time.perf_counter()
        ops, mismatched = prepare(workload, seed, ref)
        warm_up(ops)
        reps.append(time.perf_counter() - t)
    return ops, mismatched, import_s + statistics.median(reps)


# ============================================================
# The timed window
# ============================================================


class Window:
    """What one timed window measured and what its checks found."""

    def __init__(self, ops):
        self.walls: list[float] = []  # one per pass
        self.samples = {op.name: [] for op in ops}  # op latencies
        self.first: list = []  # each op's first outcome, for the checker's self-check
        self.problems: list[str] = []
        self.issued = 0
        self.decided = 0

    def op_latency(self) -> dict:
        """Each op's median latency over the window's calls."""
        return {name: statistics.median(xs) for name, xs in self.samples.items()}


def window(ops, seconds: float, slot: float, tracer=None) -> Window:
    """Passes over ops within seconds; the first WHOLE_PASSES are always whole.

    A pass issues every op once, then goes round again over the ops that
    have used less than slot seconds (and fewer than REPEAT_MAX calls) in
    this pass, until none is left.  The pass counts each op at its median
    call.  A short op thus gets several samples, taken before and after the
    long ops, rather than one sample in whatever phase the shared host is
    in.  After the whole passes an op is only issued if its best call so
    far would still end within seconds; the pass in which one is left out
    is the last, and its calls count as samples but not as a pass.  So a
    run measures for about seconds, or for the whole passes if they take
    longer, whatever the length of its slowest op.  A traced window makes
    one pass and issues each op once, so that its spans add up to exactly
    one pass.  Only the op call itself is timed; GC, reducing the output
    and checking it happen between calls.
    """
    w = Window(ops)
    start = time.perf_counter()
    whole = 1 if tracer is not None else WHOLE_PASSES
    out_of_time = False
    while len(w.walls) < whole or (tracer is None and not out_of_time):
        calls = {op.name: [] for op in ops}
        due = list(ops)
        while due:
            for op in list(due):
                if len(w.walls) >= whole and (time.perf_counter() - start
                                + min(w.samples[op.name] + calls[op.name]) > seconds):
                    out_of_time = True
                    due.remove(op)
                    continue
                gc.collect()
                t0 = time.perf_counter()
                raw = wl.issue(op, tracer)
                calls[op.name].append(time.perf_counter() - t0)
                out = wl.reduce_outcome(op, raw)
                del raw
                w.issued += 1
                w.decided += decided(op, out)
                w.problems.extend(f"{op.name}: {p}" for p in wl.check(op, out))
                if len(w.first) < len(ops) and not w.walls:
                    w.first.append(out)
            due = [op for op in due if tracer is None
                   and sum(calls[op.name]) < slot and len(calls[op.name]) < REPEAT_MAX]
        for name, xs in calls.items():
            w.samples[name].extend(xs)
        if all(calls.values()):
            w.walls.append(sum(statistics.median(xs) for xs in calls.values()))
    return w


def tail(latencies) -> tuple[float, str]:
    """Highest percentile with at least 10 samples beyond it.

    The samples are per-op latencies, one per op of the workload.  With
    fewer than 21 ops that percentile would sit at or below the median, so
    the slowest op (p100) is reported instead.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 21:
        return xs[-1], f"p100 of {n} ops (fewer than 21)"
    rank = n - 10  # 1-based rank with exactly 10 samples above it
    return xs[rank - 1], f"p{100 * rank / n:.1f} of {n} ops, 10 beyond"


def decided(op, out) -> bool:
    if "status" in op.expect:
        return out.status == "EXACT"
    return out.exit in (0, 1)


def self_check(ops, outcomes) -> dict:
    """Feed the checker corrupted references and flipped verdicts.

    Returns {kind: [variants made, variants counted as failed]}; a sound
    checker counts every variant as failed.
    """
    tally: dict = {}
    for op, out in zip(ops, outcomes):
        for kind, bad_op, bad_out in wl.corrupted(op, out):
            t = tally.setdefault(kind, [0, 0])
            t[0] += 1
            t[1] += bool(wl.check(bad_op, bad_out))
    return tally


# ============================================================
# One workload
# ============================================================


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    load_before = os.getloadavg()
    speed_before = host_speed_ms()
    ref = wl.load_reference()
    ops, mismatched, setup_s = set_up(workload, seed, ref)
    log("context " + json.dumps(run_context(seed)))

    w = window(ops, seconds, REPEAT_SLOT_S[workload])
    latency = w.op_latency()
    for name, x in latency.items():
        log(f"op {name}: median {x:.6g} s, best {min(w.samples[name]):.6g} s "
            f"over {len(w.samples[name])} calls")
    attempted = w.issued + mismatched
    failed = len(w.problems) + mismatched
    problems = list(w.problems)
    if mismatched:
        problems.append(f"{mismatched} corpus documents differ from the build reference")
    tally = self_check(ops, w.first)
    checker_sound = all(made == caught for made, caught in tally.values())
    wall_s = sum(latency.values())  # one pass with every op at its median
    tail_s, tail_note = tail(latency.values())
    pass_edges = sum(op.edges for op in ops)
    e2e = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "op_p50_s": statistics.median(latency.values()),
        "op_tail_s": tail_s,
        "edges_per_s": pass_edges / wall_s,
        "decided_ratio": w.decided / w.issued,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    log(f"workload {workload}: {len(ops)} ops per pass, {len(w.walls)} timed passes, "
        f"{w.issued} calls, {pass_edges} target edges per pass")
    for name, unit, _ in END_TO_END:
        note = f"  ({tail_note})" if name == "op_tail_s" else ""
        log(f"{name} = {e2e[name]:.6g} {unit}{note}")
    log(f"fail_ratio = {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for kind, (made, caught) in tally.items():
        log(f"self-check: {caught} of {made} ops with a {kind} counted as failed")
    for p in problems[:20]:
        log(f"FAILED {p}")

    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit, bounded in END_TO_END if bounded}
    if trace:
        tracer = tracing.Tracer()
        for name in tracer.install():
            log(f"trace: no binding {name} to wrap")
        try:
            t = window(ops, seconds, 0.0, tracer)
        finally:
            tracer.uninstall()
        attempted += t.issued
        failed += len(t.problems)
        for p in t.problems[:20]:
            log(f"FAILED (traced) {p}")
        layers = tracing.layer_metrics(tracer.spans, len(t.walls), t.walls[0] / statistics.median(w.walls))
        for name, unit in tracing.PER_LAYER:
            log(f"{name} = {layers[name]:.6g} {unit}")
        os.makedirs(WORK_DIR, exist_ok=True)
        tracer.write(os.path.join(WORK_DIR, f"spans-{workload}-seed{seed}.jsonl"))
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in tracing.PER_LAYER}
    load_after = os.getloadavg()
    log(f"loadavg before {load_before[0]:.2f} {load_before[1]:.2f} {load_before[2]:.2f}, "
        f"after {load_after[0]:.2f} {load_after[1]:.2f} {load_after[2]:.2f}")
    log(f"host calibration loop: {speed_before:.2f} ms before, {host_speed_ms():.2f} ms after")
    shutil.rmtree(corpus_dir(seed), ignore_errors=True)  # about 15 MB per verify seed
    return {
        "correct": failed == 0 and checker_sound,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a fresh process, so peak memory is its own."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=600,
        )
        lines = res.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(f"# [{workload}] {line.lstrip('# ')}", flush=True)
        if res.returncode != 0 or not lines:
            sys.stderr.write(res.stderr)
            raise RuntimeError(f"workload {workload} exited with {res.returncode}")
        one = json.loads(lines[-1])
        total["correct"] = total["correct"] and one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        for name, m in one["metrics"].items():
            total["metrics"][f"{workload}.{name}"] = m
    return total


# ============================================================
# Reference outputs
# ============================================================


def write_reference() -> None:
    """Record this commit's outputs as the reference every run is checked against."""
    from collections import defaultdict

    sys.path.insert(0, wl.SRC)
    ref = {"build": defaultdict(dict), "verify": defaultdict(dict), "search": defaultdict(dict)}
    for op in wl.build_ops(0, ref):
        code, text = wl.issue(op)
        ref["build"][op.name] = {"exit": code, "sha256": wl.digest(text)}
    corpus = os.path.join(WORK_DIR, "reference")
    manifest = wl.prepare_verify_corpus(corpus, 0, ref)
    if manifest["mismatched"]:
        raise RuntimeError(f"corpus differs from the build outputs: {manifest['mismatched']}")
    for d in manifest["docs"]:
        if "defects" not in d["expect"]:
            code, text = wl.issue(wl.Op(d["name"], 0, {}, argv=["verify", d["path"]]))
            ref["verify"][d["name"]] = {"exit": code, "sha256": wl.digest(text)}
    for op in wl.search_ops(0, ref):
        if op.name.startswith("G("):
            continue
        res = wl.issue(op)
        out = wl.reduce_outcome(op, res)
        if not wl.witness_is_valid(op.graph, out.witness, out.value):
            raise RuntimeError(f"{op.name}: witness fails the networkx check")
        ref["search"][op.name] = {"status": out.status, "value": out.value}
    with open(wl.REFERENCE_FILE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ============================================================
# Entry point
# ============================================================


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="record this commit's outputs in perfbench/reference.json")
    ap.add_argument("--prepare-verify", metavar="DIR",
                    help="internal: write the verify corpus for --seed into DIR")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(wl.SRC, "kronthick", "__init__.py")):
        print(f"error: no kronthick sources under {wl.SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference()
        return 0
    if args.prepare_verify:
        sys.path.insert(0, wl.SRC)
        manifest = wl.prepare_verify_corpus(args.prepare_verify, args.seed, wl.load_reference())
        with open(os.path.join(args.prepare_verify, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh)
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
