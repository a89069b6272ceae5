"""koafusion benchmark: one workload per call, closed loop, one client.

    python3 bench/run.py --workload t2_study --seed 0 --seconds 30 --trace 0

``--trace 0`` sets the workload up several times, then repeats timed passes
for about ``--seconds`` and reports the end-to-end metrics named in
BENCHMARK.json (medians over set-ups and passes).  ``--trace 1`` sets up
once under the tracer, runs one untraced and one traced pass, checks that
both give the same outputs, replays the recorded encoder convolutions and
reports the per-layer metrics.  ``--workload all`` runs every workload in
turn, each in its own child process.

Every pass is checked; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run whose
checks fail still prints it, with ``correct`` false, and exits 1.  Details
(environment, every pass, every check) go to ``.bench_out/`` in the
checkout, and a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"
BLAS_THREADS = 1
SETUP_REPEATS = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _environment(seed) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    sha = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        sha = res.stdout.strip() or None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _untraced(wl, seed, seconds, workdir):
    setup_times = []
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous inputs before building the next
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    # As many passes as the first one says fit in ``seconds``: a count that
    # does not flip with noise, because a later pass in the same process can
    # run some percent slower than the first (its heap has grown).
    passes = [wl.run(state)]
    peak_rss_mb = _peak_rss_mb()  # set-up plus one pass: what one study run needs
    n_passes = max(1, round(seconds / passes[0].run_s))
    while len(passes) < n_passes and not passes[-1].failed:
        passes.append(wl.run(state))
    errors = []
    for i, p in enumerate(passes):
        errors += [f"pass {i}: {e}" for e in wl.check(p)]
        if i and not p.failed and not passes[0].failed and not wl.same(passes[0], p):
            errors.append(f"pass {i}: outputs differ from pass 0")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "run_s": statistics.median(p.run_s for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    details = {"setup_s": setup_times}
    return passes, errors, metrics, details


def _traced(wl, seed, workdir):
    import probes
    from tracer import Tracer

    tracer = Tracer()
    setup_probes = probes.Probes(tracer)
    setup_probes.install()
    try:
        state = wl.setup(seed, workdir)
    finally:
        tracer.unwrap()
    setup_spans = list(tracer.spans)

    untraced = wl.run(state)
    mark = len(tracer.spans)
    pass_probes = probes.Probes(tracer)
    pass_probes.install()
    try:
        traced = wl.run(state)
    finally:
        tracer.unwrap()
    pass_spans = tracer.spans[mark:]

    passes = [untraced, traced]
    errors = []
    for name, p in (("untraced", untraced), ("traced", traced)):
        errors += [f"{name} pass: {e}" for e in wl.check(p)]
    if not (untraced.failed or traced.failed) and not wl.same(untraced, traced):
        errors.append("traced pass outputs differ from the untraced pass")

    metrics = probes.layer_metrics(tracer, pass_spans, pass_probes, traced.run_s, setup_spans, setup_probes)
    proto, stages = pass_probes.first_encoder()
    replay = probes.replay_conv2d(stages)
    for i in range(3):
        for kind in ("fwd", "bwd"):
            key = f"diffcore.conv2d.stage{i}.{kind}_ms"
            metrics[key] = replay.get(key, 0.0)
    metrics["evaluation.heldout_auc"] = untraced.outputs.get("heldout_auc", 0.0)
    for phase in ("eval_s", "ablate_s", "baseline_s"):  # cli_eval's command phases
        metrics[f"cli.{phase}"] = untraced.phases.get(phase, 0.0)
    metrics["trace.overhead_ratio"] = traced.run_s / untraced.run_s - 1.0
    predictions = {f"{name} == 0": metrics[name] == 0 for name in wl.bypassed}
    predictions["trace.coverage >= 0.95"] = metrics["trace.coverage"] >= 0.95
    details = {"predictions": predictions, "self_s_by_layer": probes.self_by_layer(tracer, pass_spans),
               "replayed_encoder": proto, "conv_shapes": {k: list(map(list, v[:2])) + list(v[2:])
                                                          for k, v in pass_probes.conv_shapes.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl", {"setup": setup_spans, "pass": pass_spans})
    return passes, errors, metrics, details


def _run_one(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    if not (ROOT / "src" / "koafusion" / "__init__.py").is_file():
        print(f"error: no koafusion sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    spec = _spec()
    wl = WORKLOADS[args.workload]()
    env = _environment(args.seed)
    workdir = WORK_DIR / f"{wl.name}-seed{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            passes, errors, values, details = _traced(wl, args.seed, workdir)
            wanted = spec["per_layer"]
        else:
            passes, errors, values, details = _untraced(wl, args.seed, args.seconds, workdir)
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        errors.append(f"metrics not measured: {missing}")
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}

    print(f"{wl.name}: environment {json.dumps(env)}")
    for i, p in enumerate(passes):
        phases = ", ".join(f"{k} {v:.3f}" for k, v in p.phases.items())
        auc = p.outputs.get("heldout_auc")
        auc_text = f", heldout_auc {auc:.3f}" if auc is not None else ""
        print(f"{wl.name} seed {args.seed} pass {i}: run_s {p.run_s:.3f} ({phases}){auc_text}")
    if not args.trace:
        print(f"{wl.name}: error_rate {failed / attempted if attempted else 0.0:.3f} ({failed}/{attempted} operations)")
    for name, m in metrics.items():
        print(f"{wl.name}: {name} {m['value']:.6g} {m['unit']}")
    if "self_s_by_layer" in details:
        layers = ", ".join(f"{k} {v:.3f}" for k, v in details["self_s_by_layer"].items())
        print(f"{wl.name}: traced self time by layer (s): {layers}")
    for claim, holds in details.get("predictions", {}).items():
        print(f"{wl.name}: prediction {claim}: {'holds' if holds else 'does not hold'}")
    for e in errors:
        print(f"{wl.name}: CHECK FAILED: {e}")

    correct = not errors and failed == 0
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": wl.name, "trace": args.trace, "seconds": args.seconds, "environment": env,
        "passes": [{"run_s": p.run_s, "cpu_s": p.cpu_s, "phases": p.phases, "attempted": p.attempted, "failed": p.failed}
                   for p in passes],
        "checks_failed": errors, "details": details, "metrics": metrics,
    }
    (OUT_DIR / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=2))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def _run_all(args) -> int:
    """Run each workload in a child process; the last line merges their results."""
    names = [w["name"] for w in _spec()["workloads"]]
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        res = subprocess.run(argv, capture_output=True, text=True, timeout=600)
        lines = res.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(res.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {res.returncode})")
            return 1
        merged["correct"] &= result["correct"] and res.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=["t2_study", "fusion_train", "cli_eval", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT / 'BENCHMARK.json'} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
