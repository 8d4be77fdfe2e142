#!/usr/bin/env python3
"""audioanom benchmark: two workloads, end-to-end metrics, traced layers.

    env OPENBLAS_NUM_THREADS=1 python3 benchmarks/run.py \\
        --workload pipeline-default --seed 1 --seconds 40 --trace 0

The program is used from the ``src/`` beside this directory as it
stands, without installing it. Set-up builds each workload's inputs with
the program in a fresh interpreter (``bench_setup.py``), several times,
and reports the median as ``setup_s``. The timed part repeats whole
rounds of the workload's operations until their wall times add up to
``--seconds``, in three slices, one after each set-up. The last round's
outputs are then checked against recounts and oracles in
``bench_checks.py``, and every round must have written the same bytes.
The last line of standard output is one JSON object: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of ``bench_trace.py``
with ``--trace 1``. The line before it reports acceptance criterion 5,
which is not gated. Progress and findings go to standard error. See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, BENCH)
import bench_checks as chk  # noqa: E402
from bench_trace import PER_LAYER, Tracer  # noqa: E402

WORKLOADS = ("pipeline-default", "score")
E2E = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
       ("clips_per_s", "clips/s"), ("rows_scored_per_s", "rows/s"),
       ("peak_rss_mb", "MB"), ("artifact_bytes", "bytes")]
MODELS = ("forest", "svm", "ensemble")
N_SETUPS = 3
CV_FOLDS = 5
KNOWN_FAULT = "predicted labels outside [0, 1)"
SAMPLE_ROWS = 4
CHILD_TIMEOUT_S = 150


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def children_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def self_cpu() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def run_child(argv):
    """Run a child to completion; (returncode, stdout, stderr, wall, cpu)."""
    cpu0, t0 = children_cpu(), time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=False)
    return (proc.returncode, proc.stdout, proc.stderr,
            time.perf_counter() - t0, children_cpu() - cpu0)


def set_up(workload, seed, out):
    """Build the inputs in a fresh interpreter; (wall, import seconds)."""
    code, stdout, err, wall, _ = run_child(
        [sys.executable, os.path.join(BENCH, "bench_setup.py"), workload,
         str(seed), out])
    if code != 0:
        raise RuntimeError(f"set-up exited {code}: {err.strip()}")
    return wall, float(stdout)


def source_clips(ids) -> int:
    return len({i.split("_seg")[0] for i in ids})


class Round:
    """What one round of the timed part did. `walls` and `cpus` hold the
    wall and CPU seconds of each of its operations, in a fixed order."""

    def __init__(self, walls, cpus, attempted, failures, clips, rows,
                 out_dir):
        self.walls, self.cpus = walls, cpus
        self.wall = sum(walls)
        self.attempted, self.failures = attempted, failures
        self.clips, self.rows = clips, rows
        self.digest, self.bytes = chk.tree_digest(out_dir)
        self.layers = None


class PipelineDefault:
    """`audioanom pipeline` at the default config, as a child process."""

    in_process = False
    # A round lasts 5-7 s and spans several of the machine's speed phases,
    # so the mean round is steadier than the fastest of the few rounds.
    fastest_ops = False

    def __init__(self, seed, work, inputs):
        self.seed, self.work = seed, work
        self.out = os.path.join(work, "run")

    def round(self, tracer):
        """One CLI run; when `tracer` is set, the child traces itself with
        bench_trace.py and writes its per-layer summary to a file."""
        shutil.rmtree(self.out, ignore_errors=True)
        args = ["pipeline", "--out", self.out, "--seed", str(self.seed)]
        trace_file = os.path.join(self.work, "trace.json")
        argv = ([sys.executable, os.path.join(BENCH, "bench_trace.py"),
                 trace_file, *args] if tracer
                else [sys.executable, "-m", "audioanom.cli", *args])
        code, _, err, wall, cpu = run_child(argv)
        if code != 0:
            return Round([wall], [cpu], 1, [err.strip()], 0, 0, self.out)
        ids, _, _, _ = chk.read_feature_csv(os.path.join(self.out, "test.csv"))
        with open(os.path.join(self.out, "corpus", "manifest.csv")) as fh:
            clips = sum(1 for _ in fh) - 1
        r = Round([wall], [cpu], 1, [], clips, len(MODELS) * len(ids),
                  self.out)
        if tracer:
            with open(trace_file, encoding="utf-8") as fh:
                r.layers = json.load(fh)
        return r

    def check(self):
        out = self.out
        ids, _, names, X = chk.read_feature_csv(
            os.path.join(out, "features.csv"))
        with open(os.path.join(out, "segments.csv")) as fh:
            n_segments = sum(1 for _ in fh) - 1
        chk.require(len(ids) == n_segments,
                    f"{len(ids)} feature rows for {n_segments} segments")
        train_ids = chk.read_feature_csv(os.path.join(out, "train.csv"))[0]
        test_ids, y_test, _, X_test = chk.read_feature_csv(
            os.path.join(out, "test.csv"))
        chk.require(sorted(train_ids + test_ids) == sorted(ids),
                    "train and test do not partition the feature rows")
        accs = check_models(
            {m: os.path.join(out, f"model_{m}.json") for m in MODELS},
            {m: os.path.join(out, f"report_{m}.json") for m in MODELS},
            X_test, y_test, self.seed)
        chk.check_forest_accuracy(accs["forest"], "pipeline")
        check_feature_sample(ids, names, X, os.path.join(out, "segments"),
                             self.seed, "features.csv")
        check_cv_folds(os.path.join(out, "features.csv"), self.seed)
        return criterion_5(accs, "pipeline test split")


class Score:
    """`audioanom evaluate` of each saved model on a held-out feature table
    and on a normal-only batch, through the CLI entry point in-process."""

    in_process = True
    # An operation lasts 5-75 ms, so each one meets the machine's fast
    # phases many times in a run, and its fastest time is the steadiest.
    fastest_ops = True

    def __init__(self, seed, work, inputs):
        from audioanom import cli as cli_module
        self.seed, self.cli = seed, cli_module
        self.inputs = inputs
        self.out = os.path.join(work, "reports")
        self.models = {m: os.path.join(inputs, "train", f"model_{m}.json")
                       for m in MODELS}
        self.batches = {"whole": os.path.join(inputs, "held", "features.csv"),
                        "normal": os.path.join(inputs, "normal.csv")}
        self.batch_ids = {b: chk.read_feature_csv(p)[0]
                          for b, p in self.batches.items()}

    def round(self, tracer):
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)
        failures, done, walls, cpus = [], [], [], []
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            for m, model in self.models.items():
                for b, batch in self.batches.items():
                    mark = sink.tell()
                    cpu0, t0 = self_cpu(), time.perf_counter()
                    code = self.cli.main([
                        "evaluate", "--model", model, "--test", batch,
                        "--out", os.path.join(self.out, f"{m}_{b}.json"),
                        "--seed", str(self.seed)])
                    walls.append(time.perf_counter() - t0)
                    cpus.append(self_cpu() - cpu0)
                    if code == 0:
                        done.append(b)
                    else:
                        failures.append(f"{m} {b}: "
                                        + sink.getvalue()[mark:].strip())
        ids = [self.batch_ids[b] for b in done]
        return Round(walls, cpus, len(self.models) * len(self.batches),
                     failures,
                     sum(map(source_clips, ids)), sum(map(len, ids)), self.out)

    def check(self):
        ids, labels, names, X = chk.read_feature_csv(self.batches["whole"])
        accs = check_models(
            self.models,
            {m: os.path.join(self.out, f"{m}_whole.json") for m in MODELS},
            X, labels, self.seed)
        chk.check_forest_accuracy(accs["forest"], "held-out table")
        check_feature_sample(ids, names, X,
                             os.path.join(self.inputs, "held", "segments"),
                             self.seed, "held-out table")
        return criterion_5(accs, "held-out table")


def check_models(model_paths, report_paths, X, labels, seed) -> dict:
    """Recount each report from a walk of its model JSON, and compare the
    program's probabilities on sample rows with that walk. Returns the
    recounted accuracies."""
    from audioanom.models import load_model
    rng = random.Random(seed)
    accs = {}
    for m in MODELS:
        d = chk.read_json(model_paths[m])
        accs[m] = chk.check_report(chk.read_json(report_paths[m]),
                                   d["class_names"], labels,
                                   chk.predicted_names(d, X), f"report {m}")
        sample = sorted(rng.sample(range(len(X)), SAMPLE_ROWS))
        chk.check_probabilities(
            d, X[sample],
            program_proba(load_model(model_paths[m]), d["feature_names"],
                          X[sample]), f"model {m}")
        if m != "svm":
            chk.check_importances(d, f"model {m}")
    return accs


def check_feature_sample(ids, names, X, segment_dir, seed, what) -> None:
    sample = sorted(random.Random(seed).sample(range(len(ids)), SAMPLE_ROWS))
    chk.check_feature_rows(
        names, X[sample],
        [os.path.join(segment_dir, ids[r] + ".wav") for r in sample], what)


def check_cv_folds(features_csv, seed) -> None:
    """Run the program's 5-fold cross_validate on the feature table with a
    one-tree forest, and check its folds from the rows each fold trains
    on."""
    from audioanom.evaluate import cross_validate
    from audioanom.features import load_featureset
    from audioanom.models import train_forest

    data = load_featureset(features_csv)
    train_sets = []

    def trainer(train):
        train_sets.append([v.clip_id for v in train.vectors])
        return train_forest(train, n_trees=1, seed=seed)

    cross_validate(data, CV_FOLDS, trainer, seed=seed)
    chk.check_cv_folds([v.clip_id for v in data.vectors], train_sets,
                       "cross_validate")


def criterion_5(accs, where) -> dict:
    """Acceptance criterion 5 (ensemble within 0.02 of its best member).
    It is reported, not gated: the program fails it on some seeds."""
    margin = chk.ensemble_margin(accs)
    ok = margin >= -chk.ENSEMBLE_MARGIN
    log(f"accuracy on {where}: "
        + ", ".join(f"{m} {a:.4f}" for m, a in accs.items())
        + f"; ensemble minus best member {margin:+.4f}"
        + ("" if ok else " (criterion 5 not met)"))
    return {"where": where, "accuracy": accs, "margin": margin, "ok": ok}


def program_proba(model, names, X) -> list:
    """The program's own probabilities for the rows of X."""
    from audioanom.features import FeatureVector
    from audioanom.models import predict_proba
    return [predict_proba(model, FeatureVector(tuple(names), x, clip_id=""))
            for x in X]


def traced_round(workload, tracer):
    if not workload.in_process:
        return workload.round(tracer)
    tracer.clear()
    tracer.install()
    try:
        r = workload.round(tracer)
    finally:
        tracer.uninstall()
    r.layers = tracer.summary()
    return r


def per_round(times, fastest_ops) -> float:
    """Seconds per round from each round's per-operation seconds: the sum
    of each operation's fastest time, or the mean over the rounds. Every
    round runs the same operations on the same inputs."""
    if fastest_ops:
        return sum(map(min, zip(*times)))
    return sum(map(sum, times)) / len(times)


def measure(workload, tracer, rounds, until) -> None:
    """Append rounds to `rounds` until their wall times add up to `until`
    seconds. With a tracer, rounds come in pairs of one untraced and one
    traced round, taking turns at going first, so that both kinds see the
    same phases of the machine; only whole pairs are run."""
    while not rounds or sum(r.wall for r in rounds) < until:
        if tracer is None:
            rounds.append(workload.round(None))
            continue
        pair = [workload.round(None), traced_round(workload, tracer)]
        if len(rounds) % 4:
            pair.reverse()
        rounds.extend(pair)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "audioanom", "cli.py")):
        log(f"no audioanom sources under {SRC}")
        return 2

    # SIGTERM unwinds like an exception: subprocess.run kills its child and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work) -> int:
    seed = args.seed
    sys.path.insert(0, SRC)
    cls = {"pipeline-default": PipelineDefault, "score": Score}[args.workload]
    tracer = Tracer() if args.trace else None
    setups, imports, digests, rounds = [], [], set(), []
    # Each set-up is followed by a third of the timed part, so that the
    # timed rounds spread over the whole run and see more of the machine's
    # speed phases than one block of `--seconds` would. The rounds use the
    # inputs of the first set-up.
    for i in range(N_SETUPS):
        inputs = os.path.join(work, f"setup{i}")
        os.makedirs(inputs)
        wall, import_s = set_up(args.workload, seed, inputs)
        setups.append(wall)
        imports.append(import_s)
        digests.add(chk.tree_digest(inputs)[0])
        if i == 0:
            workload = cls(seed, work, inputs)
        else:
            shutil.rmtree(inputs)
        measure(workload, tracer, rounds, args.seconds * (i + 1) / N_SETUPS)
    log(f"set-up: {', '.join(f'{s:.3f}' for s in setups)} s")
    peak_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF if workload.in_process
        else resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0

    correct, crit5 = True, None
    try:
        chk.require(len(digests) == 1,
                    f"{N_SETUPS} set-ups with one seed built different inputs")
        chk.require(len({r.digest for r in rounds}) == 1,
                    "rounds with one seed wrote different artifacts")
        failures = [f for r in rounds for f in r.failures]
        for f in sorted(set(failures)):
            log(f"failed {failures.count(f)} times: {f}")
        unexpected = [f for f in failures if KNOWN_FAULT not in f]
        chk.require(not unexpected, f"unexpected failure: {unexpected[:1]}")
        crit5 = workload.check()
    except chk.CheckFailed as exc:
        log(f"CHECK FAILED: {exc}")
        correct = False
    log(f"{len(rounds)} rounds of "
        + ", ".join(f"{r.wall:.3f}" for r in rounds)
        + f" s; artifact digest {rounds[0].digest}")

    median = statistics.median
    if args.trace:
        traced = [r for r in rounds if r.layers is not None]
        layers = {name: median([r.layers.get(name, 0.0) for r in traced])
                  for name, _, _ in PER_LAYER}
        layers["cli.import_s"] = median(imports)
        # each pair is (untraced, traced) in one order or the other
        layers["trace.overhead_s"] = median(
            (b.wall - a.wall) if b.layers is not None else (a.wall - b.wall)
            for a, b in zip(rounds[::2], rounds[1::2]))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        # Seconds per round, never the median round: the machine's speed
        # changes in phases, and the median round jumps from one phase's
        # speed to another's (see README.md).
        wall = per_round([r.walls for r in rounds], workload.fastest_ops)
        last = rounds[-1]
        values = {
            "setup_s": median(setups),
            "wall_s": wall,
            "cpu_s": per_round([r.cpus for r in rounds],
                               workload.fastest_ops),
            "clips_per_s": last.clips / wall,
            "rows_scored_per_s": last.rows / wall,
            "peak_rss_mb": peak_rss_mb,
            "artifact_bytes": median([r.bytes for r in rounds]),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E}
    # criterion 5 on the line before the result, for compare.py
    print(json.dumps({"criterion_5": crit5}))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(len(r.failures) for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
