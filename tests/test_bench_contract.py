"""The names and result shapes that the benchmark under benchmarks/ reads
from the program.

The benchmark traces the program from outside: `bench_trace.Tracer` wraps
the public functions of each module and reads counts from some results
(`FrameMatrix.frames`, `SegmentSet.segments`, a forest's trees), and
`bench_setup.extract_corpus` calls the stepwise pipeline functions by name
and builds its corpus with `synthgen.CorpusSpec(n_per_class=..., seed=...)`.
Its workloads run `audioanom pipeline` and `audioanom evaluate` with the
command lines below. A change that renames one of these, changes such a
result's shape or drops a flag those command lines pass fails here, in the
unit tests, rather than in a benchmark run.
"""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks")
sys.path.insert(0, BENCH)

import bench_setup  # noqa: E402
from bench_trace import PER_LAYER, Tracer  # noqa: E402

from audioanom import evaluate, models, parallel  # noqa: E402
from audioanom import pipeline as pl  # noqa: E402
from audioanom.cli import build_parser  # noqa: E402
from audioanom.config import PipelineConfig  # noqa: E402

N_PER_CLASS = 3


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Per-layer metrics of a traced stepwise run over 3 clips per class:
    extract_corpus as the score workload's set-up calls it, then training,
    saving, loading and evaluating as the workloads do. Functions are looked
    up on their modules, where the tracer has replaced them."""
    out = tmp_path_factory.mktemp("bench_contract")
    cfg = PipelineConfig(n_per_class=N_PER_CLASS, n_trees=3, svm_epochs=2,
                         seed=5).validate()
    tracer = Tracer()
    tracer.install()
    try:
        # the stepwise stages map their clips and rows with pool_map, and a
        # fork worker's spans never reach this tracer: on one CPU they run
        # in-process, where it counts them
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(parallel.os, "sched_getaffinity", lambda pid: {0})
            features = bench_setup.extract_corpus(pl, N_PER_CLASS, cfg.seed,
                                                  cfg, str(out))
        # the call the benchmark's cross-validation check makes
        one_tree = models.train_forest(features, n_trees=1, seed=cfg.seed)
        trained = pl.train_models(features, cfg)
        for name, model in trained.items():
            path = out / f"model_{name}.json"
            models.save_model(model, path)
            report = pl.evaluate_model(models.load_model(path), features,
                                       cfg.to_dict())
            evaluate.emit_report(report, out / f"report_{name}.json")
    finally:
        tracer.uninstall()
    return tracer.summary(), features, one_tree, trained, out


def test_summary_has_every_traced_metric(traced):
    metrics = traced[0]
    # run.py adds the two metrics that are not read from spans
    assert sorted(set(metrics) | {"cli.import_s", "trace.overhead_s"}) \
        == sorted(name for name, _, _ in PER_LAYER)


def test_counts_read_from_results(traced):
    metrics, features, one_tree, trained, out = traced
    rows = len(features.vectors)
    assert metrics["synthgen.clips"] == 2 * N_PER_CLASS
    assert metrics["preprocess.segments"] == rows > 0
    assert metrics["dsp.frames"] > 0
    assert metrics["dsp.frame_signal_calls_per_segment"] == 2
    assert metrics["dsp.power_spectrogram_calls_per_segment"] == 2
    assert metrics["audio_io.write_wav_calls"] == 2 * N_PER_CLASS + rows
    assert metrics["audio_io.read_wav_calls"] == 2 * N_PER_CLASS + rows
    nodes = [len(t["nodes"]) for forest in (one_tree, trained["forest"])
             for t in forest.to_dict()["trees"]]
    assert metrics["models.trees"] == len(nodes) == 4
    assert metrics["models.tree_nodes"] == sum(nodes)
    assert metrics["models.svm_updates"] == 2 * rows
    # one batch per evaluated model
    assert metrics["models.predict_calls"] == 3
    assert metrics["models.rows_per_predict_call"] == rows
    assert metrics["models.model_json_bytes"] == 2 * sum(
        os.path.getsize(out / f"model_{m}.json") for m in trained)
    for name in ("features.save_featureset_s", "evaluate.emit_report_s",
                 "preprocess.spectral_subtract_s", "dsp.power_spectrogram_s"):
        assert metrics[name] > 0, name


def test_stepwise_files_the_benchmark_reads(traced):
    _, features, _, _, out = traced
    assert (out / "features.csv").is_file()
    assert (out / "segments" / "segments.csv").is_file()
    assert len(list((out / "corpus").glob("*.wav"))) == 2 * N_PER_CLASS
    assert len(list((out / "segments").glob("*.wav"))) \
        == len(features.vectors)


@pytest.mark.parametrize("argv", [
    ["pipeline", "--out", "D", "--seed", "7"],
    ["evaluate", "--model", "M", "--test", "T", "--out", "R", "--seed", "7"],
], ids=["pipeline-default", "score"])
def test_cli_takes_the_benchmark_command_lines(argv):
    # the argv shapes of run.py's PipelineDefault.round and Score.round
    args = build_parser(argv[0]).parse_args(argv[1:])
    assert args.cfg_seed == 7
    assert args.out == argv[argv.index("--out") + 1]
