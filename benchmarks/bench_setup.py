"""Build a workload's inputs with the program, in a fresh interpreter.

    python3 benchmarks/bench_setup.py WORKLOAD SEED OUT

Prints the seconds that ``import audioanom.cli`` took. The caller times
the whole process, so set-up time covers interpreter start, import and
building the inputs:

* pipeline-default: nothing beyond the import;
* score: OUT/train, a default pipeline run with this seed; OUT/held, the
  features of a held-out corpus made with another seed; OUT/normal.csv,
  the normal rows of a small corpus made with a fixed seed.
"""

import os
import sys
import time

HELD_OUT_SEED_OFFSET = 100_000
HELD_OUT_PER_CLASS = 50
# The normal-only batch fails on every run (see README), so its rows come
# from a corpus whose seed does not follow the workload seed.
PROBE_SEED = 7_000_001
PROBE_PER_CLASS = 10


def extract_corpus(pl, n_per_class, seed, cfg, out):
    """synth -> preprocess -> extract; the feature set, also saved to
    OUT/features.csv."""
    from audioanom.features import save_featureset
    from audioanom.synthgen import CorpusSpec, generate_corpus

    rows = generate_corpus(CorpusSpec(n_per_class=n_per_class, seed=seed),
                           os.path.join(out, "corpus"))
    seg_dir = os.path.join(out, "segments")
    seg_rows = pl.preprocess_manifest(rows, cfg, seg_dir)
    pl.write_segment_manifest(seg_rows, os.path.join(seg_dir, "segments.csv"))
    features = pl.extract_manifest(seg_rows, cfg)
    save_featureset(features, os.path.join(out, "features.csv"))
    return features


def main(workload, seed, out) -> None:
    start = time.perf_counter()
    import audioanom.cli  # noqa: F401
    print(time.perf_counter() - start)
    if workload == "pipeline-default":
        return
    from audioanom import pipeline as pl
    from audioanom.config import PipelineConfig
    from audioanom.features import save_featureset

    cfg = PipelineConfig(seed=seed).validate()
    pl.run_pipeline(cfg, os.path.join(out, "train"))
    extract_corpus(pl, HELD_OUT_PER_CLASS, seed + HELD_OUT_SEED_OFFSET, cfg,
                   os.path.join(out, "held"))
    probe = extract_corpus(pl, PROBE_PER_CLASS, PROBE_SEED, cfg,
                           os.path.join(out, "probe"))
    normal = [i for i, v in enumerate(probe.vectors) if v.label == "normal"]
    save_featureset(probe.subset(normal), os.path.join(out, "normal.csv"))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
