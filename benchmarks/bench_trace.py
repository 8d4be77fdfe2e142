"""Span tracing of audioanom from outside the program.

``Tracer.install()`` replaces every public module-level function of the
traced modules with a wrapper that records a span (name, start, end,
parent) and, for some functions, a few counts taken from the arguments or
the result. The replacement is made in every loaded ``audioanom`` module
that holds a reference, so ``from .x import f`` bindings are traced too.
Spans stay in memory until ``summary()`` turns them into per-layer metrics.

Run as a script, it traces one CLI invocation and writes the summary:

    python3 benchmarks/bench_trace.py SUMMARY.json pipeline --out run/
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

MODULES = ("synthgen", "audio_io", "preprocess", "dsp", "features", "models",
           "evaluate", "pipeline", "cli")

# stage of pipeline.run_pipeline -> spans directly under it that make it up
STAGES = {
    "synth": ("synthgen.generate_corpus",),
    "preprocess": ("pipeline.preprocess_manifest",),
    "extract": ("pipeline.extract_manifest",),
    "split": ("evaluate.stratified_split",),
    "train": ("pipeline.train_models",),
    "evaluate": ("pipeline.evaluate_model",),
    "serialize": ("features.save_featureset", "models.save_model",
                  "evaluate.emit_report", "pipeline.write_segment_manifest",
                  "synthgen.write_manifest"),
}

# (metric, unit, better) in the order BENCHMARK.json lists them
PER_LAYER = [
    *[(f"pipeline.{s}_s", "s", "lower") for s in STAGES],
    ("pipeline.self_s", "s", "lower"),
    ("synthgen.clips", "count", "higher"),
    ("synthgen.samples", "count", "higher"),
    ("audio_io.read_wav_s", "s", "lower"),
    ("audio_io.read_wav_calls", "count", "lower"),
    ("audio_io.write_wav_s", "s", "lower"),
    ("audio_io.write_wav_calls", "count", "lower"),
    ("audio_io.bytes_read", "bytes", "lower"),
    ("audio_io.bytes_written", "bytes", "lower"),
    ("audio_io.resample_linear_s", "s", "lower"),
    ("preprocess.estimate_noise_profile_s", "s", "lower"),
    ("preprocess.spectral_subtract_s", "s", "lower"),
    ("preprocess.normalize_s", "s", "lower"),
    ("preprocess.segment_s", "s", "lower"),
    ("preprocess.profile_skips", "count", "lower"),
    ("preprocess.segments", "count", "higher"),
    ("dsp.frame_signal_s", "s", "lower"),
    ("dsp.frame_signal_calls_per_segment", "calls/segment", "lower"),
    ("dsp.power_spectrogram_s", "s", "lower"),
    ("dsp.power_spectrogram_calls_per_segment", "calls/segment", "lower"),
    ("dsp.frames", "count", "lower"),
    ("features.extract_clip_features_s", "s", "lower"),
    ("features.ms_per_segment", "ms", "lower"),
    ("features.mfcc_s", "s", "lower"),
    ("features.mel_filterbank_s", "s", "lower"),
    ("features.mel_filterbank_calls", "count", "lower"),
    ("features.zero_crossing_rate_s", "s", "lower"),
    ("features.zero_crossing_rate_calls", "count", "lower"),
    ("features.spectral_centroid_s", "s", "lower"),
    ("features.spectral_centroid_calls", "count", "lower"),
    ("features.save_featureset_s", "s", "lower"),
    ("features.load_featureset_s", "s", "lower"),
    ("models.train_forest_s", "s", "lower"),
    ("models.trees", "count", "higher"),
    ("models.tree_nodes", "count", "lower"),
    ("models.train_svm_s", "s", "lower"),
    ("models.svm_updates", "count", "lower"),
    ("models.predict_s", "s", "lower"),
    ("models.predict_calls", "count", "lower"),
    ("models.rows_per_predict_call", "rows/call", "higher"),
    ("models.load_model_s", "s", "lower"),
    ("models.save_model_s", "s", "lower"),
    ("models.model_json_bytes", "bytes", "lower"),
    ("evaluate.stratified_split_s", "s", "lower"),
    ("evaluate.confusion_matrix_s", "s", "lower"),
    ("evaluate.metrics_s", "s", "lower"),
    ("evaluate.emit_report_s", "s", "lower"),
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
]


def _size(path) -> int:
    return os.path.getsize(path)


def _rows(x) -> int:
    """Rows in a FeatureSet, a FeatureVector or a feature matrix."""
    if hasattr(x, "vectors"):
        return len(x.vectors)
    shape = getattr(getattr(x, "values", x), "shape", ())
    return shape[0] if len(shape) == 2 else 1


def _forest_nodes(forest) -> int:
    return sum(len(t["nodes"]) for t in forest.to_dict()["trees"])


# name -> hook(args, kwargs, result) giving the counts a span records
HOOKS = {
    "synthgen.generate_corpus": lambda a, k, r: {"clips": len(r)},
    "audio_io.read_wav": lambda a, k, r: {"bytes": _size(a[0])},
    "audio_io.write_wav": lambda a, k, r: {"bytes": _size(a[1]),
                                           "samples": len(a[0])},
    "preprocess.segment": lambda a, k, r: {"segments": len(r.segments)},
    "dsp.frame_signal": lambda a, k, r: {"frames": r.frames.shape[0]},
    "models.train_forest": lambda a, k, r: {"trees": len(r.trees),
                                            "nodes": _forest_nodes(r)},
    "models.train_svm": lambda a, k, r: {"updates": r.epochs * _rows(a[0])},
    "models.predict_proba": lambda a, k, r: {"rows": _rows(a[1])},
    "models.save_model": lambda a, k, r: {"bytes": _size(a[1])},
    "models.load_model": lambda a, k, r: {"bytes": _size(a[0])},
}


class Tracer:
    def __init__(self):
        # span: [name, start, end, parent index or -1, counts or None]
        self.spans = []
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                span[4] = {"error": type(exc).__name__}
                raise
            else:
                span[2] = clock()
                if hook is not None:
                    span[4] = hook(args, kwargs, result)
                return result
            finally:
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        targets = {}
        for short in MODULES:
            mod = importlib.import_module(f"audioanom.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (
                        obj, self._wrap(f"{short}.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname != "audioanom" and not modname.startswith("audioanom."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in targets and targets[id(obj)][0] is obj:
                    setattr(mod, attr, targets[id(obj)][1])
                    self._patched.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()

    def clear(self) -> None:
        self.spans.clear()

    def summary(self) -> dict:
        """Per-layer metrics over the spans recorded since the last clear."""
        spans = self.spans
        total, calls, child = {}, {}, [0.0] * len(spans)
        counts = {}
        for i, (name, start, end, parent, extra) in enumerate(spans):
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child[parent] += dur
            for key, value in (extra or {}).items():
                if key == "error":
                    key, value = f"error.{value}", 1
                counts[(name, key)] = counts.get((name, key), 0) + value

        def t(name):
            return total.get(name, 0.0)

        def c(name, key=None):
            if key is None:
                return calls.get(name, 0)
            return counts.get((name, key), 0)

        stage = dict.fromkeys(STAGES, 0.0)
        self_s = 0.0
        stage_of = {n: s for s, names in STAGES.items() for n in names}
        synth_samples = 0
        roots = {i for i, s in enumerate(spans)
                 if s[0] == "pipeline.run_pipeline"}
        for i, (name, start, end, parent, extra) in enumerate(spans):
            if i in roots:
                self_s += end - start - child[i]
            elif parent in roots and name in stage_of:
                stage[stage_of[name]] += end - start
            if (name == "audio_io.write_wav" and parent >= 0
                    and spans[parent][0] == "synthgen.generate_corpus"):
                synth_samples += (extra or {}).get("samples", 0)

        segments = c("features.extract_clip_features")
        predict_calls = c("models.predict_proba")
        m = {f"pipeline.{s}_s": v for s, v in stage.items()}
        m.update({
            "pipeline.self_s": self_s,
            "synthgen.clips": c("synthgen.generate_corpus", "clips"),
            "synthgen.samples": synth_samples,
            "audio_io.read_wav_s": t("audio_io.read_wav"),
            "audio_io.read_wav_calls": c("audio_io.read_wav"),
            "audio_io.write_wav_s": t("audio_io.write_wav"),
            "audio_io.write_wav_calls": c("audio_io.write_wav"),
            "audio_io.bytes_read": c("audio_io.read_wav", "bytes"),
            "audio_io.bytes_written": c("audio_io.write_wav", "bytes"),
            "audio_io.resample_linear_s": t("audio_io.resample_linear"),
            "preprocess.estimate_noise_profile_s":
                t("preprocess.estimate_noise_profile"),
            "preprocess.spectral_subtract_s":
                t("preprocess.spectral_subtract"),
            "preprocess.normalize_s": t("preprocess.normalize"),
            "preprocess.segment_s": t("preprocess.segment"),
            "preprocess.profile_skips": c("preprocess.estimate_noise_profile",
                                          "error.TooShortForProfile"),
            "preprocess.segments": c("preprocess.segment", "segments"),
            "dsp.frame_signal_s": t("dsp.frame_signal"),
            "dsp.frame_signal_calls_per_segment":
                c("dsp.frame_signal") / segments if segments else 0.0,
            "dsp.power_spectrogram_s": t("dsp.power_spectrogram"),
            "dsp.power_spectrogram_calls_per_segment":
                c("dsp.power_spectrogram") / segments if segments else 0.0,
            "dsp.frames": c("dsp.frame_signal", "frames"),
            "features.extract_clip_features_s":
                t("features.extract_clip_features"),
            "features.ms_per_segment":
                1e3 * t("features.extract_clip_features") / segments
                if segments else 0.0,
            "models.trees": c("models.train_forest", "trees"),
            "models.tree_nodes": c("models.train_forest", "nodes"),
            "models.svm_updates": c("models.train_svm", "updates"),
            "models.predict_s": t("models.predict_proba"),
            "models.predict_calls": predict_calls,
            "models.rows_per_predict_call":
                c("models.predict_proba", "rows") / predict_calls
                if predict_calls else 0.0,
            "models.model_json_bytes": (c("models.save_model", "bytes")
                                        + c("models.load_model", "bytes")),
            "trace.spans": len(spans),
        })
        for fn in ("mfcc", "mel_filterbank", "zero_crossing_rate",
                   "spectral_centroid", "save_featureset", "load_featureset"):
            m[f"features.{fn}_s"] = t(f"features.{fn}")
        for fn in ("mel_filterbank", "zero_crossing_rate",
                   "spectral_centroid"):
            m[f"features.{fn}_calls"] = c(f"features.{fn}")
        for fn in ("train_forest", "train_svm", "load_model", "save_model"):
            m[f"models.{fn}_s"] = t(f"models.{fn}")
        for fn in ("stratified_split", "confusion_matrix", "metrics",
                   "emit_report"):
            m[f"evaluate.{fn}_s"] = t(f"evaluate.{fn}")
        return m


def main(argv) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    from audioanom import cli
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
