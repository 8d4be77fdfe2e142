"""Command-line interface.

Subcommands: synth, preprocess, extract, train, evaluate, pipeline, render.
Exit codes follow the error's class alone: 0 success, 1 AudioAnomError,
OSError or MemoryError, 2 ConfigError or usage error. AUDIOANOM_CONFIG names a
default config file, --config replaces it, and flags override file values. A
command has a flag for each config field its stages read, and no others.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import shutil
import sys
import tempfile

import numpy as np

from . import pipeline as pl
from .audio_io import read_wav, resample_linear
from .config import FIELD_TYPES, PipelineConfig
from .dsp import LOG_FLOOR, frame_signal, power_spectrogram
from .errors import AudioAnomError, ConfigError, SignalTooShort
from .evaluate import emit_report
from .features import load_featureset, save_featureset
from .files import read_json, write_bytes, write_csv
from .models import load_model, save_model
from .synthgen import generate_corpus, load_manifest

CONFIG_ENV = "AUDIOANOM_CONFIG"

SPECTROGRAM_DB_MIN = -80.0
SPECTROGRAM_DB_MAX = 0.0


def _load_config(args) -> PipelineConfig:
    path = args.config or os.environ.get(CONFIG_ENV)
    values = read_json(path, ConfigError) if path else {}
    if not isinstance(values, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    for name in FIELD_TYPES:
        value = getattr(args, f"cfg_{name}", None)
        if value is not None:
            values[name] = value
    return PipelineConfig.from_dict(values)


def _moves(stage, out):
    """(staged, target) pairs putting stage's entries into out, a directory
    into out's own of its name; FileExistsError where file and dir clash."""
    for name in os.listdir(stage):
        src, dst = os.path.join(stage, name), os.path.join(out, name)
        if os.path.isdir(src) and os.path.isdir(dst):
            yield from _moves(src, dst)
        elif os.path.isdir(dst) or os.path.isdir(src) and os.path.lexists(dst):
            raise FileExistsError(f"{src}: a file and a directory clash")
        else:
            yield src, dst


@contextlib.contextmanager
def _staged(out, one_file=False):
    """Yield a fresh staging directory inside out, made if missing; with
    one_file, the path of file out in a staging directory beside it. On
    success the staged files replace those of their names in out, and
    nothing else there changes. On any exception the stage goes, or every
    directory made for a fresh out, and an AudioAnomError or OSError names
    out where it named the stage."""
    base = os.path.dirname(out) if one_file else out
    made, path = None, os.path.abspath(base)   # the outermost dir to make
    while not os.path.lexists(path):
        path, made = os.path.dirname(path), path
    os.makedirs(base or os.curdir, exist_ok=True)
    stage = tempfile.mkdtemp(prefix=".staging-", dir=base or os.curdir)
    try:
        yield os.path.join(stage, os.path.basename(out)) if one_file else stage
        for src, dst in list(_moves(stage, base)):   # all checked first
            os.replace(src, dst)
    except BaseException as exc:
        shutil.rmtree(made or stage, ignore_errors=True)
        if isinstance(exc, (AudioAnomError, OSError)):
            old, new = os.path.join(stage, ""), os.path.join(base, "")
            def fix(x):
                return x.replace(old, new) if isinstance(x, str) else x
            exc.args = tuple(map(fix, exc.args))
            if isinstance(exc, OSError) and exc.filename is not None:
                exc.filename = fix(exc.filename)
        raise
    shutil.rmtree(stage)


def cmd_synth(cfg, args, out) -> str:
    rows = generate_corpus(cfg, out)
    return f"wrote {len(rows)} clips to {args.out}"


def cmd_preprocess(cfg, args, out) -> str:
    seg_rows = pl.preprocess_manifest(load_manifest(args.manifest), cfg, out)
    pl.write_segment_manifest(seg_rows, os.path.join(out, "segments.csv"))
    return f"wrote {len(seg_rows)} segments to {args.out}"


def cmd_extract(cfg, args, out) -> str:
    features = pl.extract_manifest(load_manifest(args.manifest), cfg)
    save_featureset(features, out)
    return f"wrote {len(features.vectors)} feature rows to {args.out}"


def cmd_train(cfg, args, out) -> str:
    models = pl.train_models(load_featureset(args.features), cfg)
    for name, model in models.items():
        save_model(model, os.path.join(out, f"model_{name}.json"))
    return f"wrote forest/svm/ensemble models to {args.out}"


def cmd_evaluate(cfg, args, out) -> str:
    model = load_model(args.model)
    test = load_featureset(args.test)
    echo = {name: getattr(cfg, name) for name in CONFIG_READS["evaluate"]}
    report = pl.evaluate_model(model, test, echo)
    emit_report(report, out)
    return f"accuracy {report.accuracy:.4f} -> {args.out}"


def cmd_pipeline(cfg, args, out) -> str:
    """Its summary lists each report path under args.out, not the stage."""
    paths = pl.run_pipeline(cfg, out)
    return "\n".join([f"pipeline complete; reports in {args.out}"] + [
        f"  {key}: {os.path.join(args.out, os.path.relpath(paths[key], out))}"
        for key in sorted(paths)])


def _write_pgm(path, pixels: np.ndarray) -> None:
    h, w = pixels.shape
    write_bytes(path, f"P5\n{w} {h}\n255\n".encode("ascii"),
                pixels.astype(np.uint8).tobytes())


def cmd_render(cfg, args, out) -> str:
    buf = resample_linear(read_wav(args.clip), cfg.sample_rate)
    if args.kind != "waveform":
        fm = frame_signal(buf, cfg.frame_len, cfg.hop)
        if not len(fm.frames):
            raise SignalTooShort(f"{args.clip}: need at least {cfg.frame_len} "
                                 f"samples for a {args.kind}, got {len(buf)}")
        power = power_spectrogram(fm, cfg.n_fft)
    if args.kind == "waveform":
        write_csv(out, ["time_s", "amplitude"],
                  ((f"{i / buf.sample_rate:.6f}", f"{x:.8f}")
                   for i, x in enumerate(buf.samples)))
    elif args.kind == "spectrum":
        power_db = 10.0 * np.log10(power.mean(axis=0) + LOG_FLOOR)
        write_csv(out, ["freq_hz", "power_db"],
                  ((f"{k * cfg.sample_rate / cfg.n_fft:.4f}", f"{p:.4f}")
                   for k, p in enumerate(power_db)))
    else:  # spectrogram
        db = np.clip(10.0 * np.log10(power + LOG_FLOOR),
                     SPECTROGRAM_DB_MIN, SPECTROGRAM_DB_MAX)
        scaled = ((db - SPECTROGRAM_DB_MIN)
                  / (SPECTROGRAM_DB_MAX - SPECTROGRAM_DB_MIN))
        pixels = np.round(scaled * 255.0)
        # rows = frequency with bin 0 at the bottom; columns = time
        _write_pgm(out, pixels.T[::-1, :])
    return f"wrote {args.kind} to {args.out}"


# command -> (function, help line, its own flags, whether --out is one file);
# each own flag is required. main loads the config, stages --out through
# _staged, calls function(cfg, args, staged out) and prints what it returns.
COMMANDS = {
    "synth": (cmd_synth, "generate the synthetic corpus", ("--out",), False),
    "preprocess": (cmd_preprocess, "denoise, normalize, segment",
                   ("--manifest", "--out"), False),
    "extract": (cmd_extract, "extract clip features to CSV",
                ("--manifest", "--out"), True),
    "train": (cmd_train, "train forest, SVM, and ensemble",
              ("--features", "--out"), False),
    "evaluate": (cmd_evaluate, "evaluate a model on a feature CSV",
                 ("--model", "--test", "--out"), True),
    "pipeline": (cmd_pipeline, "run the whole chain end to end", ("--out",),
                 False),
    "render": (cmd_render, "emit waveform/spectrum CSV or spectrogram PGM",
               ("--clip", "--kind", "--out"), True),
}
RENDER_KINDS = ("waveform", "spectrogram", "spectrum")
# command -> the PipelineConfig fields its stages read, each a flag of it;
# a config file may hold every field
CONFIG_READS = {
    "synth": ("sample_rate", "clip_s", "n_per_class", "seed", "snr_db",
              "jitter_sigma_hz"),
    "preprocess": ("sample_rate", "lead_ms", "n_fft", "alpha", "beta",
                   "normalize_mode", "normalize_target", "seg_len_s",
                   "pad_policy"),
    "extract": ("sample_rate", "frame_len", "hop", "n_fft", "n_mels",
                "n_coeffs", "fmin", "fmax", "pre_emphasis"),
    "train": ("n_trees", "mtry", "max_depth", "min_samples_leaf",
              "svm_lambda", "svm_epochs", "forest_weight", "svm_weight",
              "seed"),
    "evaluate": ("seed",),
    "pipeline": tuple(name for name in FIELD_TYPES if name != "version"),
    "render": ("sample_rate", "frame_len", "hop", "n_fft"),
}


def _command_parser() -> argparse.ArgumentParser:
    """Reads only the command name; main builds it for --help and for a
    first argument that is not a command."""
    listing = "\n".join(f"  {name:<11} {help_line}"
                        for name, (_, help_line, *_) in COMMANDS.items())
    parser = argparse.ArgumentParser(
        prog="audioanom", usage="audioanom <command> [flags]",
        description="Audio anomaly detection pipeline: synthesize, "
                    "preprocess, featurize, train, evaluate, render.",
        epilog=f"commands:\n{listing}\n\n"
               "'audioanom <command> --help' lists a command's flags.",
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("command", choices=COMMANDS, metavar="<command>",
                        help="one of the commands below")
    return parser


def build_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one command: its own flags and its config flags."""
    _, help_line, flags, _ = COMMANDS[command]
    parser = argparse.ArgumentParser(prog=f"audioanom {command}",
                                     description=help_line)
    for flag in flags:
        parser.add_argument(flag, required=True,
                            choices=RENDER_KINDS if flag == "--kind" else None)
    parser.add_argument("--config", help="path to a JSON config file "
                        f"(default: ${CONFIG_ENV})")
    group = parser.add_argument_group("config overrides")
    for name in CONFIG_READS[command]:
        group.add_argument(f"--{name.replace('_', '-')}", dest=f"cfg_{name}",
                           type=FIELD_TYPES[name][0], default=None,
                           metavar="V")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    command = argv[0] if argv and argv[0] in COMMANDS \
        else _command_parser().parse_args(argv[:1]).command
    args = build_parser(command).parse_args(argv[1:])
    run, _, _, one_file = COMMANDS[command]
    try:
        cfg = _load_config(args)
        with _staged(args.out, one_file) as out:
            message = run(cfg, args, out)
        print(message)
        return 0
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AudioAnomError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:   # such as numpy refusing a huge array
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
