"""Batch entry point wiring every module into reproducible experiment runs.

Stages chain: ``gen`` writes a corpus; ``extract`` fits every stage below
fusion and writes a ``pipeline.Run`` (split.json, features.mfc, components/,
component-accuracy.csv and config.json), with the fitted extractors under
models/; ``train-fusion`` and ``explain`` load that run (--run) with its
corpus and fit only fusion models, under the pipeline config recorded in the
run's config.json, with the accuracies of the component files. No command
writes or reads a components manifest.json; runs that hold one still load.
``eval`` is the one-shot run, holdout or k-fold: each fits a run and scores it.

Each subcommand validates its arguments, runs, writes artifacts under --out
together with a resolved config.json, and logs progress to standard error.
Exit codes: 0 success, 2 usage error, 1 runtime failure. Reruns with the
same inputs and seed produce byte-identical reports; input directories are
never written to.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .corpus import (
    DEFAULT_HOLDOUT,
    CorpusError,
    CorpusSpec,
    generate_corpus,
    load_corpus,
    make_splits,
    write_corpus,
)
from .evaluate import (
    SWEEP_GRIDS,
    case_report,
    compare_encoders,
    cross_validate,
    make_report,
    sweep,
)
from .fusion import PRESET_NAMES
from .pipeline import ConfigError, PipelineConfig, Run, load_split, save_extractors

log = logging.getLogger("malfusion")

PRESET_FLAGS = {name.lower().replace("_", "-"): name for name in PRESET_NAMES}
FEATURE_SET_FLAGS = ("integrated", "static", "dynamic")
SPLIT_HELP = "reuse a saved split.json"


def _config_from_args(args) -> PipelineConfig:
    base = (PipelineConfig.desk(seed=args.seed) if args.profile == "desk"
            else PipelineConfig(seed=args.seed))
    if args.config:
        try:
            overrides = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as e:
            raise ConfigError(f"{args.config}: not JSON ({e})") from None
        if not isinstance(overrides, dict):
            raise ConfigError(f"{args.config}: expected a JSON object of config "
                              f"fields, got {type(overrides).__name__}")
        unknown = sorted(set(overrides) - set(base.to_dict()))
        if unknown:
            raise ConfigError(f"{args.config}: unknown config fields {unknown}")
        base = base.replace(**overrides)
    return base


def _write_resolved_config(out: Path, args, config: PipelineConfig | None) -> None:
    resolved = {"subcommand": args.command,
                "arguments": {k: v for k, v in sorted(vars(args).items())
                              if k != "command" and not callable(v)}}
    if config is not None:
        resolved["pipeline_config"] = config.to_dict()
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.json").write_text(json.dumps(resolved, indent=2,
                                                sort_keys=True, default=str))


def _int_list(text: str) -> str:
    """A comma-separated list of positive integers, returned as typed for
    config.json."""
    try:
        values = [int(v) for v in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}") from None
    if min(values) < 1:
        raise argparse.ArgumentTypeError(f"expected positive integers, got {text!r}")
    return text


def _fold_count(text: str) -> int:
    """0 (the fixed holdout split) or a fold count of at least 3: each fold's
    test and validation folds are two of them, and training needs the rest."""
    if not text.isdecimal() or int(text) in (1, 2):
        raise argparse.ArgumentTypeError(f"expected 0 or at least 3 folds, got {text!r}")
    return int(text)


def _corpus_split(args, config: PipelineConfig):
    """The corpus and its split: --split, or the holdout split drawn at the
    run's config seed, the seed every fit of the run also derives from.
    Either has train, validation and test rows, or this fails before any fit."""
    corpus = load_corpus(args.corpus)
    if getattr(args, "split", None):
        split = load_split(args.split, len(corpus))
    else:
        split = make_splits(corpus, holdout=DEFAULT_HOLDOUT, seed=config.seed)
        split.check(f"{len(corpus)} samples split by the holdout fractions "
                    f"{DEFAULT_HOLDOUT}", len(corpus))
    return corpus, split


# -- subcommand bodies ------------------------------------------------------------


def _cmd_gen(args) -> int:
    spec = CorpusSpec(
        family_count=args.families, samples_per_family=args.samples_per_family,
        size_distribution=args.size_distribution, signal_channel=args.signal,
        overlap_noise=args.overlap_noise, static_vocab=args.static_vocab,
        dynamic_vocab=args.dynamic_vocab, param_vocab=args.param_vocab,
        trace_len_range=(args.trace_min, args.trace_max),
        max_params=args.max_params,
        graph_nodes_range=(args.graph_min, args.graph_max), seed=args.seed)
    try:
        spec.validate()
    except CorpusError as e:
        raise ConfigError(str(e)) from None
    corpus = generate_corpus(spec)
    out = Path(args.out)
    write_corpus(corpus, out)
    _write_resolved_config(out, args, None)
    log.info("wrote %d samples to %s", len(corpus), out)
    return 0


def _cmd_extract(args) -> int:
    config = _config_from_args(args)
    corpus, split = _corpus_split(args, config)
    out = Path(args.out)
    run, extractors = Run.fit(corpus, split, config)
    run.save(out)
    save_extractors(out / "models", extractors)
    _write_resolved_config(out, args, config)
    log.info("extracted %d features and trained %d components on %d samples "
             "to %s", len(run.features), len(run.components), len(corpus), out)
    return 0


def _cmd_train_fusion(args) -> int:
    run = Run.load(args.run, load_corpus(args.corpus))
    out = Path(args.out)
    result = run.score(PRESET_FLAGS[args.preset], args.features)
    report = make_report(result.test_probs, result.test_labels,
                         run.corpus.family_count)
    out.mkdir(parents=True, exist_ok=True)
    result.fusion.save(out / f"fusion-{args.preset}-{args.features}.mfc")
    (out / "report.csv").write_text(report.to_csv())
    (out / "report.txt").write_text(report.to_text())
    _write_resolved_config(out, args, run.config)
    log.info("%s/%s test accuracy %.4f", args.preset, args.features,
             report.accuracy)
    return 0


def _cmd_eval(args) -> int:
    config = _config_from_args(args)
    preset_name = PRESET_FLAGS[args.preset]
    if args.cv:
        report = cross_validate(config, load_corpus(args.corpus), k=args.cv,
                                preset_name=preset_name, feature_set=args.features)
        protocol = f"{args.cv}-fold cross-validation"
    else:
        corpus, split = _corpus_split(args, config)
        result = Run.fit(corpus, split, config)[0].score(preset_name, args.features)
        report = make_report(result.test_probs, result.test_labels,
                             corpus.family_count)
        protocol = "fixed holdout split"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(report.to_csv())
    (out / "report.txt").write_text(f"protocol: {protocol}\n" + report.to_text())
    _write_resolved_config(out, args, config)
    log.info("eval (%s) accuracy %.4f", protocol, report.accuracy)
    return 0


def _cmd_sweep(args) -> int:
    config = _config_from_args(args)
    corpus, split = _corpus_split(args, config)
    values = ([int(v) for v in args.values.split(",")] if args.values
              else SWEEP_GRIDS[args.parameter])
    table = sweep(args.parameter, values, corpus, split, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"sweep-{args.parameter}.csv").write_text(table.to_csv())
    (out / f"sweep-{args.parameter}.txt").write_text(table.to_text())
    _write_resolved_config(out, args, config)
    log.info("sweep %s best %s", args.parameter, table.best())
    return 0


def _cmd_compare_encoders(args) -> int:
    config = _config_from_args(args)
    corpus, split = _corpus_split(args, config)
    lengths = [int(v) for v in args.lengths.split(",")]
    table = compare_encoders(corpus, lengths, split, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "encoder-comparison.csv").write_text(table.to_csv())
    (out / "encoder-comparison.txt").write_text(table.to_text())
    _write_resolved_config(out, args, config)
    log.info("encoder comparison rows: %s", table.rows)
    return 0


def _cmd_explain(args) -> int:
    run = Run.load(args.run, load_corpus(args.corpus))
    corpus = run.corpus
    index = {s.sample_id: i for i, s in enumerate(corpus.samples)}
    if args.sample:
        if args.sample not in index:
            raise ValueError(f"no sample {args.sample!r} in corpus")
        targets = [index[args.sample]]
    else:
        targets = [int(i) for i in run.split.test]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fusions = {fset: run.score("EF1", fset).fusion
               for fset in ("static", "dynamic", "integrated")}
    summary = ["sample_id,true_family,static_pred,dynamic_pred,"
               "integrated_pred,category"]
    for i in targets:
        sample = corpus.samples[i]
        row = {name: matrix[i] for name, matrix in run.features.items()}
        case = case_report(row, sample.family, sample.sample_id,
                           fusions["static"], fusions["dynamic"],
                           fusions["integrated"])
        (out / f"case-{sample.sample_id}.csv").write_text(case.to_csv())
        s, d, it = case.predictions
        summary.append(f"{sample.sample_id},{sample.family},{s},{d},{it},"
                       f"{case.category}")
    (out / "cases-summary.csv").write_text("\n".join(summary) + "\n")
    _write_resolved_config(out, args, run.config)
    log.info("wrote %d case reports to %s", len(targets), out)
    return 0


# -- argument wiring -----------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, corpus: bool = True,
                split: bool = True) -> None:
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")
    if corpus:
        p.add_argument("--corpus", required=True, help="corpus directory")
        if split:
            p.add_argument("--split", help=SPLIT_HELP)
        p.add_argument("--profile", choices=("desk", "full"), default="desk",
                       help="capacity profile for feature models")
        p.add_argument("--config", help="JSON file overriding config fields")


def _add_run(p: argparse.ArgumentParser) -> None:
    p.add_argument("--run", required=True, help="output directory of extract; only read")
    p.add_argument("--corpus", required=True, help="the run's corpus directory")
    p.add_argument("--out", required=True, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="malfusion",
        description="Malware-family classification experiments: feature "
                    "extraction, component classifiers, fusion topologies.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic corpus")
    p.add_argument("--families", type=int, default=8)
    p.add_argument("--samples-per-family", type=int, default=30)
    p.add_argument("--size-distribution", choices=("uniform", "longtail"),
                   default="uniform")
    p.add_argument("--signal", default="both",
                   choices=("both", "static_only", "dynamic_only", "params_only"))
    p.add_argument("--overlap-noise", type=float, default=0.0)
    p.add_argument("--static-vocab", type=int, default=60)
    p.add_argument("--dynamic-vocab", type=int, default=40)
    p.add_argument("--param-vocab", type=int, default=30)
    p.add_argument("--trace-min", type=int, default=80)
    p.add_argument("--trace-max", type=int, default=160)
    p.add_argument("--max-params", type=int, default=4)
    p.add_argument("--graph-min", type=int, default=24)
    p.add_argument("--graph-max", type=int, default=56)
    _add_common(p, corpus=False)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("extract", help="fit feature models and components, emit "
                                       "the run train-fusion and explain read")
    _add_common(p)
    p.set_defaults(func=_cmd_extract)

    p = sub.add_parser("train-fusion", help="train one fusion preset on an extract run")
    p.add_argument("--preset", choices=sorted(PRESET_FLAGS), default="ef1")
    p.add_argument("--features", choices=FEATURE_SET_FLAGS,
                   default="integrated")
    _add_run(p)
    p.set_defaults(func=_cmd_train_fusion)

    p = sub.add_parser("eval", help="full run: holdout report or k-fold CV")
    p.add_argument("--preset", choices=sorted(PRESET_FLAGS), default="ef1")
    p.add_argument("--features", choices=FEATURE_SET_FLAGS,
                   default="integrated")
    protocol = p.add_mutually_exclusive_group()  # CV builds its own folds
    protocol.add_argument("--cv", type=_fold_count, default=0,
                          help="fold count of at least 3; 0 uses the fixed holdout split")
    protocol.add_argument("--split", help=SPLIT_HELP)
    _add_common(p, split=False)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("sweep", help="feature-length/width tuning sweep")
    p.add_argument("--parameter", required=True, choices=sorted(SWEEP_GRIDS))
    p.add_argument("--values", type=_int_list,
                   help="comma-separated; defaults to the reference grid")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("compare-encoders",
                       help="call-name vs statement encoder accuracy by length")
    p.add_argument("--lengths", type=_int_list, default="100,200,300,400")
    _add_common(p)
    p.set_defaults(func=_cmd_compare_encoders)

    p = sub.add_parser("explain", help="per-sample case reports across "
                                       "static/dynamic/integrated models of a run")
    p.add_argument("--sample", help="one sample id; default: whole test split")
    _add_run(p)
    p.set_defaults(func=_cmd_explain)
    return parser


def run(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except ConfigError as e:  # a bad setting or --config file, before any work
        log.error("%s", e)
        return 2
    except Exception as e:  # runtime failure -> exit 1 with a message
        log.error("%s", e)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
