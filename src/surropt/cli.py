"""Command-line surface.

Subcommands
    generate   simulate the oracle and write the labeled dataset CSV
    train      fit the configured surrogate on a dataset and save the model
    rollout    evaluate model(s) and the oracle on fresh paired demands

Options
    generate   --config --out
    train      --config --out --data --model-out
    rollout    --config --out --model

The config file (see ``surropt.config``) holds every experiment setting:
the seed, the day counts, the demand, the costs and the learner.  The
options name only files and directories.  A run of the three phases::

    surropt generate --config exp.json --out run
    surropt train --config exp.json --data run/dataset.csv --out run
    surropt rollout --config exp.json --model run/model-ridge.surropt --out run

``rollout`` labels each ``--model`` by its file name less ``model-`` and the
extension; two models with one label, or a model labelled ``oracle``, are a
configuration error.

Exit codes: 0 success, 2 configuration or input error, 3 I/O or environment
error, 4 internal invariant breach or resource exhaustion.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

from .config import config_to_dict, load_config
from .errors import ConfigError, InputError, SurroptError
from .learners import load_model, save_model
from .pipeline import compare_models, oracle_generation_run, train_surrogate
from .report import (
    read_dataset_csv,
    write_comparison_csv,
    write_comparison_text,
    write_inventory_csv,
    write_manifest,
    write_violations_csv,
)
from .simulate import decision_length, write_trajectory_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_INTERNAL = 4


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="surropt",
        description="Learned surrogate policies for the hospital transshipment network",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    generate = sub.add_parser("generate", help="offline phase: oracle dataset")
    train = sub.add_parser("train", help="fit the configured learner")
    rollout = sub.add_parser("rollout", help="online phase: closed-loop evaluation")
    for p in (generate, train, rollout):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", default=".", help="output directory")
    train.add_argument("--data", required=True, help="dataset CSV from `generate`")
    train.add_argument("--model-out", default=None, help="model file path")
    rollout.add_argument("--model", action="append", default=[], help="trained model file (repeatable)")
    return parser


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_generate(args) -> int:
    config = load_config(args.config)
    out = _outdir(args)
    run = oracle_generation_run(config)
    dataset_path = out / "dataset.csv"
    write_trajectory_csv(dataset_path, run)
    manifest_path = out / "manifest.json"
    write_manifest(
        manifest_path,
        config_to_dict(config),
        [dataset_path, manifest_path],
        extra={"command": "generate", "days": run.days, "oracle_violations": len(run.violations)},
    )
    print(f"wrote {dataset_path} ({run.days} days)")
    return EXIT_OK


def cmd_train(args) -> int:
    config = load_config(args.config)
    data = read_dataset_csv(args.data, config.n_hospitals, config.max_age)
    out = _outdir(args)
    model = train_surrogate(config, data)
    spec = config.learner
    suffix = f"-{spec.loss.kind}" if spec.kind == "gbdt" else ""
    model_path = Path(args.model_out) if args.model_out else out / f"model-{spec.kind}{suffix}.surropt"
    save_model(model_path, model)
    diag = {"learner": spec.kind}
    if hasattr(model, "cv_mse") and model.cv_mse:
        diag["cv_mse"] = {str(k): v for k, v in model.cv_mse.items()}
    if hasattr(model, "lam"):
        diag["lambda"] = model.lam
    if hasattr(model, "diagnostics"):
        diag.update(model.diagnostics)
    diag_path = out / "train_diagnostics.json"
    with open(diag_path, "w") as fh:
        json.dump(diag, fh, indent=2, sort_keys=True)
        fh.write("\n")
    manifest_path = out / "manifest.json"
    write_manifest(
        manifest_path,
        config_to_dict(config),
        [model_path, diag_path, manifest_path],
        extra={"command": "train", "train_rows": data.n_rows},
    )
    print(f"wrote {model_path}")
    return EXIT_OK


def _label_for(path: str) -> str:
    name = Path(path).stem
    return name[len("model-") :] if name.startswith("model-") else name


def cmd_rollout(args) -> int:
    config = load_config(args.config)
    if not args.model:
        raise ConfigError("rollout needs at least one --model file")
    n_in = config.n_hospitals * config.max_age
    n_out = decision_length(config.n_hospitals, config.max_age)
    sources = {"oracle": "the oracle policy"}
    models = {}
    for path in args.model:
        label = _label_for(path)
        if label in sources:
            raise ConfigError(f"{sources[label]} and {path} both have the policy label {label!r}")
        sources[label] = path
        model = load_model(path)
        if model.n_features != n_in or model.n_outputs != n_out:
            raise ConfigError(
                f"{path}: model is {model.n_features}->{model.n_outputs}, "
                f"config expects {n_in}->{n_out}"
            )
        models[label] = model
    out = _outdir(args)
    comparison = compare_models(config, models)
    paths = {
        "comparison_csv": out / "comparison.csv",
        "comparison_txt": out / "comparison.txt",
        "violations_csv": out / "violations.csv",
        "inventory_csv": out / "inventory.csv",
    }
    write_comparison_csv(paths["comparison_csv"], comparison)
    write_comparison_text(paths["comparison_txt"], comparison)
    write_violations_csv(paths["violations_csv"], comparison)
    write_inventory_csv(paths["inventory_csv"], comparison)
    manifest_path = out / "manifest.json"
    write_manifest(
        manifest_path,
        config_to_dict(config),
        list(paths.values()) + [manifest_path],
        extra={"command": "rollout", "days": comparison.days},
    )
    print(comparison.table())
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "train": cmd_train,
        "rollout": cmd_rollout,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except SurroptError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
