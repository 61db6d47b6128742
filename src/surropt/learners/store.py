"""Versioned on-disk model format.

A model file is a deterministic zip archive holding one JSON header
(``meta.json``) and the numeric payload as .npy members.  Arrays round-trip
bit-exactly, so save -> load -> predict is bit-identical to the in-memory
model.  ``format_version`` guards future layout changes.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from ..errors import InputError
from ..losses import LossSpec
from ..util import load_arrays, save_arrays
from .gbdt import PACKED, GbdtModel, GbdtParams
from .ridge import RidgeModel
from .svr import SvrModel

FORMAT_VERSION = 1


def save_model(path, model) -> None:
    if isinstance(model, RidgeModel):
        meta = {
            "format_version": FORMAT_VERSION,
            "kind": "ridge",
            "lambda": model.lam,
            "cv_mse": {str(k): v for k, v in model.cv_mse.items()},
        }
        save_arrays(path, meta, {"coef": model.coef})
        return
    if isinstance(model, GbdtModel):
        arrays = {name: getattr(model, name) for name in PACKED}
        meta = {
            "format_version": FORMAT_VERSION,
            "kind": "gbdt",
            "params": asdict(model.params),
            "loss": asdict(model.loss),
            "n_features": model.n_features,
            "seed": model.seed,
            "diagnostics": model.diagnostics,
        }
        save_arrays(path, meta, arrays)
        return
    if isinstance(model, SvrModel):
        arrays = {"bias": model.bias}
        sv_counts = []
        for j, sv in enumerate(model.support):
            sv_counts.append(sv.shape[0])
            arrays[f"sv_{j:04d}"] = sv
            arrays[f"coef_{j:04d}"] = model.coef[j]
        arrays["sv_counts"] = np.asarray(sv_counts, dtype=np.int64)
        meta = {
            "format_version": FORMAT_VERSION,
            "kind": "svr",
            "gamma": model.gamma,
            "epsilon": model.epsilon,
            "C": model.C,
            "n_features": model.n_features,
            "cv_mse": {str(k): v for k, v in model.cv_mse.items()},
        }
        save_arrays(path, meta, arrays)
        return
    raise InputError(f"cannot serialize model of type {type(model).__name__}")


def load_model(path):
    """Read a model file; a malformed one raises ``InputError`` naming it."""
    meta, arrays = load_arrays(path)
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise InputError(f"{path}: unsupported model format version {version}")
    try:
        return _model_from(meta, arrays)
    except KeyError as exc:
        raise InputError(f"{path}: model file lacks {exc}") from None
    except (TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed model file ({exc})") from None


def _model_from(meta: dict, arrays: dict):
    kind = meta.get("kind")
    if kind == "ridge":
        return RidgeModel(
            coef=arrays["coef"],
            lam=float(meta["lambda"]),
            cv_mse={float(k): v for k, v in meta.get("cv_mse", {}).items()},
        )
    if kind == "gbdt":
        return GbdtModel(
            params=GbdtParams(**meta["params"]),
            loss=LossSpec(**meta["loss"]),
            **{name: arrays[name] for name in PACKED},
            n_features=int(meta["n_features"]),
            seed=int(meta["seed"]),
            diagnostics=meta.get("diagnostics", {}),
        )
    if kind == "svr":
        n_out = arrays["sv_counts"].size
        return SvrModel(
            support=[arrays[f"sv_{j:04d}"] for j in range(n_out)],
            coef=[arrays[f"coef_{j:04d}"] for j in range(n_out)],
            bias=arrays["bias"],
            gamma=float(meta["gamma"]),
            epsilon=float(meta["epsilon"]),
            C=float(meta["C"]),
            n_features=int(meta["n_features"]),
            cv_mse={float(k): v for k, v in meta.get("cv_mse", {}).items()},
        )
    raise ValueError(f"unknown model kind {kind!r}")
