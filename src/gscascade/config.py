"""Run configuration: JSON document + environment + CLI flag merging.

Precedence (highest wins): CLI flags > GSCASCADE_* environment variables >
config file > built-in defaults. Documents are schema-checked before any work
starts; unknown keys anywhere are an error (exit code 2 in the CLI).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, fields

from .losses import LossWeights
from .optimize import TrainConfig
from .scenegen import SceneSpec


class ConfigError(Exception):
    pass


def _field_names(cls):
    return {f.name for f in fields(cls)}


_SCENE_KEYS = _field_names(SceneSpec)
# weights, seed, scene_scale and threads come from elsewhere in the run config
_TRAIN_KEYS = _field_names(TrainConfig) - {"weights", "seed", "scene_scale", "threads"}
# option -> (type, least allowed value); the upper bounds are checked apart:
# adam_beta* < 1 here, camera_index below the scene's camera count by the
# track command
_TRAIN_OPTIONS = {"iters_per_frame": (int, 1), "k_neighbors": (int, 1),
                  **dict.fromkeys(("lr_rot", "lr_trans", "lr_scaledir", "lr_sbias", "adam_beta1",
                                   "adam_beta2", "adam_eps", "max_scale", "lambda_weight"),
                                  (float, 0.0))}
_NULLABLE_TRAIN = {"lr_trans", "lambda_weight"}  # null: scaled to the scene
_WEIGHT_OPTIONS = dict.fromkeys(_field_names(LossWeights), (float, 0.0))
_SEG_OPTIONS = {"k_parts": (int, 1), "lambda_p": (float, None), "lambda_r": (float, None),
                "lambda_p0": (float, None)}
_TRACK_OPTIONS = {"camera_index": (int, 0), "n_tracks": (int, 1)}
_TOP_KEYS = {"scene", "train", "weights", "segmentation", "tracking", "out", "seed", "threads"}

ENV_PREFIX = "GSCASCADE_"


def _check_keys(section, mapping, allowed):
    if not isinstance(mapping, dict):
        raise ConfigError(f"'{section}' must be a JSON object")
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section}': {sorted(unknown)}")


def _check_options(section, mapping, options):
    """Schema-check a section of numeric options; returns it with typed values."""
    _check_keys(section, mapping, set(options))
    checked = {}
    for key, value in mapping.items():
        kind, least = options[key]
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not math.isfinite(value) or (kind is int and value != int(value))
                or (least is not None and value < least)):
            what = "an integer" if kind is int else "a finite number"
            bound = "" if least is None else f" >= {least}"
            raise ConfigError(f"{section}.{key} must be {what}{bound}, got {value!r}")
        checked[key] = kind(value)
    return checked


def _check_train(train):
    """Schema-check the merged train section; returns it with typed numbers."""
    numeric = {key: value for key, value in train.items()
               if key in _TRAIN_OPTIONS and not (value is None and key in _NULLABLE_TRAIN)}
    checked = dict(train, **_check_options("train", numeric, _TRAIN_OPTIONS))
    for key in ("adam_beta1", "adam_beta2"):
        if checked.get(key, 0.0) >= 1.0:
            raise ConfigError(f"train.{key} must be < 1, got {checked[key]!r}")
    if not isinstance(checked.get("propagate_covariance", True), bool):
        raise ConfigError("train.propagate_covariance must be true or false, got"
                          f" {checked['propagate_covariance']!r}")
    return checked


@dataclass
class RunConfig:
    scene: dict = None  # raw SceneSpec kwargs (seed filled at build time)
    train: dict = field(default_factory=dict)
    weights: dict = field(default_factory=dict)
    segmentation: dict = field(default_factory=dict)
    tracking: dict = field(default_factory=dict)
    out: str = None
    seed: int = 0
    threads: int = 1

    def scene_spec(self):
        if self.scene is None:
            raise ConfigError("config has no 'scene' section")
        kwargs = dict(self.scene)
        kwargs.setdefault("seed", self.seed)
        try:
            return SceneSpec(**kwargs)
        except (TypeError, ValueError) as e:
            raise ConfigError(f"invalid scene spec: {e}") from e

    def train_config(self, scene_scale=1.0):
        kwargs = dict(self.train)
        try:
            weights = LossWeights(**self.weights)
            return TrainConfig(
                weights=weights,
                seed=self.seed,
                scene_scale=scene_scale,
                threads=self.threads,
                **kwargs,
            )
        except (TypeError, ValueError) as e:
            raise ConfigError(f"invalid train config: {e}") from e

    def seg_options(self):
        opts = {"k_parts": 2, "lambda_p": 1.0, "lambda_r": 1.0, "lambda_p0": 1.0}
        opts.update(self.segmentation)
        return opts

    def track_options(self):
        opts = {"camera_index": 0, "n_tracks": 12}
        opts.update(self.tracking)
        return opts


def _parse_layers(text):
    try:
        sizes = tuple(int(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError as e:
        raise ConfigError(f"invalid layer list '{text}': {e}") from e
    if not sizes or any(s < 1 for s in sizes):
        raise ConfigError(f"invalid layer list '{text}'")
    return sizes


def _coerce(name, value, kind):
    try:
        return kind(value)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid value for {name}: {value!r}") from e


def load_run_config(document=None, env=None, cli=None):
    """Merge a parsed JSON document, environment dict, and CLI namespace."""
    cfg = RunConfig()

    if document is not None:
        _check_keys("config", document, _TOP_KEYS)
        if "scene" in document:
            _check_keys("scene", document["scene"], _SCENE_KEYS)
            cfg.scene = dict(document["scene"])
        if "train" in document:
            _check_keys("train", document["train"], _TRAIN_KEYS)
            cfg.train = dict(document["train"])
            if "layer_sizes" in cfg.train:
                sizes = cfg.train["layer_sizes"]
                if isinstance(sizes, str):
                    sizes = _parse_layers(sizes)
                cfg.train["layer_sizes"] = tuple(int(s) for s in sizes)
        if "weights" in document:
            cfg.weights = _check_options("weights", document["weights"], _WEIGHT_OPTIONS)
        if "segmentation" in document:
            cfg.segmentation = _check_options(
                "segmentation", document["segmentation"], _SEG_OPTIONS)
        if "tracking" in document:
            cfg.tracking = _check_options("tracking", document["tracking"], _TRACK_OPTIONS)
        if "out" in document:
            cfg.out = str(document["out"])
        if "seed" in document:
            cfg.seed = _coerce("seed", document["seed"], int)
        if "threads" in document:
            cfg.threads = _coerce("threads", document["threads"], int)

    env = os.environ if env is None else env
    if env.get(ENV_PREFIX + "SEED") is not None:
        cfg.seed = _coerce("GSCASCADE_SEED", env[ENV_PREFIX + "SEED"], int)
    if env.get(ENV_PREFIX + "THREADS") is not None:
        cfg.threads = _coerce("GSCASCADE_THREADS", env[ENV_PREFIX + "THREADS"], int)
    if env.get(ENV_PREFIX + "OUT") is not None:
        cfg.out = env[ENV_PREFIX + "OUT"]
    if env.get(ENV_PREFIX + "ITERS") is not None:
        cfg.train["iters_per_frame"] = _coerce(
            "GSCASCADE_ITERS", env[ENV_PREFIX + "ITERS"], int
        )
    if env.get(ENV_PREFIX + "LAYERS") is not None:
        cfg.train["layer_sizes"] = _parse_layers(env[ENV_PREFIX + "LAYERS"])
    if env.get(ENV_PREFIX + "MAX_SCALE") is not None:
        cfg.train["max_scale"] = _coerce(
            "GSCASCADE_MAX_SCALE", env[ENV_PREFIX + "MAX_SCALE"], float
        )

    if cli is not None:
        if getattr(cli, "seed", None) is not None:
            cfg.seed = int(cli.seed)
        if getattr(cli, "threads", None) is not None:
            cfg.threads = int(cli.threads)
        if getattr(cli, "out", None) is not None:
            cfg.out = cli.out
        if getattr(cli, "iters", None) is not None:
            cfg.train["iters_per_frame"] = int(cli.iters)
        if getattr(cli, "layers", None) is not None:
            cfg.train["layer_sizes"] = _parse_layers(cli.layers)
        if getattr(cli, "max_scale", None) is not None:
            cfg.train["max_scale"] = float(cli.max_scale)

    if cfg.threads < 1:
        raise ConfigError("threads must be >= 1")
    cfg.train = _check_train(cfg.train)
    return cfg
