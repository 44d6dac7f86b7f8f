"""Config merging: document/CLI precedence, the rules of OPTIONS, layer parsing."""

import dataclasses
import json
import math
import re
import types
from pathlib import Path

import pytest

from gscascade import config
from gscascade.config import OPTIONS, ConfigError, load_run_config
from gscascade.losses import LossWeights
from gscascade.optimize import TrainConfig
from gscascade.scenegen import SceneSpec


def cli_ns(**kwargs):
    """Mimic an argparse namespace; absent flags read as None via getattr."""
    return types.SimpleNamespace(**kwargs)


def test_defaults():
    cfg = load_run_config(document=None, cli=None)
    assert cfg.seed == 0
    assert cfg.threads == 1
    assert cfg.out is None
    assert cfg.scene is None
    assert cfg.train == {}
    assert cfg.weights == {}


def test_document_values_land():
    doc = {
        "scene": {"kind": "wheel", "n_gaussians": 50, "n_frames": 3},
        "train": {"iters_per_frame": 7, "max_scale": 0.5},
        "weights": {"w_rigid": 0.25},
        "segmentation": {"k_parts": 3},
        "tracking": {"n_tracks": 4},
        "out": "runs/a",
        "seed": 9,
        "threads": 2,
    }
    cfg = load_run_config(document=doc)
    assert cfg.scene == {"kind": "wheel", "n_gaussians": 50, "n_frames": 3}
    assert cfg.train["iters_per_frame"] == 7
    assert cfg.weights == {"w_rigid": 0.25}
    assert cfg.out == "runs/a"
    assert cfg.seed == 9
    assert cfg.threads == 2


@pytest.mark.parametrize(
    "doc,needle",
    [
        ({"bogus": 1}, "config"),
        ({"scene": {"kind": "wheel", "wat": 2}}, "scene"),
        ({"train": {"learning_rate": 0.1}}, "train"),
        ({"weights": {"w_smooth": 1.0}}, "weights"),
        ({"segmentation": {"clusters": 2}}, "segmentation"),
        ({"tracking": {"camera": 0}}, "tracking"),
        # training variants that were removed
        ({"train": {"anchored": False}}, "'train'.*anchored"),
        ({"train": {"warm_start_params": True}}, "'train'.*warm_start_params"),
        ({"train": {"recluster_every": 1}}, "'train'.*recluster_every"),
        ({"train": {"lr_delta": 1e-3}}, "'train'.*lr_delta"),
        # a top-level key that nothing read
        ({"scene_dir": "scenes/a"}, "'config'.*scene_dir"),
    ],
)
def test_unknown_keys_rejected(doc, needle):
    with pytest.raises(ConfigError, match="unknown key"):
        load_run_config(document=doc)
    with pytest.raises(ConfigError, match=needle):
        load_run_config(document=doc)


def test_every_train_config_field_but_the_run_level_ones_is_a_train_key():
    run_level = {"weights", "seed", "scene_scale", "threads"}
    defaults = TrainConfig()
    for f in dataclasses.fields(TrainConfig):
        doc = {"train": {f.name: getattr(defaults, f.name)}}
        if f.name in run_level:
            with pytest.raises(ConfigError, match="unknown key"):
                load_run_config(document=doc)
        else:
            tc = load_run_config(document=doc).train_config()
            assert getattr(tc, f.name) == getattr(defaults, f.name)


def test_section_must_be_object():
    with pytest.raises(ConfigError, match="must be a JSON object"):
        load_run_config(document={"train": [1, 2]})


def test_layer_sizes_from_document_string_and_list():
    cfg = load_run_config(document={"train": {"layer_sizes": "8,40,160"}})
    assert cfg.train["layer_sizes"] == (8, 40, 160)
    cfg = load_run_config(document={"train": {"layer_sizes": [2, 8]}})
    assert cfg.train["layer_sizes"] == (2, 8)


@pytest.mark.parametrize("sizes", [5, ["a"], [2.5, 8], [], [0, 8], [True, 8], {"a": 1}, None])
def test_bad_layer_size_documents_rejected(sizes):
    with pytest.raises(ConfigError, match="train.layer_sizes must be a non-empty list of"
                                          " integers >= 1"):
        load_run_config(document={"train": {"layer_sizes": sizes}})


# each row also exports a variable of the removed GSCASCADE_* layer, which
# used to outrank the document and must now change nothing
@pytest.mark.parametrize("doc, env, needle", [
    ({"seed": 1.7}, {"GSCASCADE_SEED": "2"}, "seed must be an integer, got 1.7 from the config"),
    ({"seed": True}, {"GSCASCADE_SEED": "2"}, "seed must be an integer, got True from the config"),
    ({"seed": "3"}, {"GSCASCADE_SEED": "2"}, "seed must be an integer, got '3' from the config"),
    ({"seed": -1}, {"GSCASCADE_SEED": "2"}, "seed must be >= 0, got -1 from the config"),
    ({"threads": 2.9}, {"GSCASCADE_THREADS": "2"},
     "threads must be an integer, got 2.9 from the config"),
    ({"threads": False}, {"GSCASCADE_THREADS": "2"},
     "threads must be an integer, got False from the config"),
])
def test_seed_and_threads_are_schema_checked(monkeypatch, doc, env, needle):
    for var, text in env.items():
        monkeypatch.setenv(var, text)
    with pytest.raises(ConfigError, match=needle):
        load_run_config(document=doc)


def test_seed_and_threads_land_as_integers():
    cfg = load_run_config(document={"seed": 0, "threads": 2})
    assert cfg.seed == 0 and cfg.threads == 2 and type(cfg.threads) is int
    with pytest.raises(ConfigError, match="threads must be an integer, got 2.0 from the config"):
        load_run_config(document={"threads": 2.0})
    cfg = load_run_config(document=None, cli=cli_ns(seed=5))
    assert cfg.seed == 5
    with pytest.raises(ConfigError, match="seed must be >= 0, got -4 from --seed"):
        load_run_config(document=None, cli=cli_ns(seed=-4))


def test_layer_parsing_tolerates_trailing_comma():
    cfg = load_run_config(document={"train": {"layer_sizes": "4,20,"}})
    assert cfg.train["layer_sizes"] == (4, 20)


@pytest.mark.parametrize("text", ["", "a,b", "3,0", "-1", ","])
def test_bad_layer_lists_rejected(text):
    with pytest.raises(ConfigError, match=r"train.layer_sizes must be a non-empty list of"
                                          rf" integers >= 1 .*, got {text!r} from the config"):
        load_run_config(document={"train": {"layer_sizes": text}})


def test_cli_overrides_the_document():
    doc = {"seed": 1, "threads": 1, "out": "doc", "train": {"iters_per_frame": 5}}
    cfg = load_run_config(document=doc, cli=cli_ns(seed=3, out="cli", threads=4))
    assert cfg.seed == 3
    assert cfg.out == "cli"
    assert cfg.threads == 4
    assert cfg.train == {"iters_per_frame": 5}


def test_cli_none_flags_do_not_mask_lower_layers():
    cfg = load_run_config(document={"seed": 7}, cli=cli_ns(seed=None, out=None))
    assert cfg.seed == 7


@pytest.mark.parametrize("route", ["document", "cli"])
def test_threads_must_be_at_least_one(route):
    kwargs = {"document": None, "cli": None}
    if route == "document":
        kwargs["document"] = {"threads": 0}
    else:
        kwargs["cli"] = cli_ns(threads=-2)
    with pytest.raises(ConfigError, match="threads must be >= 1"):
        load_run_config(**kwargs)


def test_scene_spec_inherits_top_level_seed():
    doc = {"scene": {"kind": "pendulum", "n_gaussians": 40, "n_frames": 4}, "seed": 5}
    spec = load_run_config(document=doc).scene_spec()
    assert isinstance(spec, SceneSpec)
    assert spec.seed == 5
    # an explicit scene seed wins over the run seed
    doc["scene"]["seed"] = 1
    assert load_run_config(document=doc).scene_spec().seed == 1


def test_scene_spec_requires_scene_section():
    with pytest.raises(ConfigError, match="no 'scene' section"):
        load_run_config(document=None).scene_spec()


def test_scene_spec_validation_is_wrapped():
    # the scene rows are checked at load; a scene without a kind when it is built
    doc = {"scene": {"kind": "hovercraft", "n_gaussians": 40, "n_frames": 4}}
    with pytest.raises(ConfigError, match="scene.kind: unknown scene kind 'hovercraft' from"
                                          " the config"):
        load_run_config(document=doc)
    with pytest.raises(ConfigError, match="invalid scene spec"):
        load_run_config(document={"scene": {"n_frames": 4}}).scene_spec()


def test_train_config_wiring():
    doc = {
        "train": {"iters_per_frame": 3, "layer_sizes": [2, 4], "max_scale": 0.5},
        "weights": {"w_data": 2.0},
        "seed": 6,
        "threads": 2,
    }
    tc = load_run_config(document=doc).train_config(scene_scale=1.5)
    assert tc.iters_per_frame == 3
    assert tc.layer_sizes == (2, 4)
    assert tc.max_scale == 0.5
    assert tc.seed == 6
    assert tc.threads == 2
    assert tc.scene_scale == 1.5
    assert tc.weights.w_data == 2.0


def test_train_config_validation_is_wrapped():
    # TrainConfig checks nothing; the strict bounds are rows of OPTIONS
    for key in ("lr_rot", "adam_eps"):
        with pytest.raises(ConfigError, match=f"train.{key} must be > 0.0, got 0.0 from"
                                              " the config"):
            load_run_config(document={"train": {key: 0.0}})


@pytest.mark.parametrize("doc, env, needle", [
    ({"weights": {"w_rigid": -1.0}}, {}, "weights.w_rigid must be >= 0.0, got -1.0"),
    ({"weights": {"w_data": "1"}}, {}, "weights.w_data must be a finite number"),
    ({"train": {"iters_per_frame": 0}}, {"GSCASCADE_ITERS": "3"},
     "train.iters_per_frame must be >= 1, got 0"),
    ({"train": {"lambda_weight": float("inf")}}, {}, "train.lambda_weight must be a finite"),
    ({"train": {"adam_beta2": 1.5}}, {}, "train.adam_beta2 must be < 1"),
    ({"train": {"propagate_covariance": 0}}, {}, "train.propagate_covariance must be true"),
])
def test_train_and_weight_values_are_schema_checked(monkeypatch, doc, env, needle):
    for var, text in env.items():  # a variable of the removed GSCASCADE_* layer
        monkeypatch.setenv(var, text)
    with pytest.raises(ConfigError, match=needle):
        load_run_config(document=doc)


def test_train_values_land_typed_and_nulls_stay():
    doc = {"train": {"iters_per_frame": 4, "lr_trans": None, "lambda_weight": None,
                     "max_scale": 1, "propagate_covariance": False}}
    cfg = load_run_config(document=doc)
    assert cfg.train["iters_per_frame"] == 4 and type(cfg.train["iters_per_frame"]) is int
    with pytest.raises(ConfigError, match="train.iters_per_frame must be an integer, got 4.0"):
        load_run_config(document={"train": {"iters_per_frame": 4.0}})
    assert type(cfg.train["max_scale"]) is float
    tc = cfg.train_config(scene_scale=2.0)
    assert tc.lr_trans is None and tc.lambda_weight is None
    assert tc.propagate_covariance is False


def test_seg_and_track_option_defaults_merge():
    cfg = load_run_config(document={"segmentation": {"k_parts": 5}})
    opts = cfg.seg_options()
    assert opts["k_parts"] == 5
    assert opts["lambda_p"] == 1.0 and opts["lambda_r"] == 1.0 and opts["lambda_p0"] == 1.0
    track = cfg.track_options()
    assert track == {"camera_index": 0, "n_tracks": 12}


# ---------------------------------------------------------------------------
# the table of run options


def _document(section, key, value):
    return {key: value} if section == "" else {section: {key: value}}


def _landed(cfg, section, key):
    return getattr(cfg, key) if section == "" else getattr(cfg, section)[key]


def _step(rule, bound, direction):
    """The next integer or float from `bound` in `direction` (+1 or -1)."""
    if rule.kind == "integer":
        return bound + direction
    return math.nextafter(bound, direction * math.inf)


def _edges(rule):
    """(last accepted value, first rejected value, the bound as the rejection
    states it) at each bound of a rule."""
    edges = []
    if rule.least is not None:
        edges.append((rule.least, _step(rule, rule.least, -1), f">= {rule.least!r}"))
    if rule.above is not None:
        edges.append((_step(rule, rule.above, 1), rule.above, f"> {rule.above!r}"))
    if rule.below is not None:
        edges.append((_step(rule, rule.below, -1), rule.below, f"< {rule.below!r}"))
    return edges


BOUNDED = [(section, key) for section, rules in OPTIONS.items() for key, rule in rules.items()
           if _edges(rule)]


def test_options_are_the_settable_fields():
    run_level = {"weights", "seed", "scene_scale", "threads"}
    assert set(OPTIONS[""]) == {"seed", "threads", "out"}
    assert set(OPTIONS["scene"]) == {f.name for f in dataclasses.fields(SceneSpec)}
    assert set(OPTIONS["train"]) == {f.name for f in dataclasses.fields(TrainConfig)} - run_level
    assert set(OPTIONS["weights"]) == {f.name for f in dataclasses.fields(LossWeights)}
    assert sum(map(len, OPTIONS.values())) == 33
    assert len(BOUNDED) == 25


@pytest.mark.parametrize("section, key", BOUNDED, ids=[config._option(*row) for row in BOUNDED])
def test_every_bound_is_accepted_and_the_next_value_past_it_rejected(section, key):
    name = config._option(section, key)
    for ok, bad, bound in _edges(OPTIONS[section][key]):
        cfg = load_run_config(document=_document(section, key, ok))
        assert _landed(cfg, section, key) == ok
        with pytest.raises(ConfigError) as err:
            load_run_config(document=_document(section, key, bad))
        assert str(err.value) == f"{name} must be {bound}, got {bad!r} from the config"


@pytest.mark.parametrize("name, ok, bad", [("seed", 0, -1), ("threads", 1, 0), ("out", "x", "")])
def test_the_environment_and_the_flags_meet_the_same_rules(name, ok, bad):
    """A flag's value meets the rule of the top-level key of its name, and the
    message names the flag. The process environment sets no option."""
    cfg = load_run_config(document=None, cli=cli_ns(**{name: ok}))
    assert getattr(cfg, name) == ok
    with pytest.raises(ConfigError, match=rf"^{name} must be .*, got {re.escape(repr(bad))}"
                                          rf" from --{name}$"):
        load_run_config(document=None, cli=cli_ns(**{name: bad}))


def _rule_text(rule):
    """A rule as the run-configuration table of docs/FORMATS.md states it."""
    if isinstance(rule.kind, tuple):
        return "one of " + ", ".join(rule.kind)
    bounds = [f"{op} {bound!r}" for op, bound in
              ((">=", rule.least), (">", rule.above), ("<", rule.below)) if bound is not None]
    text = config._KINDS[rule.kind][0]
    if bounds:
        text += " " + " and ".join(bounds)
    return text + (" or null" if rule.null else "")


def _default_text(section, key):
    """The default the table states: OPTIONS' own, else the dataclass field's."""
    if section in ("", "segmentation", "tracking"):
        return json.dumps(OPTIONS[section][key].default)
    if (section, key) == ("scene", "seed"):
        return "the run's seed"
    cls = {"scene": SceneSpec, "train": TrainConfig, "weights": LossWeights}[section]
    field = next(f for f in dataclasses.fields(cls) if f.name == key)
    return "—" if field.default is dataclasses.MISSING else json.dumps(field.default)


def _formats_options_table():
    """(section, key, rule, default) of each row of the run-configuration
    table in docs/FORMATS.md."""
    text = (Path(__file__).resolve().parent.parent / "docs" / "FORMATS.md").read_text()
    lines = text[text.index("| section | key | rule | default |"):].splitlines()[2:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        cells = [cell.strip().replace("`", "") for cell in line.strip("|").split("|")[:4]]
        rows.append(("" if cells[0] == "(top level)" else cells[0], *cells[1:]))
    return rows


def test_formats_doc_lists_the_options_table():
    assert _formats_options_table() == [
        (section, key, _rule_text(rule), _default_text(section, key))
        for section, rules in OPTIONS.items() for key, rule in rules.items()]
