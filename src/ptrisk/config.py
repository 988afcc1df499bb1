"""Experiment configuration: flat INI file with sections, one source of
truth for every protocol constant.

Every default lives on a dataclass field: ``ExperimentConfig`` and the
``Schema``, ``FeatureGroups``, ``CurationSettings`` and ``SynthConfig`` it
holds.  They reproduce the evaluation protocol exactly (k=5, seed=42,
threshold=0.5, B=1000, alpha=0.05), and the default schema maps every
feature to a column of the same name, which is the layout the synthetic
generator writes.  Environment variables override nothing.

``_SETTINGS`` names each setting once: its INI section and key, its
attribute path on ``ExperimentConfig``, the parser of its INI text and,
where it is not ``section.key``, its path in ``to_dict()``.  The same
table drives ``load_config`` (a key the file leaves out keeps its
dataclass default), the rejection of unknown keys, and ``to_dict``.
Three settings sit outside it: ``[output] dir``, which is not hashed;
``[curation] gender_male``/``gender_female``, two keys for one
``gender_map``; and the free-form column maps ``[schema.questionnaire]``
and ``[schema.biomarkers]``.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, NamedTuple

from .curation import CurationSettings, FeatureGroups, GROUP_TAGS
from .errors import ConfigError, CurationError
from .models import MODEL_KINDS
from .parsers import DEFAULT_VALID_FLAGS, Schema
from .synth import SynthConfig

_LIST_SEP = "|"


def _split_list(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(_LIST_SEP) if part.strip())


def _flag_set(text: str) -> frozenset:
    return frozenset(_split_list(text))


def _lowered_set(text: str) -> frozenset:
    return frozenset(v.lower() for v in _split_list(text))


def _parse_bool(text: str) -> bool:
    norm = text.strip().lower()
    if norm in ("true", "1", "yes", "on"):
        return True
    if norm in ("false", "0", "no", "off"):
        return False
    raise ValueError(text)


def _parse_proxy_rules(text: str) -> tuple:
    """"target:src1+src2 ; other:a+b" -> ((target, (src1, src2)), ...)."""
    rules = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        if ":" not in item:
            raise ConfigError(f"malformed proxy rule {item!r}; expected target:src1+src2")
        target, _, sources = item.partition(":")
        source_names = tuple(s.strip() for s in sources.split("+") if s.strip())
        if not target.strip() or not source_names:
            raise ConfigError(f"malformed proxy rule {item!r}")
        rules.append((target.strip(), source_names))
    return tuple(rules)


_EXPECTED = {int: "an integer", float: "a number", _parse_bool: "a boolean"}


class _Setting(NamedTuple):
    section: str
    key: str
    attr: str  # dotted attribute path on ExperimentConfig
    parse: Callable  # INI text -> value; ValueError for a bad value
    dumped_as: str = ""  # dotted to_dict() path when it is not section.key


_SETTINGS = (
    _Setting("input", "path", "input_path", str, "input_path"),
    _Setting("schema", "record_id", "schema.record_id", str),
    _Setting("schema", "qc_flag", "schema.qc_flag", str),
    _Setting("schema", "pcr_result", "schema.pcr_result", str),
    _Setting("schema", "source_cohort", "schema.source_cohort", str),
    _Setting("schema.pcr_values", "positive", "schema.pcr_positive", _lowered_set, "schema.pcr_positive"),
    _Setting("schema.pcr_values", "negative", "schema.pcr_negative", _lowered_set, "schema.pcr_negative"),
    _Setting("groups", "f1", "groups.f1", _split_list),
    _Setting("groups", "f2", "groups.f2", _split_list),
    _Setting("groups", "run", "run_groups", _split_list, "run_groups"),
    _Setting("curation", "valid_flags", "valid_flags", _flag_set),
    _Setting("curation", "max_missing_fraction", "curation.max_missing_fraction", float),
    _Setting("curation", "drop_zero_variance", "curation.drop_zero_variance", _parse_bool),
    _Setting("curation", "blocklist", "curation.blocklist", _split_list),
    _Setting("curation", "proxy_rules", "curation.proxy_rules", _parse_proxy_rules),
    _Setting("curation", "binary_true", "curation.binary_true", _lowered_set),
    _Setting("curation", "binary_false", "curation.binary_false", _lowered_set),
    _Setting("curation", "age_bin_width", "curation.age_bin_width", int),
    _Setting("protocol", "k", "k", int),
    _Setting("protocol", "seed", "seed", int),
    _Setting("protocol", "threshold", "threshold", float),
    _Setting("protocol", "bootstrap_samples", "bootstrap_samples", int),
    _Setting("protocol", "alpha", "alpha", float),
    _Setting("models", "run", "run_models", _split_list),
    _Setting("models", "gbt_row_subsample", "gbt_row_subsample", float),
    _Setting("models", "gbt_col_subsample", "gbt_col_subsample", float),
    _Setting("synth", "n", "synth.n", int),
    _Setting("synth", "prevalence", "synth.prevalence", float),
    _Setting("synth", "biomarker_signal", "synth.biomarker_signal", float),
    _Setting("synth", "reported_signal", "synth.reported_signal", float),
    _Setting("synth", "missing_rate", "synth.missing_rate", float),
    _Setting("synth", "semiquant_rate", "synth.semiquant_rate", float),
    _Setting("synth", "seed", "synth.seed", int),
    _Setting("synth", "signal_biomarkers", "synth.signal_biomarkers", _split_list),
    _Setting("synth", "signal_reported", "synth.signal_reported", _split_list),
)
_OUTPUT_DIR = ("output", "dir")
_GENDER_KEYS = (("gender_male", 1.0), ("gender_female", 0.0))  # [curation] key, code
_COLUMN_MAPS = {"schema.questionnaire": "questionnaire", "schema.biomarkers": "biomarkers"}
_KNOWN_KEYS = (
    {(s.section, s.key) for s in _SETTINGS}
    | {_OUTPUT_DIR}
    | {("curation", key) for key, _ in _GENDER_KEYS}
)


def _jsonable(value):
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, tuple):
        return [_jsonable(v) for v in value]
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    input_path: str = "cohort.csv"
    schema: Schema = None
    groups: FeatureGroups = FeatureGroups()
    run_groups: tuple = GROUP_TAGS
    curation: CurationSettings = CurationSettings()
    valid_flags: frozenset = DEFAULT_VALID_FLAGS
    k: int = 5
    seed: int = 42
    threshold: float = 0.5
    bootstrap_samples: int = 1000
    alpha: float = 0.05
    run_models: tuple = MODEL_KINDS
    gbt_row_subsample: float = 0.8
    gbt_col_subsample: float = 0.8
    synth: SynthConfig = SynthConfig()
    out_dir: str = "out"

    def __post_init__(self):
        if self.schema is None:
            object.__setattr__(self, "schema", default_schema(self.groups))

    def validate(self) -> None:
        if self.k < 2:
            raise ConfigError("protocol k must be at least 2")
        if self.bootstrap_samples < 1:
            raise ConfigError("bootstrap_samples must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must be within (0, 1)")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError("threshold must be within [0, 1]")
        unknown = set(self.run_models) - set(MODEL_KINDS)
        if unknown:
            raise ConfigError(f"unknown model kinds: {sorted(unknown)}")
        if not self.run_models:
            raise ConfigError("at least one model kind must be selected")
        bad_tags = set(self.run_groups) - set(GROUP_TAGS)
        if bad_tags:
            raise ConfigError(f"unknown feature groups: {sorted(bad_tags)}")
        if not self.run_groups:
            raise ConfigError("at least one feature group must be selected")
        if not 0.0 <= self.curation.max_missing_fraction <= 1.0:
            raise ConfigError("max_missing_fraction must be within [0, 1]")
        if self.curation.age_bin_width <= 0:
            raise ConfigError("age_bin_width must be positive")
        if not self.valid_flags:
            raise ConfigError("valid_flags must name at least one flag")
        for frac in (self.gbt_row_subsample, self.gbt_col_subsample):
            if not 0.0 < frac <= 1.0:
                raise ConfigError("GBT subsample fractions must be within (0, 1]")
        self.synth.validate()

    def to_dict(self) -> dict:
        """Canonical dict of every effective setting but the output
        directory, used for hashing and for the config echo embedded in
        reports."""
        out = {}
        for setting in _SETTINGS:
            *parents, leaf = (setting.dumped_as or f"{setting.section}.{setting.key}").split(".")
            node = reduce(lambda d, name: d.setdefault(name, {}), parents, out)
            node[leaf] = _jsonable(reduce(getattr, setting.attr.split("."), self))
        for name in _COLUMN_MAPS.values():
            out["schema"][name] = dict(getattr(self.schema, name))
        out["curation"]["gender_map"] = dict(sorted(self.curation.gender_map.items()))
        return out

    def config_hash(self) -> str:
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def default_schema(groups: FeatureGroups = FeatureGroups()) -> Schema:
    return Schema(
        questionnaire={name: name for name in groups.f1},
        biomarkers={name: name for name in groups.f2},
    )


def _read_ini(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # column names are case-sensitive
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file {path}: {exc}") from exc
    return parser


def _reject_unknown_keys(parser) -> None:
    """A key outside the table is a typo, not a setting to ignore.  Keys
    under [DEFAULT] would reach every section, so none is allowed."""
    unknown = [f"[{parser.default_section}] {key}" for key in parser.defaults()]
    for section in parser.sections():
        if section not in _COLUMN_MAPS:  # free-form: feature name = file column
            unknown += [
                f"[{section}] {key}"
                for key in parser.options(section)
                if (section, key) not in _KNOWN_KEYS
            ]
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def _overrides(parser, part: str) -> dict:
    """Parsed values of the table settings the file sets on one part of
    the config (``""`` for ExperimentConfig's own fields), by field name."""
    out = {}
    for setting in _SETTINGS:
        owner, _, name = setting.attr.rpartition(".")
        if owner != part or not parser.has_option(setting.section, setting.key):
            continue
        try:
            out[name] = setting.parse(parser.get(setting.section, setting.key))
        except ValueError as exc:
            raise ConfigError(
                f"bad value for [{setting.section}] {setting.key}: "
                f"expected {_EXPECTED[setting.parse]}"
            ) from exc
    return out


def _gender_map(parser, default: dict) -> dict:
    gender_map = {}
    for key, code in _GENDER_KEYS:
        if parser.has_option("curation", key):
            tokens = _split_list(parser.get("curation", key))
        else:
            tokens = [token for token, value in default.items() if value == code]
        gender_map.update((token.lower(), code) for token in tokens)
    return gender_map or dict(default)


def load_config(path=None) -> ExperimentConfig:
    """Build the effective configuration; ``path=None`` means defaults."""
    defaults = ExperimentConfig()
    if path is None:
        defaults.validate()
        return defaults
    parser = _read_ini(path)
    _reject_unknown_keys(parser)

    try:
        groups = replace(defaults.groups, **_overrides(parser, "groups"))
    except CurationError as exc:  # f1 and f2 share a feature
        raise ConfigError(f"bad [groups]: {exc}") from exc
    column_maps = {
        name: dict(parser.items(section))
        for section, name in _COLUMN_MAPS.items()
        if parser.has_section(section)
    }
    schema = replace(default_schema(groups), **_overrides(parser, "schema"), **column_maps)
    curation = replace(
        defaults.curation,
        gender_map=_gender_map(parser, defaults.curation.gender_map),
        **_overrides(parser, "curation"),
    )
    synth = replace(defaults.synth, **_overrides(parser, "synth"))
    config = replace(
        defaults,
        schema=schema,
        groups=groups,
        curation=curation,
        synth=synth,
        **_overrides(parser, ""),
    )
    if parser.has_option(*_OUTPUT_DIR):
        config = with_out_dir(config, parser.get(*_OUTPUT_DIR))
    config.validate()
    return config


def with_out_dir(config: ExperimentConfig, out_dir) -> ExperimentConfig:
    return replace(config, out_dir=str(out_dir))


def with_synth_seed(config: ExperimentConfig, seed: int) -> ExperimentConfig:
    return replace(config, synth=replace(config.synth, seed=seed))
