"""Experiment configuration: flat INI file with sections, one source of
truth for every protocol constant.

Every default lives on a dataclass field, and only there:
``ExperimentConfig`` and the ``Schema``, ``FeatureGroups``,
``CurationSettings`` and ``SynthConfig`` it holds.  They reproduce the
evaluation protocol exactly (k=5, seed=42, threshold=0.5, B=1000,
alpha=0.05), and the default schema maps every feature to a column of
the same name, which is the layout the synthetic generator writes.  The
functions that apply the settings take them as required arguments:
``default_schema`` here, and every function of ``parsers.py``,
``curation.py`` and ``evaluation.py``, which
``tests/test_source_rules.py::test_setting_modules_have_no_parameter_defaults``
holds free of parameter defaults.  Environment variables override
nothing.

``_SETTINGS`` names each INI key once: its section and key, its
attribute path on ``ExperimentConfig``, the parser of its INI text and,
where it is not ``section.key``, its path in ``to_dict()`` (``None``:
not dumped on its own).  The same table drives ``load_config`` (a key
the file leaves out keeps its dataclass default), the rejection of
unknown keys, and ``to_dict``.  Only the free-form column maps
``[schema.questionnaire]`` and ``[schema.biomarkers]`` sit outside it.
``[output] dir`` is not hashed, and the two gender lists are hashed as
one ``curation.gender_map`` leaf.

Each rule across settings is stated once, in ``validate``: each list of
a vocabulary pair (binaries, PCR values, gender) names at least one
token and none that the other names, and each run list (``[models]``,
``[groups]``) names known, distinct entries and at least one.  Loading
also refuses what the feature groups alone make impossible, by running
``curation.aggregate_proxies`` and ``exclude_features`` on a cohort with
no rows, so only their name checks can fail: a proxy rule naming a
column it cannot take, and a blocklist name no column holds.
"""

from __future__ import annotations

import configparser
import hashlib
import json
from dataclasses import dataclass, replace
from functools import reduce
from typing import Callable, NamedTuple

from .curation import (
    GROUP_TAGS, CurationSettings, FeatureGroups, aggregate_proxies, encode_features, exclude_features, repeated
)
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
        target, colon, sources = item.partition(":")
        source_names = tuple(s.strip() for s in sources.split("+") if s.strip())
        if not colon or not target.strip() or not source_names:
            raise ConfigError(f"malformed [curation] proxy_rules item {item!r}; expected target:src1+src2")
        rules.append((target.strip(), source_names))
    return tuple(rules)


_EXPECTED = {int: "an integer", float: "a number", _parse_bool: "a boolean"}


class _Setting(NamedTuple):
    section: str
    key: str
    attr: str  # dotted attribute path on ExperimentConfig
    parse: Callable  # INI text -> value; ValueError for a bad value
    dumped_as: str | None = ""  # dotted to_dict() path when it is not section.key; None: not dumped


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
    _Setting("curation", "gender_male", "curation.gender_male", _lowered_set, None),  # dumped as gender_map
    _Setting("curation", "gender_female", "curation.gender_female", _lowered_set, None),
    _Setting("curation", "age_bin_width", "curation.age_bin_width", int),
    _Setting("protocol", "k", "k", int),
    _Setting("protocol", "seed", "seed", int),
    _Setting("protocol", "threshold", "threshold", float),
    _Setting("protocol", "bootstrap_samples", "bootstrap_samples", int),
    _Setting("protocol", "alpha", "alpha", float),
    _Setting("models", "run", "run_models", _split_list),
    _Setting("synth", "n", "synth.n", int),
    _Setting("synth", "prevalence", "synth.prevalence", float),
    _Setting("synth", "biomarker_signal", "synth.biomarker_signal", float),
    _Setting("synth", "reported_signal", "synth.reported_signal", float),
    _Setting("synth", "missing_rate", "synth.missing_rate", float),
    _Setting("synth", "semiquant_rate", "synth.semiquant_rate", float),
    _Setting("synth", "seed", "synth.seed", int),
    _Setting("synth", "signal_biomarkers", "synth.signal_biomarkers", _split_list),
    _Setting("synth", "signal_reported", "synth.signal_reported", _split_list),
    _Setting("output", "dir", "out_dir", str, None),  # not hashed
)
_COLUMN_MAPS = {"schema.questionnaire": "questionnaire", "schema.biomarkers": "biomarkers"}
_KNOWN_KEYS = {(s.section, s.key) for s in _SETTINGS}


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
        for section, names, known, entry in (
            ("models", self.run_models, MODEL_KINDS, "model kind"),
            ("groups", self.run_groups, GROUP_TAGS, "feature group"),
        ):
            unknown = set(names) - set(known)
            if unknown:
                raise ConfigError(f"[{section}] run names unknown {entry}s: {sorted(unknown)}")
            if not names:
                raise ConfigError(f"[{section}] run must name at least one {entry}")
            if repeated(names):
                raise ConfigError(f"[{section}] run repeats {entry}s: {repeated(names)}")
        if not 0.0 <= self.curation.max_missing_fraction <= 1.0:
            raise ConfigError("max_missing_fraction must be within [0, 1]")
        if self.curation.age_bin_width <= 0:
            raise ConfigError("age_bin_width must be positive")
        if not self.valid_flags:
            raise ConfigError("valid_flags must name at least one flag")
        curation, schema = self.curation, self.schema
        for pair, first, second in (
            ("[curation] binary_true and binary_false", curation.binary_true, curation.binary_false),
            ("[schema.pcr_values] positive and negative", schema.pcr_positive, schema.pcr_negative),
            ("[curation] gender_male and gender_female", curation.gender_male, curation.gender_female),
        ):
            if not first or not second:
                raise ConfigError(f"{pair} must each name at least one token")
            if first & second:  # the token would decode two ways
                raise ConfigError(f"tokens repeated in both {pair}: {sorted(first & second)}")
        self.synth.validate()

    def to_dict(self) -> dict:
        """Canonical dict of every effective setting but the output
        directory, used for hashing and for the config echo embedded in
        reports."""
        out = {}
        for setting in _SETTINGS:
            if setting.dumped_as is None:
                continue
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


def default_schema(groups: FeatureGroups) -> Schema:
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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from exc
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
    except CurationError as exc:  # f1 and f2 share or repeat a feature
        raise ConfigError(f"bad [groups]: {exc}") from exc
    column_maps = {
        name: dict(parser.items(section))
        for section, name in _COLUMN_MAPS.items()
        if parser.has_section(section)
    }
    schema = replace(default_schema(groups), **_overrides(parser, "schema"), **column_maps)
    curation = replace(defaults.curation, **_overrides(parser, "curation"))
    try:
        table = aggregate_proxies(encode_features([], groups, curation), curation.proxy_rules)
    except CurationError as exc:  # the groups alone make a rule impossible
        raise ConfigError(f"bad [curation] proxy_rules: {exc}") from exc
    try:
        exclude_features(table, curation)
    except CurationError as exc:  # a blocklist name no column holds
        raise ConfigError(str(exc)) from exc
    synth = replace(defaults.synth, **_overrides(parser, "synth"))
    config = replace(
        defaults,
        schema=schema,
        groups=groups,
        curation=curation,
        synth=synth,
        **_overrides(parser, ""),
    )
    config.validate()
    return config
