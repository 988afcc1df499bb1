"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI: ConfigError -> 1, data-shaped errors
(SchemaError, DataError, CurationError) -> 2, anything
else -> 3.
"""


class PtriskError(Exception):
    """Base class for all package errors."""


class ConfigError(PtriskError):
    """Invalid configuration value or unusable config file."""


class DataError(PtriskError):
    """Input data cannot be read or is structurally unusable."""


class SchemaError(DataError):
    """Required column/field missing or schema mapping inconsistent."""


class CurationError(DataError):
    """Feature-engineering rule violated (non-binary proxy source, empty output, ...)."""


class ContractError(PtriskError):
    """Caller violated an interface contract (column mismatch, wrong shapes)."""
