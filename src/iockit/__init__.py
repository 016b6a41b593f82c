"""iockit: extract, validate, normalize, and filter threat-intelligence
indicators from text, and compare extraction tools by majority vote."""

from .defang import DefangRule, defang, rearm
from .extractor import Extractor, extract, extract_raw, load_catalog
from .filtering import (
    CorpusStats,
    DynamicBlocklist,
    apply_filter,
    blocking_rule,
    build_blocklist,
)
from .harness import AccuracyCounters, ToolOutput, ToolProfile, compare, metrics
from .normalize import normalize
from .types import Indicator, IndicatorType, RawMatch, normalize_type_name
from .validators import validate

__version__ = "0.1.0"

__all__ = [
    "AccuracyCounters",
    "CorpusStats",
    "DefangRule",
    "DynamicBlocklist",
    "Extractor",
    "Indicator",
    "IndicatorType",
    "RawMatch",
    "ToolOutput",
    "ToolProfile",
    "apply_filter",
    "blocking_rule",
    "build_blocklist",
    "compare",
    "defang",
    "extract",
    "extract_raw",
    "load_catalog",
    "metrics",
    "normalize",
    "normalize_type_name",
    "rearm",
    "validate",
]
