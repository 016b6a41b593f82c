"""iockit: extract, validate, normalize, and filter threat-intelligence
indicators from text, and compare extraction tools by majority vote.

Each exported name is imported from its module on first use, so
``import iockit`` loads no submodule and a command loads only the
modules it runs.
"""
import importlib
import sys
from types import ModuleType

__version__ = "0.1.0"

#: Each exported name -> the submodule that defines it.
_EXPORTS = {
    "AccuracyCounters": "harness",
    "CorpusStats": "filtering",
    "DefangRule": "defang",
    "DynamicBlocklist": "filtering",
    "Extractor": "extractor",
    "Indicator": "types",
    "IndicatorType": "types",
    "RawMatch": "types",
    "ToolOutput": "harness",
    "ToolProfile": "harness",
    "apply_filter": "filtering",
    "blocking_rule": "filtering",
    "build_blocklist": "filtering",
    "compare": "harness",
    "defang": "defang",
    "extract": "extractor",
    "extract_raw": "extractor",
    "metrics": "harness",
    "normalize": "normalize",
    "normalize_type_name": "types",
    "rearm": "defang",
    "validate": "validators",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _EXPORTS.keys())


class _Package(ModuleType):
    def __setattr__(self, name, value):
        # The import system binds each submodule it loads to its name in
        # the package. ``defang`` and ``normalize`` name exported
        # functions, which their modules' names must not hide.
        if not (name in _EXPORTS and isinstance(value, ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
