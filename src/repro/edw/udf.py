"""The UDF registry: scalar user-defined functions, looked up by name.

The paper drives every algorithm from a single SQL statement whose UDFs
do the cross-system work (Section 4.1.1): ``cal_filter`` /
``get_filter`` / ``combine_filter`` build and merge the Bloom filter and
``read_hdfs`` streams the filtered HDFS rows back.  The join algorithms
in :mod:`repro.core.joins` do that work directly; what SQL still names
is the scalar kind, ``extract_group`` (the example query's grouping UDF)
and whatever a user registers for a WHERE clause.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import UdfError


class UdfRegistry:
    """Named user-defined functions, looked up at call sites by name."""

    def __init__(self):
        self._functions: Dict[str, Callable] = {}

    def register(self, name: str, function: Callable) -> None:
        """Register a UDF, rejecting duplicates."""
        if name in self._functions:
            raise UdfError(f"UDF already registered: {name!r}")
        self._functions[name] = function

    def call(self, name: str, *args, **kwargs):
        """Invoke a UDF by name."""
        try:
            function = self._functions[name]
        except KeyError:
            raise UdfError(
                f"unknown UDF {name!r}; have {sorted(self._functions)}"
            ) from None
        return function(*args, **kwargs)

    def names(self) -> List[str]:
        """Registered UDF names."""
        return sorted(self._functions)


def _extract_group(url: str) -> str:
    """Default grouping UDF: the URL prefix (scheme + host).

    Matches the example query's intent of counting views per
    ``url_prefix``.
    """
    head, separator, _tail = url.partition("://")
    if not separator:
        return url.split("/", 1)[0]
    host = head + "://" + _tail.split("/", 1)[0]
    return host


def default_udf_registry() -> UdfRegistry:
    """Registry with the example query's ``extract_group`` registered."""
    registry = UdfRegistry()
    registry.register("extract_group", _extract_group)
    return registry
