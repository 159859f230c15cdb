"""The one registry-lookup helper every named registry resolves through.

Before this module existed, the model zoo, the accelerator tables, the
scenario registry and the explore space/strategy registries each hand-rolled
the same ``KeyError``-with-available-names pattern with slightly different
wording.  :func:`resolve` is that pattern, once: a mapping lookup whose
failure names the kind of thing being looked up and lists what *is*
registered, in one consistent format::

    unknown scenario 'quickstrat-resnet18'; available: ['quickstart-resnet18', ...]

Kept dependency-free so every layer of the system (nn, accelerator,
pipeline, explore) can import it without cycles.
"""

from __future__ import annotations

from typing import Mapping, TypeVar

T = TypeVar("T")


def resolve(mapping: Mapping[str, T], name: str, kind: str) -> T:
    """Look up ``name`` in ``mapping``, raising a uniform, helpful error.

    Raises ``KeyError`` formatted as
    ``unknown <kind> <name>; available: [...]`` so typos surface the full
    menu of registered names regardless of which registry was consulted.
    """
    try:
        return mapping[name]
    except KeyError:
        raise KeyError(
            f"unknown {kind} {name!r}; available: {sorted(mapping)}") from None
