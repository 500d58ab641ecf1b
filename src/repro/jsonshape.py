"""Shape checks for the JSON files the program reads back.

A shape is a type or tuple of types (an instance check), ``[item]`` (a
list of ``item``), ``[a, b]`` (a pair), or a dict: an object holding
every key (one ending in ``?`` may be absent; others are ignored).
"""

from __future__ import annotations

NULL = type(None)


def check_shape(value, shape) -> None:
    """Raise ``ValueError`` saying where ``value`` departs from
    ``shape``."""
    if isinstance(shape, dict):
        if not isinstance(value, dict):
            raise ValueError("not a JSON object")
        for key, item in shape.items():
            name = key.rstrip("?")
            if name not in value:
                if name == key:
                    raise ValueError(f"{name!r} is missing")
                continue
            try:
                check_shape(value[name], item)
            except ValueError as exc:
                raise ValueError(f"{name!r}: {exc}") from None
    elif isinstance(shape, list):
        if not isinstance(value, list):
            raise ValueError("not a JSON list")
        if len(shape) > 1 and len(value) != len(shape):
            raise ValueError(f"not a list of {len(shape)}")
        items = zip(value, shape) if len(shape) > 1 else \
            ((item, shape[0]) for item in value)
        for index, (item, item_shape) in enumerate(items):
            try:
                check_shape(item, item_shape)
            except ValueError as exc:
                raise ValueError(f"[{index}]: {exc}") from None
    else:
        kinds = shape if isinstance(shape, tuple) else (shape,)
        # JSON true/false are Python ints too; only a bool shape takes them.
        if not isinstance(value, kinds) \
                or isinstance(value, bool) and bool not in kinds:
            names = ["null" if kind is NULL else kind.__name__
                     for kind in kinds]
            raise ValueError(f"expected {' or '.join(names)}, got "
                             f"{type(value).__name__}")
