"""Constants of the DEX container format and class access flags."""

from __future__ import annotations

import enum

DEX_MAGIC = b"dex\n035\x00"
ENDIAN_CONSTANT = 0x12345678
HEADER_SIZE = 0x70
NO_INDEX = 0xFFFFFFFF


class AccessFlags(enum.IntFlag):
    """Java/Dalvik access flags for classes, fields and methods."""

    PUBLIC = 0x0001
    PRIVATE = 0x0002
    PROTECTED = 0x0004
    STATIC = 0x0008
    FINAL = 0x0010
    SYNCHRONIZED = 0x0020
    VOLATILE = 0x0040
    BRIDGE = 0x0040
    TRANSIENT = 0x0080
    VARARGS = 0x0080
    NATIVE = 0x0100
    INTERFACE = 0x0200
    ABSTRACT = 0x0400
    STRICT = 0x0800
    SYNTHETIC = 0x1000
    ANNOTATION = 0x2000
    ENUM = 0x4000
    CONSTRUCTOR = 0x10000
    DECLARED_SYNCHRONIZED = 0x20000


class MapItemType(enum.IntEnum):
    """``map_list`` item type codes (subset used by this implementation)."""

    HEADER_ITEM = 0x0000
    STRING_ID_ITEM = 0x0001
    TYPE_ID_ITEM = 0x0002
    PROTO_ID_ITEM = 0x0003
    FIELD_ID_ITEM = 0x0004
    METHOD_ID_ITEM = 0x0005
    CLASS_DEF_ITEM = 0x0006
    MAP_LIST = 0x1000
    TYPE_LIST = 0x1001
    CLASS_DATA_ITEM = 0x2000
    CODE_ITEM = 0x2001
    STRING_DATA_ITEM = 0x2002
    ENCODED_ARRAY_ITEM = 0x2005


class EncodedValueType(enum.IntEnum):
    """Type tags for ``encoded_value`` entries (static field initialisers)."""

    BYTE = 0x00
    SHORT = 0x02
    CHAR = 0x03
    INT = 0x04
    LONG = 0x06
    FLOAT = 0x10
    DOUBLE = 0x11
    STRING = 0x17
    TYPE = 0x18
    NULL = 0x1E
    BOOLEAN = 0x1F


def shorty_of(descriptor: str) -> str:
    """Map a full type descriptor to its shorty character."""
    if descriptor.startswith(("L", "[")):
        return "L"
    return descriptor[0]

