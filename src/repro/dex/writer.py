"""Binary DEX writer.

Serialises a :class:`~repro.dex.structures.DexFile` into the binary DEX
container: 112-byte header, sorted index pools, and a data section holding
type lists, code items, string data, class data, encoded arrays and the
map list.  Checksum and signature are computed last, exactly like ``dx``.
"""

from __future__ import annotations

import struct

from repro.dex import checksums
from repro.dex.constants import (
    DEX_MAGIC,
    ENDIAN_CONSTANT,
    HEADER_SIZE,
    EncodedValueType,
    MapItemType,
)
from repro.dex.leb128 import encode_sleb128, encode_uleb128
from repro.dex.mutf8 import encode_mutf8
from repro.dex.structures import ClassDef, CodeItem, DexFile, EncodedValue
from repro.errors import DexEncodeError


def write_dex(dex: DexFile) -> bytes:
    """Serialise ``dex`` to binary, canonicalizing its pools in place.
    A file already in binary-format order (one read from bytes, or one
    whose methods :meth:`~repro.dex.builder.DexBuilder.build` built) is
    written without decoding any instruction."""
    # Shorty strings live in the string pool; intern them before layout so
    # offsets computed in the writer stay valid.
    dex.intern_shorties()
    dex.canonicalize()
    return _Writer(dex).build()


class _Writer:
    def __init__(self, dex: DexFile) -> None:
        self.dex = dex
        self.data = bytearray()
        self.data_off = 0  # absolute file offset where data section starts
        self.map_entries: list[tuple[int, int, int]] = []  # (type, count, offset)

    # -- data section helpers ------------------------------------------------

    def _align(self, boundary: int) -> None:
        while (self.data_off + len(self.data)) % boundary:
            self.data.append(0)

    def _here(self) -> int:
        return self.data_off + len(self.data)

    # -- top level -------------------------------------------------------------

    def build(self) -> bytes:
        dex = self.dex
        counts = (
            len(dex.strings),
            len(dex.type_ids),
            len(dex.protos),
            len(dex.field_ids),
            len(dex.method_ids),
            len(dex.class_defs),
        )
        n_str, n_type, n_proto, n_field, n_method, n_class = counts
        if n_type > 0xFFFF or n_field > 0xFFFF or n_method > 0xFFFF or n_proto > 0xFFFF:
            raise DexEncodeError("pool too large for 16-bit instruction indices")

        string_ids_off = HEADER_SIZE
        type_ids_off = string_ids_off + 4 * n_str
        proto_ids_off = type_ids_off + 4 * n_type
        field_ids_off = proto_ids_off + 12 * n_proto
        method_ids_off = field_ids_off + 8 * n_field
        class_defs_off = method_ids_off + 8 * n_method
        self.data_off = class_defs_off + 32 * n_class

        type_list_offs = self._write_type_lists()
        code_offs = self._write_code_items()
        string_data_offs = self._write_string_data()
        class_data_offs = self._write_class_data(code_offs)
        static_value_offs = self._write_static_values()
        map_off = self._write_map_list(counts, string_ids_off)

        file_size = self.data_off + len(self.data)
        header = bytearray(HEADER_SIZE)
        header[0:8] = DEX_MAGIC
        struct.pack_into(
            "<IIIIII",
            header,
            32,
            file_size,
            HEADER_SIZE,
            ENDIAN_CONSTANT,
            0,  # link_size
            0,  # link_off
            map_off,
        )
        struct.pack_into(
            "<IIIIIIIIIIIIII",
            header,
            56,
            n_str,
            string_ids_off if n_str else 0,
            n_type,
            type_ids_off if n_type else 0,
            n_proto,
            proto_ids_off if n_proto else 0,
            n_field,
            field_ids_off if n_field else 0,
            n_method,
            method_ids_off if n_method else 0,
            n_class,
            class_defs_off if n_class else 0,
            len(self.data),
            self.data_off,
        )

        body = bytearray()
        body += header
        for off in string_data_offs:
            body += struct.pack("<I", off)
        for string_idx in dex.type_ids:
            body += struct.pack("<I", string_idx)
        for i, proto in enumerate(dex.protos):
            shorty = self._proto_shorty(i)
            body += struct.pack(
                "<III",
                dex.intern_string(shorty),
                proto.return_type_idx,
                type_list_offs.get(proto.param_type_idxs, 0),
            )
        for fid in dex.field_ids:
            body += struct.pack("<HHI", fid.class_idx, fid.type_idx, fid.name_idx)
        for mid in dex.method_ids:
            body += struct.pack("<HHI", mid.class_idx, mid.proto_idx, mid.name_idx)
        for i, class_def in enumerate(dex.class_defs):
            body += struct.pack(
                "<IIIIIIII",
                class_def.class_idx,
                class_def.access_flags,
                class_def.superclass_idx,
                type_list_offs.get(tuple(class_def.interfaces), 0),
                class_def.source_file_idx,
                0,  # annotations_off
                class_data_offs[i],
                static_value_offs[i],
            )
        body += self.data

        result = bytearray(body)
        checksums.patch_header_digests(result)
        return bytes(result)

    def _proto_shorty(self, proto_idx: int) -> str:
        return_desc, param_descs = self.dex.proto_descs(proto_idx)
        from repro.dex.constants import shorty_of

        return shorty_of(return_desc) + "".join(shorty_of(p) for p in param_descs)

    # -- sections ---------------------------------------------------------------

    def _write_type_lists(self) -> dict[tuple[int, ...], int]:
        """Write deduplicated type lists; return tuple -> absolute offset."""
        wanted: set[tuple[int, ...]] = set()
        for proto in self.dex.protos:
            if proto.param_type_idxs:
                wanted.add(tuple(proto.param_type_idxs))
        for class_def in self.dex.class_defs:
            if class_def.interfaces:
                wanted.add(tuple(class_def.interfaces))
        offs: dict[tuple[int, ...], int] = {}
        for type_list in sorted(wanted):
            self._align(4)
            offs[type_list] = self._here()
            self.data += struct.pack("<I", len(type_list))
            for type_idx in type_list:
                self.data += struct.pack("<H", type_idx)
        if wanted:
            self.map_entries.append(
                (MapItemType.TYPE_LIST, len(wanted), min(offs.values()))
            )
        return offs

    def _write_code_items(self) -> dict[int, int]:
        """Write code items; return id(CodeItem) -> absolute offset."""
        offs: dict[int, int] = {}
        count = 0
        first = None
        for _cls, method, _ref in self.dex.iter_methods():
            code = method.code
            if code is None or id(code) in offs:
                continue
            self._align(4)
            offset = self._here()
            offs[id(code)] = offset
            if first is None:
                first = offset
            self.data += self._encode_code_item(code)
            count += 1
        if count:
            self.map_entries.append((MapItemType.CODE_ITEM, count, first))
        return offs

    def _encode_code_item(self, code: CodeItem) -> bytes:
        out = bytearray()
        out += struct.pack(
            "<HHHHII",
            code.registers_size,
            code.ins_size,
            code.outs_size,
            len(code.tries),
            0,  # debug_info_off
            len(code.insns),
        )
        insns = code.insns
        out += struct.pack(f"<{len(insns)}H", *[unit & 0xFFFF for unit in insns])
        if code.tries:
            if len(code.insns) % 2:
                out += b"\x00\x00"  # padding to 4-align try_items
            handler_blobs: list[bytes] = []
            handler_offsets: list[int] = []
            running = 0
            for try_block in code.tries:
                blob = bytearray()
                size = len(try_block.handlers)
                if try_block.catch_all is not None:
                    blob += encode_sleb128(-size)
                else:
                    blob += encode_sleb128(size)
                for type_idx, addr in try_block.handlers:
                    blob += encode_uleb128(type_idx)
                    blob += encode_uleb128(addr)
                if try_block.catch_all is not None:
                    blob += encode_uleb128(try_block.catch_all)
                handler_blobs.append(bytes(blob))
                handler_offsets.append(running)
                running += len(blob)
            list_header = encode_uleb128(len(code.tries))
            base = len(list_header)
            for try_block, rel in zip(code.tries, handler_offsets):
                out += struct.pack(
                    "<IHH",
                    try_block.start_addr,
                    try_block.insn_count,
                    base + rel,
                )
            out += list_header
            for blob in handler_blobs:
                out += blob
        return bytes(out)

    def _write_string_data(self) -> list[int]:
        offs = []
        first = None
        for value in self.dex.strings:
            offset = self._here()
            if first is None:
                first = offset
            offs.append(offset)
            self.data += encode_uleb128(_utf16_length(value))
            self.data += encode_mutf8(value)
            self.data.append(0)
        if offs:
            self.map_entries.append(
                (MapItemType.STRING_DATA_ITEM, len(offs), first)
            )
        return offs

    def _write_class_data(self, code_offs: dict[int, int]) -> list[int]:
        offs = []
        count = 0
        first = None
        for class_def in self.dex.class_defs:
            if not (class_def.all_fields() or class_def.all_methods()):
                offs.append(0)
                continue
            offset = self._here()
            if first is None:
                first = offset
            offs.append(offset)
            self.data += self._encode_class_data(class_def, code_offs)
            count += 1
        if count:
            self.map_entries.append((MapItemType.CLASS_DATA_ITEM, count, first))
        return offs

    def _encode_class_data(
        self, class_def: ClassDef, code_offs: dict[int, int]
    ) -> bytes:
        out = bytearray()
        out += encode_uleb128(len(class_def.static_fields))
        out += encode_uleb128(len(class_def.instance_fields))
        out += encode_uleb128(len(class_def.direct_methods))
        out += encode_uleb128(len(class_def.virtual_methods))
        for fields in (class_def.static_fields, class_def.instance_fields):
            prev = 0
            for encoded in fields:
                out += encode_uleb128(encoded.field_idx - prev)
                out += encode_uleb128(encoded.access_flags)
                prev = encoded.field_idx
        for methods in (class_def.direct_methods, class_def.virtual_methods):
            prev = 0
            for encoded in methods:
                out += encode_uleb128(encoded.method_idx - prev)
                out += encode_uleb128(encoded.access_flags)
                code_off = 0
                if encoded.code is not None:
                    code_off = code_offs[id(encoded.code)]
                out += encode_uleb128(code_off)
                prev = encoded.method_idx
        return bytes(out)

    def _write_static_values(self) -> list[int]:
        offs = []
        count = 0
        first = None
        for class_def in self.dex.class_defs:
            if not class_def.static_values:
                offs.append(0)
                continue
            offset = self._here()
            if first is None:
                first = offset
            offs.append(offset)
            self.data += encode_uleb128(len(class_def.static_values))
            for value in class_def.static_values:
                self.data += encode_encoded_value(value)
            count += 1
        if count:
            self.map_entries.append(
                (MapItemType.ENCODED_ARRAY_ITEM, count, first)
            )
        return offs

    def _write_map_list(
        self, counts: tuple[int, ...], string_ids_off: int
    ) -> int:
        n_str, n_type, n_proto, n_field, n_method, n_class = counts
        self._align(4)
        map_off = self._here()
        entries = [(MapItemType.HEADER_ITEM, 1, 0)]
        offset = string_ids_off
        for map_type, count, width in (
            (MapItemType.STRING_ID_ITEM, n_str, 4),
            (MapItemType.TYPE_ID_ITEM, n_type, 4),
            (MapItemType.PROTO_ID_ITEM, n_proto, 12),
            (MapItemType.FIELD_ID_ITEM, n_field, 8),
            (MapItemType.METHOD_ID_ITEM, n_method, 8),
            (MapItemType.CLASS_DEF_ITEM, n_class, 32),
        ):
            if count:
                entries.append((map_type, count, offset))
            offset += count * width
        entries += self.map_entries
        entries.append((MapItemType.MAP_LIST, 1, map_off))
        entries.sort(key=lambda e: e[2])
        self.data += struct.pack("<I", len(entries))
        for map_type, count, item_off in entries:
            self.data += struct.pack("<HHII", int(map_type), 0, count, item_off)
        return map_off


def encode_encoded_value(value: EncodedValue) -> bytes:
    """Encode one ``encoded_value`` (header byte + payload)."""
    kind = value.kind
    if kind is EncodedValueType.NULL:
        return bytes([int(kind)])
    if kind is EncodedValueType.BOOLEAN:
        arg = 1 if value.value else 0
        return bytes([(arg << 5) | int(kind)])
    if kind in (
        EncodedValueType.BYTE,
        EncodedValueType.SHORT,
        EncodedValueType.INT,
        EncodedValueType.LONG,
    ):
        payload = _trim_signed(int(value.value))
        return bytes([((len(payload) - 1) << 5) | int(kind)]) + payload
    if kind is EncodedValueType.CHAR:
        payload = _trim_unsigned(int(value.value))
        return bytes([((len(payload) - 1) << 5) | int(kind)]) + payload
    if kind is EncodedValueType.FLOAT:
        payload = struct.pack("<f", float(value.value))
        return bytes([(3 << 5) | int(kind)]) + payload
    if kind is EncodedValueType.DOUBLE:
        payload = struct.pack("<d", float(value.value))
        return bytes([(7 << 5) | int(kind)]) + payload
    if kind in (EncodedValueType.STRING, EncodedValueType.TYPE):
        payload = _trim_unsigned(int(value.value))
        return bytes([((len(payload) - 1) << 5) | int(kind)]) + payload
    raise DexEncodeError(f"cannot encode value kind {kind!r}")


def _trim_signed(value: int) -> bytes:
    for size in (1, 2, 4, 8):
        lo = -(1 << (size * 8 - 1))
        hi = (1 << (size * 8 - 1)) - 1
        if lo <= value <= hi:
            return value.to_bytes(size, "little", signed=True)
    raise DexEncodeError(f"integer {value} exceeds 64 bits")


def _trim_unsigned(value: int) -> bytes:
    for size in (1, 2, 4, 8):
        if value < (1 << (size * 8)):
            return value.to_bytes(size, "little")
    raise DexEncodeError(f"unsigned integer {value} exceeds 64 bits")


def _utf16_length(text: str) -> int:
    return sum(2 if ord(ch) > 0xFFFF else 1 for ch in text)
