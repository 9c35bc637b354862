#include "src/trace/columnar_format.h"

#include <cstring>

#include "src/util/error.h"

namespace fa::trace::format {

namespace {

using columnar::ChunkInfo;
using columnar::ColumnBlockInfo;
using columnar::Encoding;
using columnar::Table;
using columnar::kTableCount;
using columnar::table_schema;

struct PayloadWriter {
  std::vector<std::byte> bytes;

  template <typename T>
  void put(T v) {
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    bytes.insert(bytes.end(), p, p + sizeof(T));
  }
};

struct PayloadParser {
  const std::byte* p;
  const std::byte* end;
  const std::string& path;

  template <typename T>
  T get() {
    // One call per footer field: build the message only on failure.
    if (p + sizeof(T) > end) {
      throw Error("columnar: " + path + " footer truncated");
    }
    T v;
    std::memcpy(&v, p, sizeof(T));
    p += sizeof(T);
    return v;
  }
};

}  // namespace

void write_frame_header(const FrameHeader& header, std::byte* out) {
  std::memcpy(out, kFrameMagic.data(), 4);
  out[4] = static_cast<std::byte>(header.kind);
  out[5] = static_cast<std::byte>(header.table);
  const std::uint16_t reserved = 0;
  std::memcpy(out + 6, &reserved, 2);
  std::memcpy(out + 8, &header.rows, 4);
  const std::uint32_t pad = 0;
  std::memcpy(out + 12, &pad, 4);
  std::memcpy(out + 16, &header.payload_size, 8);
  std::memcpy(out + 24, &header.checksum, 8);
}

bool parse_frame_header(const std::byte* p, FrameHeader& header) {
  if (std::memcmp(p, kFrameMagic.data(), 4) != 0) return false;
  const auto kind = static_cast<std::uint8_t>(p[4]);
  if (kind > static_cast<std::uint8_t>(FrameKind::kCheckpoint)) return false;
  header.kind = static_cast<FrameKind>(kind);
  header.table = static_cast<std::uint8_t>(p[5]);
  const bool checkpoint = header.kind == FrameKind::kCheckpoint;
  if (checkpoint ? header.table != kNoTable
                 : header.table >= kTableCount) {
    return false;
  }
  std::memcpy(&header.rows, p + 8, 4);
  std::memcpy(&header.payload_size, p + 16, 8);
  std::memcpy(&header.checksum, p + 24, 8);
  if (header.kind == FrameKind::kChunk && header.rows == 0) return false;
  if (header.payload_size == 0) return false;
  return true;
}

std::vector<std::byte> serialize_footer_payload(const FooterImage& image) {
  PayloadWriter f;
  f.put<std::int64_t>(image.window.begin);
  f.put<std::int64_t>(image.window.end);
  f.put<std::int64_t>(image.monitoring.begin);
  f.put<std::int64_t>(image.monitoring.end);
  f.put<std::int64_t>(image.onoff.begin);
  f.put<std::int64_t>(image.onoff.end);
  f.put<std::int32_t>(image.next_incident);
  f.put<std::uint32_t>(image.chunk_rows);
  for (int t = 0; t < kTableCount; ++t) {
    f.put<std::uint64_t>(image.row_counts[t]);
    f.put<std::uint32_t>(
        static_cast<std::uint32_t>(image.directory[t].size()));
    for (const ChunkInfo& chunk : image.directory[t]) {
      f.put<std::uint64_t>(chunk.offset);
      f.put<std::uint64_t>(chunk.size);
      f.put<std::uint32_t>(chunk.rows);
      f.put<std::uint64_t>(chunk.checksum);
      f.put<std::uint32_t>(static_cast<std::uint32_t>(chunk.columns.size()));
      for (const ColumnBlockInfo& block : chunk.columns) {
        f.put<std::uint64_t>(block.offset);
        f.put<std::uint64_t>(block.size);
        f.put<std::uint32_t>(block.extra);
        f.put<std::uint8_t>(block.stats.has_minmax ? 1 : 0);
        f.put<std::int64_t>(block.stats.min);
        f.put<std::int64_t>(block.stats.max);
      }
    }
  }
  return std::move(f.bytes);
}

FooterImage parse_footer_payload(const std::byte* data, std::size_t size,
                                 std::uint64_t data_end,
                                 const std::string& path) {
  FooterImage image;
  PayloadParser p{data, data + size, path};
  image.window.begin = p.get<std::int64_t>();
  image.window.end = p.get<std::int64_t>();
  image.monitoring.begin = p.get<std::int64_t>();
  image.monitoring.end = p.get<std::int64_t>();
  image.onoff.begin = p.get<std::int64_t>();
  image.onoff.end = p.get<std::int64_t>();
  image.next_incident = p.get<std::int32_t>();
  image.chunk_rows = p.get<std::uint32_t>();
  for (int t = 0; t < kTableCount; ++t) {
    const Table table = columnar::kAllTables[t];
    image.row_counts[t] = p.get<std::uint64_t>();
    const std::uint32_t chunk_count = p.get<std::uint32_t>();
    std::uint64_t rows_seen = 0;
    image.directory[t].reserve(chunk_count);
    for (std::uint32_t i = 0; i < chunk_count; ++i) {
      ChunkInfo chunk;
      chunk.offset = p.get<std::uint64_t>();
      chunk.size = p.get<std::uint64_t>();
      chunk.rows = p.get<std::uint32_t>();
      chunk.checksum = p.get<std::uint64_t>();
      const std::uint32_t column_count = p.get<std::uint32_t>();
      require(column_count == table_schema(table).size(),
              "columnar: " + path +
                  " chunk directory column count mismatch");
      require(chunk.offset % 8 == 0 && chunk.offset >= kHeaderBytes &&
                  chunk.size <= data_end &&
                  chunk.offset <= data_end - chunk.size,
              "columnar: " + path + " chunk escapes the data region");
      chunk.columns.resize(column_count);
      for (ColumnBlockInfo& block : chunk.columns) {
        block.offset = p.get<std::uint64_t>();
        block.size = p.get<std::uint64_t>();
        block.extra = p.get<std::uint32_t>();
        block.stats.has_minmax = p.get<std::uint8_t>() != 0;
        block.stats.min = p.get<std::int64_t>();
        block.stats.max = p.get<std::int64_t>();
      }
      rows_seen += chunk.rows;
      image.directory[t].push_back(std::move(chunk));
    }
    require(rows_seen == image.row_counts[t],
            "columnar: " + path +
                " chunk rows disagree with table row count");
  }
  require(p.p == p.end,
          "columnar: " + path + " footer has trailing bytes");
  return image;
}

columnar::ChunkInfo reconstruct_chunk_info(Table table, std::uint32_t rows,
                                           std::span<const std::byte> payload,
                                           const std::string& path) {
  const auto fail = [&](const char* what) -> void {
    throw Error("columnar: " + path + ": cannot reconstruct " +
                std::string(columnar::table_name(table)) + " chunk (" + what +
                ")");
  };

  ChunkInfo info;
  info.offset = 0;
  info.size = payload.size();
  info.rows = rows;
  info.checksum = columnar::fnv1a(payload.data(), payload.size());

  const auto& schema = table_schema(table);
  std::uint64_t cursor = 0;
  const std::uint64_t bitmap_bytes = padded((rows + 7) / 8, 8);
  for (const columnar::ColumnSpec& spec : schema) {
    ColumnBlockInfo block;
    block.offset = cursor;
    switch (spec.encoding) {
      case Encoding::kInt64:
      case Encoding::kFloat64:
        block.size = std::uint64_t{rows} * 8;
        break;
      case Encoding::kInt32:
        block.size = std::uint64_t{rows} * 4;
        break;
      case Encoding::kUInt8:
        block.size = rows;
        break;
      case Encoding::kOptFloat64:
        block.size = bitmap_bytes + std::uint64_t{rows} * 8;
        break;
      case Encoding::kOptInt32:
        block.size = bitmap_bytes + std::uint64_t{rows} * 4;
        break;
      case Encoding::kStringDict: {
        // u32 dict_count | u32 offsets[dict_count+1] | blob (pad 4) |
        // u32 indices[rows]
        if (cursor + 4 > payload.size()) fail("dictionary header truncated");
        std::uint32_t dict_count = 0;
        std::memcpy(&dict_count, payload.data() + cursor, 4);
        const std::uint64_t offsets_end =
            cursor + 4 + (std::uint64_t{dict_count} + 1) * 4;
        if (offsets_end > payload.size()) fail("dictionary offsets truncated");
        std::uint32_t blob_size = 0;
        std::memcpy(&blob_size, payload.data() + offsets_end - 4, 4);
        const std::uint64_t indices_start =
            padded(4 + (std::uint64_t{dict_count} + 1) * 4 + blob_size, 4);
        block.size = indices_start + std::uint64_t{rows} * 4;
        block.extra = dict_count;
        break;
      }
    }
    if (block.offset + block.size > payload.size()) {
      fail("column block escapes the payload");
    }
    cursor = padded(block.offset + block.size, 8);
    info.columns.push_back(block);
  }
  if (cursor != payload.size()) fail("trailing bytes after the last column");
  return info;
}

}  // namespace fa::trace::format
