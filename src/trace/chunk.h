// Chunked binary columnar codec underneath the ".fac" trace format
// (columnar_io.h). One chunk holds up to N rows of one table as per-column
// blocks: fixed-width numerics stored raw (zero-copy viewable), optional
// columns behind a presence bitmap, and free-text columns dictionary-coded
// per chunk. Every integer-like column carries a min/max footer so readers
// can skip chunks that cannot match a predicate (predicate pushdown,
// filters.h).
//
// Layout of an encoded chunk (all integers little-endian, blocks 8-aligned):
//   column block 0 | pad | column block 1 | pad | ...
// Block payload by encoding:
//   kInt64 / kFloat64   rows x 8 bytes
//   kInt32              rows x 4 bytes
//   kUInt8              rows x 1 byte
//   kOptFloat64         presence bitmap (ceil(rows/8), padded to 8) + rows x 8
//   kOptInt32           presence bitmap (ceil(rows/8), padded to 8) + rows x 4
//   kStringDict         u32 dict_count | u32 offsets[dict_count+1] |
//                       dict bytes (padded to 4) | u32 indices[rows]
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "src/trace/types.h"
#include "src/util/error.h"
#include "src/util/sim_time.h"

namespace fa::trace::columnar {

static_assert(std::endian::native == std::endian::little,
              "the columnar trace format assumes a little-endian host");

// The five tables of the CSV schema (docs/SCHEMA.md), in file order.
enum class Table : std::uint8_t {
  kServers = 0,
  kTickets = 1,
  kWeeklyUsage = 2,
  kPowerEvents = 3,
  kSnapshots = 4,
};
inline constexpr int kTableCount = 5;
inline constexpr std::array<Table, kTableCount> kAllTables = {
    Table::kServers, Table::kTickets, Table::kWeeklyUsage,
    Table::kPowerEvents, Table::kSnapshots};
std::string_view table_name(Table table);

enum class Encoding : std::uint8_t {
  kInt64 = 0,
  kInt32 = 1,
  kUInt8 = 2,
  kFloat64 = 3,
  kOptFloat64 = 4,
  kOptInt32 = 5,
  kStringDict = 6,
};
std::string_view encoding_name(Encoding encoding);

struct ColumnSpec {
  std::string_view name;
  Encoding encoding;
  // kUInt8 columns hold enums: every value lies in [0, domain). The builder
  // refuses to encode, and ChunkView to decode, a chunk with a value
  // outside it, so readers cast u8 values without a per-row check.
  int domain = 0;
};

// Column order mirrors the CSV headers minus the regenerable row-index id
// columns (servers.id / tickets.id are their row positions).
const std::vector<ColumnSpec>& table_schema(Table table);

// Column indexes, so pushdown/aggregation code never hard-codes positions.
namespace col {
enum ServersCol { kServerType = 0, kServerSubsystem, kServerCpuCount,
                  kServerMemoryGb, kServerDiskGb, kServerDiskCount,
                  kServerHostBox, kServerFirstRecord };
enum TicketsCol { kTicketIncident = 0, kTicketServer, kTicketSubsystem,
                  kTicketIsCrash, kTicketTrueClass, kTicketOpened,
                  kTicketClosed, kTicketDescription, kTicketResolution };
enum UsageCol { kUsageServer = 0, kUsageWeek, kUsageCpuUtil,
                kUsageMemUtil, kUsageDiskUtil, kUsageNetKbps };
enum PowerCol { kPowerServer = 0, kPowerAt, kPowerOn };
enum SnapshotsCol { kSnapServer = 0, kSnapMonth, kSnapBox,
                    kSnapConsolidation };
}  // namespace col

// Min/max footer of one integer-like column block (over present values for
// optional columns; absent when the chunk holds no present value).
struct ColumnStats {
  bool has_minmax = false;
  std::int64_t min = 0;
  std::int64_t max = 0;
};

// Directory entry of one encoded column block, stored in the file footer.
struct ColumnBlockInfo {
  std::uint64_t offset = 0;  // absolute file offset of the block
  std::uint64_t size = 0;    // unpadded payload size in bytes
  std::uint32_t extra = 0;   // kStringDict: dictionary cardinality
  ColumnStats stats;
};

// Directory entry of one chunk, stored in the file footer.
struct ChunkInfo {
  std::uint64_t offset = 0;     // absolute file offset (8-aligned)
  std::uint64_t size = 0;       // total padded chunk size in bytes
  std::uint32_t rows = 0;
  std::uint64_t checksum = 0;   // FNV-1a over the chunk's bytes
  std::vector<ColumnBlockInfo> columns;
};

// FNV-1a over a byte range (chunk + footer integrity checks).
std::uint64_t fnv1a(const std::byte* data, std::size_t size);

// ---- encoding ----

// Accumulates rows of one table column-wise, then encodes one chunk. Each
// column is held at its encoded width (i64, i32, u8 or f64 values, plus a
// presence bitmap for optional columns and a dictionary for text), so
// encode() copies the blocks and takes min/max.
//
// Rows arrive a slice at a time, column by column: each fill call appends
// the next n rows' values of one column, and advance_rows(n) completes the
// slice once every column received exactly n values. Checks run once per
// slice: the column's encoding and position, u8 values against the
// column's domain, and (at compile time) that the values convert to the
// column's width without loss. Each column's state is disjoint, so the
// columns of one slice may be filled from different threads. Dictionary
// slots follow row order within a column, so the bytes do not depend on
// how the rows are sliced.
class ChunkBuilder {
 public:
  explicit ChunkBuilder(Table table);

  Table table() const { return table_; }
  std::uint32_t rows() const { return rows_; }

  // T is the column's value type: std::int64_t (kInt64), std::int32_t
  // (kInt32), std::uint8_t (kUInt8) or double (kFloat64).
  template <typename T, typename Getter>  // Getter(i) -> value for rows [0, n)
  void fill(std::size_t column, std::size_t n, Getter&& get) {
    using V = std::remove_cvref_t<decltype(get(std::size_t{0}))>;
    static_assert(lossless<T, V>(), "columnar: value wider than its column");
    Column& c = slice_column(column, encoding_of<T>(false));
    T* out = room(values<T>(c), c.size, n);
    for (std::size_t i = 0; i < n; ++i) out[i] = static_cast<T>(get(i));
    if constexpr (std::is_same_v<T, std::uint8_t>) {
      std::uint8_t top = 0;
      for (std::size_t i = 0; i < n; ++i) top = std::max(top, out[i]);
      if (top >= c.domain) fail_domain(column, out, n);
    }
    c.size += n;
  }
  // Optional columns: T is std::int32_t (kOptInt32) or double
  // (kOptFloat64); an absent value is stored as 0 with its presence bit
  // clear.
  template <typename T, typename Getter>  // Getter(i) -> std::optional<U>
  void fill_optional(std::size_t column, std::size_t n, Getter&& get) {
    using V = typename std::remove_cvref_t<
        decltype(get(std::size_t{0}))>::value_type;
    static_assert(lossless<T, V>(), "columnar: value wider than its column");
    Column& c = slice_column(column, encoding_of<T>(true));
    T* out = room(values<T>(c), c.size, n);
    room(c.presence, 0, (c.size + n + 7) / 8);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& v = get(i);
      out[i] = v ? static_cast<T>(*v) : T{0};
      const std::size_t r = c.size + i;
      c.presence[r / 8] |= static_cast<std::uint8_t>(v.has_value() << (r % 8));
    }
    c.size += n;
  }
  template <typename Getter>  // Getter(i) -> std::string_view for rows [0, n)
  void fill_strings(std::size_t column, std::size_t n, Getter&& get) {
    Column& c = slice_column(column, Encoding::kStringDict);
    std::uint32_t* out = room(c.indices, c.size, n);
    for (std::size_t i = 0; i < n; ++i) out[i] = c.dict.slot(get(i));
    c.size += n;
  }
  // Completes a slice of n rows; every column must have received n values.
  void advance_rows(std::size_t n);

  // Appends the encoded chunk to `out` (which must be 8-aligned at its
  // current size; encode pads its own tail to 8) and returns the directory
  // entry with offsets relative to the chunk start. Clears the builder for
  // the next chunk.
  ChunkInfo encode(std::vector<std::byte>& out);

 private:
  // One chunk's dictionary of a kStringDict column, held the way the block
  // stores it: the distinct values back to back in one byte arena, and
  // their u32 offsets (slot s is bytes [offsets[s], offsets[s+1])). Slots
  // are numbered by first occurrence. Lookups go through an open-addressing
  // table of slot ids tagged with the value's hash, so a probe compares
  // arena bytes only on a hash match and a new value costs one arena
  // append, no per-value allocation.
  class StringDict {
   public:
    std::uint32_t slot(std::string_view v);  // inserts v when it is new
    std::uint32_t size() const {
      return static_cast<std::uint32_t>(offsets_.size() - 1);
    }
    std::span<const std::uint32_t> offsets() const { return offsets_; }
    std::string_view bytes() const { return bytes_; }
    void clear();  // keeps the arena's and the table's capacity

   private:
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;
    struct Entry {
      std::uint32_t hash;
      std::uint32_t slot;  // kNoSlot marks an empty entry
    };
    void grow();

    std::string bytes_;
    std::vector<std::uint32_t> offsets_{0};
    std::vector<Entry> table_;  // power-of-two size, at most half full
  };

  // Buffers hold at least `size` rows and keep their length from chunk to
  // chunk; the rows past `size` are stale (presence bits past it are 0).
  struct Column {
    Encoding encoding;
    int domain;                          // kUInt8 (ColumnSpec::domain)
    // Values at the encoded width; a column uses the one its encoding names.
    std::vector<std::int64_t> i64;       // kInt64
    std::vector<std::int32_t> i32;       // kInt32 / kOptInt32
    std::vector<std::uint8_t> u8;        // kUInt8
    std::vector<double> f64;             // kFloat64 / kOptFloat64
    std::vector<std::uint8_t> presence;  // optional columns: bit r % 8 of
                                         // byte r / 8 is row r's
    std::vector<std::uint32_t> indices;  // kStringDict row -> dict slot
    StringDict dict;                     // kStringDict
    std::size_t size = 0;                // rows filled in this chunk
  };

  // Whether every value of V converts to T without loss (enums by their
  // underlying type, bool as 0/1).
  template <typename T, typename V>
  static constexpr bool lossless() {
    if constexpr (std::is_enum_v<V>) {
      return lossless<T, std::underlying_type_t<V>>();
    } else if constexpr (std::is_floating_point_v<T>) {
      return std::is_same_v<T, V>;
    } else {
      return std::is_integral_v<V> &&
             std::numeric_limits<T>::digits >=
                 std::numeric_limits<V>::digits &&
             (std::is_signed_v<T> || !std::is_signed_v<V>);
    }
  }
  template <typename T>
  static constexpr Encoding encoding_of(bool optional) {
    if constexpr (std::is_same_v<T, std::int64_t>) {
      return Encoding::kInt64;
    } else if constexpr (std::is_same_v<T, std::int32_t>) {
      return optional ? Encoding::kOptInt32 : Encoding::kInt32;
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      return Encoding::kUInt8;
    } else {
      static_assert(std::is_same_v<T, double>, "columnar: no such column");
      return optional ? Encoding::kOptFloat64 : Encoding::kFloat64;
    }
  }
  template <typename T>
  static std::vector<T>& values(Column& c) {
    if constexpr (std::is_same_v<T, std::int64_t>) {
      return c.i64;
    } else if constexpr (std::is_same_v<T, std::int32_t>) {
      return c.i32;
    } else if constexpr (std::is_same_v<T, std::uint8_t>) {
      return c.u8;
    } else {
      return c.f64;
    }
  }
  // Makes room for elements [at, at + n) of `buffer`, doubling it when it
  // is too short (new elements are zero), and returns element `at`.
  template <typename T>
  static T* room(std::vector<T>& buffer, std::size_t at, std::size_t n) {
    if (buffer.size() < at + n) {
      buffer.resize(std::max(at + n, 2 * buffer.size()));
    }
    return buffer.data() + at;
  }

  // The column a slice fills: checks its index, its encoding and that it
  // has not been filled for this slice yet.
  Column& slice_column(std::size_t index, Encoding expected) {
    if (index >= columns_.size()) fail_column(index, expected);
    Column& c = columns_[index];
    if (c.encoding != expected || c.size != rows_) fail_column(index, expected);
    return c;
  }
  [[noreturn]] void fail_column(std::size_t index, Encoding expected) const;
  // Names the first of a slice's n u8 values outside the column's domain.
  [[noreturn]] void fail_domain(std::size_t index, const std::uint8_t* values,
                                std::size_t n) const;
  [[noreturn]] void fail_row_incomplete() const;

  Table table_;
  std::vector<Column> columns_;
  std::uint32_t rows_ = 0;
};

// ---- decoding ----

// Zero-copy view of one decoded column block. Spans point into the chunk's
// backing bytes (an mmap region or the reader's buffer) — the owning
// ChunkView/ChunkReader must outlive them.
class ColumnView {
 public:
  Encoding encoding() const { return encoding_; }
  std::uint32_t rows() const { return rows_; }

  // Row accessors (bounds unchecked on the row).
  bool present_at(std::uint32_t row) const {  // non-optional: always true
    if (bitmap_ == nullptr) return true;
    return (static_cast<std::uint8_t>(bitmap_[row / 8]) >> (row % 8)) & 1u;
  }
  // kStringDict: the dictionary blob (every slot's bytes back to back), and
  // row `row`'s text: its slot within `dictionary`, which holds
  // dictionary()'s bytes (the blob itself, or a copy that outlives the
  // chunk). A reader that copies the blob once can point every row of the
  // chunk into its copy.
  std::string_view dictionary() const;
  std::string_view slot_at(std::uint32_t row,
                           std::string_view dictionary) const {
    const std::uint32_t slot = indices_[row];
    return {dictionary.data() + dict_offsets_[slot],
            dict_offsets_[slot + 1] - dict_offsets_[slot]};
  }

  // Typed zero-copy spans (throw on encoding mismatch).
  std::span<const std::int64_t> i64_span() const;
  std::span<const std::int32_t> i32_span() const;
  std::span<const std::uint8_t> u8_span() const;
  std::span<const double> f64_span() const;

 private:
  friend class ChunkView;

  Encoding encoding_ = Encoding::kInt64;
  std::uint32_t rows_ = 0;
  const std::byte* values_ = nullptr;    // numeric payload
  const std::byte* bitmap_ = nullptr;    // optional columns
  // kStringDict:
  const std::uint32_t* dict_offsets_ = nullptr;
  const char* dict_bytes_ = nullptr;
  std::uint32_t dict_size_ = 0;  // blob bytes
  const std::uint32_t* indices_ = nullptr;
};

// One decoded chunk: per-column views over its backing bytes. When `owned`
// is non-empty the view carries its own copy (buffered reads); otherwise it
// borrows the reader's mapping. Construction validates the chunk once, so
// per-row reads need no checks: block sizes, every u8 value against its
// column's domain, and every dictionary's offsets and row indices. A
// failed check throws fa::Error naming the table, column and row
// (ChunkReader::chunk() rethrows it as a kDecodeError ChunkError).
class ChunkView {
 public:
  // `base` must point at the chunk start and stay valid for the view's
  // lifetime; block i starts at `info.columns[i].offset - info.offset`
  // bytes into the chunk.
  ChunkView(Table table, const ChunkInfo& info, const std::byte* base,
            std::vector<std::byte> owned = {});

  Table table() const { return table_; }
  std::uint32_t rows() const { return rows_; }
  std::size_t column_count() const { return columns_.size(); }
  const ColumnView& column(std::size_t index) const;

 private:
  Table table_;
  std::uint32_t rows_ = 0;
  std::vector<ColumnView> columns_;
  std::vector<std::byte> owned_;
};

}  // namespace fa::trace::columnar
