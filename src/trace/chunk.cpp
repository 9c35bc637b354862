#include "src/trace/chunk.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "src/util/error.h"
#include "src/util/strings.h"

namespace fa::trace::columnar {
namespace {

constexpr std::size_t kBlockAlign = 8;

std::size_t padded(std::size_t size, std::size_t align = kBlockAlign) {
  return (size + align - 1) / align * align;
}

void append_bytes(std::vector<std::byte>& out, const void* data,
                  std::size_t size) {
  const auto* p = static_cast<const std::byte*>(data);
  out.insert(out.end(), p, p + size);
}

void pad_to(std::vector<std::byte>& out, std::size_t align) {
  out.resize(padded(out.size(), align), std::byte{0});
}

// Dictionary table size on a chunk's first lookup: up to 1,024 distinct
// values before the first grow().
constexpr std::size_t kDictTableMin = 2048;

[[noreturn]] void fail_dict_overflow() {
  throw Error("columnar: dictionary blob exceeds 4 GiB");
}

// Row of the first value outside [0, domain), or `rows` when there is
// none. The max pass is branch-free, so a valid block costs one
// vectorizable sweep.
std::uint32_t first_outside_domain(const std::uint8_t* values,
                                   std::uint32_t rows, int domain) {
  std::uint8_t top = 0;
  for (std::uint32_t r = 0; r < rows; ++r) top = std::max(top, values[r]);
  if (top < domain) return rows;
  return static_cast<std::uint32_t>(
      std::find_if(values, values + rows,
                   [domain](std::uint8_t v) { return v >= domain; }) -
      values);
}

// Row of the first present value that is not finite, or `rows` when there
// is none. In memory an absent optional double is NaN (OptionalDouble), so
// a present NaN or infinity cannot be held and is refused. The finiteness
// pass is branch-free; presence bits are read only when it fails.
std::uint32_t first_nonfinite_present(const std::byte* bitmap,
                                      const double* values,
                                      std::uint32_t rows) {
  bool any = false;
  for (std::uint32_t r = 0; r < rows; ++r) any |= !std::isfinite(values[r]);
  if (!any) return rows;
  for (std::uint32_t r = 0; r < rows; ++r) {
    const bool present =
        (static_cast<std::uint8_t>(bitmap[r / 8]) >> (r % 8)) & 1u;
    if (present && !std::isfinite(values[r])) return r;
  }
  return rows;
}

}  // namespace

std::string_view table_name(Table table) {
  switch (table) {
    case Table::kServers: return "servers";
    case Table::kTickets: return "tickets";
    case Table::kWeeklyUsage: return "weekly_usage";
    case Table::kPowerEvents: return "power_events";
    case Table::kSnapshots: return "snapshots";
  }
  throw Error("unknown columnar table");
}

std::string_view encoding_name(Encoding encoding) {
  switch (encoding) {
    case Encoding::kInt64: return "i64";
    case Encoding::kInt32: return "i32";
    case Encoding::kUInt8: return "u8";
    case Encoding::kFloat64: return "f64";
    case Encoding::kOptFloat64: return "opt_f64";
    case Encoding::kOptInt32: return "opt_i32";
    case Encoding::kStringDict: return "str_dict";
  }
  throw Error("unknown columnar encoding");
}

const std::vector<ColumnSpec>& table_schema(Table table) {
  static const std::vector<ColumnSpec> servers = {
      {"type", Encoding::kUInt8, kMachineTypeCount},
      {"subsystem", Encoding::kUInt8, kSubsystemCount},
      {"cpu_count", Encoding::kInt32},
      {"memory_gb", Encoding::kFloat64},
      {"disk_gb", Encoding::kOptFloat64},
      {"disk_count", Encoding::kOptInt32},
      {"host_box", Encoding::kInt32},
      {"first_record", Encoding::kInt64},
  };
  static const std::vector<ColumnSpec> tickets = {
      {"incident", Encoding::kInt32},
      {"server", Encoding::kInt32},
      {"subsystem", Encoding::kUInt8, kSubsystemCount},
      {"is_crash", Encoding::kUInt8, 2},
      {"true_class", Encoding::kUInt8, kFailureClassCount},
      {"opened", Encoding::kInt64},
      {"closed", Encoding::kInt64},
      {"description", Encoding::kStringDict},
      {"resolution", Encoding::kStringDict},
  };
  static const std::vector<ColumnSpec> weekly_usage = {
      {"server", Encoding::kInt32},
      {"week", Encoding::kInt32},
      {"cpu_util", Encoding::kFloat64},
      {"mem_util", Encoding::kFloat64},
      {"disk_util", Encoding::kOptFloat64},
      {"net_kbps", Encoding::kOptFloat64},
  };
  static const std::vector<ColumnSpec> power_events = {
      {"server", Encoding::kInt32},
      {"at", Encoding::kInt64},
      {"powered_on", Encoding::kUInt8, 2},
  };
  static const std::vector<ColumnSpec> snapshots = {
      {"server", Encoding::kInt32},
      {"month", Encoding::kInt32},
      {"box", Encoding::kInt32},
      {"consolidation", Encoding::kInt32},
  };
  switch (table) {
    case Table::kServers: return servers;
    case Table::kTickets: return tickets;
    case Table::kWeeklyUsage: return weekly_usage;
    case Table::kPowerEvents: return power_events;
    case Table::kSnapshots: return snapshots;
  }
  throw Error("unknown columnar table");
}

std::uint64_t fnv1a(const std::byte* data, std::size_t size) {
  std::uint64_t hash = 1469598103934665603ULL;
  std::size_t i = 0;
  // Word-wise FNV-1a: one xor/multiply per 8-byte word instead of per byte
  // (chunks are 8-aligned, so only the footer tail takes the byte loop).
  // Every byte still feeds the hash, so any single-byte flip changes it.
  for (; i + 8 <= size; i += 8) {
    std::uint64_t word;
    std::memcpy(&word, data + i, sizeof(word));
    hash ^= word;
    hash *= 1099511628211ULL;
  }
  for (; i < size; ++i) {
    hash ^= static_cast<std::uint64_t>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

// ---- ChunkBuilder ----

ChunkBuilder::ChunkBuilder(Table table) : table_(table) {
  const auto& schema = table_schema(table);
  columns_.resize(schema.size());
  for (std::size_t i = 0; i < schema.size(); ++i) {
    columns_[i].encoding = schema[i].encoding;
    columns_[i].domain = schema[i].domain;
  }
}

// The fills run on every slice of every saved trace, so the happy path
// must not construct error messages: checks branch to these cold
// [[noreturn]] helpers, which build the diagnostic only when a check fires.
void ChunkBuilder::fail_column(std::size_t index, Encoding expected) const {
  require(index < columns_.size(), "columnar: column index out of range");
  if (columns_[index].encoding != expected) {
    throw Error("columnar: column " + std::to_string(index) + " of " +
                std::string(table_name(table_)) + " expects encoding " +
                std::string(encoding_name(columns_[index].encoding)) +
                ", got " + std::string(encoding_name(expected)));
  }
  throw Error("columnar: column " +
              std::string(table_schema(table_)[index].name) + " of " +
              std::string(table_name(table_)) +
              " filled twice in one slice");
}

void ChunkBuilder::fail_domain(std::size_t index, const std::uint8_t* values,
                               std::size_t n) const {
  const int domain = columns_[index].domain;
  const std::uint32_t bad =
      first_outside_domain(values, static_cast<std::uint32_t>(n), domain);
  throw Error("columnar: " + std::string(table_name(table_)) + "." +
              std::string(table_schema(table_)[index].name) + " value " +
              std::to_string(values[bad]) + " outside its domain [0, " +
              std::to_string(domain) + ")");
}

void ChunkBuilder::fail_row_incomplete() const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].size != rows_) {
      throw Error("columnar: row " + std::to_string(rows_ - 1) + " of " +
                  std::string(table_name(table_)) + " left column " +
                  std::string(table_schema(table_)[i].name) + " unset");
    }
  }
  throw Error("columnar: row completion check failed");
}

// ---- ChunkBuilder::StringDict ----

std::uint32_t ChunkBuilder::StringDict::slot(std::string_view v) {
  if (table_.empty()) table_.assign(kDictTableMin, Entry{0, kNoSlot});
  // The low bits pick the home entry; all 32 bits tag it.
  const auto hash =
      static_cast<std::uint32_t>(std::hash<std::string_view>{}(v));
  const std::size_t mask = table_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    Entry& e = table_[i];
    if (e.slot == kNoSlot) {
      if (v.size() > UINT32_MAX - bytes_.size()) fail_dict_overflow();
      const std::uint32_t slot = size();
      e = {hash, slot};
      bytes_.append(v);
      offsets_.push_back(static_cast<std::uint32_t>(bytes_.size()));
      if (2 * std::size_t{size()} > table_.size()) grow();
      return slot;
    }
    if (e.hash == hash &&
        std::string_view(bytes_.data() + offsets_[e.slot],
                         offsets_[e.slot + 1] - offsets_[e.slot]) == v) {
      return e.slot;
    }
  }
}

void ChunkBuilder::StringDict::grow() {
  std::vector<Entry> bigger(table_.size() * 2, Entry{0, kNoSlot});
  const std::size_t mask = bigger.size() - 1;
  for (const Entry& e : table_) {
    if (e.slot == kNoSlot) continue;
    std::size_t i = e.hash & mask;
    while (bigger[i].slot != kNoSlot) i = (i + 1) & mask;
    bigger[i] = e;
  }
  table_.swap(bigger);
}

void ChunkBuilder::StringDict::clear() {
  bytes_.clear();
  offsets_.resize(1);
  std::fill(table_.begin(), table_.end(), Entry{0, kNoSlot});
}

void ChunkBuilder::advance_rows(std::size_t n) {
  rows_ += static_cast<std::uint32_t>(n);
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].size != rows_) fail_row_incomplete();
  }
}

namespace {

// Min/max of the first `rows` values that are present (all of them when
// `presence` is null).
template <typename T>
ColumnStats minmax(const std::vector<T>& values, std::size_t rows,
                   const std::uint8_t* presence) {
  const auto present = [&](std::size_t r) {
    return presence == nullptr || ((presence[r / 8] >> (r % 8)) & 1u);
  };
  std::size_t r = 0;
  while (r < rows && !present(r)) ++r;
  if (r == rows) return {};
  T lo = values[r], hi = values[r];
  for (; r < rows; ++r) {
    if (!present(r)) continue;
    lo = std::min(lo, values[r]);
    hi = std::max(hi, values[r]);
  }
  return {true, lo, hi};
}

// The first `rows` values of a column buffer.
template <typename T>
void append_values(std::vector<std::byte>& out, const std::vector<T>& values,
                   std::size_t rows) {
  append_bytes(out, values.data(), rows * sizeof(T));
}

}  // namespace

ChunkInfo ChunkBuilder::encode(std::vector<std::byte>& out) {
  require(out.size() % kBlockAlign == 0,
          "columnar: chunk output buffer not 8-aligned");
  ChunkInfo info;
  info.rows = rows_;
  info.offset = out.size();
  info.columns.resize(columns_.size());

  for (std::size_t ci = 0; ci < columns_.size(); ++ci) {
    Column& c = columns_[ci];
    ColumnBlockInfo& block = info.columns[ci];
    block.offset = out.size();

    // The presence bitmap block: the packed bits, zero-padded to 8 bytes.
    const std::size_t bitmap_bytes = (rows_ + 7) / 8;
    const auto write_presence = [&] {
      append_bytes(out, c.presence.data(), bitmap_bytes);
      out.resize(out.size() + padded(bitmap_bytes) - bitmap_bytes,
                 std::byte{0});
    };

    switch (c.encoding) {
      case Encoding::kInt64:
        append_values(out, c.i64, rows_);
        block.stats = minmax(c.i64, rows_, nullptr);
        break;
      case Encoding::kInt32:
        append_values(out, c.i32, rows_);
        block.stats = minmax(c.i32, rows_, nullptr);
        break;
      case Encoding::kUInt8:
        append_values(out, c.u8, rows_);
        block.stats = minmax(c.u8, rows_, nullptr);
        break;
      case Encoding::kFloat64:
        append_values(out, c.f64, rows_);
        break;
      case Encoding::kOptFloat64:
        write_presence();
        append_values(out, c.f64, rows_);
        break;
      case Encoding::kOptInt32:
        write_presence();
        append_values(out, c.i32, rows_);
        block.stats = minmax(c.i32, rows_, c.presence.data());
        break;
      case Encoding::kStringDict: {
        const std::uint32_t dict_count = c.dict.size();
        block.extra = dict_count;
        append_bytes(out, &dict_count, sizeof(dict_count));
        append_bytes(out, c.dict.offsets().data(),
                     c.dict.offsets().size_bytes());
        append_bytes(out, c.dict.bytes().data(), c.dict.bytes().size());
        pad_to(out, 4);
        append_values(out, c.indices, rows_);
        break;
      }
    }

    block.size = out.size() - block.offset;
    pad_to(out, kBlockAlign);

    // Reset for the next chunk, keeping the buffers.
    std::fill_n(c.presence.begin(), std::min(bitmap_bytes, c.presence.size()),
                std::uint8_t{0});
    c.dict.clear();
    c.size = 0;
  }

  info.size = out.size() - info.offset;
  info.checksum = fnv1a(out.data() + info.offset, info.size);
  rows_ = 0;
  return info;
}

// ---- ColumnView ----

std::string_view ColumnView::dictionary() const {
  require(encoding_ == Encoding::kStringDict,
          "columnar: not a dictionary column");
  return {dict_bytes_, dict_size_};
}

std::span<const std::int64_t> ColumnView::i64_span() const {
  require(encoding_ == Encoding::kInt64, "columnar: not an int64 column");
  return {reinterpret_cast<const std::int64_t*>(values_), rows_};
}

std::span<const std::int32_t> ColumnView::i32_span() const {
  require(encoding_ == Encoding::kInt32 || encoding_ == Encoding::kOptInt32,
          "columnar: not an int32 column");
  return {reinterpret_cast<const std::int32_t*>(values_), rows_};
}

std::span<const std::uint8_t> ColumnView::u8_span() const {
  require(encoding_ == Encoding::kUInt8, "columnar: not a uint8 column");
  return {reinterpret_cast<const std::uint8_t*>(values_), rows_};
}

std::span<const double> ColumnView::f64_span() const {
  require(encoding_ == Encoding::kFloat64 ||
              encoding_ == Encoding::kOptFloat64,
          "columnar: not a double column");
  return {reinterpret_cast<const double*>(values_), rows_};
}

// ---- ChunkView ----

ChunkView::ChunkView(Table table, const ChunkInfo& info, const std::byte* base,
                     std::vector<std::byte> owned)
    : table_(table), rows_(info.rows), owned_(std::move(owned)) {
  if (!owned_.empty()) base = owned_.data();
  const auto& schema = table_schema(table);
  require(info.columns.size() == schema.size(),
          "columnar: chunk directory column count mismatch");
  columns_.resize(schema.size());
  for (std::size_t ci = 0; ci < schema.size(); ++ci) {
    const ColumnBlockInfo& block = info.columns[ci];
    require(block.offset >= info.offset &&
                block.offset + block.size <= info.offset + info.size,
            "columnar: column block escapes its chunk");
    const std::byte* p = base + (block.offset - info.offset);
    ColumnView& view = columns_[ci];
    view.encoding_ = schema[ci].encoding;
    view.rows_ = rows_;

    const std::size_t bitmap_bytes = padded((rows_ + 7) / 8);
    auto expect_size = [&](std::size_t want) {
      if (block.size == want) return;
      throw Error("columnar: column " + std::string(schema[ci].name) + " of " +
                  std::string(table_name(table)) + " has size " +
                  std::to_string(block.size) + " bytes, expected " +
                  std::to_string(want));
    };

    switch (schema[ci].encoding) {
      case Encoding::kInt64:
      case Encoding::kFloat64:
        expect_size(rows_ * 8ull);
        view.values_ = p;
        break;
      case Encoding::kInt32:
        expect_size(rows_ * 4ull);
        view.values_ = p;
        break;
      case Encoding::kUInt8: {
        expect_size(rows_);
        view.values_ = p;
        const auto* values = reinterpret_cast<const std::uint8_t*>(p);
        const int domain = schema[ci].domain;
        const std::uint32_t bad = first_outside_domain(values, rows_, domain);
        if (bad < rows_) {
          throw Error("columnar: " + std::string(table_name(table)) + "." +
                      std::string(schema[ci].name) + " row " +
                      std::to_string(bad) + " holds " +
                      std::to_string(values[bad]) +
                      ", outside its domain [0, " + std::to_string(domain) +
                      ")");
        }
        break;
      }
      case Encoding::kOptFloat64: {
        expect_size(bitmap_bytes + rows_ * 8ull);
        view.bitmap_ = p;
        view.values_ = p + bitmap_bytes;
        const auto* values = reinterpret_cast<const double*>(view.values_);
        const std::uint32_t bad =
            first_nonfinite_present(view.bitmap_, values, rows_);
        if (bad < rows_) {
          throw Error("columnar: " + std::string(table_name(table)) + "." +
                      std::string(schema[ci].name) + " row " +
                      std::to_string(bad) + " holds " +
                      std::to_string(values[bad]) + ", not a finite value");
        }
        break;
      }
      case Encoding::kOptInt32:
        expect_size(bitmap_bytes + rows_ * 4ull);
        view.bitmap_ = p;
        view.values_ = p + bitmap_bytes;
        break;
      case Encoding::kStringDict: {
        require(block.size >= sizeof(std::uint32_t),
                "columnar: dictionary block truncated");
        std::uint32_t dict_count;
        std::memcpy(&dict_count, p, sizeof(dict_count));
        require(dict_count == block.extra,
                "columnar: dictionary cardinality disagrees with footer");
        const std::size_t offsets_bytes =
            (std::size_t(dict_count) + 1) * sizeof(std::uint32_t);
        require(block.size >= sizeof(std::uint32_t) + offsets_bytes,
                "columnar: dictionary offsets truncated");
        view.dict_offsets_ = reinterpret_cast<const std::uint32_t*>(
            p + sizeof(std::uint32_t));
        const std::size_t blob_start = sizeof(std::uint32_t) + offsets_bytes;
        const std::uint32_t blob_size = view.dict_offsets_[dict_count];
        const std::size_t indices_start =
            padded(blob_start + blob_size, 4);
        expect_size(indices_start + rows_ * sizeof(std::uint32_t));
        view.dict_bytes_ = reinterpret_cast<const char*>(p + blob_start);
        view.dict_size_ = blob_size;
        view.indices_ = reinterpret_cast<const std::uint32_t*>(
            p + indices_start);
        // Non-decreasing offsets keep every slot's bytes inside the blob.
        for (std::uint32_t s = 0; s < dict_count; ++s) {
          require(view.dict_offsets_[s] <= view.dict_offsets_[s + 1],
                  "columnar: dictionary offsets decrease");
        }
        std::uint32_t top = 0;
        for (std::uint32_t r = 0; r < rows_; ++r) {
          top = std::max(top, view.indices_[r]);
        }
        require(rows_ == 0 || top < dict_count,
                "columnar: dictionary index out of range");
        break;
      }
    }
  }
}

const ColumnView& ChunkView::column(std::size_t index) const {
  require(index < columns_.size(), "columnar: column index out of range");
  return columns_[index];
}

}  // namespace fa::trace::columnar
