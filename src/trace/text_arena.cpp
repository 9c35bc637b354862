#include "src/trace/text_arena.h"

#include <cstring>
#include <utility>

namespace fa::trace {

TextArena::TextArena(TextArena&& other) noexcept
    : blocks_(std::move(other.blocks_)),
      next_(std::exchange(other.next_, nullptr)),
      left_(std::exchange(other.left_, 0)) {}

TextArena& TextArena::operator=(TextArena&& other) noexcept {
  if (this != &other) {
    blocks_ = std::move(other.blocks_);
    next_ = std::exchange(other.next_, nullptr);
    left_ = std::exchange(other.left_, 0);
  }
  return *this;
}

std::string_view TextArena::store(std::string_view text) {
  if (text.empty()) return {};
  char* out = nullptr;
  if (text.size() > kBlockBytes / 2) {
    out = blocks_.emplace_back(
                     std::make_unique_for_overwrite<char[]>(text.size()))
              .get();
  } else {
    if (text.size() > left_) {
      next_ = blocks_.emplace_back(
                         std::make_unique_for_overwrite<char[]>(kBlockBytes))
                  .get();
      left_ = kBlockBytes;
    }
    out = next_;
    next_ += text.size();
    left_ -= text.size();
  }
  std::memcpy(out, text.data(), text.size());
  return {out, text.size()};
}

}  // namespace fa::trace
