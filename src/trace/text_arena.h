// Append-only store for ticket text. Bytes are copied into blocks that never
// move, grow or shrink, so a string_view into the arena stays valid for the
// arena's lifetime, and across moves: a moved arena hands its blocks over
// unchanged. Copying is deleted, since a copy's views would still point at
// the source's blocks.
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>
#include <vector>

namespace fa::trace {

class TextArena {
 public:
  TextArena() = default;
  TextArena(TextArena&& other) noexcept;
  TextArena& operator=(TextArena&& other) noexcept;
  TextArena(const TextArena&) = delete;
  TextArena& operator=(const TextArena&) = delete;

  // Copies `text` in and returns the copy. Small texts share blocks; one
  // larger than half a block (a chunk's dictionary) gets a block of its
  // own at its exact size.
  std::string_view store(std::string_view text);

 private:
  static constexpr std::size_t kBlockBytes = 64 * 1024;

  std::vector<std::unique_ptr<char[]>> blocks_;
  char* next_ = nullptr;  // free tail of the current shared block
  std::size_t left_ = 0;
};

}  // namespace fa::trace
