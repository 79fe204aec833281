#include "common/arena.hpp"

#include "common/error.hpp"

namespace clflow::common {

Arena::Arena(std::size_t block_bytes)
    : block_bytes_(block_bytes == 0 ? kDefaultBlockBytes : block_bytes) {}

Arena::Block& Arena::NewBlock(std::size_t min_bytes) {
  Block b;
  b.size = std::max(block_bytes_, min_bytes);
  b.data = std::make_unique<std::byte[]>(b.size);
  bytes_reserved_ += b.size;
  blocks_.push_back(std::move(b));
  return blocks_.back();
}

void* Arena::Allocate(std::size_t bytes, std::size_t align) {
  CLFLOW_CHECK(align != 0 && (align & (align - 1)) == 0);
  if (bytes == 0) bytes = 1;
  Block* block = blocks_.empty() ? nullptr : &blocks_.back();
  std::size_t offset = 0;
  if (block != nullptr) {
    offset = (block->used + align - 1) & ~(align - 1);
    if (offset + bytes > block->size) block = nullptr;
  }
  if (block == nullptr) {
    // Fresh blocks are max-aligned by new[], so offset 0 satisfies any
    // fundamental alignment.
    block = &NewBlock(bytes);
    offset = 0;
  }
  void* p = block->data.get() + offset;
  block->used = offset + bytes;
  bytes_used_ += bytes;
  ++num_allocations_;
  return p;
}

void Arena::Reset() {
  if (blocks_.size() > 1) {
    blocks_.erase(blocks_.begin() + 1, blocks_.end());
  }
  if (!blocks_.empty()) {
    blocks_.front().used = 0;
    bytes_reserved_ = blocks_.front().size;
  } else {
    bytes_reserved_ = 0;
  }
  bytes_used_ = 0;
  num_allocations_ = 0;
}

namespace {
thread_local ArenaScope* tls_current_scope = nullptr;
}  // namespace

ArenaScope::ArenaScope(std::shared_ptr<Arena> arena)
    : arena_(std::move(arena)), prev_(tls_current_scope) {
  CLFLOW_CHECK(arena_ != nullptr);
  tls_current_scope = this;
}

ArenaScope::~ArenaScope() { tls_current_scope = prev_; }

const std::shared_ptr<Arena>* ArenaScope::Current() {
  return tls_current_scope != nullptr ? &tls_current_scope->arena_ : nullptr;
}

StringInterner::StringInterner(std::size_t block_bytes)
    : arena_(block_bytes) {}

InternedString StringInterner::Intern(std::string_view s) {
  if (auto it = map_.find(s); it != map_.end()) {
    ++hits_;
    return {it->first, it->second};
  }
  char* copy = static_cast<char*>(arena_.Allocate(s.size(), 1));
  std::copy(s.begin(), s.end(), copy);
  const std::string_view stable(copy, s.size());
  const std::uint64_t hash = FnvHash(stable);
  map_.emplace(stable, hash);
  payload_bytes_ += s.size();
  return {stable, hash};
}

}  // namespace clflow::common
