#include "mem/cache.hpp"

#include "sim/check.hpp"

#include <bit>
#include <cassert>
#include <cstring>

namespace ccsim::mem {

DataCache::DataCache(std::size_t size_bytes) {
  const std::size_t sets = size_bytes / kBlockSize;
  assert(std::has_single_bit(sets) && "cache size must give a power-of-two set count");
  lines_.resize(sets);
}

std::uint64_t DataCache::read(Addr addr, std::size_t size) const {
  CCSIM_CHECK(within_word(addr, size),
              "addr=%#llx size=%zu: cache read crosses a word boundary",
              static_cast<unsigned long long>(addr), size);
  const CacheLine& l = set_for(block_of(addr));
  CCSIM_CHECK(l.valid() && l.block == block_of(addr),
              "addr=%#llx block=%#llx: cache read of a non-resident line "
              "(set holds %#llx, state %u)",
              static_cast<unsigned long long>(addr),
              static_cast<unsigned long long>(block_of(addr)),
              static_cast<unsigned long long>(l.block),
              static_cast<unsigned>(l.state));
  std::uint64_t v = 0;
  std::memcpy(&v, l.data.data() + offset_of(addr), size);
  return v;
}

void DataCache::write(Addr addr, std::size_t size, std::uint64_t value) {
  CCSIM_CHECK(within_word(addr, size),
              "addr=%#llx size=%zu: cache write crosses a word boundary",
              static_cast<unsigned long long>(addr), size);
  CacheLine& l = set_for(block_of(addr));
  CCSIM_CHECK(l.valid() && l.block == block_of(addr),
              "addr=%#llx block=%#llx: cache write to a non-resident line "
              "(set holds %#llx, state %u)",
              static_cast<unsigned long long>(addr),
              static_cast<unsigned long long>(block_of(addr)),
              static_cast<unsigned long long>(l.block),
              static_cast<unsigned>(l.state));
  std::memcpy(l.data.data() + offset_of(addr), &value, size);
}

void DataCache::notify(BlockAddr b) {
  if (watchers_.empty()) return;
  // Move the fired watchers out first: one may re-subscribe synchronously,
  // and that subscription waits for the next change. A nested notify()
  // finds firing_ moved-from and builds its own list.
  std::vector<Watcher> fire = std::move(firing_);
  fire.clear();
  auto keep = watchers_.begin();
  for (auto& w : watchers_) {
    if (w.block == b) {
      fire.push_back(std::move(w));
    } else {
      if (&*keep != &w) *keep = std::move(w);
      ++keep;
    }
  }
  watchers_.erase(keep, watchers_.end());
  for (auto& w : fire) w.fn();
  fire.clear();
  firing_ = std::move(fire);
}

} // namespace ccsim::mem
