#include "core/prestage_buffer.hpp"

#include "common/prestage_assert.hpp"

namespace prestage::core {

PrestageBuffer::PrestageBuffer(std::uint32_t entries) : entries_(entries) {
  PRESTAGE_ASSERT(entries >= 1, "prestage buffer needs at least one entry");
}

PrestageBuffer::Entry* PrestageBuffer::lookup(Addr line) {
  for (Entry& e : entries_) {
    if (e.allocated && e.line == line) return &e;
  }
  return nullptr;
}

const PrestageBuffer::Entry* PrestageBuffer::find(Addr line) const {
  return const_cast<PrestageBuffer*>(this)->lookup(line);
}

const PrestageBuffer::Entry* PrestageBuffer::allocate(Addr line) {
  // One pass checks that no entry holds the line yet and finds the
  // victim: the first empty slot, else the LRU unpinned entry.
  Entry* empty = nullptr;
  Entry* lru = nullptr;
  for (Entry& e : entries_) {
    if (!e.allocated) {
      if (empty == nullptr) empty = &e;
      continue;
    }
    PRESTAGE_ASSERT(e.line != line, "allocate of resident line");
    if (e.consumers > 0) continue;  // pinned by consumers
    if (lru == nullptr || e.lru < lru->lru) lru = &e;
  }
  Entry* victim = empty != nullptr ? empty : lru;
  if (victim == nullptr) return nullptr;
  const std::uint64_t gen = victim->gen + 1;
  *victim = Entry{line, 1, kNoCycle, ++lru_clock_, gen, true, false};
  return victim;
}

void PrestageBuffer::on_fetch(Addr line) {
  Entry* e = lookup(line);
  PRESTAGE_ASSERT(e != nullptr, "prestage consume of absent line");
  if (e->consumers > 0) --e->consumers;
  e->lru = ++lru_clock_;
}

void PrestageBuffer::add_consumer(Addr line) {
  Entry* e = lookup(line);
  PRESTAGE_ASSERT(e != nullptr, "add_consumer on absent line");
  if (e->consumers < 0xFFFFFFFFu) ++e->consumers;
}

void PrestageBuffer::release(Addr line) {
  Entry* e = lookup(line);
  PRESTAGE_ASSERT(e != nullptr, "release of absent line");
  e->consumers = 0;
}

bool PrestageBuffer::fill(const Entry& e, std::uint64_t gen, Cycle ready) {
  if (!e.allocated || e.gen != gen) return false;
  Entry& w = writable(e);
  w.ready = ready;
  w.valid = true;
  return true;
}

void PrestageBuffer::reset_consumers() {
  for (Entry& e : entries_) e.consumers = 0;
}

void PrestageBuffer::settle_due(Cycle now) {
  settle_floor_ = kNoCycle;
  for (Entry& e : entries_) {
    if (!e.allocated || e.valid || e.ready == kNoCycle) continue;
    if (e.ready <= now) {
      e.valid = true;
    } else if (e.ready < settle_floor_) {
      settle_floor_ = e.ready;
    }
  }
}

std::uint32_t PrestageBuffer::pinned_entries() const {
  std::uint32_t n = 0;
  for (const Entry& e : entries_) n += (e.allocated && e.consumers > 0);
  return n;
}

}  // namespace prestage::core
