#include "core/prestage_buffer.hpp"

#include "common/prestage_assert.hpp"

namespace prestage::core {

PrestageBuffer::PrestageBuffer(std::uint32_t entries) : entries_(entries) {
  PRESTAGE_ASSERT(entries >= 1, "prestage buffer needs at least one entry");
}

PrestageBuffer::Entry* PrestageBuffer::find(Addr line) {
  for (Entry& e : entries_) {
    if (e.allocated && e.line == line) return &e;
  }
  return nullptr;
}

const PrestageBuffer::Entry* PrestageBuffer::find(Addr line) const {
  return const_cast<PrestageBuffer*>(this)->find(line);
}

PrestageBuffer::Entry* PrestageBuffer::allocate(Addr line) {
  PRESTAGE_ASSERT(find(line) == nullptr, "allocate of resident line");
  Entry* victim = nullptr;
  for (Entry& e : entries_) {
    if (e.allocated && e.consumers > 0) continue;  // pinned by consumers
    if (!e.allocated) {
      victim = &e;  // an empty slot always wins
      break;
    }
    if (victim == nullptr || e.lru < victim->lru) victim = &e;
  }
  if (victim == nullptr) return nullptr;
  const std::uint64_t gen = victim->gen + 1;
  *victim = Entry{line, 1, kNoCycle, ++lru_clock_, gen, true, false};
  return victim;
}

void PrestageBuffer::on_fetch(Addr line) {
  Entry* e = find(line);
  PRESTAGE_ASSERT(e != nullptr, "prestage consume of absent line");
  if (e->consumers > 0) --e->consumers;
  e->lru = ++lru_clock_;
}

void PrestageBuffer::add_consumer(Addr line) {
  Entry* e = find(line);
  PRESTAGE_ASSERT(e != nullptr, "add_consumer on absent line");
  if (e->consumers < 0xFFFFFFFFu) ++e->consumers;
}

void PrestageBuffer::reset_consumers() {
  for (Entry& e : entries_) e.consumers = 0;
}

void PrestageBuffer::settle(Cycle now) {
  for (Entry& e : entries_) {
    if (e.allocated && !e.valid && e.ready != kNoCycle && e.ready <= now) {
      e.valid = true;
    }
  }
}

std::uint32_t PrestageBuffer::pinned_entries() const {
  std::uint32_t n = 0;
  for (const Entry& e : entries_) n += (e.allocated && e.consumers > 0);
  return n;
}

}  // namespace prestage::core
