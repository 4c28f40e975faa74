#include "prefetch/prefetch_buffer.hpp"

#include "cacti/storage.hpp"
#include "common/prestage_assert.hpp"

namespace prestage::prefetch {

PrefetchBuffer::PrefetchBuffer(const PrefetchBufferConfig& config,
                               Arrival arrival, mem::IFetchCaches& caches,
                               mem::MemSystem& mem)
    : config_(config),
      arrival_(arrival),
      caches_(caches),
      mem_(mem),
      port_(config.latency, config.pipelined),
      entries_(config.entries) {
  PRESTAGE_ASSERT(config.entries >= 1);
}

PrefetchBuffer::Entry* PrefetchBuffer::allocate() {
  Entry* victim = nullptr;
  for (Entry& e : entries_) {
    if (!e.allocated) return &e;
  }
  // LRU fallback over arrived-but-unused entries (see header).
  for (Entry& e : entries_) {
    if (!e.valid) continue;  // in-flight entries cannot be reclaimed
    if (victim == nullptr || e.lru < victim->lru) victim = &e;
  }
  return victim;
}

void PrefetchBuffer::consume(Addr line) {
  Entry* e = find(line);
  PRESTAGE_ASSERT(e != nullptr, "PB consume of absent line");
  e->lru = ++lru_clock_;
  if (e->valid || arrival_ == Arrival::Assumed) {
    promote_and_free(*e);
  } else {
    e->promote_on_fill = true;
  }
}

void PrefetchBuffer::promote_and_free(Entry& e) {
  // Paper §3.1/§3.1.1: a used line moves to the I-cache (L0 if present),
  // and the entry becomes available for new prefetches.
  caches_.fill_promoted(e.line);
  e.allocated = false;
  e.valid = false;
  e.promote_on_fill = false;
}

IssueResult PrefetchBuffer::issue(Addr line, Cycle now) {
  Entry* e = allocate();
  if (e == nullptr) return IssueResult::Full;
  if (caches_.probe_l1(line)) {
    if (!caches_.prefetch_port().can_accept(now)) return IssueResult::PortBusy;
    const Cycle done = caches_.prefetch_port().issue(now);
    *e = Entry{line, done, ++lru_clock_, e->gen + 1, true,
               arrival_ == Arrival::Assumed, false};
    if (arrival_ == Arrival::Tracked && done < pending_) pending_ = done;
    sources_.add(FetchSource::L1);
    prefetches_issued.add();
    return IssueResult::Started;
  }
  *e = Entry{line, kNoCycle, ++lru_clock_, e->gen + 1, true, false, false};
  const std::uint64_t gen = e->gen;
  Entry* slot = e;
  mem_.submit(mem::ReqType::IPrefetch, line, now,
              [this, slot, line, gen](FetchSource src, Cycle ready) {
                if (!slot->allocated || slot->gen != gen ||
                    slot->line != line) {
                  return;  // entry was reclaimed meanwhile
                }
                slot->ready = ready;
                slot->valid = true;
                sources_.add(src);
                if (slot->promote_on_fill) promote_and_free(*slot);
              });
  prefetches_issued.add();
  return IssueResult::Started;
}

void PrefetchBuffer::prestage(Addr line, Cycle now) {
  if (contains(line)) {
    sources_.add(FetchSource::PreBuffer);
    return;
  }
  if (caches_.probe_l0(line)) {
    sources_.add(FetchSource::L0);
    return;
  }
  (void)issue(line, now);
}

void PrefetchBuffer::settle_due(Cycle now) {
  pending_ = kNoCycle;
  for (Entry& e : entries_) {
    if (!e.allocated || e.valid || e.ready == kNoCycle) continue;
    if (e.ready <= now) {
      e.valid = true;
      if (e.promote_on_fill) promote_and_free(e);
    } else if (e.ready < pending_) {
      pending_ = e.ready;
    }
  }
}

bool PrefetchBuffer::can_allocate() const {
  for (const Entry& e : entries_) {
    if (!e.allocated || e.valid) return true;
  }
  return false;
}

std::uint64_t PrefetchBuffer::storage_bits() const {
  return cacti::line_buffer_bits(config_.entries, config_.line_bytes, 2);
}

}  // namespace prestage::prefetch
