#include "campaign/store.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "common/json.hpp"
#include "common/json_writer.hpp"
#include "common/prestage_assert.hpp"

namespace prestage::campaign {

std::string encode_line(const PointResult& r) {
  std::ostringstream out;
  JsonWriter json(out, JsonWriter::Style::Compact);
  json.begin_object();
  json.field("key", r.key);
  json.field("preset", r.preset);
  json.field("config", r.config);
  json.field("node", r.node);
  json.field("l1i_size", r.l1i_size);
  json.field("benchmark", r.benchmark);
  json.field("instructions", r.instructions);
  json.field("seed", r.seed);
  json.key("result");
  json.begin_object();
  cpu::write_result_body(json, r.result);
  // Additive sampling block: only sampled estimates carry it, so every
  // full-run store (and golden pin) stays byte-identical.
  if (r.result.sampled) {
    json.key("sampling");
    json.begin_object();
    cpu::write_sampling_fields(json, r.result);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return out.str();
}

PointResult decode_line(std::string_view line) {
  const json::Value doc = json::parse(line);
  PointResult r;
  r.key = doc.at("key").as_string();
  if (r.key.empty()) throw json::JsonError("empty result key");
  r.preset = doc.at("preset").as_string();
  // Stores written before the open-configuration layer have no config
  // field; the preset spelling was canonical then.
  r.config = doc.has("config") ? doc.at("config").as_string() : r.preset;
  r.node = doc.at("node").as_string();
  r.benchmark = doc.at("benchmark").as_string();
  r.l1i_size = doc.at("l1i_size").as_u64();
  r.instructions = doc.at("instructions").as_u64();
  r.seed = doc.at("seed").as_u64();
  r.result = cpu::read_result_body(doc.at("result"));
  r.result.benchmark = r.benchmark;
  return r;
}

std::size_t load_jsonl(const std::string& path,
                       const std::function<void(std::string)>& add) {
  std::ifstream in(path);
  std::size_t dropped = 0;
  for (std::string line; std::getline(in, line);) {
    if (line.empty()) continue;
    try {
      add(std::move(line));
    } catch (const json::JsonError&) {
      ++dropped;
    }
  }
  return dropped;
}

ResultStore ResultStore::load(const std::string& path) {
  ResultStore store;
  store.stats_.skipped = load_jsonl(path, [&store](std::string line) {
    PointResult r = decode_line(line);
    store.insert_raw(std::move(r), std::move(line));
    ++store.stats_.loaded;
  });
  return store;
}

void ResultStore::insert(PointResult r) {
  std::string raw = encode_line(r);
  insert_raw(std::move(r), std::move(raw));
}

void ResultStore::insert_raw(PointResult r, std::string raw) {
  const auto [it, fresh] = index_.emplace(r.key, entries_.size());
  (void)it;
  if (!fresh) return;  // first record for a key wins
  entries_.push_back(std::move(r));
  raw_lines_.push_back(std::move(raw));
}

const PointResult* ResultStore::find(const std::string& key) const {
  const auto it = index_.find(key);
  return it == index_.end() ? nullptr : &entries_[it->second];
}

struct LineAppender::Impl {
  std::string path;
  std::ofstream out;
  std::optional<faults::Site> site;
  int fsync_fd = -1;  ///< durable mode: fd fsynced after every flush
};

LineAppender::LineAppender(const std::string& path,
                           std::optional<faults::Site> site, bool durable)
    : impl_(new Impl{path, {}, site, -1}) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);  // open() reports errors
  }
  // A run killed mid-append can leave a torn final line with no newline.
  // load() already drops that line, but appending straight onto it would
  // corrupt the first recomputed record too — so terminate it first.
  bool torn_tail = false;
  {
    std::ifstream probe(path, std::ios::binary | std::ios::ate);
    if (probe && probe.tellg() > 0) {
      probe.seekg(-1, std::ios::end);
      char last = '\n';
      torn_tail = probe.get(last) && last != '\n';
    }
  }
  impl_->out.open(path, std::ios::app);
  if (!impl_->out) {
    const std::string message =
        "cannot open result store '" + path + "' for appending";
    delete impl_;
    impl_ = nullptr;
    throw SimError(message);
  }
  if (torn_tail) impl_->out << '\n';
#if defined(__unix__) || defined(__APPLE__)
  if (durable) {
    // A separate fd on the same file, only ever fsynced: the ofstream
    // keeps owning the writes, durability rides alongside. Failure to
    // open it degrades to the non-durable mode rather than aborting —
    // the data path itself is intact.
    impl_->fsync_fd = ::open(path.c_str(), O_WRONLY | O_APPEND);
  }
#else
  (void)durable;  // flush-per-line is the best a bare ofstream offers
#endif
}

LineAppender::~LineAppender() {
#if defined(__unix__) || defined(__APPLE__)
  if (impl_ != nullptr && impl_->fsync_fd >= 0) ::close(impl_->fsync_fd);
#endif
  delete impl_;
}

void LineAppender::append_line(const std::string& line) {
  if (impl_->site &&
      faults::check(*impl_->site, line) == faults::Action::Torn) {
    // Simulated power cut mid-write: half the line, no newline, then
    // die with the crash harness's exit code. The next open's torn-tail
    // termination and the loader's corrupt-line drop must heal this.
    impl_->out.write(line.data(),
                     static_cast<std::streamsize>(line.size() / 2));
    impl_->out.flush();
    std::_Exit(137);
  }
  impl_->out << line << '\n';
  impl_->out.flush();
  PRESTAGE_ASSERT(impl_->out.good(),
                  "write to result store '" + impl_->path + "' failed");
#if defined(__unix__) || defined(__APPLE__)
  if (impl_->fsync_fd >= 0) ::fsync(impl_->fsync_fd);
#endif
}

}  // namespace prestage::campaign
