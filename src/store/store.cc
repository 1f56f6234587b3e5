#include "src/store/store.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "src/support/strings.h"

namespace fs = std::filesystem;

namespace dnsv {
namespace {

// Bump when the container format below changes; old files then read as
// corrupt and are recomputed (and eventually GC'd), never misparsed.
constexpr int kFileFormatVersion = 1;
constexpr char kMagic[] = "dnsvstore";

// One artifact file:
//   dnsvstore <ver> <kind>\n
//   key <len>\n<key bytes>\n
//   payload <len> <fnv1a64 hex>\n<payload bytes>\n
// The trailing newline doubles as an exact-length check: the file must end
// right after it, so truncation and appended garbage both fail verification.
std::string EncodeFile(const std::string& kind, const std::string& key,
                       const std::string& payload) {
  std::string out = StrCat(kMagic, " ", kFileFormatVersion, " ", kind, "\n");
  out += StrCat("key ", key.size(), "\n");
  out += key;
  out += '\n';
  out += StrCat("payload ", payload.size(), " ", HexU64(Fnv1a64(payload)), "\n");
  out += payload;
  out += '\n';
  return out;
}

// Splits off the next '\n'-terminated line; false when none remains.
bool TakeLine(std::string_view* rest, std::string_view* line) {
  size_t pos = rest->find('\n');
  if (pos == std::string_view::npos) return false;
  *line = rest->substr(0, pos);
  rest->remove_prefix(pos + 1);
  return true;
}

// Parses one artifact file; on success fills *key/*payload. Returns false on
// any structural defect.
bool DecodeFile(std::string_view data, std::string* key, std::string* payload) {
  std::string_view line;
  if (!TakeLine(&data, &line)) return false;
  std::vector<std::string> header = SplitString(std::string(line), ' ');
  if (header.size() != 3 || header[0] != kMagic ||
      header[1] != StrCat(kFileFormatVersion)) {
    return false;
  }
  if (!TakeLine(&data, &line)) return false;
  int64_t key_len = 0;
  if (!StartsWith(line, "key ") || !ParseInt64(line.substr(4), &key_len) || key_len < 0 ||
      static_cast<size_t>(key_len) + 1 > data.size()) {
    return false;
  }
  *key = std::string(data.substr(0, static_cast<size_t>(key_len)));
  data.remove_prefix(static_cast<size_t>(key_len));
  if (data.empty() || data[0] != '\n') return false;
  data.remove_prefix(1);
  if (!TakeLine(&data, &line)) return false;
  if (!StartsWith(line, "payload ")) return false;
  std::vector<std::string> fields = SplitString(std::string(line.substr(8)), ' ');
  int64_t payload_len = 0;
  if (fields.size() != 2 || !ParseInt64(fields[0], &payload_len) || payload_len < 0 ||
      fields[1].size() != 16) {
    return false;
  }
  // Exact length: the payload plus its final newline must be ALL that is left.
  if (data.size() != static_cast<size_t>(payload_len) + 1 || data.back() != '\n') {
    return false;
  }
  *payload = std::string(data.substr(0, static_cast<size_t>(payload_len)));
  if (HexU64(Fnv1a64(*payload)) != fields[1]) return false;
  return true;
}

int64_t MtimeNs(const fs::path& path) {
  std::error_code ec;
  fs::file_time_type t = fs::last_write_time(path, ec);
  if (ec) return 0;
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count();
}

}  // namespace

ArtifactStore::ArtifactStore(std::string root) : root_(std::move(root)) {}

ArtifactStore* ArtifactStore::FromEnv() {
  const char* dir = std::getenv("DNSV_STORE_DIR");
  if (dir == nullptr || dir[0] == '\0') {
    return nullptr;
  }
  // One instance per directory, never destroyed (mirrors QueryCache::Global).
  static std::mutex* mu = new std::mutex();
  static std::map<std::string, ArtifactStore*>* stores =
      new std::map<std::string, ArtifactStore*>();
  std::lock_guard<std::mutex> lock(*mu);
  auto [it, inserted] = stores->emplace(dir, nullptr);
  if (inserted) {
    it->second = new ArtifactStore(dir);
  }
  return it->second;
}

std::string ArtifactStore::PathFor(const std::string& kind, const std::string& key) const {
  // The key itself is arbitrary text; the file name is its content hash. The
  // key is stored (and re-checked) inside the file, so an fnv collision
  // degrades to a miss, never to wrong data.
  return (fs::path(root_) / kind / (HexU64(Fnv1a64(key)) + ".art")).string();
}

bool ArtifactStore::Put(const std::string& kind, const std::string& key,
                        const std::string& payload) {
  fs::path path = PathFor(kind, key);
  std::error_code ec;
  fs::create_directories(path.parent_path(), ec);
  uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = ++temp_seq_;
  }
  fs::path tmp = path;
  tmp += StrCat(".tmp.", static_cast<long long>(::getpid()), ".", seq);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.write_failures;
      return false;
    }
    std::string file = EncodeFile(kind, key, payload);
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
    out.close();
    if (!out) {
      fs::remove(tmp, ec);
      std::lock_guard<std::mutex> lock(mu_);
      ++counters_.write_failures;
      return false;
    }
  }
  fs::rename(tmp, path, ec);
  if (ec) {
    fs::remove(tmp, ec);
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.write_failures;
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.writes;
  return true;
}

std::optional<std::string> ArtifactStore::ReadVerified(const std::string& path,
                                                       const std::string& key, bool* corrupt,
                                                       std::string* stored_key) {
  *corrupt = false;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return std::nullopt;  // absent: a plain miss, not corruption
  }
  std::string data((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    *corrupt = true;
    return std::nullopt;
  }
  std::string file_key, payload;
  if (!DecodeFile(data, &file_key, &payload)) {
    *corrupt = true;
    return std::nullopt;
  }
  if (stored_key != nullptr) *stored_key = file_key;
  if (!key.empty() && file_key != key) {
    *corrupt = true;  // hash collision or renamed file: treat as damage
    return std::nullopt;
  }
  return payload;
}

std::optional<std::string> ArtifactStore::Get(const std::string& kind, const std::string& key) {
  std::string path = PathFor(kind, key);
  bool corrupt = false;
  std::optional<std::string> payload = ReadVerified(path, key, &corrupt, nullptr);
  if (payload.has_value()) {
    // Refresh the LRU clock; best-effort.
    std::error_code ec;
    fs::last_write_time(path, fs::file_time_type::clock::now(), ec);
    std::lock_guard<std::mutex> lock(mu_);
    ++counters_.hits;
    return payload;
  }
  std::lock_guard<std::mutex> lock(mu_);
  ++counters_.misses;
  if (corrupt) ++counters_.corrupt_rejected;
  return std::nullopt;
}

std::vector<ArtifactStore::Entry> ArtifactStore::List() {
  std::vector<Entry> entries;
  std::error_code ec;
  if (!fs::is_directory(root_, ec)) {
    return entries;
  }
  for (const fs::directory_entry& kind_dir : fs::directory_iterator(root_, ec)) {
    if (!kind_dir.is_directory()) continue;
    std::string kind = kind_dir.path().filename().string();
    std::error_code iter_ec;
    for (const fs::directory_entry& file : fs::directory_iterator(kind_dir.path(), iter_ec)) {
      if (!file.is_regular_file()) continue;
      if (file.path().extension() != ".art") continue;  // skip in-flight temps
      Entry entry;
      entry.kind = kind;
      entry.path = file.path().string();
      entry.bytes = static_cast<uint64_t>(file.file_size(ec));
      entry.mtime_ns = MtimeNs(file.path());
      bool corrupt = false;
      // Empty expected key: verify structure + checksum, recover stored key.
      std::optional<std::string> payload =
          ReadVerified(entry.path, "", &corrupt, &entry.key);
      entry.corrupt = !payload.has_value();
      entries.push_back(std::move(entry));
    }
  }
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    return a.kind != b.kind ? a.kind < b.kind : a.path < b.path;
  });
  return entries;
}

ArtifactStore::StoreStats ArtifactStore::GetStats() {
  StoreStats stats;
  for (const Entry& entry : List()) {
    KindStats& kind = stats.kinds[entry.kind];
    ++kind.count;
    kind.bytes += static_cast<int64_t>(entry.bytes);
    ++stats.total_count;
    stats.total_bytes += static_cast<int64_t>(entry.bytes);
    if (entry.corrupt) ++stats.corrupt_count;
  }
  return stats;
}

int64_t ArtifactStore::GC(int64_t max_bytes) {
  std::vector<Entry> entries = List();
  // Corrupt files first (they can never hit), then least-recently-used.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.corrupt != b.corrupt) return a.corrupt;
    return a.mtime_ns < b.mtime_ns;
  });
  int64_t total = 0;
  for (const Entry& entry : entries) {
    total += static_cast<int64_t>(entry.bytes);
  }
  int64_t removed = 0;
  std::error_code ec;
  for (const Entry& entry : entries) {
    if (!entry.corrupt && total <= max_bytes) break;
    if (fs::remove(entry.path, ec)) {
      total -= static_cast<int64_t>(entry.bytes);
      ++removed;
    }
  }
  return removed;
}

int64_t ArtifactStore::Clear() {
  int64_t removed = 0;
  std::error_code ec;
  for (const Entry& entry : List()) {
    if (fs::remove(entry.path, ec)) ++removed;
  }
  return removed;
}

ArtifactStore::Counters ArtifactStore::counters() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_;
}

}  // namespace dnsv
