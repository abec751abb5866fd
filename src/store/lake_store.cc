#include "store/lake_store.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <ostream>

#include "common/fault.h"
#include "common/obs/op.h"
#include "common/strings.h"
#include "store/mmap_blob.h"

namespace fs = std::filesystem;

namespace seagull {

namespace {

/// Staging files for atomic writes live next to their target under this
/// name prefix; `List` skips them so a concurrent writer never leaks a
/// half-written key into a listing.
constexpr char kTmpPrefix[] = ".seagull-tmp.";

/// A temporary lake's directory, removed with everything under it when
/// the last `LakeStore` copy sharing it is destroyed.
class TempDir {
 public:
  explicit TempDir(std::string path) : path_(std::move(path)) {}
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }

 private:
  std::string path_;
};

}  // namespace

Result<LakeStore> LakeStore::Open(const std::string& root_dir) {
  std::error_code ec;
  fs::create_directories(root_dir, ec);
  if (ec) {
    return Status::IOError("cannot create lake root '" + root_dir +
                           "': " + ec.message());
  }
  return LakeStore(fs::absolute(root_dir).string());
}

Result<LakeStore> LakeStore::OpenTemporary(const std::string& name_hint) {
  std::error_code ec;
  const fs::path base = fs::temp_directory_path(ec);
  if (ec) return Status::IOError("no temp directory: " + ec.message());
  std::string dir =
      (base / ("seagull-lake-" + name_hint + "-XXXXXX")).string();
  if (::mkdtemp(dir.data()) == nullptr) {
    return Status::IOError("cannot create lake root '" + dir +
                           "': " + std::strerror(errno));
  }
  LakeStore lake(dir);
  lake.temp_dir_ = std::make_shared<const TempDir>(std::move(dir));
  return lake;
}

Result<std::string> LakeStore::ResolvePath(const std::string& key) const {
  if (key.empty() || key.front() == '/' || key.find("..") != std::string::npos) {
    return Status::Invalid("invalid lake key: '" + key + "'");
  }
  return (fs::path(root_) / key).string();
}

Status LakeStore::WriteAtomic(
    const std::string& key,
    const std::function<Status(std::ostream&)>& writer) const {
  SEAGULL_ASSIGN_OR_RETURN(std::string path, ResolvePath(key));
  fs::path target(path);
  std::error_code ec;
  if (target.has_parent_path()) {
    fs::create_directories(target.parent_path(), ec);
    if (ec) return Status::IOError("mkdir failed: " + ec.message());
  }
  // Stage in the target's directory so the final rename never crosses a
  // filesystem boundary. Replacing via rename (not in-place truncate)
  // keeps the old inode alive under any live mmap of the previous blob.
  static std::atomic<uint64_t> tmp_counter{0};
  fs::path tmp =
      target.parent_path() /
      StringPrintf("%s%s.%lld.%llu", kTmpPrefix,
                   target.filename().string().c_str(),
                   static_cast<long long>(::getpid()),
                   static_cast<unsigned long long>(tmp_counter.fetch_add(1)));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::IOError("cannot write blob: " + key);
    Status st = writer(out);
    if (!st.ok()) {
      out.close();
      fs::remove(tmp, ec);
      return st;
    }
    out.flush();
    if (!out) {
      out.close();
      fs::remove(tmp, ec);
      return Status::IOError("short write: " + key);
    }
  }
  fs::rename(tmp, target, ec);
  if (ec) {
    std::error_code ignored;
    fs::remove(tmp, ignored);
    return Status::IOError("rename failed for blob '" + key +
                           "': " + ec.message());
  }
  return Status::OK();
}

Status LakeStore::Put(const std::string& key,
                      const std::string& content) const {
  ObsOp op("seagull.lake", "put");
  return op.Done([&]() -> Status {
    SEAGULL_FAULT_POINT("lake.put", key);
    return WriteAtomic(key, [&](std::ostream& out) -> Status {
      out.write(content.data(),
                static_cast<std::streamsize>(content.size()));
      return Status::OK();
    });
  }());
}

Status LakeStore::PutStreamed(
    const std::string& key,
    const std::function<Status(std::ostream&)>& writer) const {
  ObsOp op("seagull.lake", "put");
  return op.Done([&]() -> Status {
    SEAGULL_FAULT_POINT("lake.put", key);
    return WriteAtomic(key, writer);
  }());
}

Result<BlobRef> LakeStore::GetBlob(const std::string& key) const {
  ObsOp op("seagull.lake", "get_blob");
  return op.Done([&]() -> Result<BlobRef> {
    SEAGULL_ASSIGN_OR_RETURN(std::string path, ResolvePath(key));
    SEAGULL_FAULT_POINT("lake.get", key);
    return MmapBlob::Map(path, key);
  }());
}

bool LakeStore::Exists(const std::string& key) const {
  auto path = ResolvePath(key);
  if (!path.ok()) return false;
  return fs::exists(*path);
}

Status LakeStore::Delete(const std::string& key) const {
  ObsOp op("seagull.lake", "delete");
  return op.Done([&]() -> Status {
    SEAGULL_ASSIGN_OR_RETURN(std::string path, ResolvePath(key));
    std::error_code ec;
    if (!fs::remove(path, ec) || ec) {
      return Status::NotFound("cannot delete blob: " + key);
    }
    return Status::OK();
  }());
}

Result<std::vector<std::string>> LakeStore::List(
    const std::string& prefix) const {
  ObsOp op("seagull.lake", "list");
  return op.Done([&]() -> Result<std::vector<std::string>> {
    SEAGULL_FAULT_POINT("lake.list", prefix);
    std::vector<std::string> keys;
    if (prefix.find("..") != std::string::npos ||
        (!prefix.empty() && prefix.front() == '/')) {
      return keys;  // no key can match an escaping prefix
    }
    // Walk only the deepest directory the prefix implies instead of the
    // whole lake: "telemetry/region-m/week-" starts the scan at
    // telemetry/region-m/.
    fs::path root(root_);
    fs::path start = root;
    const size_t last_slash = prefix.rfind('/');
    if (last_slash != std::string::npos) {
      start /= prefix.substr(0, last_slash);
    }
    std::error_code ec;
    if (!fs::exists(start, ec)) return keys;
    for (auto it = fs::recursive_directory_iterator(start, ec);
         it != fs::recursive_directory_iterator(); it.increment(ec)) {
      if (ec) return Status::IOError("listing failed: " + ec.message());
      if (!it->is_regular_file()) continue;
      if (StartsWith(it->path().filename().string(), kTmpPrefix)) continue;
      std::string rel = fs::relative(it->path(), root).generic_string();
      if (StartsWith(rel, prefix)) keys.push_back(rel);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }());
}

Result<int64_t> LakeStore::SizeOf(const std::string& key) const {
  SEAGULL_ASSIGN_OR_RETURN(std::string path, ResolvePath(key));
  std::error_code ec;
  auto size = fs::file_size(path, ec);
  if (ec) return Status::NotFound("no such blob: " + key);
  return static_cast<int64_t>(size);
}

std::string LakeStore::TelemetryKey(const std::string& region,
                                    int64_t week_index) {
  return StringPrintf("telemetry/%s/week-%04lld.sgb", region.c_str(),
                      static_cast<long long>(week_index));
}

}  // namespace seagull
