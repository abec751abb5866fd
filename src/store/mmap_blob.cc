#include "store/mmap_blob.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <memory>

namespace seagull {

Result<BlobRef> MmapBlob::Map(const std::string& path,
                              const std::string& key) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::NotFound("no such blob: " + key);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IOError("stat failed: " + key);
  }
  const size_t len = static_cast<size_t>(st.st_size);
  void* addr = nullptr;
  if (len > 0) {
    addr = ::mmap(nullptr, len, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      return Status::IOError("mmap failed: " + key + ": " +
                             std::strerror(err));
    }
  }
  // The mapping outlives the descriptor; drop it now so a pinned blob
  // never holds an fd against the process limit.
  ::close(fd);
  auto blob = std::shared_ptr<const MmapBlob>(new MmapBlob(addr, len));
  return BlobRef(blob->bytes(), blob);
}

MmapBlob::~MmapBlob() {
  if (addr_ != nullptr) ::munmap(addr_, len_);
}

}  // namespace seagull
