/// \file blob_ref.h
/// \brief `BlobRef`: a shared, immutable view of blob bytes that owns
/// its backing storage without saying what that storage is.
///
/// Lake reads hand out page-cache-backed mappings (store/mmap_blob.h),
/// and the streaming decode cursor (telemetry/series_block.h) must keep
/// those bytes alive without knowing how they are held. `BlobRef` is a
/// `string_view` of the bytes plus a type-erased `shared_ptr` keeping
/// whatever owns them alive. The empty (default-constructed) ref has no
/// bytes and no owner.
///
/// A `BlobRef` held by a reader pins the backing storage past a
/// replace or delete of the blob it was read from.

#pragma once

#include <memory>
#include <string_view>
#include <utility>

namespace seagull {

/// \brief Shared immutable bytes with type-erased ownership.
class BlobRef {
 public:
  /// Empty ref: no bytes, no owner. `operator bool` is false.
  BlobRef() = default;

  /// Ref aliasing `bytes`, kept valid by `owner` (an `MmapBlob` or any
  /// other storage whose lifetime covers the view). `owner` must be
  /// non-null; the bytes may legitimately be empty (an empty blob).
  BlobRef(std::string_view bytes, std::shared_ptr<const void> owner)
      : view_(bytes), owner_(std::move(owner)) {}

  /// True when the ref owns backing storage (even for an empty blob).
  explicit operator bool() const { return owner_ != nullptr; }

  std::string_view view() const { return view_; }
  const char* data() const { return view_.data(); }
  size_t size() const { return view_.size(); }

  /// The type-erased owner — what a pinning reader must keep alive.
  const std::shared_ptr<const void>& owner() const { return owner_; }

 private:
  std::string_view view_;
  std::shared_ptr<const void> owner_;  ///< set iff non-empty
};

}  // namespace seagull
