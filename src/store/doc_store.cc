#include "store/doc_store.h"

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "common/fault.h"
#include "common/obs/op.h"

namespace seagull {

Status Container::Upsert(Document doc) {
  ObsOp op("seagull.doc", "upsert");
  return op.Done([&]() -> Status {
    SEAGULL_FAULT_POINT("doc.upsert",
                        name_ + '/' + doc.partition_key + '/' + doc.id);
    std::lock_guard<std::mutex> lock(mu_);
    Key key{doc.partition_key, doc.id};
    docs_[key] = std::move(doc);
    return Status::OK();
  }());
}

Status Container::Insert(Document doc) {
  ObsOp op("seagull.doc", "insert");
  return op.Done([&]() -> Status {
    SEAGULL_FAULT_POINT("doc.insert",
                        name_ + '/' + doc.partition_key + '/' + doc.id);
    std::lock_guard<std::mutex> lock(mu_);
    Key key{doc.partition_key, doc.id};
    auto [it, inserted] = docs_.emplace(key, std::move(doc));
    (void)it;
    if (!inserted) {
      return Status::AlreadyExists("document exists: " + key.first + "/" +
                                   key.second);
    }
    return Status::OK();
  }());
}

Result<Document> Container::Get(const std::string& partition_key,
                                const std::string& id) const {
  ObsOp op("seagull.doc", "get");
  return op.Done([&]() -> Result<Document> {
    SEAGULL_FAULT_POINT("doc.get", name_ + '/' + partition_key + '/' + id);
    std::lock_guard<std::mutex> lock(mu_);
    auto it = docs_.find({partition_key, id});
    if (it == docs_.end()) {
      return Status::NotFound("no document: " + partition_key + "/" + id);
    }
    return it->second;
  }());
}

Status Container::Delete(const std::string& partition_key,
                         const std::string& id) {
  ObsOp op("seagull.doc", "delete");
  return op.Done([&]() -> Status {
    std::lock_guard<std::mutex> lock(mu_);
    if (docs_.erase({partition_key, id}) == 0) {
      return Status::NotFound("no document: " + partition_key + "/" + id);
    }
    return Status::OK();
  }());
}

std::vector<Document> Container::ReadPartition(
    const std::string& partition_key) const {
  ObsOp op("seagull.doc", "read_partition");
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Document> out;
  for (auto it = docs_.lower_bound({partition_key, ""});
       it != docs_.end() && it->first.first == partition_key; ++it) {
    out.push_back(it->second);
  }
  op.Done(Status::OK());
  return out;
}

int64_t Container::DropPartition(const std::string& partition_key) {
  ObsOp op("seagull.doc", "drop_partition");
  std::lock_guard<std::mutex> lock(mu_);
  auto begin = docs_.lower_bound({partition_key, ""});
  auto end = begin;
  while (end != docs_.end() && end->first.first == partition_key) ++end;
  int64_t dropped = static_cast<int64_t>(std::distance(begin, end));
  docs_.erase(begin, end);
  op.Done(Status::OK());
  return dropped;
}

std::vector<Document> Container::Query(
    const std::function<bool(const Document&)>& pred) const {
  ObsOp op("seagull.doc", "query");
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<Document> out;
  for (const auto& [key, doc] : docs_) {
    if (pred(doc)) out.push_back(doc);
  }
  op.Done(Status::OK());
  return out;
}

int64_t Container::Count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int64_t>(docs_.size());
}

Container* DocStore::GetContainer(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = containers_.find(name);
  if (it == containers_.end()) {
    it = containers_.emplace(name, std::make_unique<Container>(name)).first;
  }
  return it->second.get();
}

int64_t DocStore::DropPartition(const std::string& partition_key) {
  std::vector<Container*> containers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    containers.reserve(containers_.size());
    for (const auto& [name, c] : containers_) containers.push_back(c.get());
  }
  int64_t dropped = 0;
  for (Container* c : containers) dropped += c->DropPartition(partition_key);
  return dropped;
}

std::vector<std::string> DocStore::ContainerNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, c] : containers_) names.push_back(name);
  return names;
}

Json DocStore::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Json root = Json::MakeObject();
  for (const auto& [name, container] : containers_) {
    Json arr = Json::MakeArray();
    for (const auto& doc : container->Query([](const Document&) {
           return true;
         })) {
      Json d = Json::MakeObject();
      d["pk"] = doc.partition_key;
      d["id"] = doc.id;
      d["body"] = doc.body;
      arr.Append(std::move(d));
    }
    root[name] = std::move(arr);
  }
  return root;
}

Status DocStore::Restore(const Json& snapshot) {
  if (!snapshot.is_object()) {
    return Status::Invalid("snapshot must be a JSON object");
  }
  std::lock_guard<std::mutex> lock(mu_);
  containers_.clear();
  for (const auto& [name, arr] : snapshot.AsObject()) {
    if (!arr.is_array()) {
      return Status::Invalid("container snapshot must be an array: " + name);
    }
    auto container = std::make_unique<Container>(name);
    for (const auto& d : arr.AsArray()) {
      Document doc;
      SEAGULL_ASSIGN_OR_RETURN(doc.partition_key, d.GetString("pk"));
      SEAGULL_ASSIGN_OR_RETURN(doc.id, d.GetString("id"));
      doc.body = d["body"];
      SEAGULL_RETURN_NOT_OK(container->Upsert(std::move(doc)));
    }
    containers_.emplace(name, std::move(container));
  }
  return Status::OK();
}

Status DocStore::SaveToFile(const std::string& path) const {
  std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
    if (ec) return Status::IOError("mkdir failed: " + ec.message());
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot write snapshot: " + path);
  out << Snapshot().Dump();
  if (!out) return Status::IOError("short write: " + path);
  return Status::OK();
}

Status DocStore::LoadFromFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no snapshot file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  SEAGULL_ASSIGN_OR_RETURN(Json snapshot, Json::Parse(buf.str()));
  return Restore(snapshot);
}

}  // namespace seagull
