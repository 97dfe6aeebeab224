#include "core/checkpoint.h"

#include <cstdio>
#include <filesystem>

#include "common/file_util.h"
#include "common/hash.h"
#include "data/io.h"
#include "fault/fault.h"
#include "json/parser.h"
#include "json/writer.h"

namespace dj::core {
namespace fs = std::filesystem;

std::string CheckpointManager::BlobFileFor(uint64_t pipeline_key) const {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(pipeline_key));
  return std::string("checkpoint-") + buf + ".djds";
}

void CheckpointManager::RemoveStaleBlobs(
    const std::string& keep_basename) const {
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    const std::string name = entry.path().filename().string();
    const bool stale_blob = name.rfind("checkpoint-", 0) == 0 &&
                            name != keep_basename;
    const bool stale_tmp =
        name.size() > 4 && name.compare(name.size() - 4, 4, ".tmp") == 0;
    if (stale_blob || stale_tmp) fs::remove(entry.path(), ec);
  }
}

Status CheckpointManager::Save(const CheckpointState& state) const {
  const std::string blob = data::SerializeDataset(state.dataset, pool_);
  const std::string blob_file = BlobFileFor(state.pipeline_key);
  const std::string blob_path = dir_ + "/" + blob_file;

  if (DJ_FAULT("ckpt.blob_write")) {
    // Simulated crash mid-blob-write: only a torn temp file lands on disk;
    // the previous checkpoint (if any) is untouched.
    WriteStringToFile(blob_path + ".tmp", std::string_view(blob).substr(
                                              0, blob.size() * 2 / 3));
    return Status::IoError("fault injected: ckpt.blob_write (torn blob temp)");
  }
  DJ_RETURN_IF_ERROR(WriteStringToFileAtomic(blob_path, blob));

  if (DJ_FAULT("ckpt.after_blob")) {
    // Simulated crash between blob and manifest: the new blob exists under
    // its own name, but the manifest still points at the previous blob —
    // the previous checkpoint stays fully loadable.
    return Status::IoError(
        "fault injected: ckpt.after_blob (crash between blob and manifest)");
  }

  json::Object manifest;
  manifest.Set("schema", json::Value(static_cast<int64_t>(2)));
  manifest.Set("next_op_index",
               json::Value(static_cast<int64_t>(state.next_op_index)));
  manifest.Set("pipeline_key",
               json::Value(static_cast<int64_t>(state.pipeline_key)));
  manifest.Set("num_rows",
               json::Value(static_cast<int64_t>(state.dataset.NumRows())));
  manifest.Set("blob_file", json::Value(blob_file));
  manifest.Set("blob_bytes", json::Value(static_cast<int64_t>(blob.size())));
  manifest.Set("blob_checksum",
               json::Value(static_cast<int64_t>(Fnv1a64(blob))));
  const std::string manifest_json =
      json::Write(json::Value(std::move(manifest)), {.pretty = true});

  if (DJ_FAULT("ckpt.manifest_write")) {
    WriteStringToFile(
        ManifestPath() + ".tmp",
        std::string_view(manifest_json).substr(0, manifest_json.size() / 2));
    return Status::IoError(
        "fault injected: ckpt.manifest_write (torn manifest temp)");
  }
  DJ_RETURN_IF_ERROR(WriteStringToFileAtomic(ManifestPath(), manifest_json));

  // The manifest now references the new blob; older blobs and stray temp
  // files from crashed Saves are garbage.
  RemoveStaleBlobs(blob_file);
  return Status::Ok();
}

Result<CheckpointState> CheckpointManager::LoadLatest() const {
  auto manifest_content = data::ReadFile(ManifestPath());
  if (!manifest_content.ok()) {
    return Status::NotFound("no checkpoint in " + dir_);
  }
  auto parsed = json::ParseStrict(manifest_content.value());
  if (!parsed.ok()) {
    return Status::Corruption("checkpoint manifest " + ManifestPath() +
                              " is unreadable (torn write?): " +
                              parsed.status().message());
  }
  const json::Value& manifest = parsed.value();

  // Only schema-2 manifests load: they name their blob file and carry the
  // size, checksum and row count every blob is verified against. Anything
  // else (older layouts included) is no usable checkpoint.
  const bool complete =
      manifest.is_object() && manifest.GetInt("schema", 0) == 2 &&
      manifest.GetString("blob_file", "") != "" &&
      manifest.GetInt("blob_bytes", -1) >= 0 &&
      manifest.as_object().Contains("blob_checksum") &&
      manifest.GetInt("num_rows", -1) >= 0;
  if (!complete) {
    return Status::Corruption(
        "checkpoint manifest " + ManifestPath() +
        " is not a schema-2 manifest with blob_file, blob_bytes, "
        "blob_checksum and num_rows");
  }
  const std::string blob_path =
      dir_ + "/" + manifest.GetString("blob_file", "");
  auto blob = data::ReadFile(blob_path);
  if (!blob.ok()) {
    return Status::Corruption("checkpoint manifest " + ManifestPath() +
                              " points at missing/unreadable blob '" +
                              blob_path + "': " + blob.status().message());
  }
  if (blob.value().size() !=
          static_cast<size_t>(manifest.GetInt("blob_bytes", -1)) ||
      Fnv1a64(blob.value()) !=
          static_cast<uint64_t>(manifest.GetInt("blob_checksum", 0))) {
    return Status::Corruption(
        "checkpoint blob '" + blob_path +
        "' does not match its manifest (checksum/size mismatch — torn or "
        "corrupted write); refusing to decode");
  }

  CheckpointState state;
  state.next_op_index =
      static_cast<size_t>(manifest.GetInt("next_op_index", 0));
  state.pipeline_key =
      static_cast<uint64_t>(manifest.GetInt("pipeline_key", 0));
  auto dataset = data::DeserializeDataset(blob.value(), pool_);
  if (!dataset.ok()) {
    return Status::Corruption("checkpoint blob '" + blob_path +
                              "' failed to decode: " +
                              dataset.status().message());
  }
  const int64_t want_rows = manifest.GetInt("num_rows", -1);
  if (dataset.value().NumRows() != static_cast<size_t>(want_rows)) {
    return Status::Corruption(
        "checkpoint blob '" + blob_path + "' decoded to " +
        std::to_string(dataset.value().NumRows()) + " rows but the manifest "
        "recorded " + std::to_string(want_rows));
  }
  state.dataset = std::move(dataset).value();
  return state;
}

Result<CheckpointState> CheckpointManager::LoadIfCompatible(
    uint64_t expected_key) const {
  auto state = LoadLatest();
  if (!state.ok()) return state;
  if (state.value().pipeline_key != expected_key) {
    return Status::NotFound("checkpoint pipeline key mismatch (recipe changed)");
  }
  return state;
}

void CheckpointManager::Clear() const {
  std::error_code ec;
  fs::remove(ManifestPath(), ec);
  fs::remove(ManifestPath() + ".tmp", ec);
  RemoveStaleBlobs(/*keep_basename=*/"");
}

}  // namespace dj::core
