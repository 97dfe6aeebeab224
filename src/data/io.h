#ifndef DJ_DATA_IO_H_
#define DJ_DATA_IO_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "common/thread_pool.h"
#include "data/dataset.h"

namespace dj::data {

/// Reads a whole file into a string.
Result<std::string> ReadFile(const std::string& path);

/// Writes `content` to `path`, creating parent directories.
Status WriteFile(const std::string& path, std::string_view content);

/// Parses JSON-Lines content: one strict-JSON object per non-empty line.
/// With a pool, the buffer splits at newline boundaries into per-thread
/// chunks that are indexed and parsed concurrently; the result (rows,
/// column order, error line numbers) is identical to the serial parse.
/// Lines must be under 2 GiB; the input may be any size.
Result<Dataset> ParseJsonl(std::string_view content,
                           ThreadPool* pool = nullptr);

/// ParseJsonl of the contents of the file at `path`; an error is
/// Corruption prefixed with the path.
Result<Dataset> ParseJsonlFile(std::string_view path, std::string_view content,
                               ThreadPool* pool = nullptr);

/// Reads a .jsonl file into a dataset.
Result<Dataset> ReadJsonl(const std::string& path, ThreadPool* pool = nullptr);

/// Serializes the dataset as JSONL (null cells omitted, one row per line).
/// With a pool, row ranges stringify concurrently and gather in order;
/// output is byte-identical to the serial form.
std::string ToJsonl(const Dataset& dataset, ThreadPool* pool = nullptr);

/// Writes the dataset to a .jsonl file. The pooled row-range parts of
/// ToJsonl go to the file in order without being joined first.
Status WriteJsonl(const Dataset& dataset, const std::string& path,
                  ThreadPool* pool = nullptr);

/// Binary cache codec for datasets (magic "DJDS"). Deterministic; used by
/// the per-OP cache and checkpoint layers, optionally djlz-compressed there.
///
/// The current container is version 3: a checksummed header (row/column
/// counts, column names) followed by a shard table and N independently
/// decodable row-range shards, each with a byte length and checksum.
/// The blob is allocated once at its exact size; shards are encoded in
/// place and decoded straight into whole columns, on `pool` when given.
/// The byte stream depends only on the dataset and `num_shards` (0 =
/// deterministic auto from the row count), so serial and parallel runs
/// produce identical blobs. Other container versions are rejected as
/// Corruption.
std::string SerializeDataset(const Dataset& dataset, ThreadPool* pool = nullptr,
                             size_t num_shards = 0);
Result<Dataset> DeserializeDataset(std::string_view bytes,
                                   ThreadPool* pool = nullptr);

/// Binary codec for a single JSON value (shared with the dataset codec).
void SerializeValue(const json::Value& v, std::string* out);
Result<json::Value> DeserializeValue(std::string_view bytes);

/// Suffix-dispatched export: ".jsonl" (text), ".djds" (binary), or
/// ".djds.djlz" (binary, djlz-compressed). The compressed form is what the
/// cache layer writes; exposing it here lets pipelines ship compact
/// processed datasets. Serialization and compression run on `pool`.
Status ExportDataset(const Dataset& dataset, const std::string& path,
                     ThreadPool* pool = nullptr);

/// Inverse of ExportDataset (same suffix dispatch): ReadFile, then
/// DecodeImport.
Result<Dataset> ImportDataset(const std::string& path,
                              ThreadPool* pool = nullptr);

/// The decode step of ImportDataset: `bytes` are the contents of a file
/// named `path`, whose suffix picks the codec.
Result<Dataset> DecodeImport(std::string_view path, std::string_view bytes,
                             ThreadPool* pool = nullptr);

}  // namespace dj::data

#endif  // DJ_DATA_IO_H_
