#include "formats/pff.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

namespace dds::formats {

std::string PffWriter::sample_path(const std::string& prefix,
                                   std::uint64_t index) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%010llu.pkl",
                static_cast<unsigned long long>(index));
  return prefix + "/" + buf;
}

void PffWriter::stage(fs::ParallelFileSystem& fs, const std::string& prefix,
                      const datagen::SyntheticDataset& dataset) {
  const std::uint64_t nominal = dataset.spec().nominal_pff_sample_bytes();
  for (std::uint64_t i = 0; i < dataset.size(); ++i) {
    ByteBuffer bytes = dataset.make(i).to_bytes();
    // Nominal size can never be below the real payload; take the max so
    // tiny scaled samples still stamp the paper-scale size.
    const std::uint64_t nominal_size =
        std::max<std::uint64_t>(nominal, bytes.size());
    fs.write_file(sample_path(prefix, i), std::move(bytes), nominal_size);
  }
}

PffReader::PffReader(fs::ParallelFileSystem& fs, std::string prefix,
                     std::uint64_t num_samples,
                     std::uint64_t nominal_sample_bytes, DecodeCost decode)
    : fs_(&fs),
      prefix_(std::move(prefix)),
      num_samples_(num_samples),
      nominal_sample_bytes_(nominal_sample_bytes),
      decode_(decode) {
  DDS_CHECK(num_samples > 0);
  // Fail fast on a mis-staged dataset: first and last sample must exist.
  if (!fs.exists(PffWriter::sample_path(prefix_, 0)) ||
      !fs.exists(PffWriter::sample_path(prefix_, num_samples - 1))) {
    throw IoError("PffReader: dataset not staged under prefix " + prefix_);
  }
}

ByteBuffer PffReader::read_bytes(std::uint64_t index,
                                 fs::FsClient& client) const {
  if (index >= num_samples_) {
    throw ConfigError("PffReader: sample index out of range");
  }
  return client.read_file(PffWriter::sample_path(prefix_, index));
}

ByteBuffer PffReader::read_bytes_raw(std::uint64_t index) const {
  if (index >= num_samples_) {
    throw ConfigError("PffReader: sample index out of range");
  }
  return fs_->read_file_raw(PffWriter::sample_path(prefix_, index));
}

graph::GraphSample PffReader::read(std::uint64_t index,
                                   fs::FsClient& client) const {
  const ByteBuffer bytes = read_bytes(index, client);
  decode_.charge(client.clock(), nominal_sample_bytes_);
  return graph::GraphSample::deserialize(bytes);
}

}  // namespace dds::formats
