#include "formats/h5f.hpp"

#include <algorithm>
#include <utility>

namespace dds::formats {

namespace {
constexpr std::uint32_t kMagic = 0x4c35'4844;  // "DH5L"
constexpr std::uint16_t kVersion = 1;
/// magic | version | samples_per_chunk | num_samples | num_chunks
constexpr std::uint64_t kHeaderBytes = sizeof(std::uint32_t) +
                                       sizeof(std::uint16_t) +
                                       sizeof(std::uint32_t) +
                                       2 * sizeof(std::uint64_t);
/// One chunk-table entry: offset | length | first_sample.
constexpr std::uint64_t kChunkEntryBytes = 3 * sizeof(std::uint64_t);
/// One per-chunk sample entry: rel_offset | length.
constexpr std::uint64_t kSampleEntryBytes = 2 * sizeof(std::uint64_t);
}  // namespace

void H5fWriter::stage(fs::ParallelFileSystem& fs, const std::string& path,
                      const datagen::SyntheticDataset& dataset,
                      std::uint32_t samples_per_chunk) {
  DDS_CHECK(samples_per_chunk >= 1);
  const std::uint64_t n = dataset.size();
  const std::uint64_t num_chunks =
      (n + samples_per_chunk - 1) / samples_per_chunk;
  const auto chunk_first = [&](std::uint64_t c) {
    return c * samples_per_chunk;
  };
  const auto chunk_last = [&](std::uint64_t c) {
    return std::min(n, chunk_first(c) + samples_per_chunk);
  };

  // Make every sample once; the serialized sizes fix every chunk's size,
  // so the container is allocated once at its final size and written in
  // place.
  std::vector<graph::GraphSample> samples;
  std::vector<std::uint64_t> lengths;
  samples.reserve(n);
  lengths.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    samples.push_back(dataset.make(i));
    lengths.push_back(samples.back().serialized_size());
  }
  std::vector<std::uint64_t> chunk_bytes(num_chunks);
  std::uint64_t size = kHeaderBytes + num_chunks * kChunkEntryBytes;
  for (std::uint64_t c = 0; c < num_chunks; ++c) {
    chunk_bytes[c] = sizeof(std::uint32_t) +
                     (chunk_last(c) - chunk_first(c)) * kSampleEntryBytes;
    for (std::uint64_t i = chunk_first(c); i < chunk_last(c); ++i) {
      chunk_bytes[c] += lengths[i];
    }
    size += chunk_bytes[c];
  }

  ByteBuffer file;
  file.reserve(size);
  BinaryWriter w(file);
  w.write(kMagic);
  w.write(kVersion);
  w.write(samples_per_chunk);
  w.write(n);
  w.write(num_chunks);
  std::uint64_t offset = kHeaderBytes + num_chunks * kChunkEntryBytes;
  for (std::uint64_t c = 0; c < num_chunks; ++c) {
    w.write<std::uint64_t>(offset);
    w.write<std::uint64_t>(chunk_bytes[c]);
    w.write<std::uint64_t>(chunk_first(c));
    offset += chunk_bytes[c];
  }
  for (std::uint64_t c = 0; c < num_chunks; ++c) {
    const std::uint64_t first = chunk_first(c);
    const std::uint64_t last = chunk_last(c);
    w.write<std::uint32_t>(static_cast<std::uint32_t>(last - first));
    std::uint64_t rel =
        sizeof(std::uint32_t) + (last - first) * kSampleEntryBytes;
    for (std::uint64_t i = first; i < last; ++i) {
      w.write<std::uint64_t>(rel);
      w.write<std::uint64_t>(lengths[i]);
      rel += lengths[i];
    }
    for (std::uint64_t i = first; i < last; ++i) samples[i].serialize(file);
  }
  DDS_CHECK(file.size() == size);

  const std::uint64_t nominal = std::max<std::uint64_t>(
      dataset.spec().nominal_cff_sample_bytes() * n, file.size());
  fs.write_file(path, std::move(file), nominal);
}

H5fReader::H5fReader(fs::ParallelFileSystem& fs, std::string path,
                     std::uint64_t nominal_sample_bytes, DecodeCost decode)
    : path_(std::move(path)),
      nominal_sample_bytes_(nominal_sample_bytes),
      decode_(decode) {
  // Parse the index in place, from the FS object itself.
  ref_ = fs.make_ref(path_);
  const ByteSpan raw(*ref_.payload);
  BinaryReader r{raw};
  if (r.read<std::uint32_t>() != kMagic) {
    throw DataError("H5fReader: bad magic in " + path_);
  }
  if (r.read<std::uint16_t>() != kVersion) {
    throw DataError("H5fReader: unsupported version in " + path_);
  }
  samples_per_chunk_ = r.read<std::uint32_t>();
  num_samples_ = r.read<std::uint64_t>();
  const auto num_chunks = r.read<std::uint64_t>();
  if (samples_per_chunk_ == 0 ||
      num_chunks > r.remaining() / kChunkEntryBytes ||
      num_samples_ > r.remaining() / kSampleEntryBytes) {
    throw DataError("H5fReader: corrupt header in " + path_);
  }
  chunk_offset_.reserve(num_chunks);
  chunk_length_.reserve(num_chunks);
  chunk_first_.reserve(num_chunks);
  for (std::uint64_t c = 0; c < num_chunks; ++c) {
    chunk_offset_.push_back(r.read<std::uint64_t>());
    chunk_length_.push_back(r.read<std::uint64_t>());
    chunk_first_.push_back(r.read<std::uint64_t>());
    // Bounds are compared without adding, so corrupt entries cannot wrap
    // into range.
    if (chunk_length_[c] > raw.size() ||
        chunk_offset_[c] > raw.size() - chunk_length_[c]) {
      throw DataError("H5fReader: corrupt chunk index in " + path_);
    }
  }
  // Parse per-chunk sample tables.
  sample_offset_.assign(num_samples_, 0);
  sample_length_.assign(num_samples_, 0);
  for (std::uint64_t c = 0; c < num_chunks; ++c) {
    BinaryReader cr{raw.subspan(chunk_offset_[c], chunk_length_[c])};
    const auto count = cr.read<std::uint32_t>();
    if (count > num_samples_ || chunk_first_[c] > num_samples_ - count) {
      throw DataError("H5fReader: chunk overruns sample table in " + path_);
    }
    // locate() finds a sample's chunk as index / samples_per_chunk, so
    // chunk c must hold exactly the samples that division maps to it.
    if (count > samples_per_chunk_ ||
        chunk_first_[c] % samples_per_chunk_ != 0 ||
        chunk_first_[c] / samples_per_chunk_ != c) {
      throw DataError("H5fReader: chunk " + std::to_string(c) +
                      " is out of place in " + path_);
    }
    for (std::uint32_t i = 0; i < count; ++i) {
      const auto rel = cr.read<std::uint64_t>();
      const auto len = cr.read<std::uint64_t>();
      if (len > chunk_length_[c] || rel > chunk_length_[c] - len) {
        throw DataError("H5fReader: corrupt sample entry in " + path_);
      }
      sample_offset_[chunk_first_[c] + i] = chunk_offset_[c] + rel;
      sample_length_[chunk_first_[c] + i] = len;
    }
  }
  for (std::uint64_t i = 0; i < num_samples_; ++i) {
    if (sample_length_[i] == 0) {
      throw DataError("H5fReader: sample " + std::to_string(i) +
                      " missing from every chunk");
    }
  }
}

H5fReader::SampleLoc H5fReader::locate(std::uint64_t index) const {
  if (index >= num_samples_) {
    throw ConfigError("H5fReader: sample index out of range");
  }
  return SampleLoc{index / samples_per_chunk_, sample_offset_[index],
                   sample_length_[index]};
}

ByteBuffer H5fReader::read_bytes(std::uint64_t index,
                                 fs::FsClient& client) const {
  const SampleLoc loc = locate(index);
  // HDF5 chunked I/O: the WHOLE chunk moves through the library; we read
  // it (timed, random access) and slice the requested sample out.
  ByteBuffer chunk(chunk_length_[loc.chunk]);
  client.pread(ref_, MutableByteSpan(chunk), chunk_offset_[loc.chunk],
               /*sequential=*/false);
  const std::uint64_t rel = loc.abs_offset - chunk_offset_[loc.chunk];
  return ByteBuffer(chunk.begin() + static_cast<std::ptrdiff_t>(rel),
                    chunk.begin() + static_cast<std::ptrdiff_t>(rel +
                                                                loc.length));
}

ByteBuffer H5fReader::read_bytes_raw(std::uint64_t index) const {
  const SampleLoc loc = locate(index);
  DDS_CHECK(ref_.payload != nullptr);
  const auto* base = ref_.payload->data() + loc.abs_offset;
  return ByteBuffer(base, base + loc.length);
}

graph::GraphSample H5fReader::read(std::uint64_t index,
                                   fs::FsClient& client) const {
  const ByteBuffer bytes = read_bytes(index, client);
  decode_.charge(client.clock(), nominal_sample_bytes_);
  return graph::GraphSample::deserialize(bytes);
}

}  // namespace dds::formats
