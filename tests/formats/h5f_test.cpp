#include "formats/h5f.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <string>
#include <utility>

#include "datagen/dataset.hpp"

namespace dds::formats {
namespace {

using datagen::DatasetKind;
using model::test_machine;

class H5fTest : public ::testing::Test {
 protected:
  H5fTest()
      : fs_(test_machine().fs, 2),
        ds_(datagen::make_dataset(DatasetKind::AisdHomoLumo, 25, 3)),
        client_(fs_, 0, clock_, rng_) {}

  fs::ParallelFileSystem fs_;
  std::unique_ptr<datagen::SyntheticDataset> ds_;
  model::VirtualClock clock_;
  Rng rng_{4};
  fs::FsClient client_;
};

TEST_F(H5fTest, RoundTripAcrossChunkSizes) {
  for (const std::uint32_t chunk : {1u, 4u, 8u, 25u, 100u}) {
    const std::string path = "h5-" + std::to_string(chunk);
    H5fWriter::stage(fs_, path, *ds_, chunk);
    H5fReader reader(fs_, path, ds_->spec().nominal_cff_sample_bytes());
    EXPECT_EQ(reader.num_samples(), 25u);
    EXPECT_EQ(reader.samples_per_chunk(), chunk);
    EXPECT_EQ(reader.num_chunks(), (25 + chunk - 1) / chunk);
    for (std::uint64_t i = 0; i < 25; ++i) {
      EXPECT_EQ(reader.read(i, client_), ds_->make(i))
          << "chunk " << chunk << " sample " << i;
    }
  }
}

TEST_F(H5fTest, RawAndTimedReadsAgree) {
  H5fWriter::stage(fs_, "h5", *ds_, 4);
  H5fReader reader(fs_, "h5", 1000);
  for (std::uint64_t i = 0; i < 25; i += 3) {
    EXPECT_EQ(reader.read_bytes_raw(i), reader.read_bytes(i, client_));
  }
}

TEST_F(H5fTest, ChunkNeighboursBecomeCacheHits) {
  H5fWriter::stage(fs_, "h5", *ds_, 8);
  H5fReader reader(fs_, "h5", 1000);
  const double t0 = clock_.now();
  reader.read_bytes(0, client_);  // cold: whole chunk through the FS
  const double cold = clock_.now() - t0;
  const double t1 = clock_.now();
  reader.read_bytes(1, client_);  // same chunk: cached blocks
  const double warm = clock_.now() - t1;
  EXPECT_LT(warm, cold);
}

TEST_F(H5fTest, LargerChunksReadMoreNominalBytes) {
  const auto spec_nominal = ds_->spec().nominal_cff_sample_bytes();
  H5fWriter::stage(fs_, "small", *ds_, 1);
  H5fWriter::stage(fs_, "large", *ds_, 25);
  H5fReader small(fs_, "small", spec_nominal);
  H5fReader large(fs_, "large", spec_nominal);
  client_.reset_stats();
  small.read_bytes(10, client_);
  const auto small_bytes = client_.stats().nominal_bytes_read;
  client_.reset_stats();
  large.read_bytes(10, client_);
  EXPECT_GT(client_.stats().nominal_bytes_read, small_bytes);
}

TEST_F(H5fTest, CorruptMagicRejected) {
  H5fWriter::stage(fs_, "h5", *ds_, 4);
  ByteBuffer raw = fs_.read_file_raw("h5");
  raw[0] = std::byte{0x00};
  fs_.write_file("h5", raw, fs_.nominal_file_size("h5"));
  EXPECT_THROW(H5fReader(fs_, "h5", 1000), DataError);
}

TEST_F(H5fTest, TruncatedFileRejected) {
  H5fWriter::stage(fs_, "h5", *ds_, 4);
  ByteBuffer raw = fs_.read_file_raw("h5");
  raw.resize(raw.size() * 2 / 3);
  fs_.write_file("h5", raw);
  EXPECT_THROW(H5fReader(fs_, "h5", 1000), DataError);
}

/// Byte offset of chunk `c`'s table entry {offset, length, first_sample}.
std::size_t chunk_entry_at(std::uint64_t c) {
  return 2 * sizeof(std::uint32_t) + sizeof(std::uint16_t) +
         2 * sizeof(std::uint64_t) + c * 3 * sizeof(std::uint64_t);
}

std::uint64_t load_u64(const ByteBuffer& raw, std::size_t at) {
  std::uint64_t v = 0;
  std::memcpy(&v, raw.data() + at, sizeof(v));
  return v;
}

void store_u64(ByteBuffer& raw, std::size_t at, std::uint64_t v) {
  std::memcpy(raw.data() + at, &v, sizeof(v));
}

/// Opens "h5" and returns the DataError message ("" when it opens).
std::string open_error(fs::ParallelFileSystem& fs) {
  try {
    H5fReader reader(fs, "h5", 1000);
  } catch (const DataError& e) {
    return e.what();
  }
  return "";
}

// Each index bound is compared without adding: a corrupt entry whose sum
// wraps must be rejected by that bound, not pass it.

TEST_F(H5fTest, ChunkEntryThatWrapsIsRejected) {
  H5fWriter::stage(fs_, "h5", *ds_, 4);
  ByteBuffer raw = fs_.read_file_raw("h5");
  store_u64(raw, chunk_entry_at(0), ~std::uint64_t{0} - 7);  // + 16 wraps to 8
  store_u64(raw, chunk_entry_at(0) + sizeof(std::uint64_t), 16);
  fs_.write_file("h5", std::move(raw));
  EXPECT_NE(open_error(fs_).find("corrupt chunk index"), std::string::npos);
}

TEST_F(H5fTest, SampleEntryThatWrapsIsRejected) {
  H5fWriter::stage(fs_, "h5", *ds_, 4);
  ByteBuffer raw = fs_.read_file_raw("h5");
  // Chunk 0's first sample entry {rel_offset, length} follows its count.
  const std::size_t entry =
      load_u64(raw, chunk_entry_at(0)) + sizeof(std::uint32_t);
  store_u64(raw, entry, ~std::uint64_t{0} - 7);  // + 16 wraps to 8
  store_u64(raw, entry + sizeof(std::uint64_t), 16);
  fs_.write_file("h5", std::move(raw));
  EXPECT_NE(open_error(fs_).find("corrupt sample entry"), std::string::npos);
}

TEST_F(H5fTest, ChunkFirstSampleThatWrapsIsRejected) {
  H5fWriter::stage(fs_, "h5", *ds_, 4);
  ByteBuffer raw = fs_.read_file_raw("h5");
  // first_sample 2^64-1 plus 4 samples wraps to 3.
  store_u64(raw, chunk_entry_at(0) + 2 * sizeof(std::uint64_t),
            ~std::uint64_t{0});
  fs_.write_file("h5", std::move(raw));
  EXPECT_NE(open_error(fs_).find("chunk overruns sample table"),
            std::string::npos);
}

TEST_F(H5fTest, ChunkTableOutOfOrderIsRejected) {
  // Swapped chunk entries still tile the samples, but a sample's chunk is
  // found by division: opening must fail, not read outside a chunk later.
  H5fWriter::stage(fs_, "h5", *ds_, 4);
  ByteBuffer raw = fs_.read_file_raw("h5");
  std::swap_ranges(raw.begin() + static_cast<std::ptrdiff_t>(chunk_entry_at(0)),
                   raw.begin() + static_cast<std::ptrdiff_t>(chunk_entry_at(1)),
                   raw.begin() + static_cast<std::ptrdiff_t>(chunk_entry_at(1)));
  fs_.write_file("h5", std::move(raw));
  EXPECT_NE(open_error(fs_).find("out of place"), std::string::npos);
}

TEST_F(H5fTest, HeaderCountsBeyondTheFileAreRejected) {
  // samples_per_chunk, num_samples and num_chunks: zero samples per chunk
  // and counts no file of this size can hold must fail as corrupt data
  // before they size an allocation or divide a sample index.
  constexpr std::size_t kSamplesPerChunkAt =
      sizeof(std::uint32_t) + sizeof(std::uint16_t);
  constexpr std::size_t kNumSamplesAt =
      kSamplesPerChunkAt + sizeof(std::uint32_t);
  constexpr std::size_t kNumChunksAt = kNumSamplesAt + sizeof(std::uint64_t);
  H5fWriter::stage(fs_, "h5", *ds_, 4);
  const ByteBuffer good = fs_.read_file_raw("h5");
  for (const std::size_t field : {kNumSamplesAt, kNumChunksAt}) {
    ByteBuffer raw = good;
    store_u64(raw, field, std::uint64_t{1} << 40);
    fs_.write_file("h5", std::move(raw));
    EXPECT_NE(open_error(fs_).find("corrupt header"), std::string::npos)
        << "field at byte " << field;
  }
  ByteBuffer raw = good;
  const std::uint32_t zero = 0;
  std::memcpy(raw.data() + kSamplesPerChunkAt, &zero, sizeof(zero));
  fs_.write_file("h5", std::move(raw));
  EXPECT_NE(open_error(fs_).find("corrupt header"), std::string::npos);
}

TEST_F(H5fTest, OutOfRangeThrows) {
  H5fWriter::stage(fs_, "h5", *ds_, 4);
  H5fReader reader(fs_, "h5", 1000);
  EXPECT_THROW(reader.read(25, client_), ConfigError);
}

TEST_F(H5fTest, NominalContainerSizeStamped) {
  H5fWriter::stage(fs_, "h5", *ds_, 8);
  EXPECT_GE(fs_.nominal_file_size("h5"),
            25 * ds_->spec().nominal_cff_sample_bytes());
}

}  // namespace
}  // namespace dds::formats
