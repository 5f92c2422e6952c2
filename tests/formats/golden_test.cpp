// Golden container bytes: every CFF subfile (serial and collective
// staging) and every H5F file staged from fixed datasets and seeds, pinned
// by size, nominal size and checksum64 digest.  A writer refactor must
// reproduce these exactly; a deliberate format change re-records them.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/checksum.hpp"
#include "datagen/dataset.hpp"
#include "formats/cff.hpp"
#include "formats/h5f.hpp"
#include "simmpi/runtime.hpp"

namespace dds::formats {
namespace {

struct Golden {
  const char* path;
  std::uint64_t size;
  std::uint64_t nominal_size;
  std::uint64_t digest;
};

constexpr Golden kGolden[] = {
    {"cff/ex/sub-0000.bp", 20822u, 36688u, 0x6347406f9221330cULL},
    {"cff/ex/sub-0001.bp", 20738u, 36688u, 0xa40b14ce6a045715ULL},
    {"cff/ising/sub-0000.bp", 42932u, 79267u, 0x88e838ba937bf247ULL},
    {"cff/ising/sub-0001.bp", 42932u, 79267u, 0xbe54e58b9093a588ULL},
    {"cff/ising/sub-0002.bp", 51514u, 95116u, 0xa9ced17e7e1b0998ULL},
    {"h5/ex", 41626u, 73140u, 0x8293a88c2bd083f7ULL},
    {"h5/ising", 137450u, 253328u, 0xbc0e54c0acdd9036ULL},
    {"par/ex/sub-0000.bp", 13774u, 24444u, 0xdc08cb070c8ac313ULL},
    {"par/ex/sub-0001.bp", 14758u, 24444u, 0xf1fe59aa6a319071ULL},
    {"par/ex/sub-0002.bp", 13050u, 24444u, 0xf67ab78e036c42bcULL},
};

TEST(ContainerGolden, StagedContainersMatchRecordedDigests) {
  const auto machine = model::test_machine();
  fs::ParallelFileSystem fs(machine.fs, 1);
  const auto ising = datagen::make_dataset(datagen::DatasetKind::Ising, 16, 4);
  const auto ex =
      datagen::make_dataset(datagen::DatasetKind::AisdExDiscrete, 12, 7);
  CffWriter::stage(fs, "cff/ising", *ising, 3);
  CffWriter::stage(fs, "cff/ex", *ex, 2);
  H5fWriter::stage(fs, "h5/ising", *ising, 5);
  H5fWriter::stage(fs, "h5/ex", *ex, 4);
  simmpi::Runtime rt(3, machine);
  rt.run([&](simmpi::Comm& c) {
    fs::FsClient client(fs, 0, c.clock(), c.rng());
    CffWriter::stage_parallel(c, client, fs, "par/ex", *ex);
  });

  ASSERT_EQ(fs.file_count(), std::size(kGolden));
  for (const Golden& g : kGolden) {
    SCOPED_TRACE(g.path);
    ASSERT_TRUE(fs.exists(g.path));
    const fs::FileRef ref = fs.make_ref(g.path);
    EXPECT_EQ(ref.actual_size, g.size);
    EXPECT_EQ(ref.nominal_size, g.nominal_size);
    EXPECT_EQ(checksum64(ByteSpan(*ref.payload)), g.digest);
  }
}

}  // namespace
}  // namespace dds::formats
