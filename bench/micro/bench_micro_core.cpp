// Micro-benchmarks (google-benchmark): the hot primitives underneath
// every experiment — registry lookups, placement arithmetic, the sample
// checksum, sample (de)serialization, batch collation, spectrum smoothing,
// page-cache access, and the contention primitive.  These measure real
// wall time of this implementation (unlike the figure benches, which
// report simulated time).
#include <benchmark/benchmark.h>

#include "common/checksum.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "core/registry.hpp"
#include "datagen/molecule.hpp"
#include "fs/pagecache.hpp"
#include "graph/batch.hpp"
#include "model/clock.hpp"

namespace {

using namespace dds;

void BM_RegistryLookup(benchmark::State& state) {
  const core::ChunkAssignment assignment(100'000, 64, core::Placement::Block);
  std::vector<std::uint32_t> lengths(100'000, 2000);
  std::vector<std::size_t> counts;
  for (int g = 0; g < 64; ++g) counts.push_back(assignment.chunk_size(g));
  const auto reg = core::DataRegistry::build(assignment, lengths, counts);
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg->lookup(rng.uniform_u64(100'000)));
  }
}
BENCHMARK(BM_RegistryLookup);

void BM_ChunkOwnerOf(benchmark::State& state) {
  const core::ChunkAssignment assignment(10'500'000, 384,
                                         core::Placement::Block);
  Rng rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        assignment.owner_of(rng.uniform_u64(10'500'000)));
  }
}
BENCHMARK(BM_ChunkOwnerOf);

void BM_SampleSerialize(benchmark::State& state) {
  Rng rng(3);
  const datagen::Molecule mol = datagen::generate_molecule(rng);
  const auto sample = datagen::molecule_to_sample(mol, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sample.to_bytes());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sample.serialized_size()));
}
BENCHMARK(BM_SampleSerialize);

void BM_SampleDeserialize(benchmark::State& state) {
  Rng rng(4);
  const datagen::Molecule mol = datagen::generate_molecule(rng);
  const ByteBuffer bytes = datagen::molecule_to_sample(mol, 0).to_bytes();
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::GraphSample::deserialize(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_SampleDeserialize);

// The per-sample integrity check every verified fetch (and every preload
// sample) pays on the host.  Arg 0 digests one serialized molecule sample;
// a positive arg digests a zero-filled buffer of that many bytes.
void BM_Checksum64(benchmark::State& state) {
  ByteBuffer bytes(static_cast<std::size_t>(state.range(0)));
  if (bytes.empty()) {
    Rng rng(10);
    bytes = datagen::molecule_to_sample(datagen::generate_molecule(rng), 0)
                .to_bytes();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(checksum64(ByteSpan(bytes)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_Checksum64)->Arg(0)->Arg(64 << 10);

void BM_CollateBatch(benchmark::State& state) {
  Rng rng(5);
  std::vector<graph::GraphSample> samples;
  for (int i = 0; i < state.range(0); ++i) {
    const datagen::Molecule mol = datagen::generate_molecule(rng);
    samples.push_back(
        datagen::molecule_to_sample(mol, static_cast<std::uint64_t>(i)));
    samples.back().y = {0.0f};
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(graph::GraphBatch::collate(samples));
  }
}
BENCHMARK(BM_CollateBatch)->Arg(32)->Arg(128);

void BM_SmoothSpectrum(benchmark::State& state) {
  Rng rng(6);
  const datagen::Molecule mol = datagen::generate_molecule(rng);
  std::vector<float> pos, inten;
  datagen::uv_peaks(mol, rng, pos, inten);
  const auto bins = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(datagen::smooth_spectrum(pos, inten, bins));
  }
}
BENCHMARK(BM_SmoothSpectrum)->Arg(351)->Arg(37500);

void BM_PageCacheAccess(benchmark::State& state) {
  fs::PageCache cache(1 << 30);
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        cache.access(1, rng.uniform_u64(2048), 1 << 20));
  }
}
BENCHMARK(BM_PageCacheAccess);

void BM_BusyResourceAcquire(benchmark::State& state) {
  static model::BusyResource resource;
  for (auto _ : state) {
    benchmark::DoNotOptimize(resource.acquire(0.0, 1e-9));
  }
}
BENCHMARK(BM_BusyResourceAcquire);

void BM_RngPermutation(benchmark::State& state) {
  Rng rng(8);
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.permutation(n));
  }
}
BENCHMARK(BM_RngPermutation)->Arg(1 << 14)->Arg(1 << 18);

void BM_LatencyPercentile(benchmark::State& state) {
  Rng rng(9);
  LatencyRecorder rec;
  for (int i = 0; i < 100'000; ++i) rec.add(rng.exponential(1000.0));
  for (auto _ : state) {
    // Re-sorting dominates the first call; subsequent calls are cached.
    benchmark::DoNotOptimize(rec.percentile(99.0));
  }
}
BENCHMARK(BM_LatencyPercentile);

}  // namespace

BENCHMARK_MAIN();
